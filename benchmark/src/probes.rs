//! Process probes (peak memory, CPU time), the in-process machine ceilings
//! the per-layer roofline positions are taken against, and the small
//! statistics the report needs.

use gnn_dm_tensor::{ops, Matrix};
use std::hint::black_box;
use std::time::Instant;

/// Peak resident set of this process in MiB (`VmHWM`), 0 when `/proc` is
/// not there.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used. Fields
/// 14 and 15 of `/proc/self/stat` in clock ticks; Linux fixes `USER_HZ` at
/// 100 for every architecture the repo builds on.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; count from its closing ')'.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / USER_HZ
}

/// Linear-interpolated quantile of unsorted samples (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn median_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Compute ceiling: GFLOP/s of the k-tiled GEMM on 512³ (median of 7), at
/// the thread count the workload runs with.
pub fn peak_gflops() -> f64 {
    const N: usize = 512;
    let a = Matrix::from_fn(N, N, |r, c| ((r * 31 + c * 17) % 13) as f32 * 0.125 - 0.75);
    let b = Matrix::from_fn(N, N, |r, c| ((r * 7 + c * 29) % 11) as f32 * 0.25 - 1.25);
    let s = median_seconds(7, || {
        black_box(ops::matmul_tiled(black_box(&a), black_box(&b)));
    });
    2.0 * (N * N * N) as f64 / s * 1e-9
}

/// Memory ceiling: GB/s written by a 64 MiB copy split over the worker
/// threads in 1 MiB pieces (median of 5 after a first touch) — the bound a
/// parallel row gather runs under.
pub fn copy_gbps() -> f64 {
    const BYTES: usize = 64 << 20;
    const PIECE: usize = (1 << 20) / 4;
    let src = vec![1.0f32; BYTES / 4];
    let mut dst = vec![0.0f32; BYTES / 4];
    let mut copy = || {
        gnn_dm_par::par_chunks_mut(black_box(&mut dst[..]), PIECE, |i, piece| {
            piece.copy_from_slice(&src[i * PIECE..i * PIECE + piece.len()]);
        });
    };
    copy();
    BYTES as f64 / median_seconds(5, copy) * 1e-9
}

/// Microseconds one empty dispatch through the worker pool costs (median
/// of 1000), one task per thread.
pub fn dispatch_us() -> f64 {
    let tasks = gnn_dm_par::thread_count();
    let times: Vec<f64> = (0..1000)
        .map(|_| {
            let t = Instant::now();
            gnn_dm_par::par_for_each_init(
                tasks,
                || (),
                |_, i| {
                    black_box(i);
                },
            );
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// A fixed piece of work that uses none of the libraries, run between
/// iterations: the yardstick the iteration times are divided by. The
/// reference host is a shared virtual machine whose neighbours slow
/// throughput-bound code by up to 40 % for minutes at a time and
/// latency-bound code hardly at all (README, "Host noise"). The workloads
/// slow by about 30 % with it, so three quarters of a pass is
/// throughput-bound — independent multiply-adds on an L1 block — and the
/// rest a vectorised 8 MiB read and a dependent random walk through 4 MiB:
/// about 6 ms in all. The ratio of an iteration to a pass holds much better
/// than the seconds do. Editing the yardstick is editing the benchmark.
pub struct Yardstick {
    stream: Vec<f32>,
    walk: Vec<u32>,
}

impl Yardstick {
    /// Seconds a pass takes on the reference host while it is quiet; turns
    /// a time measured beside a yardstick pass into seconds at that speed.
    pub const QUIET_SECONDS: f64 = 6.0e-3;
    const STREAM_LEN: usize = 2 << 20;
    const WALK_LEN: usize = 1 << 20;
    const WALK_STEPS: usize = 12_000;
    const ARITHMETIC_STEPS: usize = 50_000;

    pub fn new() -> Yardstick {
        // Sattolo's shuffle with a fixed xorshift stream: one cycle through
        // all of `walk`, the same on every run.
        let mut walk: Vec<u32> = (0..Self::WALK_LEN as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..walk.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            walk.swap(i, (state % i as u64) as usize);
        }
        let stream = (0..Self::STREAM_LEN)
            .map(|i| (i % 7) as f32 * 0.25)
            .collect();
        Yardstick { stream, walk }
    }

    /// Seconds one pass takes right now on `threads` threads at once.
    pub fn seconds(&self, threads: usize) -> f64 {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(|| self.pass());
            }
            self.pass();
        });
        t.elapsed().as_secs_f64()
    }

    /// Starts timing something between two passes.
    pub fn start(&self, threads: usize) -> Beside<'_> {
        let before = self.seconds(threads);
        Beside {
            yardstick: self,
            threads,
            before,
            started: Instant::now(),
        }
    }

    fn pass(&self) {
        // Throughput-bound: independent fused multiply-adds over a block
        // that stays in L1, as many per cycle as the core issues.
        let mut block = [1.0f32; 1024];
        for _ in 0..Self::ARITHMETIC_STEPS {
            for x in &mut block {
                *x = x.mul_add(0.999_999, 1e-7);
            }
        }
        black_box(block);
        // Bandwidth-bound: eight running sums, so the adds vectorise and
        // the read is what takes the time.
        let mut sums = [0.0f32; 8];
        for chunk in self.stream.chunks_exact(8) {
            for (s, x) in sums.iter_mut().zip(chunk) {
                *s += x;
            }
        }
        black_box(sums);
        // Latency-bound.
        let mut at = 0u32;
        for _ in 0..Self::WALK_STEPS {
            at = self.walk[at as usize];
        }
        black_box(at);
    }
}

/// Something being timed between two yardstick passes.
pub struct Beside<'y> {
    yardstick: &'y Yardstick,
    threads: usize,
    before: f64,
    started: Instant,
}

impl Beside<'_> {
    /// Wall seconds since the start, and the mean of the pass before and
    /// the pass after.
    pub fn finish(self) -> (f64, f64) {
        let wall = self.started.elapsed().as_secs_f64();
        let after = self.yardstick.seconds(self.threads);
        (wall, (self.before + after) / 2.0)
    }
}
