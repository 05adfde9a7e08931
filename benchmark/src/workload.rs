//! What the four workloads share: their parameters, the shape of one
//! iteration's result, and the loop that drives them with tracing off (the
//! end-to-end run) or in lockstep with a traced twin (the per-layer run).

use crate::probes;
use crate::spans::Recorder;
use std::collections::BTreeMap;
use std::time::Instant;

/// The four workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MbWide,
    MbDeep,
    HeteroTransfer,
    ClusterEpoch,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::MbWide,
        Kind::MbDeep,
        Kind::HeteroTransfer,
        Kind::ClusterEpoch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::MbWide => "mb_wide",
            Kind::MbDeep => "mb_deep",
            Kind::HeteroTransfer => "hetero_transfer",
            Kind::ClusterEpoch => "cluster_epoch",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Iterations of a 30-second run: the issue's sizes, which the 2-core
    /// reference host gets through in 15 to 35 s. `--seconds S` scales them
    /// linearly, so a run measures a fixed amount of work — both sides of a
    /// comparison do the same iterations — that takes about S seconds there.
    /// (`mb_wide` is not stretched to fill its time: past its 80th epoch or
    /// so its iteration time is set by subnormal arithmetic, see the README.)
    fn iterations_at_30s(self) -> usize {
        match self {
            Kind::ClusterEpoch => 200,
            _ => 100,
        }
    }
}

/// Iterations the smoke mode runs on its tenth-size inputs.
const SMOKE_ITERATIONS: usize = 5;
/// The traced run replays kernels and reductions on every n-th iteration.
pub const REPLAY_EVERY: usize = 5;

/// Everything a run is a function of.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
    pub trace: bool,
}

impl Params {
    /// Divides an input size by ten in smoke mode.
    pub fn scaled(&self, n: usize) -> usize {
        if self.smoke {
            n / 10
        } else {
            n
        }
    }

    /// Iterations of the timed loop. The traced run drives every iteration
    /// twice (traced and untraced, in lockstep), so it takes half as many
    /// and costs the same wall time as the end-to-end run.
    pub fn iterations(&self) -> usize {
        if self.smoke {
            return SMOKE_ITERATIONS;
        }
        let full = (self.kind.iterations_at_30s() as u64 * self.seconds).div_ceil(30) as usize;
        let n = if self.trace { full.div_ceil(2) } else { full };
        n.max(SMOKE_ITERATIONS)
    }
}

/// What one iteration produced.
#[derive(Debug, Clone, PartialEq)]
pub struct IterOut {
    /// Simulated seconds the iteration's models answered.
    pub modelled_s: f64,
    /// Items processed: training seed vertices (`mb_*`), mini-batches priced
    /// (`hetero_transfer`), worker mini-batches simulated (`cluster_epoch`).
    pub items: u64,
    /// Bit patterns of every number the iteration computed that a later
    /// iteration or a check depends on; the traced and the untraced drive
    /// of one iteration must agree on all of them.
    pub bits: Vec<u64>,
}

/// Per-layer metric values by name.
pub type Layer = BTreeMap<&'static str, f64>;

/// One workload, set up and ready to iterate.
pub trait Workload {
    /// One iteration exactly as a user of the libraries would run it.
    fn iter_plain(&mut self, e: usize) -> IterOut;
    /// The same iteration re-driven from the public pieces, one span per
    /// call; `replay` asks for the extra timed replays too.
    fn iter_traced(&mut self, e: usize, rec: &mut Recorder, replay: bool) -> IterOut;
    /// Checks the outputs `iter_plain(e)` left behind, with the clock
    /// stopped: `(passed, total)` checks.
    fn check_iter(&mut self, e: usize) -> (u64, u64);
    /// After the loop, outside all timings: the run's `quality`, given the
    /// share of per-iteration checks passed, and one message per failed
    /// check that needs the whole run.
    fn finish(&mut self, checks_passed: f64) -> (f64, Vec<String>);
    /// Counters the traced drive gathered, as per-layer metrics.
    fn layer_counters(&self, layer: &mut Layer);
}

/// Result of the timed loop.
pub struct LoopResult {
    pub iterations: usize,
    /// Wall seconds of each untraced iteration.
    pub iter_s: Vec<f64>,
    /// Wall seconds of each traced iteration, replays taken out.
    pub traced_iter_s: Vec<f64>,
    pub items: u64,
    pub modelled_s: f64,
    pub quality: f64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Process CPU seconds over wall seconds across the loop.
    pub cpu_over_wall: f64,
    /// Seconds of the yardstick passes run before, between and after the
    /// iterations (one more than there are iterations).
    pub yardstick_s: Vec<f64>,
}

/// Drives `w` for `iterations`. With an enabled recorder every iteration
/// runs twice, traced and untraced, alternating which goes first; the two
/// must agree bit for bit.
pub fn drive(
    w: &mut dyn Workload,
    iterations: usize,
    rec: &mut Recorder,
    yardstick: &probes::Yardstick,
) -> LoopResult {
    let mut r = LoopResult {
        iterations,
        iter_s: Vec::with_capacity(iterations),
        traced_iter_s: Vec::new(),
        items: 0,
        modelled_s: 0.0,
        quality: 0.0,
        failed: 0,
        failures: Vec::new(),
        cpu_over_wall: 0.0,
        yardstick_s: Vec::new(),
    };
    let (mut passed, mut total) = (0u64, 0u64);
    let threads = gnn_dm_par::thread_count();
    r.yardstick_s.push(yardstick.seconds(threads));
    let (cpu0, wall0) = (probes::cpu_seconds(), Instant::now());
    for e in 0..iterations {
        let plain = |w: &mut dyn Workload| {
            let t = Instant::now();
            let out = w.iter_plain(e);
            (out, t.elapsed().as_secs_f64())
        };
        let traced = |w: &mut dyn Workload, rec: &mut Recorder| {
            rec.iter = e as i64;
            rec.span("iter", |rec| w.iter_traced(e, rec, e % REPLAY_EVERY == 0))
        };
        let (out, dt) = if !rec.enabled() {
            plain(w)
        } else {
            let (out, dt, twin) = if e % 2 == 0 {
                let twin = traced(w, rec);
                let (out, dt) = plain(w);
                (out, dt, twin)
            } else {
                let (out, dt) = plain(w);
                (out, dt, traced(w, rec))
            };
            if twin != out {
                r.failures
                    .push(format!("iteration {e}: traced drive differs from untraced"));
            }
            (out, dt)
        };
        r.iter_s.push(dt);
        r.yardstick_s.push(yardstick.seconds(threads));
        r.items += out.items;
        r.modelled_s += out.modelled_s;
        let (p, t) = w.check_iter(e);
        passed += p;
        total += t;
        if p < t || !out.modelled_s.is_finite() {
            r.failed += 1;
            r.failures.push(format!(
                "iteration {e}: {} of {t} output checks failed",
                t - p
            ));
        }
    }
    let wall = wall0.elapsed().as_secs_f64();
    r.cpu_over_wall = (probes::cpu_seconds() - cpu0) / wall;
    rec.iter = crate::spans::NO_ITER;
    r.traced_iter_s = rec.iteration_seconds();
    let (quality, failures) = w.finish(if total == 0 {
        1.0
    } else {
        passed as f64 / total as f64
    });
    r.quality = quality;
    r.failures.extend(failures);
    r
}
