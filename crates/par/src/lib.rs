//! Deterministic parallel execution substrate.
//!
//! Every multicore code path in the workspace goes through this crate (the
//! root `clippy.toml` bans raw `std::thread::{spawn, scope}`), so the
//! determinism argument lives in exactly one place. The contract every
//! helper upholds:
//!
//! * **Disjoint writes** — work is partitioned into chunks that own
//!   non-overlapping output regions; no two threads ever write the same
//!   element.
//! * **Fixed split points** — chunk boundaries depend only on the input
//!   length and the caller-chosen chunk length, never on the thread count.
//!   A chunk therefore computes the same values whether one thread or
//!   sixteen process the queue.
//! * **Ordered reassembly** — whenever results are collected or reduced,
//!   they are combined in chunk-index order, not completion order.
//! * **Seed splitting** — randomized tasks never share an RNG stream.
//!   [`split_seed`] derives an independent `u64` seed per task index from a
//!   base seed, following the workspace's existing u64-seed convention.
//!
//! Together these make every helper's output **bitwise-identical to serial
//! execution at any thread count** — the scheduler decides only *when* a
//! chunk runs, never *what* it computes or *where* the result lands.
//!
//! Execution is a persistent worker pool (`pool`): workers are spawned
//! lazily once per process, park on a condvar between dispatches, and claim
//! chunk indices from an atomic cursor (one `fetch_add` per chunk — no
//! queue lock, no per-call thread spawns). Results land in per-chunk slots
//! and are reassembled in index order by the caller. Thread count comes
//! from `GNN_DM_THREADS` (default: available parallelism; `1` forces the
//! fully serial path with no pool at all), or from the scoped
//! [`with_threads`] override used by tests.
//!
//! The `_init` dispatchers additionally give each participating thread a
//! private scratch state built by an `init` closure and reused across every
//! chunk that thread claims — an allocation arena for workloads (minibatch
//! sampling, packing buffers) that would otherwise churn per-task `Vec`s.
//! Which tasks share an arena is a scheduling accident, so the contract is:
//! observable output must depend only on the task index and inputs, never
//! on arena contents a previous task left behind.
//!
//! [`par_lookahead_init`] is the one helper that is not fork-join: an
//! ordered producer/consumer loop whose items idle workers build a bounded
//! window ahead while the caller consumes them — and dispatches fork-join
//! kernels of its own — in index order. Same contract: the scheduler picks
//! who builds item `i` and when, never what it is or when it is consumed.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]

use std::cell::Cell;
use std::sync::{Mutex, OnceLock, PoisonError};

mod pool;

/// Environment variable controlling the worker-pool size.
pub const THREADS_ENV: &str = "GNN_DM_THREADS";

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads the substrate will use, resolved in priority
/// order: the innermost active [`with_threads`] override, then the
/// `GNN_DM_THREADS` environment variable, then the machine's available
/// parallelism. Always at least 1; `1` means "run serially on the caller's
/// thread". The environment and the machine are read once per process —
/// every `par_*` call asks, and `available_parallelism` walks cgroup files
/// (~14 µs a call here, against ~16 dispatches per training step).
pub fn thread_count() -> usize {
    static PROCESS_DEFAULT: OnceLock<usize> = OnceLock::new();
    if let Some(n) = OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    *PROCESS_DEFAULT.get_or_init(|| {
        let from_env = std::env::var(THREADS_ENV).ok().and_then(|v| v.trim().parse().ok());
        match from_env {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism().map(usize::from).unwrap_or(1),
        }
    })
}

/// Runs `f` with the thread count pinned to `n` on the current thread
/// (nested calls see the innermost value; the previous value is restored
/// even if `f` panics). This is how tests compare thread counts without
/// mutating the process environment, which is racy under a parallel test
/// harness.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(Some(n.max(1)))));
    f()
}

/// Derives an independent per-task seed from a base seed and a task index
/// (SplitMix64-style finalizer). Tasks seeded this way have statistically
/// independent streams, and the derivation depends only on `(seed, index)` —
/// never on thread count or scheduling — so randomized parallel kernels
/// stay bitwise-deterministic.
#[must_use]
pub fn split_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Marks the current thread as a pool worker: nested substrate calls on
/// this thread run serially instead of re-entering the pool
/// (oversubscription). Purely a scheduling decision — results are
/// thread-count-independent by contract, so flattening nested parallelism
/// cannot change them.
fn pin_worker_serial() {
    OVERRIDE.with(|c| c.set(Some(1)));
}

fn lock_or_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Pool state and result slots hold no invariant a panicked worker could
    // have broken half-way (every critical section is a few field updates or
    // a single slot store), so a poisoned lock is safe to recover; the panic
    // itself still propagates when the generation drains.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Applies `f(chunk_index, chunk)` to consecutive disjoint chunks of
/// `data`, `chunk_len` elements each (the last chunk keeps the remainder).
/// Chunk boundaries depend only on `data.len()` and `chunk_len`, and each
/// invocation owns its chunk exclusively, so the result is bitwise-identical
/// to the serial loop `for (i, c) in data.chunks_mut(chunk_len).enumerate()`
/// at any thread count.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let num_chunks = data.len().div_ceil(chunk_len);
    let threads = thread_count().min(num_chunks);
    if threads <= 1 {
        for (i, c) in data.chunks_mut(chunk_len).enumerate() {
            f(i, c);
        }
        return;
    }
    // One slot per chunk; each is locked exactly once, by whichever
    // participant claims its index, so the locks are always uncontended —
    // they exist to hand `&mut` access across threads safely.
    let slots: Vec<Mutex<&mut [T]>> = data.chunks_mut(chunk_len).map(Mutex::new).collect();
    pool::dispatch(threads, num_chunks, |cursor| {
        while let Some(ci) = cursor.claim() {
            let mut guard = lock_or_recover(&slots[ci]);
            f(ci, &mut **guard);
        }
    });
}

/// Maps `f(index, &item)` over `items` and collects the results in input
/// order. `f` is pure per element (it sees only the index and the item), and
/// reassembly is by index, so the output is bitwise-identical to
/// `items.iter().enumerate().map(...).collect()` at any thread count.
///
/// Work units share no mutable state, and the `Fn + Sync` bound makes that
/// a type error rather than a convention. Return per-unit values and merge
/// them serially:
///
/// ```
/// let xs = [1u64, 2, 3];
/// let per_unit = gnn_dm_par::par_map_collect(&xs, |_, &x| x * x);
/// let total: u64 = per_unit.iter().sum();
/// assert_eq!(total, 14);
/// ```
///
/// A closure that takes `&mut` to a captured binding does not compile:
///
/// ```compile_fail,E0596
/// let xs = [1u64, 2, 3];
/// let mut hits = 0u64;
/// let bump = |n: &mut u64| *n += 1;
/// let _ = gnn_dm_par::par_map_collect(&xs, |_, &x| {
///     bump(&mut hits);
///     x
/// });
/// ```
///
/// and neither does one that captures a `Cell`:
///
/// ```compile_fail,E0277
/// let xs = [1u64, 2, 3];
/// let hits = std::cell::Cell::new(0u64);
/// let _ = gnn_dm_par::par_map_collect(&xs, |_, &x| {
///     hits.set(hits.get() + 1);
///     x
/// });
/// ```
pub fn par_map_collect<I, O, F>(items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    par_map_collect_init(items, || (), |(), i, x| f(i, x))
}

/// [`par_map_collect`] with a per-thread scratch state: each participating
/// thread builds `state = init()` once and `f(&mut state, index, &item)`
/// reuses it across every item that thread processes. The arena contract
/// from the crate docs applies: output must depend only on `(index, item)`,
/// never on leftover state — which items share a state instance is a
/// scheduling accident.
pub fn par_map_collect_init<I, O, S, N, F>(items: &[I], init: N, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    N: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &I) -> O + Sync,
{
    let n = items.len();
    let threads = thread_count().min(n);
    if threads <= 1 {
        let mut state = init();
        return items.iter().enumerate().map(|(i, x)| f(&mut state, i, x)).collect();
    }
    // Granularity: enough chunks for load balancing, few enough that slot
    // bookkeeping is negligible. Chunking cannot affect the output
    // (reassembly is by index), only scheduling.
    let chunk_len = n.div_ceil(threads * 8).max(1);
    let num_chunks = n.div_ceil(chunk_len);
    let mut slots: Vec<Mutex<Vec<O>>> = Vec::new();
    slots.resize_with(num_chunks, || Mutex::new(Vec::new()));
    pool::dispatch(threads, num_chunks, |cursor| {
        let mut state = init();
        while let Some(ci) = cursor.claim() {
            let lo = ci * chunk_len;
            let hi = (lo + chunk_len).min(n);
            let mut out = Vec::with_capacity(hi - lo);
            for (off, x) in items[lo..hi].iter().enumerate() {
                out.push(f(&mut state, lo + off, x));
            }
            *lock_or_recover(&slots[ci]) = out;
        }
    });
    let mut result = Vec::with_capacity(n);
    for slot in slots {
        result.append(&mut slot.into_inner().unwrap_or_else(PoisonError::into_inner));
    }
    result
}

/// Runs `f(&mut state, task_index)` for every index in `0..num_tasks`,
/// where each participating thread builds a private `state = init()` once
/// and reuses it across all tasks it claims (the scratch-arena contract
/// from the crate docs). Tasks are claimed individually, so they should be
/// coarse — a whole minibatch, a row panel — not single elements. `f`
/// communicates results through whatever disjoint-write structure it
/// captures; the helper itself imposes ordering only on task indices, not
/// on completion.
pub fn par_for_each_init<S, N, F>(num_tasks: usize, init: N, f: F)
where
    N: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    let threads = thread_count().min(num_tasks);
    if threads <= 1 {
        let mut state = init();
        for i in 0..num_tasks {
            f(&mut state, i);
        }
        return;
    }
    pool::dispatch(threads, num_tasks, |cursor| {
        let mut state = init();
        while let Some(i) = cursor.claim() {
            f(&mut state, i);
        }
    });
}

/// Ordered look-ahead map: runs `consume(i, produce(&mut state, i))` for
/// `i = 0..n`, in order, on the calling thread — exactly the serial loop —
/// while idle pool workers run `produce` for at most `window` items beyond
/// the last one `consume` has been handed. `produce` must be pure per index
/// (the arena contract from the crate docs applies to `state`), so the
/// sequence `consume` sees is the serial one at any thread count: the
/// scheduler decides only *who* builds item `i` and *when*.
///
/// Unlike the fork-join helpers this is not a generation (see `pool`):
/// `consume` is free to dispatch `par_*` kernels, workers prefer those to
/// producing, and the caller builds item `i` itself whenever no worker has
/// claimed it — or later items, while a worker still holds `i` — so
/// progress never waits on a helper and a cheap `consume` keeps every
/// thread building. With one thread, from
/// inside a pool worker, or while another look-ahead is running, it *is*
/// the serial loop. When it returns — normally or by a panic from
/// `produce` or `consume`, which reaches the caller — no worker is still
/// producing.
pub fn par_lookahead_init<T, S, N, P, C>(
    n: usize,
    window: usize,
    init: N,
    produce: P,
    mut consume: C,
) where
    T: Send,
    S: Send,
    N: Fn() -> S + Sync,
    P: Fn(&mut S, usize) -> T + Sync,
    C: FnMut(usize, T),
{
    let inline = |consume: &mut C| {
        let mut state = init();
        for i in 0..n {
            consume(i, produce(&mut state, i));
        }
    };
    let window = window.max(1);
    let threads = thread_count().min(n);
    if threads <= 1 {
        return inline(&mut consume);
    }
    // One arena per thread producing at the same time, parked here between
    // items; which items share one is a scheduling accident.
    let states: Mutex<Vec<S>> = Mutex::new(Vec::new());
    let build = |i: usize| {
        let parked = lock_or_recover(&states).pop();
        let mut state = parked.unwrap_or_else(&init);
        let item = produce(&mut state, i);
        lock_or_recover(&states).push(state);
        item
    };
    // Item `i` waits in slot `i % window`: free again by the time `i` can
    // be claimed, because `i - window` has been taken by then.
    let slots: Vec<Mutex<Option<T>>> = (0..window.min(n)).map(|_| Mutex::new(None)).collect();
    let publish = |i: usize| {
        let item = build(i);
        *lock_or_recover(&slots[i % slots.len()]) = Some(item);
    };
    let take = |i: usize| lock_or_recover(&slots[i % slots.len()]).take();
    let installed = pool::with_source(threads, n, window, &publish, |source| {
        for i in 0..n {
            let item = if source.claim(i) {
                build(i)
            } else {
                // A helper has `i`. Until it lands, build further ahead
                // rather than idle; block only once the window is full.
                loop {
                    if let Some(item) = take(i) {
                        break item;
                    }
                    if let Some(j) = source.claim_ahead() {
                        publish(j);
                        continue;
                    }
                    match source.wait_for(|| take(i)) {
                        Some(item) => break item,
                        // A helper panicked; `with_source` re-raises it.
                        None => return,
                    }
                }
            };
            source.taken(i);
            consume(i, item);
        }
    });
    if !installed {
        inline(&mut consume);
    }
}

/// Applies `f(chunk_index, a_chunk, b_chunk)` to aligned disjoint chunks of
/// two equal-length slices — the optimizer's parameter/state pairing. Same
/// determinism contract as [`par_chunks_mut`]: fixed split points, each
/// chunk pair owned exclusively by one invocation.
pub fn par_zip_chunks_mut<A, B, F>(a: &mut [A], b: &mut [B], chunk_len: usize, f: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    assert_eq!(a.len(), b.len(), "par_zip_chunks_mut length mismatch");
    let chunk_len = chunk_len.max(1);
    let num_chunks = a.len().div_ceil(chunk_len);
    let threads = thread_count().min(num_chunks);
    if threads <= 1 {
        for (i, (ca, cb)) in a.chunks_mut(chunk_len).zip(b.chunks_mut(chunk_len)).enumerate() {
            f(i, ca, cb);
        }
        return;
    }
    let slots: Vec<Mutex<(&mut [A], &mut [B])>> = a
        .chunks_mut(chunk_len)
        .zip(b.chunks_mut(chunk_len))
        .map(|(ca, cb)| Mutex::new((ca, cb)))
        .collect();
    pool::dispatch(threads, num_chunks, |cursor| {
        while let Some(ci) = cursor.claim() {
            let mut guard = lock_or_recover(&slots[ci]);
            let pair = &mut *guard;
            f(ci, &mut *pair.0, &mut *pair.1);
        }
    });
}

/// Deterministic ordered reduction: maps each fixed `chunk_len`-sized chunk
/// of `items` to a partial with `map(chunk_index, chunk)`, then folds the
/// partials **in chunk order** with `fold`. Because the split points are
/// fixed and the fold order is the chunk order, the result is
/// bitwise-identical at any thread count — including non-associative
/// reductions such as `f32` summation. Returns `None` for empty input.
pub fn par_reduce<I, A, M, F>(items: &[I], chunk_len: usize, map: M, fold: F) -> Option<A>
where
    I: Sync,
    A: Send,
    M: Fn(usize, &[I]) -> A + Sync,
    F: Fn(A, A) -> A,
{
    if items.is_empty() {
        return None;
    }
    let partials = {
        let chunk_len = chunk_len.max(1);
        let chunks: Vec<&[I]> = items.chunks(chunk_len).collect();
        par_map_collect(&chunks, |i, c| map(i, c))
    };
    partials.into_iter().reduce(fold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = thread_count();
        with_threads(3, || {
            assert_eq!(thread_count(), 3);
            with_threads(2, || assert_eq!(thread_count(), 2));
            assert_eq!(thread_count(), 3);
        });
        assert_eq!(thread_count(), outer);
    }

    #[test]
    fn unpinned_thread_count_is_stable_across_calls() {
        // No override is active on a fresh test thread: this is the
        // process-wide value, resolved once.
        let unpinned = thread_count();
        assert!(unpinned >= 1);
        assert!((0..1000).all(|_| thread_count() == unpinned));
        with_threads(unpinned + 3, || assert_eq!(thread_count(), unpinned + 3));
        assert_eq!(thread_count(), unpinned);
    }

    #[test]
    fn split_seed_is_stable_and_spreads() {
        assert_eq!(split_seed(42, 7), split_seed(42, 7));
        assert_ne!(split_seed(42, 7), split_seed(42, 8));
        assert_ne!(split_seed(42, 0), split_seed(43, 0));
        // index 0 must not be the identity
        assert_ne!(split_seed(42, 0), 42);
    }

    fn serial_chunks(data: &mut [u64], chunk_len: usize) {
        for (i, c) in data.chunks_mut(chunk_len).enumerate() {
            for (j, x) in c.iter_mut().enumerate() {
                *x = split_seed(i as u64, j as u64);
            }
        }
    }

    #[test]
    fn par_chunks_mut_matches_serial_at_all_thread_counts() {
        for &(len, chunk) in &[(0usize, 3usize), (1, 3), (7, 3), (64, 8), (100, 7)] {
            let mut expect = vec![0u64; len];
            serial_chunks(&mut expect, chunk);
            for &t in &[1usize, 2, 3, 8] {
                let mut got = vec![0u64; len];
                with_threads(t, || {
                    par_chunks_mut(&mut got, chunk, |i, c| {
                        for (j, x) in c.iter_mut().enumerate() {
                            *x = split_seed(i as u64, j as u64);
                        }
                    });
                });
                assert_eq!(got, expect, "len {len} chunk {chunk} threads {t}");
            }
        }
    }

    #[test]
    fn par_map_collect_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for &t in &[1usize, 2, 3, 8] {
            let got = with_threads(t, || par_map_collect(&items, |_, &x| x * 3 + 1));
            assert_eq!(got, expect, "threads {t}");
        }
    }

    #[test]
    fn par_reduce_is_order_exact_for_floats() {
        // Summands spanning many magnitudes make float addition visibly
        // non-associative; the reduction must still be bitwise stable.
        let items: Vec<f32> = (0..997).map(|i| (i as f32 - 498.0) * 1.0e-3 + 1.0e4).collect();
        let serial = with_threads(1, || {
            par_reduce(&items, 64, |_, c| c.iter().sum::<f32>(), |a, b| a + b)
        });
        for &t in &[2usize, 3, 8] {
            let par = with_threads(t, || {
                par_reduce(&items, 64, |_, c| c.iter().sum::<f32>(), |a, b| a + b)
            });
            assert_eq!(serial.map(f32::to_bits), par.map(f32::to_bits), "threads {t}");
        }
        assert_eq!(
            with_threads(3, || par_reduce(&[] as &[f32], 8, |_, c| c.iter().sum::<f32>(), |a, b| a
                + b)),
            None
        );
    }

    #[test]
    fn env_parsing_falls_back_on_garbage() {
        // Can't mutate the environment safely under the parallel harness;
        // exercise the override path plus the pure parse logic instead.
        assert!(thread_count() >= 1);
        with_threads(0, || assert_eq!(thread_count(), 1));
    }

    #[test]
    fn pool_reuse_is_deterministic_across_dispatches() {
        // Two consecutive dispatches on the persistent pool must equal the
        // serial result (the pool's generation/seat machinery resets
        // cleanly between them), interleaving both dispatcher families so
        // generations actually turn over.
        let len = 1000;
        let mut expect = vec![0u64; len];
        serial_chunks(&mut expect, 7);
        let expect_map: Vec<u64> = (0..len as u64).map(|x| split_seed(9, x)).collect();
        for round in 0..3 {
            with_threads(4, || {
                let mut got = vec![0u64; len];
                par_chunks_mut(&mut got, 7, |i, c| {
                    for (j, x) in c.iter_mut().enumerate() {
                        *x = split_seed(i as u64, j as u64);
                    }
                });
                assert_eq!(got, expect, "round {round}");
                let items: Vec<u64> = (0..len as u64).collect();
                let mapped = par_map_collect(&items, |_, &x| split_seed(9, x));
                assert_eq!(mapped, expect_map, "round {round}");
            });
        }
    }

    #[test]
    fn init_state_is_reused_but_never_observable() {
        // The scratch arena is cleared per task here; results must match
        // the stateless map at every thread count even though threads
        // share state instances across tasks.
        let items: Vec<u32> = (0..500).collect();
        let expect: Vec<u64> = items.iter().map(|&x| u64::from(x) * 7).collect();
        for &t in &[1usize, 2, 3, 8] {
            let got = with_threads(t, || {
                par_map_collect_init(
                    &items,
                    Vec::<u64>::new,
                    |scratch, _, &x| {
                        scratch.clear();
                        scratch.extend((0..7).map(|_| u64::from(x)));
                        scratch.iter().sum::<u64>()
                    },
                )
            });
            assert_eq!(got, expect, "threads {t}");
        }
    }

    #[test]
    fn par_for_each_init_covers_every_task_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let hits: Vec<AtomicU32> = (0..300).map(|_| AtomicU32::new(0)).collect();
        with_threads(4, || {
            par_for_each_init(hits.len(), || (), |(), i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_zip_chunks_mut_matches_serial() {
        let n = 777;
        let mut a1: Vec<f32> = (0..n).map(|i| i as f32 * 0.25).collect();
        let mut b1: Vec<f32> = (0..n).map(|i| (n - i) as f32).collect();
        let (mut a2, mut b2) = (a1.clone(), b1.clone());
        let step = |i: usize, ca: &mut [f32], cb: &mut [f32]| {
            for (x, y) in ca.iter_mut().zip(cb.iter_mut()) {
                *y = 0.9 * *y + 0.1 * *x;
                *x -= 0.01 * *y + i as f32 * 0.0;
            }
        };
        with_threads(1, || par_zip_chunks_mut(&mut a1, &mut b1, 64, step));
        with_threads(8, || par_zip_chunks_mut(&mut a2, &mut b2, 64, step));
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn worker_panic_propagates_to_submitter() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                let mut data = vec![0u8; 64];
                par_chunks_mut(&mut data, 1, |i, _| {
                    assert!(i != 13, "boom at chunk 13");
                });
            });
        });
        assert!(result.is_err(), "panic inside a chunk must reach the caller");
        // The pool must still be usable afterwards.
        with_threads(4, || {
            let got = par_map_collect(&[1u64, 2, 3], |_, &x| x + 1);
            assert_eq!(got, vec![2, 3, 4]);
        });
    }

    #[test]
    fn concurrent_submitters_serialize_without_deadlock() {
        // Two OS threads dispatching at once must queue on the job slot
        // and both complete with correct results.
        let run = || {
            with_threads(3, || {
                let items: Vec<u64> = (0..400).collect();
                par_map_collect(&items, |_, &x| split_seed(1, x))
            })
        };
        let expect = run();
        #[expect(clippy::disallowed_methods, reason = "two OS threads outside the pool are the submitters under test")]
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2).map(|_| s.spawn(run)).collect();
            for h in handles {
                match h.join() {
                    Ok(got) => assert_eq!(got, expect),
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
        });
    }
}
