//! The persistent worker pool behind the `par_*` dispatchers.
//!
//! Workers are spawned lazily, once per process, and park on a condvar
//! between dispatches. A dispatch installs one **generation** of work —
//! a lifetime-erased participant closure plus an atomic chunk [`Cursor`] —
//! wakes the workers, and runs the closure on the submitting thread too.
//! Each participant loops on `Cursor::claim`, so chunk distribution is a
//! single `fetch_add` per chunk instead of the global mutex the scoped
//! pool took per claim, and thread spawn/join cost is paid once per
//! process instead of once per kernel call.
//!
//! Determinism is untouched by any of this: the cursor only decides *which
//! thread* runs a chunk, never what the chunk computes or where its result
//! lands (fixed split points + disjoint writes + ordered reassembly, see
//! the crate docs). The pool could hand every chunk to one worker or
//! spread them over sixteen and the output bits would be identical.
//!
//! Protocol invariants (all guarded by the single state mutex):
//!
//! * At most one generation is in flight; later submitters queue on
//!   `done_cv` until `job` clears.
//! * A worker joins a generation at most once (it records the generation
//!   counter) and only while `seats > 0`; the submitter zeroes `seats`
//!   before draining so no worker can join a generation whose closure is
//!   about to leave scope.
//! * The submitter returns only after `running == 0`, so the erased
//!   closure and cursor on its stack strictly outlive every worker access
//!   — this is the whole safety argument for the `unsafe` below.
//! * Worker panics are caught, stashed, and re-raised on the submitting
//!   thread after the generation drains, matching the scoped pool's
//!   propagate-on-join behavior.
//!
//! Beside the job slot sits one **background source** ([`with_source`], the
//! engine of `par_lookahead_init`): an indexed unit closure plus a claim
//! window, installed for the duration of one driver call. A worker with no
//! generation to join runs one unit of it — claim `next` iff
//! `next < limit`, run, report back — and then looks for a generation
//! again, so the source only ever uses cycles the fork-join kernels leave
//! idle and a kernel dispatched meanwhile is at worst finished by its
//! submitter alone through the cursor. A source is never a generation: a
//! long-lived one would hold the job slot and serialize every kernel the
//! driver dispatches behind it. Its invariants, under the same mutex:
//!
//! * At most one source is installed; a second caller is told so and runs
//!   its loop inline.
//! * The driver never depends on a helper: it claims index `i` itself
//!   whenever `next == i`, and otherwise waits only for a unit some worker
//!   is already running — building further indices inside the window
//!   itself meanwhile, so a cheap consumer still builds on every thread.
//! * The driver closes the source (`limit := 0`) and returns only after
//!   `running == 0` — the drain argument above, for the unit closure and
//!   everything it borrows. A unit's panic is stashed, stops further
//!   claims, wakes the driver, and is re-raised there after the drain.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

use crate::lock_or_recover;

/// Chunk-index dispenser for one dispatch generation: participants claim
/// strictly increasing indices until the range is exhausted.
pub(crate) struct Cursor {
    next: AtomicUsize,
    num_chunks: usize,
}

impl Cursor {
    fn new(num_chunks: usize) -> Self {
        Cursor { next: AtomicUsize::new(0), num_chunks }
    }

    /// Claims the next unprocessed chunk index, or `None` once the
    /// generation is exhausted. Relaxed ordering suffices: the index is
    /// only a work ticket — every byte written under it is published to
    /// the submitter by the state mutex when the generation drains.
    pub(crate) fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.num_chunks).then_some(i)
    }
}

/// Lifetime-erased handle to a closure on the submitting thread's stack —
/// a generation's participant (`A = ()`) or a source's unit (`A = usize`,
/// the claimed index): a thin data pointer plus a monomorphized call thunk
/// (avoids fat-pointer lifetime transmutes). The dispatch and source
/// protocols keep the referent alive for every call (see the module docs).
#[derive(Clone, Copy)]
struct Job<A> {
    data: *const (),
    call: fn(*const (), A),
}

// SAFETY: the pointer crosses to worker threads, but the referent is
// `Sync` (enforced by `erase`'s bound) and outlives every access by the
// drain invariants above; `A` is only ever passed by value into `call`.
unsafe impl<A> Send for Job<A> {}

fn erase<A, F: Fn(A) + Sync>(f: &F) -> Job<A> {
    fn call<A, F: Fn(A)>(data: *const (), arg: A) {
        // SAFETY: `data` was erased from a live `&F` by `erase`, and the
        // owning protocol (generation or source drain) keeps that referent
        // alive until the last worker finishes this call.
        unsafe { (*data.cast::<F>())(arg) }
    }
    Job { data: (f as *const F).cast(), call: call::<A, F> }
}

/// The installed background source (module docs): what idle workers run
/// when no generation has a seat for them.
struct Source {
    unit: Job<usize>,
    /// Next unclaimed index; everything below it is claimed, by a worker
    /// or by the driver itself.
    next: usize,
    /// Exclusive claim bound, `min(n, taken + window)`; `0` once closed.
    limit: usize,
    /// Most workers allowed inside a unit at once: the driver's thread
    /// count minus its own thread.
    helpers: usize,
    /// Workers currently inside a unit.
    running: usize,
    /// First unit panic; stops further claims.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Source {
    /// Claims the next index for a worker, if the window, the helper cap
    /// and the source's health allow one.
    fn claim(&mut self) -> Option<(Job<usize>, usize)> {
        if self.next >= self.limit || self.running >= self.helpers || self.panic.is_some() {
            return None;
        }
        let i = self.next;
        self.next += 1;
        self.running += 1;
        Some((self.unit, i))
    }
}

struct State {
    /// Monotone dispatch counter; a worker joins a generation at most once.
    generation: u64,
    /// The in-flight generation's job, if any. Doubles as the "slot busy"
    /// flag that serializes submitters.
    job: Option<Job<()>>,
    /// Worker seats still open in the in-flight generation (the
    /// submitter's own seat is not counted).
    seats: usize,
    /// Workers currently executing the in-flight generation's closure.
    running: usize,
    /// First worker panic captured this generation.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Worker threads spawned so far; grows lazily, never shrinks.
    workers: usize,
    /// The installed background source, if any.
    source: Option<Source>,
}

struct Pool {
    state: Mutex<State>,
    /// Workers park here between generations and source units.
    work_cv: Condvar,
    /// Submitters park here, waiting for the job slot or for their
    /// generation's workers to drain; a source's driver parks here waiting
    /// for a unit a worker is running.
    done_cv: Condvar,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// True on pool worker threads; guards against re-entrant dispatch.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State {
            generation: 0,
            job: None,
            seats: 0,
            running: 0,
            panic: None,
            workers: 0,
            source: None,
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
    })
}

fn wait<'a>(
    cv: &Condvar,
    guard: std::sync::MutexGuard<'a, State>,
) -> std::sync::MutexGuard<'a, State> {
    // Same poisoning argument as `lock_or_recover`: every invariant is
    // re-checked in a loop after waking, so a poisoned guard is usable.
    match cv.wait(guard) {
        Ok(g) => g,
        Err(e) => e.into_inner(),
    }
}

fn worker_main() {
    IS_POOL_WORKER.with(|c| c.set(true));
    // Nested substrate calls on a worker run serially instead of
    // re-entering the pool — pure scheduling, results are
    // thread-count-independent by contract.
    crate::pin_worker_serial();
    let p = pool();
    let mut last_gen = 0u64;
    let mut st = lock_or_recover(&p.state);
    loop {
        if st.generation != last_gen {
            // Observe the generation exactly once, joining it if seats
            // remain; either way, never re-examine it.
            last_gen = st.generation;
            if st.seats > 0 {
                if let Some(job) = st.job {
                    st.seats -= 1;
                    st.running += 1;
                    drop(st);
                    let result = catch_unwind(AssertUnwindSafe(|| (job.call)(job.data, ())));
                    st = lock_or_recover(&p.state);
                    if let Err(payload) = result {
                        if st.panic.is_none() {
                            st.panic = Some(payload);
                        }
                    }
                    st.running -= 1;
                    if st.running == 0 {
                        p.done_cv.notify_all();
                    }
                    // Re-check immediately: a new generation may already
                    // be installed.
                    continue;
                }
            }
        }
        // No generation to join: one unit of the background source, then
        // back to the top — a generation installed meanwhile comes first.
        if let Some((unit, i)) = st.source.as_mut().and_then(Source::claim) {
            drop(st);
            let result = catch_unwind(AssertUnwindSafe(|| (unit.call)(unit.data, i)));
            st = lock_or_recover(&p.state);
            // Still installed: its driver leaves only once `running == 0`.
            if let Some(src) = st.source.as_mut() {
                src.running -= 1;
                if let Err(payload) = result {
                    src.panic.get_or_insert(payload);
                }
            }
            p.done_cv.notify_all();
            continue;
        }
        st = wait(&p.work_cv, st);
    }
}

/// Grows the pool to `extra` workers. A failed spawn (resource exhaustion)
/// is not fatal: the submitter participates regardless, so the call still
/// completes — on fewer threads, with identical results.
fn spawn_workers(st: &mut State, extra: usize) {
    while st.workers < extra {
        let spawned = std::thread::Builder::new()
            .name(format!("gnn-dm-par-{}", st.workers))
            .spawn(worker_main);
        if spawned.is_err() {
            break;
        }
        st.workers += 1;
    }
}

/// Runs `participant` on the calling thread plus up to `threads - 1` pool
/// workers, each looping on [`Cursor::claim`] over `num_chunks` chunks.
/// Returns once every participant has finished; the first panic (caller's
/// own first, then any worker's) is re-raised on the caller.
///
/// The submitting thread participates with the thread count pinned to 1,
/// so nested `par_*` calls inside `participant` take their serial paths —
/// exactly the behavior of the old scoped pool, where closures only ever
/// ran on pinned workers.
pub(crate) fn dispatch<F>(threads: usize, num_chunks: usize, participant: F)
where
    F: Fn(&Cursor) + Sync,
{
    debug_assert!(threads >= 2, "serial work must not reach the pool");
    let cursor = Cursor::new(num_chunks);
    if IS_POOL_WORKER.with(Cell::get) {
        // Re-entrant dispatch from inside a worker (possible only if user
        // code overrides the serial pin with `with_threads`): running it
        // on the pool would deadlock on the job slot, so run serially.
        // Identical results, by the fixed-split contract.
        participant(&cursor);
        return;
    }
    let body = |()| participant(&cursor);
    let job = erase(&body);
    let p = pool();

    let mut st = lock_or_recover(&p.state);
    // One generation at a time: queue behind any in-flight dispatch from
    // another thread.
    while st.job.is_some() {
        st = wait(&p.done_cv, st);
    }
    let extra = threads - 1;
    spawn_workers(&mut st, extra);
    st.generation = st.generation.wrapping_add(1);
    st.job = Some(job);
    st.seats = extra.min(st.workers);
    st.panic = None;
    drop(st);
    p.work_cv.notify_all();

    let own = catch_unwind(AssertUnwindSafe(|| crate::with_threads(1, || body(()))));

    let mut st = lock_or_recover(&p.state);
    // Close the remaining seats first: `body` and `cursor` live on this
    // stack frame, so no worker may join once the drain below can return.
    st.seats = 0;
    while st.running > 0 {
        st = wait(&p.done_cv, st);
    }
    st.job = None;
    let worker_panic = st.panic.take();
    drop(st);
    // Free the job slot for any queued submitter.
    p.done_cv.notify_all();

    if let Err(payload) = own {
        resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

/// The driver's side of an installed background source: how the ordered
/// consumer of [`with_source`] gets hold of item `i`.
pub(crate) struct Ahead {
    n: usize,
    window: usize,
}

impl Ahead {
    /// True when the driver must run unit `i` itself because no worker has
    /// claimed it; false when one has, and [`Ahead::wait_for`] will see it.
    /// The driver asks for indices in order, so `next >= i` here.
    pub(crate) fn claim(&self, i: usize) -> bool {
        let mut st = lock_or_recover(&pool().state);
        match st.source.as_mut() {
            Some(src) if src.next == i => {
                src.next = i + 1;
                true
            }
            _ => false,
        }
    }

    /// Claims the next index inside the window for the driver itself —
    /// work to do instead of idling while a worker is still building the
    /// item the driver needs next. Not counted against the helper cap: the
    /// driver is not a worker and cannot outlive its own call.
    pub(crate) fn claim_ahead(&self) -> Option<usize> {
        let mut st = lock_or_recover(&pool().state);
        let src = st.source.as_mut()?;
        (src.next < src.limit && src.panic.is_none()).then(|| {
            src.next += 1;
            src.next - 1
        })
    }

    /// Blocks until `ready()` yields what the worker that claimed the
    /// awaited index published, re-checking whenever a worker finishes a
    /// unit; `None` if a unit panicked instead (re-raised by
    /// [`with_source`] once the driver returns).
    pub(crate) fn wait_for<T>(&self, mut ready: impl FnMut() -> Option<T>) -> Option<T> {
        let p = pool();
        let mut st = lock_or_recover(&p.state);
        loop {
            // Checked under the state mutex a finishing worker takes after
            // publishing, so a wakeup cannot slip between check and wait.
            if let Some(item) = ready() {
                return Some(item);
            }
            if st.source.as_ref().is_none_or(|src| src.panic.is_some()) {
                return None;
            }
            st = wait(&p.done_cv, st);
        }
    }

    /// Records that the driver holds item `i`: workers may now claim up to
    /// `window` indices past it.
    pub(crate) fn taken(&self, i: usize) {
        let p = pool();
        let mut st = lock_or_recover(&p.state);
        if let Some(src) = st.source.as_mut() {
            src.limit = self.n.min((i + 1).saturating_add(self.window));
            if src.next < src.limit {
                drop(st);
                p.work_cv.notify_all();
            }
        }
    }
}

/// Installs `unit` as the pool's background source over indices `0..n` —
/// idle workers (at most `threads - 1` at once) run `unit(i)` for indices
/// less than `window` past the last one the driver has [`Ahead::taken`] —
/// runs `drive` on the calling thread, then closes the source and waits
/// until no worker is inside a unit, so `unit` and everything it borrows
/// strictly outlive every worker access. Panics (the driver's own first,
/// then a unit's) are re-raised after that drain.
///
/// Returns `false` without calling `drive` when there is nothing to
/// install into: the caller is itself a pool worker, or another source is
/// installed. The caller then runs its loop inline.
pub(crate) fn with_source<U, D>(threads: usize, n: usize, window: usize, unit: &U, drive: D) -> bool
where
    U: Fn(usize) + Sync,
    D: FnOnce(&Ahead),
{
    debug_assert!(threads >= 2 && window >= 1, "serial work must not reach the pool");
    if IS_POOL_WORKER.with(Cell::get) {
        return false;
    }
    let p = pool();
    let mut st = lock_or_recover(&p.state);
    if st.source.is_some() {
        return false;
    }
    spawn_workers(&mut st, threads - 1);
    st.source = Some(Source {
        unit: erase(unit),
        next: 0,
        limit: n.min(window),
        helpers: (threads - 1).min(st.workers),
        running: 0,
        panic: None,
    });
    drop(st);
    p.work_cv.notify_all();

    let own = catch_unwind(AssertUnwindSafe(|| drive(&Ahead { n, window })));

    let mut st = lock_or_recover(&p.state);
    // Close before draining: `unit` lives in the caller's frame, so no
    // worker may claim once the wait below can return.
    if let Some(src) = st.source.as_mut() {
        src.limit = 0;
    }
    while st.source.as_ref().is_some_and(|src| src.running > 0) {
        st = wait(&p.done_cv, st);
    }
    let unit_panic = st.source.take().and_then(|src| src.panic);
    drop(st);

    if let Err(payload) = own {
        resume_unwind(payload);
    }
    if let Some(payload) = unit_panic {
        resume_unwind(payload);
    }
    true
}
