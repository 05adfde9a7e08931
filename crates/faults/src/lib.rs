//! `gnn-dm-faults` — deterministic, seeded fault injection for the cost
//! simulators.
//!
//! The paper's epoch-time and communication-load results (Figures 5/8,
//! §5.3) assume a perfectly healthy cluster, but its own conclusion — that
//! distributed GNN training is dominated by who moves how many bytes over
//! which link — is exactly the regime real clusters degrade in. This crate
//! models the three classic degradations:
//!
//! * **stragglers** — a planned subset of workers runs its compute and/or
//!   its NIC at a constant slowdown factor for the epoch;
//! * **flaky links** — a transfer may fail and be retried after a
//!   deterministic timeout plus capped exponential backoff; every
//!   retransmitted byte and every backoff wait becomes a `Retry` /
//!   `Backoff` span on the cost timeline, so the byte ledgers stay exact
//!   reductions over spans;
//! * **worker crash + recovery** — a worker dies at a planned batch
//!   boundary; every-N-batches parameter snapshots (priced over the NIC)
//!   bound how many batches are replayed.
//!
//! A [`FaultPlan`] is a seed and one rate; the severities — slowdown
//! factors, crash share, snapshot cadence, retry budget, timeout and
//! backoff — are the named constants below, fixed like the paper's
//! testbed. Everything a plan decides is a pure function of
//! `(seed, epoch, worker/link id, attempt)` via the splitmix-style
//! [`gnn_dm_par::split_seed`] — no ambient entropy, no wall clock, no
//! global state — so a faulted epoch is exactly as reproducible (and
//! thread-count-independent) as a healthy one. [`FaultPlan::none`] is the
//! neutral element: it injects no spans and every slowdown factor is 1.0
//! (an exact multiplicative identity for finite IEEE-754 costs), so the
//! simulators have one replay each and the healthy epoch is simply that
//! replay under the neutral plan. What a failed transfer attempt costs,
//! and which spans it leaves on a lane, is decided here for both of them
//! ([`FaultPlan::schedule_failed_attempts`]).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]

use gnn_dm_par::split_seed;
use gnn_dm_trace::units::{Bytes, Seconds};
use gnn_dm_trace::{Resource, SpanKind, SpanMeta, Timeline};

/// Tail-latency summary (`p50`/`p99`/`p999` as exact nearest-rank
/// reductions), re-exported for SLO-facing consumers: the chaos grid
/// ranks resilience policies by `p999` without reaching past this crate
/// into the trace substrate.
pub use gnn_dm_trace::TailStats;

/// Domain separator for straggler membership draws.
const DOMAIN_STRAGGLER: u64 = 0x5354_5241_4747_4C45; // "STRAGGLE"
/// Domain separator for NIC transfer-failure draws.
const DOMAIN_LINK_NIC: u64 = 0x4E49_434C_494E_4B00; // "NICLINK"
/// Domain separator for PCIe transfer-failure draws.
const DOMAIN_LINK_PCIE: u64 = 0x5043_4945_4C4E_4B00; // "PCIELNK"
/// Domain separator for crash-occurrence draws.
const DOMAIN_CRASH: u64 = 0x4352_4153_4845_5330; // "CRASHES0"
/// Domain separator for crash-position draws.
const DOMAIN_CRASH_BATCH: u64 = 0x4352_4153_4842_4154; // "CRASHBAT"

/// One deterministic draw for `(seed, domain, epoch, unit)`.
fn mix(seed: u64, domain: u64, epoch: usize, unit: u64) -> u64 {
    split_seed(split_seed(seed ^ domain, epoch as u64), unit)
}

/// Maps draw bits to a uniform `f64` in `[0, 1)` using the top 53 bits —
/// the standard exact construction (every representable value is a
/// multiple of 2⁻⁵³), so thresholds compare deterministically.
fn unit_from_bits(x: u64) -> f64 {
    const SCALE: f64 = 1.0 / 9_007_199_254_740_992.0; // 2^-53
    (x >> 11) as f64 * SCALE
}

/// Duration multiplier on a straggler's sampling and NN-compute stages.
pub const STRAGGLER_COMPUTE_FACTOR: f64 = 2.5;
/// Duration multiplier on a straggler's link stages (its effective
/// bandwidth shrinks by this factor).
pub const STRAGGLER_BANDWIDTH_FACTOR: f64 = 2.0;
/// A worker's crash probability per epoch, as a multiple of the plan's
/// rate.
pub const CRASH_RATE_FACTOR: f64 = 0.5;
/// Parameter-snapshot cadence in batches of a faulted plan (the neutral
/// plan takes no snapshots).
pub const CHECKPOINT_EVERY_BATCHES: usize = 8;
/// Failed attempts allowed per transfer; the attempt after the last
/// allowed failure always succeeds, so a retry loop always terminates.
pub const MAX_RETRIES: u32 = 4;
/// Time until a failed transfer is detected.
pub const RETRY_TIMEOUT: Seconds = Seconds(0.05);
/// First backoff wait after a failed transfer; doubles per failed attempt.
pub const BACKOFF_BASE: Seconds = Seconds(0.01);
/// Upper bound on a single backoff wait.
pub const BACKOFF_CAP: Seconds = Seconds(0.5);

/// Backoff wait after failed attempt `attempt` (0-based):
/// `min(BACKOFF_BASE · 2^attempt, BACKOFF_CAP)` — 10 ms doubling up to
/// 500 ms. The doubling is an integer shift saturated at `2^62`, so any
/// `attempt` (even `u32::MAX`) gives a finite wait, the cap.
pub fn backoff_delay(attempt: u32) -> Seconds {
    RETRY.backoff_delay(attempt)
}

/// The retry discipline of a failed transfer: each failed attempt costs
/// the full transfer duration plus `timeout_s` (the failure is only
/// detected at the timeout), then waits `backoff_delay(attempt)` before
/// retrying. One value, [`RETRY`], built from the public constants; the
/// struct exists so a unit test can swap in exact-sum (dyadic) values.
struct Retry {
    timeout_s: Seconds,
    backoff_base_s: Seconds,
    backoff_cap_s: Seconds,
}

/// The retry discipline every plan uses.
const RETRY: Retry =
    Retry { timeout_s: RETRY_TIMEOUT, backoff_base_s: BACKOFF_BASE, backoff_cap_s: BACKOFF_CAP };

impl Retry {
    fn backoff_delay(&self, attempt: u32) -> Seconds {
        let doublings = 1u64 << attempt.min(62);
        (self.backoff_base_s * doublings as f64).min(self.backoff_cap_s)
    }

    /// How failed attempt `attempt` of a transfer with healthy duration
    /// `transfer_s` ends, as `(hedge_at, retry_dur, backoff_dur)`: retrying
    /// occupies the link for `transfer_s + timeout_s` and then waits out
    /// `backoff_delay(attempt)`; an armed hedge ends the round at its
    /// deadline instead (`hedge_at` is `Some`) when that is strictly
    /// earlier — a tie retries.
    fn failed_attempt(
        &self,
        hedge: Option<HedgePolicy>,
        transfer_s: Seconds,
        attempt: u32,
    ) -> (Option<Seconds>, Seconds, Seconds) {
        let retry_dur = transfer_s + self.timeout_s;
        let backoff_dur = self.backoff_delay(attempt);
        let hedge_at =
            hedge.map(|h| h.deadline_s(transfer_s)).filter(|&d| d < retry_dur + backoff_dur);
        (hedge_at, retry_dur, backoff_dur)
    }

    fn failed_attempts_cost(
        &self,
        hedge: Option<HedgePolicy>,
        transfer_s: Seconds,
        failures: u32,
    ) -> Seconds {
        let mut cost = Seconds(0.0);
        for attempt in 0..failures {
            let (hedge_at, retry_dur, backoff_dur) =
                self.failed_attempt(hedge, transfer_s, attempt);
            cost += hedge_at.unwrap_or(retry_dur + backoff_dur);
        }
        cost
    }

    #[allow(clippy::too_many_arguments, reason = "every parameter is one field of the span this schedules; a struct would only rename them")]
    fn schedule_failed_attempts(
        &self,
        hedge: Option<HedgePolicy>,
        tl: &mut Timeline,
        lane: Resource,
        mut ready: f64,
        transfer_s: Seconds,
        failures: u32,
        bytes: Bytes,
        tag: SpanMeta,
        mut delivery: SpanKind,
    ) -> (f64, SpanKind) {
        for attempt in 0..failures {
            let (hedge_at, retry_dur, backoff_dur) =
                self.failed_attempt(hedge, transfer_s, attempt);
            ready = match hedge_at {
                Some(d) => {
                    delivery = SpanKind::Hedge;
                    tl.schedule(lane, SpanKind::Cancel, ready, d, SpanMeta { bytes, ..tag })
                }
                None => {
                    let retry_end = tl.schedule(
                        lane,
                        SpanKind::Retry,
                        ready,
                        retry_dur,
                        SpanMeta { bytes, ..tag },
                    );
                    tl.schedule(lane, SpanKind::Backoff, retry_end, backoff_dur, tag)
                }
            };
        }
        (ready, delivery)
    }
}

/// The complete fault schedule of a simulation run: a root `seed` and one
/// `rate`. With probability `rate` a worker straggles in an epoch (its
/// compute stretches by [`STRAGGLER_COMPUTE_FACTOR`], its links by
/// [`STRAGGLER_BANDWIDTH_FACTOR`]) and each transfer attempt fails (at
/// most [`MAX_RETRIES`] times in a row); with probability
/// `rate ·` [`CRASH_RATE_FACTOR`] a worker crashes, and a faulted plan
/// snapshots parameters every [`CHECKPOINT_EVERY_BATCHES`] batches.
///
/// Pure data plus pure functions: every decision derives from `seed` and
/// the coordinates of the question (`epoch`, worker or batch index,
/// attempt number), so two evaluations can never disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// In `(0, ∞)` for a faulted plan, exactly `0.0` for a neutral one.
    rate: f64,
}

impl FaultPlan {
    /// The neutral plan: no stragglers, reliable links, no crashes, no
    /// checkpoint overhead. Simulators fed this plan perform the exact
    /// floating-point operation sequence of their pre-fault versions.
    pub const fn none() -> FaultPlan {
        FaultPlan { seed: 0, rate: 0.0 }
    }

    /// A plan injecting every fault kind at probability `rate` under
    /// `seed`. A rate that is not positive — zero, negative or NaN — is
    /// the neutral plan under that seed: it injects nothing and takes no
    /// snapshots. Rates above 1 saturate: every straggler and link draw
    /// fires, and every crash draw from 2 up.
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan { seed, rate: if rate > 0.0 { rate } else { 0.0 } }
    }

    /// True when the plan can never inject anything.
    pub fn is_none(&self) -> bool {
        self.rate == 0.0
    }

    /// One draw in `[0, 1)` for `(domain, epoch, unit)` against
    /// `probability`: fires iff the draw is below it, so a zero
    /// probability never fires and one above 1 always does.
    fn fires(&self, probability: f64, domain: u64, epoch: usize, unit: u64) -> bool {
        unit_from_bits(mix(self.seed, domain, epoch, unit)) < probability
    }

    /// True when worker `worker` straggles in `epoch`.
    pub fn is_straggler(&self, epoch: usize, worker: u32) -> bool {
        self.fires(self.rate, DOMAIN_STRAGGLER, epoch, u64::from(worker))
    }

    /// Duration multiplier for worker `worker`'s compute stages in
    /// `epoch` (1.0 unless the worker straggles).
    pub fn compute_slowdown(&self, epoch: usize, worker: u32) -> f64 {
        if self.is_straggler(epoch, worker) {
            STRAGGLER_COMPUTE_FACTOR
        } else {
            1.0
        }
    }

    /// Duration multiplier for worker `worker`'s link stages in `epoch`
    /// (1.0 unless the worker straggles).
    pub fn bandwidth_slowdown(&self, epoch: usize, worker: u32) -> f64 {
        if self.is_straggler(epoch, worker) {
            STRAGGLER_BANDWIDTH_FACTOR
        } else {
            1.0
        }
    }

    /// Failed attempts before worker `worker`'s epoch NIC exchange goes
    /// through (0 ⇒ first attempt succeeds; at most [`MAX_RETRIES`]).
    pub fn nic_failures(&self, epoch: usize, worker: u32) -> u32 {
        self.link_failures(DOMAIN_LINK_NIC, epoch, u64::from(worker))
    }

    /// Failed attempts before batch `batch`'s PCIe transfer goes through.
    pub fn pcie_failures(&self, epoch: usize, batch: usize) -> u32 {
        self.link_failures(DOMAIN_LINK_PCIE, epoch, batch as u64)
    }

    /// Consecutive failure draws below the rate, capped at
    /// [`MAX_RETRIES`] (so the attempt after the last allowed failure
    /// always succeeds and the retry loop provably terminates).
    fn link_failures(&self, domain: u64, epoch: usize, unit: u64) -> u32 {
        if self.is_none() {
            return 0;
        }
        let base = mix(self.seed, domain, epoch, unit);
        let mut failures = 0u32;
        while failures < MAX_RETRIES
            && unit_from_bits(split_seed(base, u64::from(failures))) < self.rate
        {
            failures += 1;
        }
        failures
    }

    /// The batch boundary at which worker `worker` dies in `epoch`, if it
    /// crashes at all. `None` when the worker survives or ran no batches.
    /// The returned index is in `0..num_batches`: the worker completes
    /// that many batches before dying.
    pub fn crash_batch(&self, epoch: usize, worker: u32, num_batches: usize) -> Option<usize> {
        let crash_rate = self.rate * CRASH_RATE_FACTOR;
        if num_batches == 0 || !self.fires(crash_rate, DOMAIN_CRASH, epoch, u64::from(worker)) {
            return None;
        }
        let pick = mix(self.seed, DOMAIN_CRASH_BATCH, epoch, u64::from(worker));
        // Modulo keeps the choice an exact integer function of the draw;
        // num_batches > 0 was checked above.
        Some((pick % num_batches as u64) as usize)
    }

    /// Parameter snapshots taken over an epoch of `batches` batches: one
    /// per [`CHECKPOINT_EVERY_BATCHES`] under a faulted plan, none under
    /// the neutral one.
    pub fn snapshots(&self, batches: usize) -> usize {
        if self.is_none() {
            0
        } else {
            batches / CHECKPOINT_EVERY_BATCHES
        }
    }

    /// Batches lost (to be replayed) when a worker dies right before
    /// completing batch `crash_batch`: everything since the last snapshot
    /// (the whole epoch so far when the plan takes none).
    pub fn replayed_batches(&self, crash_batch: usize) -> usize {
        if self.is_none() {
            crash_batch
        } else {
            crash_batch % CHECKPOINT_EVERY_BATCHES
        }
    }

    /// Seconds `failures` failed attempts add in front of a transfer's
    /// delivery: per attempt the hedge deadline if that wins the round,
    /// else the transfer plus [`RETRY_TIMEOUT`] plus
    /// [`backoff_delay`]`(attempt)` — the analytic cost of the spans
    /// [`FaultPlan::schedule_failed_attempts`] emits, for budget checks
    /// that must decide before anything is scheduled.
    pub fn failed_attempts_cost(
        &self,
        hedge: Option<HedgePolicy>,
        transfer_s: Seconds,
        failures: u32,
    ) -> Seconds {
        RETRY.failed_attempts_cost(hedge, transfer_s, failures)
    }

    /// Schedules `failures` failed attempts of a transfer on `lane`, the
    /// first one ready at `ready`. A retried attempt is a `Retry` span
    /// carrying the retransmitted `bytes` (held for the transfer plus
    /// [`RETRY_TIMEOUT`]) followed by a `Backoff` span; with `hedge` armed,
    /// an attempt whose hedge deadline is strictly earlier than that round
    /// is one `Cancel` span (the abandoned primary's wasted `bytes`)
    /// ending at the deadline — a tie retries. `tag` names the batch or
    /// worker on every span. Returns when the delivery may start and its
    /// kind: `delivery`, or `Hedge` once a duplicate rescued the transfer.
    /// Zero failures schedule nothing and return `(ready, delivery)`.
    #[allow(clippy::too_many_arguments, reason = "every parameter is one field of the span this schedules; a struct would only rename them")]
    pub fn schedule_failed_attempts(
        &self,
        hedge: Option<HedgePolicy>,
        tl: &mut Timeline,
        lane: Resource,
        ready: f64,
        transfer_s: Seconds,
        failures: u32,
        bytes: Bytes,
        tag: SpanMeta,
        delivery: SpanKind,
    ) -> (f64, SpanKind) {
        RETRY.schedule_failed_attempts(
            hedge, tl, lane, ready, transfer_s, failures, bytes, tag, delivery,
        )
    }
}

// ---------------------------------------------------------------------------
// Resilience policies: how a run *reacts* to the plan's faults.
// ---------------------------------------------------------------------------

/// Hedged-transfer policy: a duplicate of every transfer is launched once
/// the primary has run past a seeded quantile deadline, the first finisher
/// wins and the loser is cancelled with its wasted wire bytes ledgered as
/// a `Cancel` span.
///
/// The cost model is analytic: the modelled transfer distribution is the
/// deterministic healthy duration `T` (every quantile of a point mass is
/// `T` itself), so the hedge deadline is `deadline_factor · T`. A failed
/// primary attempt would cost `T + timeout + backoff` under the retry
/// discipline; the hedge wins the round whenever the deadline beats that,
/// completing the round at `min(deadline, T + timeout + backoff)` — a
/// hedged round is therefore never slower than the retried one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Hedge deadline as a multiple of the healthy transfer duration
    /// (the seeded-quantile deadline of the deterministic distribution);
    /// must be ≥ 1 for the duplicate to launch after the primary.
    pub deadline_factor: f64,
}

impl HedgePolicy {
    /// Hedge at 1.5× the healthy transfer duration.
    pub const fn paper_default() -> HedgePolicy {
        HedgePolicy { deadline_factor: 1.5 }
    }

    /// Time after the round starts at which the duplicate completes, for
    /// a transfer whose healthy duration is `transfer_s`. Clamped to at
    /// least `transfer_s`: the duplicate itself still has to move the
    /// bytes, so no deadline can beat the healthy wire time.
    pub fn deadline_s(&self, transfer_s: Seconds) -> Seconds {
        (transfer_s * self.deadline_factor).max(transfer_s)
    }
}

/// What a [`DeadlinePolicy`] does when a worker's stage blows its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineAction {
    /// Abandon the stage and skip the worker's batches this epoch; the
    /// skipped batch count rides on the `Cancel` span's `meta.edges` and
    /// feeds the accuracy model.
    SkipBatch,
    /// Abandon the stage and fall back to the last parameter checkpoint
    /// (a `Restore` span), then continue.
    FallbackToCheckpoint,
}

/// Per-stage timeout: when a worker's faulted exchange stage (retries,
/// backoffs and the final transfer) would exceed `stage_timeout_s`, the
/// stage is cut off at the timeout (`Cancel` span carrying the wasted
/// bytes) and `action` decides how the worker proceeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlinePolicy {
    /// Budget for one worker's exchange stage.
    pub stage_timeout_s: Seconds,
    /// Recovery action on a blown budget.
    pub action: DeadlineAction,
}

/// Straggler mitigation: a fraction of every straggler's batches is
/// speculatively re-dispatched to the fastest non-straggling worker,
/// which pays the moved input bytes over its NIC plus the moved compute
/// (both `Redispatch` spans) at healthy speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedispatchPolicy {
    /// Fraction of a straggler's batches to move, in `[0, 1]`.
    pub frac: f64,
}

impl RedispatchPolicy {
    /// Batches moved off a straggler running `num_batches`:
    /// `floor(num_batches · frac)`, clamped to `[0, num_batches]` so
    /// degenerate fractions stay total.
    pub fn moved_batches(&self, num_batches: usize) -> usize {
        let moved = gnn_dm_trace::convert::usize_of_f64_model(num_batches as f64 * self.frac);
        moved.min(num_batches)
    }
}

/// Degraded-mode sync: the gradient all-reduce excludes workers more than
/// `max_lag_batches` batches behind the fastest worker (measured in the
/// worker's own per-batch time), so the barrier waits only for the
/// included set. Excluded worker-rounds feed the deterministic accuracy
/// model ([`accuracy_retention`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleSyncPolicy {
    /// How many of its own batches a worker may lag behind the fastest
    /// worker before it is excluded from the sync.
    pub max_lag_batches: usize,
}

/// The complete resilience configuration of a run: each mechanism is
/// independent and optional, and the all-`None` policy is the neutral
/// element — simulators fed [`ResiliencePolicy::none`] perform the exact
/// floating-point operation sequence of their policy-free versions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResiliencePolicy {
    /// Hedged transfers (NIC exchanges, PCIe bursts).
    pub hedge: Option<HedgePolicy>,
    /// Per-stage timeouts.
    pub deadline: Option<DeadlinePolicy>,
    /// Straggler batch re-dispatch.
    pub redispatch: Option<RedispatchPolicy>,
    /// Bounded-staleness sync.
    pub stale_sync: Option<StaleSyncPolicy>,
}

impl ResiliencePolicy {
    /// The neutral policy: no mechanism armed, nothing injected.
    pub const fn none() -> ResiliencePolicy {
        ResiliencePolicy { hedge: None, deadline: None, redispatch: None, stale_sync: None }
    }

    /// True when no mechanism is armed.
    pub fn is_none(&self) -> bool {
        self.hedge.is_none()
            && self.deadline.is_none()
            && self.redispatch.is_none()
            && self.stale_sync.is_none()
    }

    /// Hedging only, at `deadline_factor × T`.
    pub const fn hedged(deadline_factor: f64) -> ResiliencePolicy {
        ResiliencePolicy {
            hedge: Some(HedgePolicy { deadline_factor }),
            deadline: None,
            redispatch: None,
            stale_sync: None,
        }
    }

    /// Every mechanism armed at its default strength: 1.5×-deadline
    /// hedging, skip-batch stage deadlines, half-batch re-dispatch and a
    /// 4-batch staleness bound. `stage_timeout_s` stays a parameter
    /// because it is workload-scale-dependent.
    pub const fn full(stage_timeout_s: Seconds) -> ResiliencePolicy {
        ResiliencePolicy {
            hedge: Some(HedgePolicy::paper_default()),
            deadline: Some(DeadlinePolicy { stage_timeout_s, action: DeadlineAction::SkipBatch }),
            redispatch: Some(RedispatchPolicy { frac: 0.5 }),
            stale_sync: Some(StaleSyncPolicy { max_lag_batches: 4 }),
        }
    }
}

/// Accuracy penalty per stale worker-round excluded from a sync: each
/// exclusion skips one worker's gradient contribution for one round.
pub const STALE_ROUND_PENALTY: f64 = 0.002;
/// Weight of the skipped-batch fraction in the accuracy model: skipping
/// work loses proportionally more signal than merely delaying a gradient.
pub const SKIP_FRACTION_WEIGHT: f64 = 0.5;

/// Deterministic model of the accuracy cost of degraded-mode training:
/// the retained fraction of converged accuracy after `stale_worker_rounds`
/// excluded gradient contributions and `skipped_batches` of
/// `total_batches` dropped outright,
///
/// ```text
/// retention = 1 − STALE_ROUND_PENALTY · stale_worker_rounds
///               − SKIP_FRACTION_WEIGHT · skipped/total
/// ```
///
/// clamped to `[0, 1]`. A pure function of its integer inputs — no draw,
/// no training run — so two evaluations can never disagree; `1.0` exactly
/// when nothing was excluded or skipped.
pub fn accuracy_retention(
    stale_worker_rounds: u64,
    skipped_batches: u64,
    total_batches: u64,
) -> f64 {
    let skip_frac = if total_batches > 0 {
        skipped_batches.min(total_batches) as f64 / total_batches as f64
    } else {
        0.0
    };
    let penalty =
        STALE_ROUND_PENALTY * stale_worker_rounds as f64 + SKIP_FRACTION_WEIGHT * skip_frac;
    (1.0 - penalty).clamp(0.0, 1.0)
}

/// Faulted-vs-resilient comparison of two epoch timelines of the same
/// epoch under the same [`FaultPlan`], read entirely off the policy spans
/// (`Hedge` / `Cancel` / `Redispatch` / `StaleSync`) — the timelines stay
/// the single source of truth.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// Makespan with the faults but no policy, in seconds.
    pub baseline_s: f64,
    /// Makespan with the policy armed, in seconds.
    pub resilient_s: f64,
    /// Bytes delivered by winning hedged duplicates (`Hedge` span bytes).
    pub hedged_bytes: u64,
    /// Wasted wire bytes of cancelled losers and killed stages (`Cancel`
    /// span bytes).
    pub wasted_bytes: u64,
    /// Batches dropped by deadline skip-batch actions (`Cancel` span edge
    /// counts; hedge losers carry 0 edges).
    pub skipped_batches: u64,
    /// Batches moved off stragglers (`Redispatch` span edge counts).
    pub redispatched_batches: u64,
    /// Input bytes moved with them (`Redispatch` span bytes).
    pub redispatched_bytes: u64,
    /// Worker-rounds excluded from degraded syncs (`StaleSync` edges).
    pub stale_worker_rounds: u64,
    /// Parameter bytes synced by degraded syncs (`StaleSync` bytes).
    pub stale_sync_bytes: u64,
    /// Total batches the epoch was meant to run (denominator of the
    /// accuracy model's skip fraction).
    pub total_batches: u64,
}

impl PolicyOutcome {
    /// Builds the outcome from the policy-free faulted timeline and the
    /// resilient timeline of the same epoch.
    pub fn compare(baseline: &Timeline, resilient: &Timeline, total_batches: u64) -> PolicyOutcome {
        PolicyOutcome {
            baseline_s: baseline.makespan(),
            resilient_s: resilient.makespan(),
            hedged_bytes: resilient.bytes_of_kind(SpanKind::Hedge).0,
            wasted_bytes: resilient.bytes_of_kind(SpanKind::Cancel).0,
            skipped_batches: resilient.edges_of_kind(SpanKind::Cancel),
            redispatched_batches: resilient.edges_of_kind(SpanKind::Redispatch),
            redispatched_bytes: resilient.bytes_of_kind(SpanKind::Redispatch).0,
            stale_worker_rounds: resilient.edges_of_kind(SpanKind::StaleSync),
            stale_sync_bytes: resilient.bytes_of_kind(SpanKind::StaleSync).0,
            total_batches,
        }
    }

    /// Faulted-baseline over resilient makespan (> 1 when the policy
    /// helped; 1.0 when the resilient epoch is empty).
    pub fn speedup(&self) -> f64 {
        if self.resilient_s > 0.0 {
            self.baseline_s / self.resilient_s
        } else {
            1.0
        }
    }

    /// The deterministic accuracy model evaluated on this outcome's
    /// staleness and skip counters ([`accuracy_retention`]).
    pub fn accuracy_retention(&self) -> f64 {
        accuracy_retention(self.stale_worker_rounds, self.skipped_batches, self.total_batches)
    }
}

/// Healthy-vs-faulted comparison of two epoch timelines, read entirely
/// off the fault spans (`Retry` / `Backoff` / `Checkpoint` / `Restore` /
/// `Replay`) — the timelines stay the single source of truth.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Healthy epoch makespan in seconds.
    pub healthy_s: f64,
    /// Faulted epoch makespan in seconds.
    pub faulted_s: f64,
    /// Bytes retransmitted by failed transfers (`Retry` span bytes).
    pub retry_bytes: u64,
    /// Number of failed transfer attempts (`Retry` span count).
    pub retry_spans: usize,
    /// Seconds spent waiting in backoff (`Backoff` span durations).
    pub backoff_s: f64,
    /// Bytes written by parameter snapshots (`Checkpoint` span bytes).
    pub checkpoint_bytes: u64,
    /// Bytes read back restoring snapshots after crashes (`Restore`).
    pub restore_bytes: u64,
    /// Batches re-executed after crashes (`Replay` span edge counts —
    /// the replay spans carry the batch count in `meta.edges`).
    pub replayed_batches: u64,
    /// Seconds spent re-executing lost batches (`Replay` durations).
    pub replay_s: f64,
}

impl ResilienceReport {
    /// Builds the report from a healthy and a faulted timeline of the
    /// same epoch.
    pub fn compare(healthy: &Timeline, faulted: &Timeline) -> ResilienceReport {
        ResilienceReport {
            healthy_s: healthy.makespan(),
            faulted_s: faulted.makespan(),
            retry_bytes: faulted.bytes_of_kind(SpanKind::Retry).0,
            retry_spans: faulted.spans().iter().filter(|s| s.kind == SpanKind::Retry).count(),
            backoff_s: faulted.busy_of_kind(SpanKind::Backoff),
            checkpoint_bytes: faulted.bytes_of_kind(SpanKind::Checkpoint).0,
            restore_bytes: faulted.bytes_of_kind(SpanKind::Restore).0,
            replayed_batches: faulted.edges_of_kind(SpanKind::Replay),
            replay_s: faulted.busy_of_kind(SpanKind::Replay),
        }
    }

    /// Faulted over healthy makespan (1.0 when the healthy epoch is
    /// empty).
    pub fn slowdown(&self) -> f64 {
        if self.healthy_s > 0.0 {
            self.faulted_s / self.healthy_s
        } else {
            1.0
        }
    }

    /// Fraction of the faulted wall-clock that was useful work: healthy
    /// over faulted makespan, clamped to `[0, 1]` (1.0 for an empty
    /// faulted epoch).
    pub fn goodput(&self) -> f64 {
        if self.faulted_s > 0.0 {
            (self.healthy_s / self.faulted_s).clamp(0.0, 1.0)
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_dm_trace::Span;

    #[test]
    fn none_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        for epoch in 0..4 {
            for w in 0..8 {
                assert_eq!(p.compute_slowdown(epoch, w).to_bits(), 1.0f64.to_bits());
                assert_eq!(p.bandwidth_slowdown(epoch, w).to_bits(), 1.0f64.to_bits());
                assert_eq!(p.nic_failures(epoch, w), 0);
                assert_eq!(p.crash_batch(epoch, w, 100), None);
            }
            assert_eq!(p.pcie_failures(epoch, 17), 0);
        }
    }

    #[test]
    fn draws_are_pure_functions_of_the_coordinates() {
        let p = FaultPlan::uniform(42, 0.3);
        let q = FaultPlan::uniform(42, 0.3);
        for epoch in 0..3 {
            for w in 0..6 {
                assert_eq!(p.is_straggler(epoch, w), q.is_straggler(epoch, w));
                assert_eq!(p.nic_failures(epoch, w), q.nic_failures(epoch, w));
                assert_eq!(p.crash_batch(epoch, w, 37), q.crash_batch(epoch, w, 37));
            }
        }
        // A different seed decorrelates: at 30% rates, 24 coordinates
        // should not all agree between two independent plans.
        let r = FaultPlan::uniform(43, 0.3);
        let same = (0..3)
            .flat_map(|e| (0..8).map(move |w| (e, w)))
            .filter(|&(e, w)| p.is_straggler(e, w) == r.is_straggler(e, w))
            .count();
        assert!(same < 24, "seed change flipped no straggler draws");
    }

    #[test]
    fn failure_count_is_monotone_in_rate() {
        let seeds = [1u64, 7, 99];
        let rates = [0.0, 0.1, 0.3, 0.5, 0.8, 1.0];
        for &seed in &seeds {
            for w in 0..8 {
                let mut prev = 0;
                for &rate in &rates {
                    let p = FaultPlan::uniform(seed, rate);
                    let f = p.nic_failures(0, w);
                    assert!(
                        f >= prev,
                        "failures dropped from {prev} to {f} raising rate to {rate}"
                    );
                    prev = f;
                }
            }
        }
    }

    #[test]
    fn certain_failure_saturates_at_max_retries() {
        // Rates above 1 saturate like 1 does.
        for rate in [1.0, 7.0] {
            let p = FaultPlan::uniform(5, rate);
            assert_eq!(p.nic_failures(0, 0), MAX_RETRIES);
            assert_eq!(p.pcie_failures(3, 12), MAX_RETRIES);
            assert!((0..8).all(|w| p.is_straggler(0, w)));
        }
    }

    #[test]
    fn backoff_doubles_then_caps() {
        assert!((backoff_delay(0).0 - 0.01).abs() < 1e-15);
        assert!((backoff_delay(1).0 - 0.02).abs() < 1e-15);
        assert!((backoff_delay(2).0 - 0.04).abs() < 1e-15);
        assert_eq!(backoff_delay(10).0.to_bits(), 0.5f64.to_bits(), "capped");
        assert_eq!(backoff_delay(400).0.to_bits(), 0.5f64.to_bits(), "shift saturates");
        assert_eq!(backoff_delay(u32::MAX), BACKOFF_CAP, "never overflows");
    }

    /// Dyadic parameters, so every sum below is exact: a failed 1 s
    /// transfer costs 1.5 s on the wire plus 0.25 / 0.5 / 1 / 2 / 2 s of
    /// backoff.
    const DYADIC: Retry = Retry {
        timeout_s: Seconds(0.5),
        backoff_base_s: Seconds(0.25),
        backoff_cap_s: Seconds(2.0),
    };

    /// `failures` failed attempts of a 1 s, 100-byte transfer ready at
    /// t = 8 on worker 3's NIC: the spans, when the delivery may start,
    /// and its kind.
    fn failed_attempts(hedge: Option<HedgePolicy>, failures: u32) -> (Vec<Span>, f64, SpanKind) {
        let mut tl = Timeline::new();
        let tag = SpanMeta { worker: Some(3), ..SpanMeta::default() };
        let (ready, kind) = DYADIC.schedule_failed_attempts(
            hedge,
            &mut tl,
            Resource::WorkerNic(3),
            8.0,
            Seconds(1.0),
            failures,
            Bytes(100),
            tag,
            SpanKind::Exchange,
        );
        (tl.spans().to_vec(), ready, kind)
    }

    #[test]
    fn hedge_wins_a_round_iff_its_deadline_is_strictly_earlier() {
        let kinds = |factor: f64, failures: u32| -> Vec<SpanKind> {
            let hedge = Some(HedgePolicy { deadline_factor: factor });
            failed_attempts(hedge, failures).0.iter().map(|s| s.kind).collect()
        };
        // Attempt 0 retried costs 1.5 + 0.25 = 1.75 s.
        assert_eq!(kinds(1.5, 1), [SpanKind::Cancel], "1.5 < 1.75: hedged");
        assert_eq!(kinds(1.75, 1), [SpanKind::Retry, SpanKind::Backoff], "a tie retries");
        assert_eq!(kinds(2.0, 1), [SpanKind::Retry, SpanKind::Backoff]);
        // The same 1.75 s deadline beats attempt 1's 1.5 + 0.5 = 2 s.
        assert_eq!(
            kinds(1.75, 2),
            [SpanKind::Retry, SpanKind::Backoff, SpanKind::Cancel],
            "the decision is per round"
        );
        // A hedged round ends at the deadline, a retried one after the backoff.
        let (spans, ready, _) = failed_attempts(Some(HedgePolicy { deadline_factor: 1.75 }), 2);
        assert_eq!(spans[0].t_end.to_bits(), 9.5f64.to_bits());
        assert_eq!(spans[1].t_end.to_bits(), 9.75f64.to_bits());
        assert_eq!(ready.to_bits(), (9.75f64 + 1.75).to_bits());
    }

    #[test]
    fn failed_attempts_cost_is_the_emitted_span_time() {
        for hedge in [None, Some(HedgePolicy { deadline_factor: 1.75 })] {
            for failures in 0..=5 {
                let (spans, ready, _) = failed_attempts(hedge, failures);
                let cost = DYADIC.failed_attempts_cost(hedge, Seconds(1.0), failures).0;
                let emitted = spans.iter().fold(0.0f64, |sum, s| sum + s.duration());
                assert_eq!(cost.to_bits(), emitted.to_bits(), "{hedge:?}, {failures} failures");
                assert_eq!(ready.to_bits(), (8.0 + cost).to_bits());
                // Every span sits on the lane asked for, tagged as asked.
                assert!(spans.iter().all(|s| s.resource == Resource::WorkerNic(3)
                    && s.meta.worker == Some(3)
                    && s.meta.batch.is_none()));
            }
        }
        // Unhedged: 4 × 1.5 s on the wire + 0.25 + 0.5 + 1 + 2 s waited.
        assert_eq!(DYADIC.failed_attempts_cost(None, Seconds(1.0), 4), Seconds(9.75));
    }

    #[test]
    fn no_failures_schedule_nothing() {
        for hedge in [None, Some(HedgePolicy::paper_default())] {
            let (spans, ready, kind) = failed_attempts(hedge, 0);
            assert!(spans.is_empty());
            assert_eq!(ready.to_bits(), 8.0f64.to_bits());
            assert_eq!(kind, SpanKind::Exchange);
            assert_eq!(DYADIC.failed_attempts_cost(hedge, Seconds(1.0), 0).0.to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn a_won_hedge_flips_the_delivery_kind() {
        assert_eq!(failed_attempts(None, 3).2, SpanKind::Exchange);
        // Armed but never earlier than a retry: the delivery stays ordinary.
        let late = Some(HedgePolicy { deadline_factor: 9.0 });
        assert_eq!(failed_attempts(late, 3).2, SpanKind::Exchange);
        // One won round out of two is enough.
        let wins_second = Some(HedgePolicy { deadline_factor: 1.75 });
        assert_eq!(failed_attempts(wins_second, 2).2, SpanKind::Hedge);
    }

    #[test]
    fn every_failed_attempt_ledgers_its_bytes_once() {
        for hedge in [None, Some(HedgePolicy { deadline_factor: 1.75 })] {
            for failures in 0..=5 {
                let (spans, _, _) = failed_attempts(hedge, failures);
                let bytes = |kind| -> Bytes {
                    spans.iter().filter(|s| s.kind == kind).map(|s| s.meta.bytes).sum()
                };
                // What `retry_bytes_from_spans` + `wasted_bytes_from_spans` reduce.
                assert_eq!(
                    bytes(SpanKind::Retry) + bytes(SpanKind::Cancel),
                    Bytes(100) * u64::from(failures)
                );
                assert_eq!(bytes(SpanKind::Backoff), Bytes(0), "waiting moves nothing");
            }
        }
    }

    #[test]
    fn checkpoint_arithmetic() {
        let c = FaultPlan::uniform(1, 0.3);
        assert_eq!(c.snapshots(0), 0);
        assert_eq!(c.snapshots(7), 0);
        assert_eq!(c.snapshots(8), 1);
        assert_eq!(c.snapshots(25), 3);
        assert_eq!(c.replayed_batches(0), 0);
        assert_eq!(c.replayed_batches(7), 7);
        assert_eq!(c.replayed_batches(8), 0);
        assert_eq!(c.replayed_batches(21), 5);
        let d = FaultPlan::none();
        assert_eq!(d.snapshots(100), 0);
        assert_eq!(d.replayed_batches(42), 42, "no snapshots: replay everything");
    }

    #[test]
    fn crash_batch_is_in_range_and_gated_by_rate() {
        // The crash rate is half the plan's rate, so 2.0 crashes for sure.
        let certain = FaultPlan::uniform(11, 2.0);
        for w in 0..16 {
            let cb = certain.crash_batch(0, w, 13);
            assert!(cb.is_some_and(|b| b < 13), "crash batch out of range: {cb:?}");
        }
        assert_eq!(certain.crash_batch(0, 0, 0), None, "no batches, no crash");
        let sometimes = FaultPlan::uniform(11, 0.4); // crash rate 0.2
        let crashes = (0..64).filter(|&w| sometimes.crash_batch(0, w, 13).is_some()).count();
        assert!(crashes > 0 && crashes < 64, "crash rate 0.2 hit {crashes}/64 workers");
    }

    #[test]
    fn unit_draws_live_in_the_half_open_interval() {
        for i in 0..1000u64 {
            let u = unit_from_bits(split_seed(77, i));
            assert!((0.0..1.0).contains(&u), "draw {u} out of [0,1)");
        }
        assert_eq!(unit_from_bits(0).to_bits(), 0.0f64.to_bits());
        assert!(unit_from_bits(u64::MAX) < 1.0);
    }

    #[test]
    fn resilience_report_reads_fault_spans() {
        let (nic, none) = (Resource::WorkerNic(0), SpanMeta::default());
        let bytes = |b: u64| SpanMeta::bytes(Bytes(b));
        let mut healthy = Timeline::new();
        healthy.schedule(Resource::WorkerCpu(0), SpanKind::Sample, 0.0, Seconds(2.0), none);
        let mut faulted = Timeline::new();
        // Chain the fault spans after the base work so the faulted
        // makespan actually stretches (as it does in the simulators).
        let mut t = faulted.schedule(Resource::WorkerCpu(0), SpanKind::Sample, 0.0, Seconds(2.0), none);
        t = faulted.schedule(nic, SpanKind::Retry, t, Seconds(0.5), bytes(100));
        t = faulted.schedule(nic, SpanKind::Backoff, t, Seconds(0.25), none);
        t = faulted.schedule(nic, SpanKind::Checkpoint, t, Seconds(0.1), bytes(40));
        t = faulted.schedule(nic, SpanKind::Restore, t, Seconds(0.1), bytes(40));
        faulted.schedule(Resource::WorkerGpu(0), SpanKind::Replay, t, Seconds(1.05), SpanMeta::edges(3));
        let r = ResilienceReport::compare(&healthy, &faulted);
        assert_eq!(r.retry_bytes, 100);
        assert_eq!(r.retry_spans, 1);
        assert!((r.backoff_s - 0.25).abs() < 1e-12);
        assert_eq!(r.checkpoint_bytes, 40);
        assert_eq!(r.restore_bytes, 40);
        assert_eq!(r.replayed_batches, 3);
        assert!((r.replay_s - 1.05).abs() < 1e-12);
        assert!(r.slowdown() > 1.0);
        assert!(r.goodput() < 1.0 && r.goodput() > 0.0);
    }

    #[test]
    fn none_policy_is_neutral_and_presets_arm() {
        let none = ResiliencePolicy::none();
        assert!(none.is_none());
        assert_eq!(none, ResiliencePolicy::default());
        let hedged = ResiliencePolicy::hedged(1.5);
        assert!(!hedged.is_none());
        assert_eq!(hedged.hedge, Some(HedgePolicy::paper_default()));
        let full = ResiliencePolicy::full(Seconds(0.25));
        assert!(full.hedge.is_some() && full.deadline.is_some());
        assert!(full.redispatch.is_some() && full.stale_sync.is_some());
    }

    #[test]
    fn hedge_deadline_never_beats_the_wire() {
        let h = HedgePolicy { deadline_factor: 1.5 };
        assert_eq!(h.deadline_s(Seconds(2.0)).0.to_bits(), 3.0f64.to_bits());
        // A sub-1 factor cannot finish before the duplicate's own wire time.
        let early = HedgePolicy { deadline_factor: 0.25 };
        assert_eq!(early.deadline_s(Seconds(2.0)).0.to_bits(), 2.0f64.to_bits());
        assert_eq!(h.deadline_s(Seconds(0.0)).0.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn redispatch_moved_batches_is_total() {
        let r = RedispatchPolicy { frac: 0.5 };
        assert_eq!(r.moved_batches(10), 5);
        assert_eq!(r.moved_batches(3), 1);
        assert_eq!(r.moved_batches(0), 0);
        assert_eq!(RedispatchPolicy { frac: 0.0 }.moved_batches(10), 0);
        assert_eq!(RedispatchPolicy { frac: 1.0 }.moved_batches(10), 10);
        // Degenerate fractions clamp instead of exploding.
        assert_eq!(RedispatchPolicy { frac: 7.0 }.moved_batches(10), 10);
        assert_eq!(RedispatchPolicy { frac: -1.0 }.moved_batches(10), 0);
    }

    #[test]
    fn accuracy_retention_model_is_deterministic_and_clamped() {
        assert_eq!(accuracy_retention(0, 0, 100).to_bits(), 1.0f64.to_bits());
        assert_eq!(accuracy_retention(0, 0, 0).to_bits(), 1.0f64.to_bits());
        let one_round = accuracy_retention(1, 0, 100);
        assert!((one_round - (1.0 - STALE_ROUND_PENALTY)).abs() < 1e-15);
        let half_skipped = accuracy_retention(0, 50, 100);
        assert!((half_skipped - (1.0 - SKIP_FRACTION_WEIGHT * 0.5)).abs() < 1e-15);
        // Monotone in both counters, and saturating at zero.
        assert!(accuracy_retention(2, 0, 100) < one_round);
        assert!(accuracy_retention(0, 60, 100) < half_skipped);
        assert_eq!(accuracy_retention(10_000, 100, 100).to_bits(), 0.0f64.to_bits());
        // Skip count larger than the total clamps the fraction.
        assert!(accuracy_retention(0, 500, 100) >= 0.0);
    }

    #[test]
    fn policy_outcome_reads_resilience_spans() {
        let (nic, hundred) = (Resource::WorkerNic(0), SpanMeta::bytes(Bytes(100)));
        let mut baseline = Timeline::new();
        baseline.schedule(nic, SpanKind::Exchange, 0.0, Seconds(4.0), hundred);
        let mut res = Timeline::new();
        let t = res.schedule(nic, SpanKind::Cancel, 0.0, Seconds(1.5), hundred);
        res.schedule(nic, SpanKind::Hedge, t, Seconds(1.0), hundred);
        res.schedule(Resource::WorkerNic(1), SpanKind::Redispatch, 0.0, Seconds(0.5), SpanMeta {
            bytes: Bytes(40),
            edges: 3,
            ..SpanMeta::default()
        });
        res.schedule(Resource::AllReduce, SpanKind::StaleSync, 2.5, Seconds(0.5), SpanMeta {
            bytes: Bytes(64),
            edges: 2,
            ..SpanMeta::default()
        });
        let o = PolicyOutcome::compare(&baseline, &res, 20);
        assert_eq!(o.hedged_bytes, 100);
        assert_eq!(o.wasted_bytes, 100);
        assert_eq!(o.skipped_batches, 0);
        assert_eq!(o.redispatched_batches, 3);
        assert_eq!(o.redispatched_bytes, 40);
        assert_eq!(o.stale_worker_rounds, 2);
        assert_eq!(o.stale_sync_bytes, 64);
        assert!(o.speedup() > 1.0);
        assert!(o.accuracy_retention() < 1.0 && o.accuracy_retention() > 0.0);
        let empty = PolicyOutcome::compare(&Timeline::new(), &Timeline::new(), 0);
        assert_eq!(empty.speedup().to_bits(), 1.0f64.to_bits());
        assert_eq!(empty.accuracy_retention().to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn a_rate_that_is_not_positive_is_the_neutral_plan() {
        for rate in [f64::NAN, -f64::NAN, 0.0, -0.0, -0.5, f64::NEG_INFINITY] {
            let p = FaultPlan::uniform(13, rate);
            assert!(p.is_none(), "rate {rate}");
            assert_eq!(p, FaultPlan::uniform(13, 0.0), "rate {rate}");
            for epoch in 0..8 {
                for w in 0..4 {
                    assert!(!p.is_straggler(epoch, w));
                    assert_eq!(p.compute_slowdown(epoch, w).to_bits(), 1.0f64.to_bits());
                    assert_eq!(p.bandwidth_slowdown(epoch, w).to_bits(), 1.0f64.to_bits());
                    assert_eq!(p.nic_failures(epoch, w), 0);
                    assert_eq!(p.pcie_failures(epoch, w as usize), 0);
                    assert_eq!(p.crash_batch(epoch, w, 20), None, "rate {rate}");
                }
            }
            assert_eq!(p.snapshots(20), 0);
            assert_eq!(p.replayed_batches(13), 13);
        }
    }

    #[test]
    fn degenerate_report_ratios_are_total() {
        let empty = Timeline::new();
        let r = ResilienceReport::compare(&empty, &empty);
        assert_eq!(r.slowdown().to_bits(), 1.0f64.to_bits());
        assert_eq!(r.goodput().to_bits(), 1.0f64.to_bits());
    }
}
