//! Property-based tests of the fault-injection and resilience policies:
//! the retry/backoff discipline and the accuracy model must stay total,
//! saturating and monotone over their whole (including degenerate)
//! parameter space.

use gnn_dm_faults::{
    accuracy_retention, FaultPlan, HedgePolicy, LinkFaultModel, RedispatchPolicy, RetryPolicy,
};
use gnn_dm_trace::units::Seconds;
use proptest::prelude::*;

/// A retry discipline with a zero timeout and the given backoff.
fn backoff(base: f64, cap: f64) -> RetryPolicy {
    RetryPolicy {
        max_retries: 4,
        timeout_s: Seconds(0.0),
        backoff_base_s: Seconds(base),
        backoff_cap_s: Seconds(cap),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `backoff_delay` is total: any `attempt` (including huge ones) and
    /// any finite non-negative parameters produce a finite wait in
    /// `[0, backoff_cap_s]`, monotone non-decreasing in the attempt.
    #[test]
    fn backoff_delay_is_total_and_saturating(
        base in 0.0f64..1.0e3,
        cap in 0.0f64..1.0e3,
        attempt in 0u32..u32::MAX,
    ) {
        let r = backoff(base, cap);
        let d = r.backoff_delay(attempt);
        prop_assert!(d.0.is_finite());
        prop_assert!(d >= Seconds(0.0));
        prop_assert!(d <= Seconds(cap.max(0.0)));
        if attempt < u32::MAX {
            prop_assert!(r.backoff_delay(attempt + 1) >= d, "backoff not monotone in attempt");
        }
    }

    /// Negative parameters clamp to a zero wait instead of producing a
    /// negative (time-reversing) delay.
    #[test]
    fn negative_backoff_parameters_clamp_to_zero(
        base in -1.0e3f64..0.0,
        attempt in 0u32..200,
    ) {
        prop_assert_eq!(backoff(base, 0.5).backoff_delay(attempt).0.to_bits(), 0.0f64.to_bits());
    }

    /// `max_retries: 0` disables the failure loop entirely, at any rate
    /// and any coordinate — the plan can never livelock or underflow.
    #[test]
    fn zero_max_retries_never_fails(
        rate in 0.0f64..1.0,
        seed in 0u64..1_000,
        worker in 0u32..64,
        epoch in 0usize..8,
    ) {
        let plan = FaultPlan {
            link: LinkFaultModel {
                failure_rate: rate,
                retry: RetryPolicy { max_retries: 0, ..RetryPolicy::paper_default() },
            },
            ..FaultPlan::uniform(seed, rate)
        };
        prop_assert_eq!(plan.nic_failures(epoch, worker), 0);
        prop_assert_eq!(plan.pcie_failures(epoch, worker as usize), 0);
    }

    /// Failure counts never exceed `max_retries` for any parameters.
    #[test]
    fn failures_bounded_by_max_retries(
        rate in 0.0f64..1.0,
        seed in 0u64..1_000,
        max_retries in 0u32..12,
        worker in 0u32..32,
    ) {
        let plan = FaultPlan {
            link: LinkFaultModel {
                failure_rate: rate,
                retry: RetryPolicy { max_retries, ..RetryPolicy::paper_default() },
            },
            ..FaultPlan::uniform(seed, rate)
        };
        prop_assert!(plan.nic_failures(0, worker) <= max_retries);
    }

    /// The hedge deadline is total and never beats the duplicate's own
    /// wire time.
    #[test]
    fn hedge_deadline_lower_bounded_by_transfer(
        factor in -2.0f64..8.0,
        transfer_s in 0.0f64..1.0e3,
    ) {
        let h = HedgePolicy { deadline_factor: factor };
        let d = h.deadline_s(Seconds(transfer_s));
        prop_assert!(d.0.is_finite());
        prop_assert!(d >= Seconds(transfer_s));
    }

    /// `moved_batches` stays in `[0, num_batches]` for any fraction.
    #[test]
    fn moved_batches_in_range(frac in -2.0f64..4.0, nb in 0usize..10_000) {
        let moved = RedispatchPolicy { frac }.moved_batches(nb);
        prop_assert!(moved <= nb);
    }

    /// The accuracy model is clamped to `[0, 1]` and monotone
    /// non-increasing in both degradation counters.
    #[test]
    fn accuracy_retention_clamped_and_monotone(
        stale in 0u64..2_000,
        skipped in 0u64..2_000,
        total in 0u64..2_000,
    ) {
        let r = accuracy_retention(stale, skipped, total);
        prop_assert!((0.0..=1.0).contains(&r));
        prop_assert!(accuracy_retention(stale + 1, skipped, total) <= r);
        prop_assert!(accuracy_retention(stale, skipped + 1, total) <= r);
    }

    /// `paper_default` backoff is bitwise the documented sequence: exact
    /// doublings of 10 ms until the 500 ms cap.
    #[test]
    fn paper_default_backoff_bitwise_pinned(attempt in 0u32..32) {
        let r = RetryPolicy::paper_default();
        let doublings = 1u64 << attempt.min(62);
        let expect = (0.01 * doublings as f64).min(0.5);
        prop_assert_eq!(r.backoff_delay(attempt).0.to_bits(), expect.to_bits());
    }
}
