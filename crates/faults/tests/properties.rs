//! Property-based tests of the fault-injection and resilience policies:
//! the retry budget, the backoff sequence, the policies and the accuracy
//! model must stay total, saturating and monotone over their whole
//! (including degenerate) input space.

use gnn_dm_faults::{
    accuracy_retention, backoff_delay, FaultPlan, HedgePolicy, RedispatchPolicy, MAX_RETRIES,
};
use gnn_dm_trace::units::Seconds;
use proptest::prelude::*;

/// Rates in `[0, 1]`, with both ends and NaN among them.
fn rate_or_nan() -> impl Strategy<Value = f64> {
    (0u32..12, 0.0f64..1.0).prop_map(|(pick, rate)| match pick {
        0 => f64::NAN,
        1 => 0.0,
        2 => 1.0,
        _ => rate,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Failure counts never exceed `MAX_RETRIES`, at any rate in `[0, 1]`
    /// (NaN included) and any coordinate — the retry loop always ends.
    #[test]
    fn failures_bounded_by_max_retries(
        rate in rate_or_nan(),
        seed in 0u64..1_000,
        worker in 0u32..32,
        epoch in 0usize..8,
    ) {
        let plan = FaultPlan::uniform(seed, rate);
        prop_assert!(plan.nic_failures(epoch, worker) <= MAX_RETRIES);
        prop_assert!(plan.pcie_failures(epoch, worker as usize) <= MAX_RETRIES);
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
        let doublings = 1u64 << attempt.min(62);
        let expect = (0.01 * doublings as f64).min(0.5);
        prop_assert_eq!(backoff_delay(attempt).0.to_bits(), expect.to_bits());
    }
}
