//! Inter-node network models.

use gnn_dm_device::LinkModel;
use gnn_dm_trace::units::{Bytes, Seconds};

/// Time for a synchronous ring all-reduce of `bytes` across `workers`
/// nodes: each node sends and receives `2 (W-1)/W · bytes`.
///
/// Total on degenerate worker counts (library panic-freedom): with
/// zero or one participant there is no peer to exchange gradients with, so
/// the collective saturates to 0 seconds instead of asserting.
pub fn allreduce_time(link: &LinkModel, bytes: Bytes, workers: usize) -> Seconds {
    if workers <= 1 {
        return Seconds(0.0);
    }
    let w = workers as f64;
    // The wire share is a fractional byte count, so it is priced as a
    // plain `f64` over the raw rate rather than rounded to whole `Bytes`.
    let wire_bytes = 2.0 * (w - 1.0) / w * bytes.0 as f64;
    // 2(W-1) latency-bound steps plus the bandwidth term.
    link.latency() * (2.0 * (w - 1.0)) + Seconds(wire_bytes / link.effective_bandwidth().0)
}

/// Time for `count` sequential full-size parameter snapshots of `bytes`
/// each over the link — the cost model for checkpoint writes and
/// crash-recovery restores (each snapshot is one bulk transfer).
#[expect(clippy::disallowed_methods, reason = "a network model is priced on the link model (or another network model)")]
pub fn snapshot_time(link: &LinkModel, bytes: Bytes, count: u64) -> Seconds {
    link.transfer_time(bytes) * count as f64
}

/// Time for worker `w` to exchange its epoch traffic over the NIC
/// (send and receive are full duplex; the slower direction bounds).
#[expect(clippy::disallowed_methods, reason = "a network model is priced on the link model (or another network model)")]
pub fn exchange_time(link: &LinkModel, sent: Bytes, received: Bytes) -> Seconds {
    link.transfer_time(sent.max(received))
}

/// Time for a bounded-staleness ("degraded-mode") all-reduce that excludes
/// `excluded` lagging workers: the ring shrinks to the included
/// participants, so both the latency steps and the wire share reprice.
/// With `excluded == 0` this is exactly [`allreduce_time`].
#[expect(clippy::disallowed_methods, reason = "a network model is priced on the link model (or another network model)")]
pub fn stale_allreduce_time(
    link: &LinkModel,
    bytes: Bytes,
    workers: usize,
    excluded: usize,
) -> Seconds {
    allreduce_time(link, bytes, workers.saturating_sub(excluded))
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "unit tests of the network models price them directly")]
mod tests {
    use super::*;

    const MB: Bytes = Bytes(1_000_000);

    #[test]
    fn allreduce_degenerate_worker_counts_are_free() {
        let nic = LinkModel::nic_10gbps();
        assert_eq!(allreduce_time(&nic, MB, 1).0.to_bits(), 0.0f64.to_bits());
        assert_eq!(allreduce_time(&nic, MB, 0).0.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn snapshots_price_linearly() {
        let nic = LinkModel::nic_10gbps();
        let one = snapshot_time(&nic, MB, 1);
        assert!((one - nic.transfer_time(MB)).0.abs() < 1e-12);
        assert!((snapshot_time(&nic, MB, 3) - one * 3.0).0.abs() < 1e-12);
        assert_eq!(snapshot_time(&nic, MB, 0).0.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn allreduce_scales_with_bytes() {
        let nic = LinkModel::nic_10gbps();
        let t1 = allreduce_time(&nic, MB, 4);
        let t2 = allreduce_time(&nic, MB * 2, 4);
        assert!(t2 > t1 * 1.5);
    }

    #[test]
    fn stale_allreduce_shrinks_the_ring() {
        let nic = LinkModel::nic_10gbps();
        let full = allreduce_time(&nic, MB, 4);
        assert_eq!(
            stale_allreduce_time(&nic, MB, 4, 0).0.to_bits(),
            full.0.to_bits(),
            "zero exclusions is exactly the healthy collective"
        );
        let degraded = stale_allreduce_time(&nic, MB, 4, 1);
        assert!(degraded < full, "a smaller ring must be cheaper");
        assert_eq!(
            stale_allreduce_time(&nic, MB, 4, 3).0.to_bits(),
            0.0f64.to_bits(),
            "one included worker has no peer"
        );
        assert_eq!(stale_allreduce_time(&nic, MB, 2, 5).0.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn exchange_bounded_by_dominant_direction() {
        let nic = LinkModel::nic_10gbps();
        let t = exchange_time(&nic, Bytes(1000), MB);
        assert!((t - nic.transfer_time(MB)).0.abs() < 1e-12);
    }
}
