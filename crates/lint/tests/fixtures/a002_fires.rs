// Fixture: A002 must fire — raw cost-model pricing outside the device
// crate computes seconds and bytes that never reach the span timeline.

pub fn hand_priced(link: &LinkModel, engine: &TransferEngine, bt: &BatchTransfer) -> f64 {
    let bulk = link.transfer_time(1 << 20); // A002
    let dispatch = engine.time_zero_copy(bt).total(); // A002
    bulk + dispatch
}

pub fn hand_priced_cluster(nic: &LinkModel) -> f64 {
    let sync = stale_allreduce_time(nic, 1 << 20, 4, 1); // A002
    let snapshots = snapshot_time(nic, 1 << 16, 2); // A002
    sync + snapshots
}
