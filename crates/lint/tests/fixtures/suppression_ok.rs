// Fixture: reasoned suppressions silence exactly their rules on their own
// line and the next code line.

pub fn trailing(link: &LinkModel) -> f64 {
    link.transfer_time(1 << 20) // lint:allow(A002) an analytic bound with no timeline by design
}

pub fn preceding(link: &LinkModel) -> f64 {
    // lint:allow(A002) an analytic bound with no timeline by design
    link.transfer_time(1 << 20)
}

pub fn multi_rule(items: &[u64], link: &LinkModel) -> Vec<f64> {
    par_map_collect(items, |_, &x| {
        // lint:allow(A002, R002) one fixed-seed probe transfer per unit, priced with no timeline by design
        link.transfer_time(StdRng::seed_from_u64(x).next_u64())
    })
}
