// Fixture: reasoned suppressions silence exactly their rules on their own
// line and the next code line.

pub fn trailing(link: &LinkModel) -> f64 {
    link.transfer_time(1 << 20) // lint:allow(A002) an analytic bound with no timeline by design
}

pub fn preceding(link: &LinkModel) -> f64 {
    // lint:allow(A002) an analytic bound with no timeline by design
    link.transfer_time(1 << 20)
}

pub fn multi_rule(items: &[u64], link: &LinkModel) -> Vec<Vec<f64>> {
    par_map_collect(items, |_, &x| {
        // lint:allow(A002, R003) one priced row per unit is the closure's return value
        vec![link.transfer_time(x)]
    })
}
