// Fixture: S002 must stay silent — every reasoned suppression still
// suppresses a live diagnostic on its covered lines.

pub fn priced(link: &LinkModel) -> f64 {
    // lint:allow(A002) an analytic bound with no timeline by design
    link.transfer_time(1 << 20)
}
