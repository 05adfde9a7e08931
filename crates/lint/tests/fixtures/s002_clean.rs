// Fixture: S002 must stay silent — every reasoned suppression still
// suppresses a live diagnostic on its covered lines.

pub fn head(xs: &[u32]) -> u32 {
    // lint:allow(P001) caller guarantees non-empty input
    *xs.first().unwrap()
}
