// Fixture: reasoned suppressions silence exactly their rules on their own
// line and the next code line.

pub fn trailing(xs: &[u32]) -> u32 {
    *xs.first().unwrap() // lint:allow(P001) caller guarantees non-empty input
}

pub fn preceding(xs: &[u32]) -> u32 {
    // lint:allow(P001) caller guarantees non-empty input
    *xs.first().unwrap()
}

pub fn multi_rule(xs: &[u32]) -> f64 {
    // lint:allow(D001, P001) measuring a documented one-off calibration step
    Instant::now().elapsed().as_secs_f64() + *xs.first().unwrap() as f64
}
