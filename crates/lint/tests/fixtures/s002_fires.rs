// Fixture: S002 must fire — a reasoned suppression whose rule no longer
// fires on the covered lines is stale and must be deleted.

pub fn add(a: f64, b: f64) -> f64 {
    // lint:allow(A002) this line used to price a transfer but no longer does
    a + b
}
