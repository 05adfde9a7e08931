// Fixture: P001 must fire in a deterministic crate's library code too —
// unwrap/expect turn a recoverable error into an abort.

pub fn head(xs: &[u32]) -> u32 {
    *xs.first().unwrap() // P001
}

pub fn named(x: Option<u32>) -> u32 {
    x.expect("must be set") // P001
}
