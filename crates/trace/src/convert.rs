//! Checked counter conversions for the accounting crates.
//!
//! A silently-truncating `as` cast on a byte or edge counter turns an
//! overflow into a *wrong figure* instead of an error, and the paper's
//! conclusions are exactly those figures. These helpers name each
//! conversion's contract:
//!
//! - **Guarded widenings** (`u64_of_usize`, `u64_of_u32`, `usize_of_u32`)
//!   are lossless by construction; compile-time assertions pin the
//!   platform assumptions (64-bit `usize`) instead of trusting them.
//! - **Explicit saturations** (`u32_of_index`, `usize_of_u64_sat`) are for
//!   structurally-small values (worker ids, partition ids, row counts
//!   bounded by in-memory graphs); saturating is deterministic and the
//!   bound is documented at each call site by choosing this function.
//! - **Model roundings** (`u64_of_f64_model`, `usize_of_f64_model`) fence
//!   off the one legitimate float→counter path: analytic cost models that
//!   produce fractional byte/row estimates.

// Counter widths below assume a 64-bit target; fail the build, not the
// figures, if that ever changes.
const _: () = assert!(
    std::mem::size_of::<usize>() <= std::mem::size_of::<u64>(),
    "usize wider than u64: the guarded widenings below would truncate"
);
const _: () = assert!(
    std::mem::size_of::<usize>() >= std::mem::size_of::<u32>(),
    "usize narrower than u32: index widening would truncate"
);

/// Widens a `usize` counter to the `u64` ledger domain. Lossless on every
/// supported target (checked at compile time above).
pub const fn u64_of_usize(n: usize) -> u64 {
    n as u64 // guarded widening: const assert pins usize <= 64 bits
}

/// Widens a `u32` id or count to the `u64` ledger domain. Always lossless.
pub const fn u64_of_u32(v: u32) -> u64 {
    v as u64 // guarded widening: u32 always fits u64
}

/// Widens a `u32` id to `usize` for indexing. Lossless on every supported
/// target (checked at compile time above).
pub const fn usize_of_u32(v: u32) -> usize {
    v as usize // guarded widening: const assert pins usize >= 32 bits
}

/// Narrows an in-memory index (worker id, partition id, node count) to
/// `u32`, saturating at `u32::MAX`. For values structurally bounded far
/// below 2³² — saturation keeps the result deterministic and obviously
/// wrong rather than silently wrapped.
pub fn u32_of_index(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Narrows a `u64` ledger value to `usize`, saturating at `usize::MAX`.
/// On 64-bit targets this is lossless; the saturation only exists so the
/// function stays total on narrower ones.
pub fn usize_of_u64_sat(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// Converts an analytic cost model's fractional estimate to a `u64`
/// counter with `as`'s float→int semantics: truncation toward zero,
/// negative and NaN inputs to 0, overflow saturating. Callers round first
/// if round-to-nearest is intended.
pub fn u64_of_f64_model(x: f64) -> u64 {
    x as u64 // float->counter fence: saturating cast semantics are the contract
}

/// [`u64_of_f64_model`] for `usize`-shaped results (row counts, capacity
/// estimates).
pub fn usize_of_f64_model(x: f64) -> usize {
    x as usize // float->counter fence: saturating cast semantics are the contract
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widenings_are_lossless() {
        assert_eq!(u64_of_usize(0), 0);
        assert_eq!(u64_of_usize(usize::MAX), usize::MAX as u64);
        assert_eq!(u64_of_u32(u32::MAX), 4_294_967_295);
        assert_eq!(usize_of_u32(u32::MAX), 4_294_967_295);
    }

    #[test]
    fn index_narrowing_saturates() {
        assert_eq!(u32_of_index(7), 7);
        assert_eq!(u32_of_index(usize::MAX), u32::MAX);
        assert_eq!(usize_of_u64_sat(42), 42);
    }

    #[test]
    fn model_casts_follow_as_semantics() {
        assert_eq!(u64_of_f64_model(3.9), 3);
        assert_eq!(u64_of_f64_model(-1.0), 0);
        assert_eq!(u64_of_f64_model(f64::NAN), 0);
        assert_eq!(u64_of_f64_model(1e30), u64::MAX);
        assert_eq!(usize_of_f64_model(2.5), 2);
    }
}
