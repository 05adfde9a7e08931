//! Units as types: the three dimensions of the cost model.
//!
//! The paper's cost model is bytes moved over a link, turned into seconds
//! by the link's bandwidth. [`Bytes`], [`Seconds`] and [`BytesPerSec`]
//! carry those dimensions in the type, and each implements only the
//! arithmetic that is dimensionally meaningful:
//!
//! | expression | result |
//! |---|---|
//! | `Bytes ± Bytes`, `Seconds ± Seconds` (also `+=`, `Sum`, ordering) | the same unit |
//! | `Bytes * u64`, `Bytes / u64` | `Bytes` (scaling by a count) |
//! | `Seconds * f64`, `Seconds / f64`, `BytesPerSec * f64` | the same unit (scaling by a bare number) |
//! | `Bytes / BytesPerSec` | `Seconds` |
//! | `Bytes / Bytes` | `u64`: how many whole `rhs` fit |
//! | `Seconds / Seconds` | `f64` |
//!
//! Each operation is the one primitive operation on the wrapped values
//! (`Bytes / BytesPerSec` is `bytes as f64 / rate`), so a typed expression
//! computes the same bits as the primitive expression it stands for. The
//! wrapped value is public: `.0` reads it where a number leaves the typed
//! model (a report field, a JSON number, the simulated clock).
//!
//! A pricing formula that typechecks is dimensionally sound:
//!
//! ```
//! use gnn_dm_trace::units::{Bytes, BytesPerSec, Seconds};
//! let (bytes, bw, latency) = (Bytes(16_000_000_000), BytesPerSec(16.0e9), Seconds(10.0e-6));
//! let t: Seconds = bytes / bw + latency;
//! assert_eq!(t, Seconds(1.0 + 10.0e-6));
//! ```
//!
//! and the shapes a dimension mix-up takes do not compile. Bytes plus
//! seconds:
//!
//! ```compile_fail,E0308
//! use gnn_dm_trace::units::{Bytes, Seconds};
//! let _ = Bytes(1) + Seconds(1.0);
//! ```
//!
//! seconds where bytes are expected:
//!
//! ```compile_fail,E0308
//! use gnn_dm_trace::{units::Seconds, SpanMeta};
//! let _ = SpanMeta::bytes(Seconds(1.0));
//! ```
//!
//! and a bandwidth applied upside down:
//!
//! ```compile_fail,E0308
//! use gnn_dm_trace::units::{Bytes, BytesPerSec};
//! let _ = Bytes(1) * BytesPerSec(1.0);
//! ```
//!
//! ```compile_fail,E0277
//! use gnn_dm_trace::units::{BytesPerSec, Seconds};
//! let _ = Seconds(1.0) / BytesPerSec(1.0);
//! ```
//!
//! ```compile_fail,E0369
//! use gnn_dm_trace::units::{Bytes, BytesPerSec};
//! let _ = BytesPerSec(1.0) / Bytes(1);
//! ```

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A byte count: bytes on a wire, in a ledger or in a memory budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Bytes(pub u64);

/// A duration in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct Seconds(pub f64);

/// A transfer rate in bytes per second.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct BytesPerSec(pub f64);

/// `+`, `-`, `+=` and `Sum` within one unit, each the primitive operation
/// on the wrapped values (`Sum` is the primitive `sum`, so even the sign of
/// an empty float sum is unchanged).
macro_rules! same_unit_ops {
    ($unit:ident) => {
        impl Add for $unit {
            type Output = $unit;
            fn add(self, rhs: $unit) -> $unit {
                $unit(self.0 + rhs.0)
            }
        }

        impl Sub for $unit {
            type Output = $unit;
            fn sub(self, rhs: $unit) -> $unit {
                $unit(self.0 - rhs.0)
            }
        }

        impl AddAssign for $unit {
            fn add_assign(&mut self, rhs: $unit) {
                self.0 += rhs.0;
            }
        }

        impl Sum for $unit {
            fn sum<I: Iterator<Item = $unit>>(iter: I) -> $unit {
                $unit(iter.map(|x| x.0).sum())
            }
        }
    };
}

same_unit_ops!(Bytes);
same_unit_ops!(Seconds);

impl From<Bytes> for u64 {
    fn from(bytes: Bytes) -> u64 {
        bytes.0
    }
}

impl Bytes {
    /// `self - rhs`, clamped at zero bytes.
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Seconds {
    /// The longer of two durations (`f64::max`: a NaN operand yields the
    /// other one).
    pub fn max(self, other: Seconds) -> Seconds {
        Seconds(self.0.max(other.0))
    }

    /// The shorter of two durations (`f64::min`).
    pub fn min(self, other: Seconds) -> Seconds {
        Seconds(self.0.min(other.0))
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, count: u64) -> Bytes {
        Bytes(self.0 * count)
    }
}

impl Div<u64> for Bytes {
    type Output = Bytes;
    fn div(self, count: u64) -> Bytes {
        Bytes(self.0 / count)
    }
}

/// How many whole `rhs` fit in `self` (the integer quotient).
impl Div for Bytes {
    type Output = u64;
    fn div(self, rhs: Bytes) -> u64 {
        self.0 / rhs.0
    }
}

/// Transfer time: bytes over a rate.
impl Div<BytesPerSec> for Bytes {
    type Output = Seconds;
    fn div(self, rate: BytesPerSec) -> Seconds {
        Seconds(self.0 as f64 / rate.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, factor: f64) -> Seconds {
        Seconds(self.0 * factor)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    fn div(self, divisor: f64) -> Seconds {
        Seconds(self.0 / divisor)
    }
}

/// A ratio of two durations.
impl Div for Seconds {
    type Output = f64;
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

impl Mul<f64> for BytesPerSec {
    type Output = BytesPerSec;
    fn mul(self, factor: f64) -> BytesPerSec {
        BytesPerSec(self.0 * factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_ops_are_the_primitive_ops_bit_for_bit() {
        let (b, bw, lat) = (123_456_789u64, 1.25e9, 50.0e-6);
        let typed = Bytes(b) / BytesPerSec(bw) + Seconds(lat);
        assert_eq!(typed.0.to_bits(), (b as f64 / bw + lat).to_bits());
        assert_eq!((Seconds(0.3) * 7.0).0.to_bits(), (0.3f64 * 7.0).to_bits());
        assert_eq!((Seconds(0.3) / 7.0).0.to_bits(), (0.3f64 / 7.0).to_bits());
        assert_eq!(
            (Seconds(0.3) / Seconds(0.7)).to_bits(),
            (0.3f64 / 0.7).to_bits()
        );
        assert_eq!(
            (BytesPerSec(16.0e9) * 0.7).0.to_bits(),
            (16.0e9f64 * 0.7).to_bits()
        );
        assert_eq!(Bytes(7) * 3 / 2, Bytes(10));
        assert_eq!(Bytes(262_144) / Bytes(2408), 108);
        assert_eq!(Bytes(5).saturating_sub(Bytes(9)), Bytes(0));
    }

    #[test]
    fn sums_and_orderings_follow_the_wrapped_values() {
        assert_eq!(
            [Bytes(1), Bytes(2), Bytes(3)].into_iter().sum::<Bytes>(),
            Bytes(6)
        );
        let empty: [Seconds; 0] = [];
        let primitive: f64 = empty.iter().map(|s| s.0).sum();
        assert_eq!(
            empty.into_iter().sum::<Seconds>().0.to_bits(),
            primitive.to_bits()
        );
        let mut t = Seconds(1.5);
        t += Seconds(0.25);
        assert_eq!(t - Seconds(0.75), Seconds(1.0));
        assert!(Seconds(1.0) < Seconds(2.0) && Bytes(1) < Bytes(2));
        assert_eq!(Seconds(1.0).max(Seconds(f64::NAN)), Seconds(1.0));
        assert_eq!(Seconds(1.0).min(Seconds(2.0)), Seconds(1.0));
    }
}
