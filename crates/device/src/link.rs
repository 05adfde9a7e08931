//! Interconnect cost models: PCIe and the cluster NIC.

use gnn_dm_trace::units::{Bytes, BytesPerSec, Seconds};
use std::fmt;

/// Why a [`LinkModel`] construction was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkError {
    /// Bandwidth must be finite and strictly positive.
    NonPositiveBandwidth,
    /// Latency must be finite and non-negative.
    NegativeLatency,
    /// Efficiency must be in `(0, 1]`.
    InvalidEfficiency,
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::NonPositiveBandwidth => {
                write!(f, "link bandwidth must be finite and > 0 bytes/s")
            }
            LinkError::NegativeLatency => write!(f, "link latency must be finite and >= 0 s"),
            LinkError::InvalidEfficiency => write!(f, "link efficiency must be in (0, 1]"),
        }
    }
}

impl std::error::Error for LinkError {}

/// An analytic link model: each transfer costs a fixed per-transaction
/// latency plus bytes over (bandwidth × efficiency).
///
/// The fields are private: every link is built by [`LinkModel::new`] (or
/// a preset that satisfies it), so the parameters are validated once, up
/// front; the per-transfer pricing methods are total functions that never
/// panic on hot paths.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkModel {
    bandwidth: BytesPerSec,
    latency: Seconds,
    efficiency: f64,
}

impl LinkModel {
    /// A validated link: `bandwidth` finite and positive, `latency` finite
    /// and non-negative, `efficiency` in `(0, 1]`.
    pub fn new(
        bandwidth: BytesPerSec,
        latency: Seconds,
        efficiency: f64,
    ) -> Result<LinkModel, LinkError> {
        if !(bandwidth.0.is_finite() && bandwidth.0 > 0.0) {
            return Err(LinkError::NonPositiveBandwidth);
        }
        if !(latency.0.is_finite() && latency.0 >= 0.0) {
            return Err(LinkError::NegativeLatency);
        }
        if !(efficiency > 0.0 && efficiency <= 1.0) {
            return Err(LinkError::InvalidEfficiency);
        }
        Ok(LinkModel { bandwidth, latency, efficiency })
    }

    /// PCIe 3.0 x16 — the paper's CPU↔GPU interconnect (16 GB/s, §1/§7.1).
    pub const fn pcie_gen3_x16() -> Self {
        LinkModel { bandwidth: BytesPerSec(16.0e9), latency: Seconds(10.0e-6), efficiency: 1.0 }
    }

    /// 10 Gbps Ethernet — the paper's inter-node network (§4).
    pub const fn nic_10gbps() -> Self {
        LinkModel { bandwidth: BytesPerSec(1.25e9), latency: Seconds(50.0e-6), efficiency: 1.0 }
    }

    /// Peak bandwidth.
    pub fn bandwidth(&self) -> BytesPerSec {
        self.bandwidth
    }

    /// Per-transaction latency.
    pub fn latency(&self) -> Seconds {
        self.latency
    }

    /// Fraction of peak bandwidth achievable for this access pattern.
    pub fn efficiency(&self) -> f64 {
        self.efficiency
    }

    /// Time for one bulk transfer of `bytes`.
    ///
    /// Total and panic-free: a link whose effective bandwidth rounds to
    /// zero (a subnormal bandwidth times an efficiency below one passes
    /// [`LinkModel::new`] and underflows) prices every transfer at
    /// `f64::INFINITY` instead of aborting the run.
    pub fn transfer_time(&self, bytes: Bytes) -> Seconds {
        let bw = self.effective_bandwidth();
        if !(bw.0 > 0.0) {
            return Seconds(f64::INFINITY);
        }
        self.latency + bytes / bw
    }

    /// A copy of this link with a different efficiency (used by the
    /// zero-copy model, which cannot saturate the bus).
    pub fn with_efficiency(&self, efficiency: f64) -> Result<LinkModel, LinkError> {
        if !(efficiency > 0.0 && efficiency <= 1.0) {
            return Err(LinkError::InvalidEfficiency);
        }
        Ok(LinkModel { efficiency, ..self.clone() })
    }

    /// Effective bandwidth (bandwidth × efficiency).
    pub fn effective_bandwidth(&self) -> BytesPerSec {
        self.bandwidth * self.efficiency
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "unit tests of the link model price transfers directly")]
mod tests {
    use super::*;

    #[test]
    fn bulk_transfer_scales_linearly() {
        let link = LinkModel::pcie_gen3_x16();
        let t1 = link.transfer_time(Bytes(16_000_000_000)).0;
        assert!((t1 - (1.0 + 10.0e-6)).abs() < 1e-9, "16 GB over 16 GB/s ≈ 1 s, got {t1}");
        let t2 = link.transfer_time(Bytes(32_000_000_000)).0;
        assert!(t2 > 1.9 && t2 < 2.1);
    }

    #[test]
    fn latency_dominates_tiny_transfers() {
        let link = LinkModel::nic_10gbps();
        let t = link.transfer_time(Bytes(64));
        assert!(t > link.latency() * 0.9 && t < link.latency() * 2.0);
    }

    #[test]
    fn efficiency_slows_transfers() {
        let link = LinkModel::pcie_gen3_x16();
        let slow = link.with_efficiency(0.5).unwrap();
        let b = link.transfer_time(Bytes(1_000_000_000));
        let s = slow.transfer_time(Bytes(1_000_000_000));
        assert!((s / b - 2.0).abs() < 0.01, "half efficiency doubles time: {s:?} vs {b:?}");
    }

    #[test]
    fn constructor_validates() {
        let link = |bw: f64, latency: f64, efficiency: f64| {
            LinkModel::new(BytesPerSec(bw), Seconds(latency), efficiency)
        };
        assert!(link(16e9, 10e-6, 1.0).is_ok());
        assert_eq!(link(0.0, 10e-6, 1.0), Err(LinkError::NonPositiveBandwidth));
        assert_eq!(link(f64::NAN, 10e-6, 1.0), Err(LinkError::NonPositiveBandwidth));
        assert_eq!(link(16e9, -1.0, 1.0), Err(LinkError::NegativeLatency));
        assert_eq!(link(16e9, 10e-6, 0.0), Err(LinkError::InvalidEfficiency));
        assert_eq!(link(16e9, 10e-6, 1.5), Err(LinkError::InvalidEfficiency));
        assert_eq!(
            LinkModel::pcie_gen3_x16().with_efficiency(0.0),
            Err(LinkError::InvalidEfficiency)
        );
    }

    #[test]
    fn degenerate_link_prices_infinite_instead_of_panicking() {
        // The smallest subnormal bandwidth is valid, but halving it rounds
        // the effective bandwidth to zero.
        let tiny = LinkModel::new(BytesPerSec(f64::from_bits(1)), Seconds(0.0), 0.5);
        let broken = tiny.expect("a subnormal bandwidth is finite and positive");
        assert_eq!(broken.effective_bandwidth(), BytesPerSec(0.0));
        assert!(broken.transfer_time(Bytes(1)).0.is_infinite());
    }

    #[test]
    fn presets_satisfy_the_constructor() {
        for preset in [LinkModel::pcie_gen3_x16(), LinkModel::nic_10gbps()] {
            let rebuilt = LinkModel::new(preset.bandwidth(), preset.latency(), preset.efficiency());
            assert_eq!(rebuilt, Ok(preset));
        }
    }
}
