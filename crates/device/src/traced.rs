//! Traced cost adapters — the sanctioned bridge from analytic price
//! models to timeline spans.
//!
//! The root `clippy.toml` bans the raw pricing methods
//! (`LinkModel::transfer_time`, `TransferEngine::time`), so that every
//! modelled second and byte lands on a [`Timeline`] lane instead of being
//! summed by hand at scattered call sites. Code prices work through these
//! adapters (or through higher-level traced entry points like
//! `pipeline::replay_epoch`), which compute the duration *and* record the
//! span in one step; a site that must price raw says why with
//! `#[expect(clippy::disallowed_methods, reason = "…")]`.

use crate::compute;
use crate::link::LinkModel;
use gnn_dm_trace::units::{Bytes, Seconds};
use gnn_dm_trace::{Resource, SpanKind, SpanMeta, Timeline};

/// Prices one bulk transfer of `bytes` on `link` and schedules it as a
/// span on `resource` (FIFO lane, dependency `ready`). The span's meta
/// carries `bytes` on top of the caller's annotations. Returns the span
/// end time.
#[expect(clippy::disallowed_methods, reason = "the adapter: prices the transfer and records its span in one step")]
pub fn link_transfer(
    tl: &mut Timeline,
    resource: Resource,
    kind: SpanKind,
    ready: f64,
    link: &LinkModel,
    bytes: Bytes,
    meta: SpanMeta,
) -> f64 {
    let meta = SpanMeta { bytes, ..meta };
    tl.schedule(resource, kind, ready, link.transfer_time(bytes), meta)
}

/// Prices `flops` of T4 GPU work ([`compute::gpu_seconds`]) and
/// schedules it as an [`SpanKind::NnCompute`] span on `resource`. Returns
/// the span end time.
pub fn gpu_compute(
    tl: &mut Timeline,
    resource: Resource,
    ready: f64,
    flops: f64,
    meta: SpanMeta,
) -> f64 {
    tl.schedule(resource, SpanKind::NnCompute, ready, Seconds(compute::gpu_seconds(flops)), meta)
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "the adapter tests compare each span with the raw price")]
mod tests {
    use super::*;

    #[test]
    fn link_transfer_records_priced_span() {
        let link = LinkModel::pcie_gen3_x16();
        let mut tl = Timeline::new();
        let end = link_transfer(
            &mut tl,
            Resource::PcieLink,
            SpanKind::Transfer,
            0.0,
            &link,
            Bytes(1_000_000),
            SpanMeta::default(),
        );
        assert_eq!(end.to_bits(), link.transfer_time(Bytes(1_000_000)).0.to_bits());
        assert_eq!(tl.bytes_on(Resource::PcieLink), Bytes(1_000_000));
        assert_eq!(tl.spans().len(), 1);
    }

    #[test]
    fn gpu_adapter_matches_model() {
        let mut tl = Timeline::new();
        let end = gpu_compute(&mut tl, Resource::GpuCompute, 0.0, 1e9, SpanMeta::default());
        assert_eq!(end.to_bits(), compute::gpu_seconds(1e9).to_bits());
        assert_eq!(tl.spans()[0].kind, SpanKind::NnCompute);
    }
}
