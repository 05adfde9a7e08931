//! Serializable experiment configuration: the model kind (§4) and the
//! paper's hidden width.

use serde::{Deserialize, Serialize};

/// Hidden width of every modelled system-cost experiment (the paper's 128):
/// the hetero trainer's GEMMs and the cluster time model's per-edge FLOPs.
pub const PAPER_HIDDEN: usize = 128;

/// Which GNN model to train (§4: GCN and GraphSage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Graph Convolutional Network.
    Gcn,
    /// GraphSAGE with mean aggregation.
    Sage,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compile-time check that the model kind implements
    /// Serialize/Deserialize.
    #[test]
    fn serde_bounds_hold() {
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serde::<ModelKind>();
    }
}
