//! Binary graph serialization.
//!
//! A compact little-endian binary format so generated datasets can be
//! persisted and reloaded without regeneration (useful when sweeping many
//! experiment configurations over one graph). Layout:
//!
//! ```text
//! magic   "GNDM"            4 bytes
//! version u32               currently 1
//! n       u64               vertices
//! m       u64               directed edges
//! dim     u64               feature width
//! classes u64
//! out     offsets (n+1)×u64, targets m×u32
//! inn     offsets (n+1)×u64, targets m×u32
//! feats   (n·dim)×f32
//! labels  n×u32
//! split   n×u8  (0 train, 1 val, 2 test)
//! ```

use crate::csr::{Csr, VId};
use crate::features::FeatureTable;
use crate::mask::{Split, SplitMask};
use crate::Graph;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"GNDM";
const VERSION: u32 = 1;

/// Errors produced by the binary reader.
#[derive(Debug)]
pub enum GraphIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a gnn-dm graph file.
    BadMagic,
    /// File version unsupported by this build.
    UnsupportedVersion(u32),
    /// Structurally invalid content.
    Corrupt(String),
}

impl std::fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphIoError::Io(e) => write!(f, "i/o error: {e}"),
            GraphIoError::BadMagic => write!(f, "not a gnn-dm graph file (bad magic)"),
            GraphIoError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            GraphIoError::Corrupt(msg) => write!(f, "corrupt graph file: {msg}"),
        }
    }
}

impl std::error::Error for GraphIoError {}

impl From<io::Error> for GraphIoError {
    fn from(e: io::Error) -> Self {
        GraphIoError::Io(e)
    }
}

/// Writes a graph in the binary format.
pub fn write_graph<W: Write>(graph: &Graph, w: &mut W) -> Result<(), GraphIoError> {
    let n = graph.num_vertices() as u64;
    let m = graph.num_edges() as u64;
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&n.to_le_bytes())?;
    w.write_all(&m.to_le_bytes())?;
    w.write_all(&(graph.feat_dim() as u64).to_le_bytes())?;
    w.write_all(&(graph.num_classes as u64).to_le_bytes())?;
    write_csr(&graph.out, w)?;
    write_csr(&graph.inn, w)?;
    for &x in graph.features.as_slice() {
        w.write_all(&x.to_le_bytes())?;
    }
    for &l in &graph.labels {
        w.write_all(&l.to_le_bytes())?;
    }
    for v in 0..graph.num_vertices() as VId {
        let code: u8 = match graph.split.split_of(v) {
            Split::Train => 0,
            Split::Val => 1,
            Split::Test => 2,
        };
        w.write_all(&[code])?;
    }
    Ok(())
}

fn write_csr<W: Write>(csr: &Csr, w: &mut W) -> Result<(), GraphIoError> {
    for &o in csr.offsets() {
        w.write_all(&(o as u64).to_le_bytes())?;
    }
    for &t in csr.targets() {
        w.write_all(&t.to_le_bytes())?;
    }
    Ok(())
}

fn read_exact<R: Read, const N: usize>(r: &mut R) -> Result<[u8; N], GraphIoError> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, GraphIoError> {
    Ok(u32::from_le_bytes(read_exact::<R, 4>(r)?))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, GraphIoError> {
    Ok(u64::from_le_bytes(read_exact::<R, 8>(r)?))
}

fn read_csr<R: Read>(r: &mut R, n: usize, m: usize) -> Result<Csr, GraphIoError> {
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        let o = read_u64(r)? as usize;
        if o > m {
            return Err(GraphIoError::Corrupt(format!("offset {o} exceeds edge count {m}")));
        }
        offsets.push(o);
    }
    if offsets[0] != 0 || offsets[n] != m || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(GraphIoError::Corrupt("offsets are not monotone over [0, m]".into()));
    }
    let mut targets = Vec::with_capacity(m);
    for _ in 0..m {
        let t = read_u32(r)?;
        if t as usize >= n {
            return Err(GraphIoError::Corrupt(format!("target {t} out of range")));
        }
        targets.push(t);
    }
    // Per-list sortedness is validated by from_parts; map its panic into a
    // Corrupt error by pre-checking here.
    for v in 0..n {
        let s = &targets[offsets[v]..offsets[v + 1]];
        if !s.windows(2).all(|w| w[0] < w[1]) {
            return Err(GraphIoError::Corrupt(format!("neighbor list of {v} not sorted")));
        }
    }
    Ok(Csr::from_parts(offsets, targets))
}

/// Reads a graph previously written by [`write_graph`].
pub fn read_graph<R: Read>(r: &mut R) -> Result<Graph, GraphIoError> {
    let magic = read_exact::<R, 4>(r)?;
    if &magic != MAGIC {
        return Err(GraphIoError::BadMagic);
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(GraphIoError::UnsupportedVersion(version));
    }
    let n = read_u64(r)? as usize;
    let m = read_u64(r)? as usize;
    let dim = read_u64(r)? as usize;
    let classes = read_u64(r)? as usize;
    if classes == 0 {
        return Err(GraphIoError::Corrupt("zero class count".into()));
    }
    let out = read_csr(r, n, m)?;
    let inn = read_csr(r, n, m)?;
    // A symmetric graph keeps one adjacency, as it did before it was written.
    let inn = if inn == out { out.clone() } else { inn };
    let mut feats = Vec::with_capacity(n * dim);
    for _ in 0..n * dim {
        feats.push(f32::from_le_bytes(read_exact::<R, 4>(r)?));
    }
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let l = read_u32(r)?;
        if l as usize >= classes {
            return Err(GraphIoError::Corrupt(format!("label {l} out of range")));
        }
        labels.push(l);
    }
    let mut splits = Vec::with_capacity(n);
    for _ in 0..n {
        let [code] = read_exact::<R, 1>(r)?;
        splits.push(match code {
            0 => Split::Train,
            1 => Split::Val,
            2 => Split::Test,
            other => return Err(GraphIoError::Corrupt(format!("invalid split code {other}"))),
        });
    }
    let features =
        if dim == 0 { FeatureTable::zeros(n, 0) } else { FeatureTable::from_vec(feats, dim) };
    let graph = Graph {
        out,
        inn,
        features,
        labels,
        num_classes: classes,
        split: SplitMask::from_assignment(splits),
    };
    graph.validate().map_err(GraphIoError::Corrupt)?;
    Ok(graph)
}

/// Convenience: write to a file path.
pub fn save(graph: &Graph, path: &std::path::Path) -> Result<(), GraphIoError> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    write_graph(graph, &mut w)?;
    w.flush()?;
    Ok(())
}

/// Convenience: read from a file path.
pub fn load(path: &std::path::Path) -> Result<Graph, GraphIoError> {
    let mut r = io::BufReader::new(std::fs::File::open(path)?);
    read_graph(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{planted_partition, PplConfig};

    fn graph() -> Graph {
        planted_partition(&PplConfig {
            n: 200,
            avg_degree: 6.0,
            num_classes: 4,
            feat_dim: 8,
            ..Default::default()
        })
    }

    #[test]
    fn round_trip_preserves_everything() -> Result<(), GraphIoError> {
        let g = graph();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf)?;
        let r = read_graph(&mut buf.as_slice())?;
        assert_eq!(r.out, g.out);
        assert_eq!(r.inn, g.inn);
        assert!(g.inn.shares_storage(&g.out) && r.inn.shares_storage(&r.out), "one symmetric adjacency");
        assert_eq!(r.features, g.features);
        assert_eq!(r.labels, g.labels);
        assert_eq!(r.split, g.split);
        assert_eq!(r.num_classes, g.num_classes);
        Ok(())
    }

    #[test]
    fn rejects_bad_magic() -> Result<(), GraphIoError> {
        let mut buf = Vec::new();
        write_graph(&graph(), &mut buf)?;
        buf[0] = b'X';
        assert!(matches!(read_graph(&mut buf.as_slice()), Err(GraphIoError::BadMagic)));
        Ok(())
    }

    #[test]
    fn rejects_wrong_version() -> Result<(), GraphIoError> {
        let mut buf = Vec::new();
        write_graph(&graph(), &mut buf)?;
        buf[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            read_graph(&mut buf.as_slice()),
            Err(GraphIoError::UnsupportedVersion(99))
        ));
        Ok(())
    }

    #[test]
    fn rejects_truncation() -> Result<(), GraphIoError> {
        let mut buf = Vec::new();
        write_graph(&graph(), &mut buf)?;
        buf.truncate(buf.len() / 2);
        assert!(matches!(read_graph(&mut buf.as_slice()), Err(GraphIoError::Io(_))));
        Ok(())
    }

    #[test]
    fn rejects_corrupt_label() -> Result<(), GraphIoError> {
        let g = graph();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf)?;
        // Labels sit right before the split bytes at the end.
        let n = g.num_vertices();
        let label_start = buf.len() - n - n * 4;
        buf[label_start..label_start + 4].copy_from_slice(&1000u32.to_le_bytes());
        assert!(matches!(read_graph(&mut buf.as_slice()), Err(GraphIoError::Corrupt(_))));
        Ok(())
    }

    #[test]
    fn file_round_trip() -> Result<(), GraphIoError> {
        let g = graph();
        let dir = std::env::temp_dir().join("gnn-dm-io-test");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("g.gndm");
        save(&g, &path)?;
        let r = load(&path)?;
        assert_eq!(r.out, g.out);
        std::fs::remove_file(&path).ok();
        Ok(())
    }
}
