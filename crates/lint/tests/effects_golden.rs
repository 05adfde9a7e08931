//! Golden effect table for the parallel substrate's public API.
//!
//! `gnn-dm-par` sits under every hot path, so its effect signature is a
//! workspace-wide contract: the dispatchers may allocate and take the
//! pool's locks, but none of them may touch io or entropy, or seed an RNG
//! outside the `split_seed` discipline (clippy's panic denies keep them
//! panic-free). If a
//! change grows one of those effects, this test names it before any
//! experiment misbehaves.

use gnn_dm_lint::callgraph::{CallGraph, FileSet};
use gnn_dm_lint::effects::{effects_table, infer};
use std::path::PathBuf;

// `claim`, `claim_ahead`, `dispatch`, `with_source`, `wait_for` and `taken`
// are the persistent pool's pub(crate) internals — the item parser treats any `pub`
// visibility as public, which is useful here: the pool's dispatch and
// background-source paths are pinned to alloc+lock (spawn bookkeeping and
// the state mutex) and the cursor to lock-free-but-atomic `lock`, with
// io/entropy forever off-limits. `thread_count` reads its
// once-per-process default through a `OnceLock`.
const GOLDEN: &str = "\
| fn | effects | raw-seed |
|---|---|---|
| `claim` | lock | no |
| `claim_ahead` | lock | no |
| `dispatch` | alloc+lock | no |
| `par_chunks_mut` | alloc+lock | no |
| `par_chunks_mut_init` | alloc+lock | no |
| `par_for_each_init` | alloc+lock | no |
| `par_lookahead_init` | alloc+lock | no |
| `par_map_collect` | alloc+lock | no |
| `par_map_collect_init` | alloc+lock | no |
| `par_reduce` | alloc+lock | no |
| `par_zip_chunks_mut` | alloc+lock | no |
| `split_seed` | pure | no |
| `taken` | lock | no |
| `thread_count` | lock | no |
| `wait_for` | lock | no |
| `with_source` | alloc+lock | no |
| `with_threads` | pure | no |
";

#[test]
fn par_public_api_effects_are_pinned() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (set, read_errors) = FileSet::load(&root);
    assert!(read_errors.is_empty(), "{read_errors:?}");
    let g = CallGraph::build(&set);
    let fx = infer(&set, &g);
    assert_eq!(effects_table(&g, &fx, "par"), GOLDEN);
}
