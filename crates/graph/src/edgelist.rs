//! Text edge-list ingestion.
//!
//! Real deployments rarely start from a generator: the paper's datasets
//! ship as whitespace- or tab-separated edge lists (SNAP/KONECT format).
//! This module parses that format — with comment lines, arbitrary vertex
//! ids, and optional symmetrization — into a [`Csr`] plus the id mapping,
//! so external graphs can be dropped into every experiment.

use crate::csr::{Csr, VId};
use std::collections::BTreeMap;
use std::io::BufRead;

/// Options for edge-list parsing.
#[derive(Debug, Clone)]
pub struct EdgeListOptions {
    /// Treat each line as an undirected edge (emit both directions).
    pub symmetrize: bool,
    /// Lines starting with any of these characters are skipped.
    pub comment_chars: Vec<char>,
}

impl Default for EdgeListOptions {
    fn default() -> Self {
        EdgeListOptions { symmetrize: true, comment_chars: vec!['#', '%'] }
    }
}

/// Result of parsing: the graph plus the original-id ↦ dense-id mapping.
#[derive(Debug, Clone)]
pub struct ParsedEdgeList {
    /// Dense CSR over remapped ids `0..n`.
    pub csr: Csr,
    /// Original ids in dense-id order (`original_ids[dense] = original`).
    pub original_ids: Vec<u64>,
    /// Number of input lines skipped as comments or blanks.
    pub skipped_lines: usize,
}

/// Errors from edge-list parsing.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A data line did not contain two integer fields.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending content (truncated).
        content: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::BadLine { line, content } => {
                write!(f, "line {line}: expected two integer ids, got {content:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Parses a whitespace-separated edge list from a reader.
pub fn parse_edge_list<R: BufRead>(
    reader: R,
    options: &EdgeListOptions,
) -> Result<ParsedEdgeList, ParseError> {
    let mut id_map: BTreeMap<u64, VId> = BTreeMap::new();
    let mut original_ids: Vec<u64> = Vec::new();
    let mut edges: Vec<(VId, VId)> = Vec::new();
    let mut skipped = 0usize;
    let dense = |raw: u64, map: &mut BTreeMap<u64, VId>, ids: &mut Vec<u64>| -> VId {
        *map.entry(raw).or_insert_with(|| {
            let id = ids.len() as VId;
            ids.push(raw);
            id
        })
    };
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty()
            || options.comment_chars.iter().any(|&c| trimmed.starts_with(c))
        {
            skipped += 1;
            continue;
        }
        let mut fields = trimmed.split_whitespace();
        let parse = |s: Option<&str>| s.and_then(|x| x.parse::<u64>().ok());
        match (parse(fields.next()), parse(fields.next())) {
            (Some(u), Some(v)) => {
                let du = dense(u, &mut id_map, &mut original_ids);
                let dv = dense(v, &mut id_map, &mut original_ids);
                edges.push((du, dv));
                if options.symmetrize {
                    edges.push((dv, du));
                }
            }
            _ => {
                return Err(ParseError::BadLine {
                    line: lineno + 1,
                    content: trimmed.chars().take(40).collect(),
                })
            }
        }
    }
    let csr = Csr::from_edges(original_ids.len(), &edges);
    Ok(ParsedEdgeList { csr, original_ids, skipped_lines: skipped })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str, symmetrize: bool) -> ParsedEdgeList {
        let options = EdgeListOptions { symmetrize, ..Default::default() };
        parse_edge_list(text.as_bytes(), &options).unwrap()
    }

    #[test]
    fn basic_parse_with_comments() {
        let p = parse("# SNAP header\n% konect header\n10 20\n20 30\n\n10 30\n", false);
        assert_eq!(p.skipped_lines, 3);
        assert_eq!(p.csr.num_vertices(), 3);
        assert_eq!(p.csr.num_edges(), 3);
        assert_eq!(p.original_ids, vec![10, 20, 30]);
        // 10 -> dense 0, edges 0->1 and 0->2.
        assert_eq!(p.csr.neighbors(0), &[1, 2]);
    }

    #[test]
    fn symmetrize_doubles_edges() {
        let p = parse("1 2\n2 3\n", true);
        assert!(p.csr.is_symmetric());
        assert_eq!(p.csr.num_edges(), 4);
    }

    #[test]
    fn sparse_original_ids_are_compacted() {
        let p = parse("1000000 5\n5 99999999\n", false);
        assert_eq!(p.csr.num_vertices(), 3);
        assert_eq!(p.original_ids, vec![1_000_000, 5, 99_999_999]);
    }

    #[test]
    fn tabs_and_extra_fields_accepted() {
        let p = parse("1\t2\textra stuff 9\n", false);
        assert_eq!(p.csr.num_edges(), 1);
    }

    #[test]
    fn bad_line_reports_location() {
        let err = parse_edge_list("1 2\nnot an edge\n".as_bytes(), &EdgeListOptions::default())
            .unwrap_err();
        match err {
            ParseError::BadLine { line, content } => {
                assert_eq!(line, 2);
                assert!(content.contains("not an edge"));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn duplicate_edges_and_self_loops_cleaned() {
        let p = parse("1 2\n1 2\n1 1\n", false);
        assert_eq!(p.csr.num_edges(), 1);
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let p = parse("# nothing\n", false);
        assert_eq!(p.csr.num_vertices(), 0);
        assert_eq!(p.csr.num_edges(), 0);
    }
}
