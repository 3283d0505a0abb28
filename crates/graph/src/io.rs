//! Plain-text edge-list reading and writing.
//!
//! Two formats are supported, matching what SNAP / Konect dumps look like:
//!
//! * **static**: one `u v` pair per line;
//! * **temporal**: one `u v t` triple per line (Konect-style), where `t` is
//!   a non-decreasing integer timestamp.
//!
//! Lines starting with `#` or `%` are comments. Directed inputs are
//! symmetrised by construction (an undirected edge is stored once).

use crate::graph::{edge_key, DynamicGraph, VertexId, NO_VERTEX};
use crate::hash::FxHashSet;
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

/// A timestamped undirected edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalEdge {
    /// First endpoint.
    pub u: VertexId,
    /// Second endpoint.
    pub v: VertexId,
    /// Timestamp (arbitrary units, larger = later).
    pub t: u64,
}

/// Errors produced while parsing edge lists.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A data line did not contain the expected number of integer fields.
    Malformed { line: usize, content: String },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "io error: {e}"),
            ParseError::Malformed { line, content } => {
                write!(f, "malformed edge on line {line}: {content:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

fn is_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.is_empty() || t.starts_with('#') || t.starts_with('%')
}

/// Parses a vertex id field. [`NO_VERTEX`] is the engines' "no vertex"
/// sentinel, not a vertex, so a line naming it is malformed.
fn parse_id(field: &str) -> Option<VertexId> {
    field.parse::<VertexId>().ok().filter(|&v| v != NO_VERTEX)
}

fn malformed(idx: usize, line: &str) -> ParseError {
    ParseError::Malformed {
        line: idx + 1,
        content: line.to_owned(),
    }
}

/// Parses a static `u v` edge list from a reader. Duplicate edges and self
/// loops are dropped; vertices are whatever ids appear in the file.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<Vec<(VertexId, VertexId)>, ParseError> {
    let mut edges = Vec::new();
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if is_comment(&line) {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(u), Some(v)) = (it.next().and_then(parse_id), it.next().and_then(parse_id))
        else {
            return Err(malformed(idx, &line));
        };
        if u != v && seen.insert(edge_key(u, v)) {
            edges.push((u, v));
        }
    }
    Ok(edges)
}

/// Parses a temporal `u v t` edge list; edges are returned sorted by
/// timestamp (stable, so ties keep file order). Duplicates keep their
/// earliest occurrence.
pub fn read_temporal_edge_list<R: BufRead>(reader: R) -> Result<Vec<TemporalEdge>, ParseError> {
    let mut edges = Vec::new();
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if is_comment(&line) {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(u), Some(v), Some(t)) = (
            it.next().and_then(parse_id),
            it.next().and_then(parse_id),
            it.next().and_then(|c| c.parse::<u64>().ok()),
        ) else {
            return Err(malformed(idx, &line));
        };
        if u != v && seen.insert(edge_key(u, v)) {
            edges.push(TemporalEdge { u, v, t });
        }
    }
    edges.sort_by_key(|e| e.t);
    Ok(edges)
}

/// Loads a static edge list file into a [`DynamicGraph`].
pub fn load_graph<P: AsRef<Path>>(path: P) -> Result<DynamicGraph, ParseError> {
    let file = std::fs::File::open(path)?;
    let edges = read_edge_list(io::BufReader::new(file))?;
    Ok(DynamicGraph::from_edges(edges))
}

/// Writes a graph as a `u v` edge list (one edge per line, `u < v`).
pub fn write_edge_list<W: Write>(graph: &DynamicGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# n={} m={}", graph.num_vertices(), graph.num_edges())?;
    for (u, v) in graph.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// Saves a graph to a file in edge-list format.
pub fn save_graph<P: AsRef<Path>>(graph: &DynamicGraph, path: P) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_edge_list(graph, file)
}

/// Writes a temporal stream as Konect-style `u v t` lines (one edge per
/// line, in the given order).
pub fn write_temporal_edge_list<W: Write>(edges: &[TemporalEdge], writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "% temporal edge list, {} edges", edges.len())?;
    for e in edges {
        writeln!(w, "{} {} {}", e.u, e.v, e.t)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn reads_static_edge_list() {
        let input = "# comment\n% konect comment\n0 1\n1 2\n2 0\n\n1 0\n3 3\n";
        let edges = read_edge_list(Cursor::new(input)).unwrap();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn rejects_malformed_lines() {
        // 4294967295 is NO_VERTEX; accepting it would make `from_edges`
        // size every per-vertex array to 2^32 entries.
        for err in [
            read_edge_list(Cursor::new("0 1\nnot an edge\n")).unwrap_err(),
            read_edge_list(Cursor::new("0 1\n0 4294967295\n")).unwrap_err(),
            read_temporal_edge_list(Cursor::new("0 1 5\n0 4294967295 6\n")).unwrap_err(),
        ] {
            assert!(
                matches!(err, ParseError::Malformed { line: 2, .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn reads_temporal_sorted() {
        let input = "5 6 30\n1 2 10\n3 4 20\n1 2 5\n";
        let edges = read_temporal_edge_list(Cursor::new(input)).unwrap();
        // duplicate (1,2) keeps earliest occurrence (t=10, first seen)
        assert_eq!(edges.len(), 3);
        assert_eq!(edges[0], TemporalEdge { u: 1, v: 2, t: 10 });
        assert_eq!(edges[1], TemporalEdge { u: 3, v: 4, t: 20 });
        assert_eq!(edges[2], TemporalEdge { u: 5, v: 6, t: 30 });
    }

    #[test]
    fn write_read_roundtrip() {
        let g = crate::fixtures::petersen();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let edges = read_edge_list(Cursor::new(buf)).unwrap();
        let g2 = DynamicGraph::from_edges(edges);
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            assert!(g2.has_edge(u, v));
        }
    }

    #[test]
    fn temporal_write_read_roundtrip() {
        let edges = vec![
            TemporalEdge { u: 3, v: 4, t: 7 },
            TemporalEdge { u: 0, v: 1, t: 2 },
        ];
        let mut buf = Vec::new();
        write_temporal_edge_list(&edges, &mut buf).unwrap();
        let back = read_temporal_edge_list(Cursor::new(buf)).unwrap();
        // reader sorts by timestamp
        assert_eq!(back[0], TemporalEdge { u: 0, v: 1, t: 2 });
        assert_eq!(back[1], TemporalEdge { u: 3, v: 4, t: 7 });
    }

    #[test]
    fn file_roundtrip() {
        let g = crate::fixtures::clique(6);
        let dir = std::env::temp_dir().join("kcore_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clique6.txt");
        save_graph(&g, &path).unwrap();
        let g2 = load_graph(&path).unwrap();
        assert_eq!(g2.num_edges(), 15);
        std::fs::remove_file(path).ok();
    }
}
