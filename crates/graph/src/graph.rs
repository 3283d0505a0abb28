//! The dynamic undirected simple graph used by all maintenance algorithms.

use crate::arena::AdjArena;
use std::fmt;

/// Dense vertex identifier. Vertices are numbered `0..n`, which lets every
/// per-vertex attribute in the algorithm layers live in a flat `Vec`.
pub type VertexId = u32;

/// The hole ratio at which [`DynamicGraph::maintain_adjacency`] compacts —
/// the backing buffer may grow to twice the rows' capacity (plus slack)
/// before a CSR rebuild is scheduled.
pub const DEFAULT_MAX_HOLE_RATIO: f64 = 2.0;

/// Sentinel for "no vertex" used by intrusive structures in other crates.
pub const NO_VERTEX: VertexId = VertexId::MAX;

/// Error type for edge-level mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeListError {
    /// The edge joins a vertex to itself; k-core theory assumes simple graphs.
    SelfLoop(VertexId),
    /// The edge already exists (parallel edges are rejected).
    Duplicate(VertexId, VertexId),
    /// The edge was not present (for removals).
    Missing(VertexId, VertexId),
    /// One endpoint exceeds the current vertex range.
    UnknownVertex(VertexId),
}

impl fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EdgeListError::SelfLoop(v) => write!(f, "self loop at vertex {v}"),
            EdgeListError::Duplicate(u, v) => write!(f, "edge ({u}, {v}) already present"),
            EdgeListError::Missing(u, v) => write!(f, "edge ({u}, {v}) not present"),
            EdgeListError::UnknownVertex(v) => write!(f, "vertex {v} out of range"),
        }
    }
}

impl std::error::Error for EdgeListError {}

/// An undirected simple graph with `O(1)` amortised edge insertion and
/// `O(deg)` edge removal.
///
/// Both core-maintenance algorithm families spend almost all of their time
/// scanning neighbour lists, so adjacency lives in a flat [`AdjArena`]:
/// **one** contiguous backing buffer with per-vertex slices, instead of a
/// `Vec<Vec<VertexId>>` whose per-vertex heap allocations scatter the
/// neighbour lists. Scans stay `&[VertexId]`, no hashing on the hot path,
/// and batch writers can pre-reserve slot capacity so the steady-state
/// insertion path performs zero heap allocation. Edge-existence probes
/// (used to keep the graph simple) scan the smaller endpoint's list.
///
/// ```
/// use kcore_graph::DynamicGraph;
///
/// let mut g = DynamicGraph::with_vertices(4);
/// g.insert_edge(0, 1).unwrap();
/// g.insert_edge(1, 2).unwrap();
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
/// g.remove_edge(0, 1).unwrap();
/// assert_eq!(g.num_edges(), 1);
/// ```
#[derive(Clone, Default)]
pub struct DynamicGraph {
    adj: AdjArena,
    m: usize,
}

impl DynamicGraph {
    /// Creates an empty graph with no vertices.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` isolated vertices `0..n`.
    pub fn with_vertices(n: usize) -> Self {
        DynamicGraph {
            adj: AdjArena::with_vertices(n),
            m: 0,
        }
    }

    /// Builds a graph from an edge list, adding vertices as needed.
    /// Self loops and duplicate edges are silently skipped (generators and
    /// text loaders routinely produce a few of both).
    pub fn from_edges<I>(edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut g = DynamicGraph::new();
        for (u, v) in edges {
            g.ensure_vertex(u.max(v));
            let _ = g.insert_edge(u, v);
        }
        g
    }

    /// Builds a graph over `n` vertices from an edge list that must
    /// already be simple, laying the adjacency out once: one pass counts
    /// degrees (and refuses out-of-range endpoints and self loops), every
    /// row is sized as [`compact_adjacency`][Self::compact_adjacency]
    /// sizes it, a second pass fills the rows in list order, and a scan
    /// with one stamp per vertex refuses a repeated edge. Memory is the
    /// graph plus `O(n)`; `edges` is iterated twice.
    pub fn try_from_edge_list<I>(n: usize, edges: I) -> Result<Self, EdgeListError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
        I::IntoIter: Clone,
    {
        let edges = edges.into_iter();
        let mut scratch = vec![0u32; n];
        let mut m = 0usize;
        for (u, v) in edges.clone() {
            if u == v {
                return Err(EdgeListError::SelfLoop(u));
            }
            for w in [u, v] {
                if w as usize >= n {
                    return Err(EdgeListError::UnknownVertex(w));
                }
                scratch[w as usize] += 1;
            }
            m += 1;
        }
        let mut adj = AdjArena::with_row_lengths(&scratch);
        for (u, v) in edges {
            adj.push(u, v);
            adj.push(v, u);
        }
        // `scratch[w] == u` once row `u` has listed `w`.
        scratch.fill(NO_VERTEX);
        for u in 0..n as VertexId {
            for &w in adj.slice(u) {
                if scratch[w as usize] == u {
                    return Err(EdgeListError::Duplicate(u, w));
                }
                scratch[w as usize] = u;
            }
        }
        Ok(DynamicGraph { adj, m })
    }

    /// Number of vertices (`n`).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.num_vertices()
    }

    /// Number of undirected edges (`m`).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// `true` when the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.num_vertices() == 0
    }

    /// Adds one isolated vertex and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        self.adj.push_vertex()
    }

    /// Grows the vertex set so that `v` is a valid id.
    pub fn ensure_vertex(&mut self, v: VertexId) {
        self.adj.ensure_vertex(v);
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj.len_of(v)
    }

    /// Neighbours of `v` in unspecified order.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.adj.slice(v)
    }

    /// Iterator over all vertex ids.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.adj.num_vertices() as VertexId
    }

    /// Iterator over every undirected edge, reported once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.adj
                .slice(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// `true` iff `(u, v)` is an edge. Probes the smaller adjacency list.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let n = self.adj.num_vertices();
        if u as usize >= n || v as usize >= n {
            return false;
        }
        let (probe, target) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj.slice(probe).contains(&target)
    }

    /// Inserts the undirected edge `(u, v)`.
    ///
    /// Errors on self loops, out-of-range endpoints, and duplicates; the
    /// graph is unchanged on error.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), EdgeListError> {
        if u == v {
            return Err(EdgeListError::SelfLoop(u));
        }
        let n = self.adj.num_vertices() as VertexId;
        if u >= n {
            return Err(EdgeListError::UnknownVertex(u));
        }
        if v >= n {
            return Err(EdgeListError::UnknownVertex(v));
        }
        if self.has_edge(u, v) {
            return Err(EdgeListError::Duplicate(u, v));
        }
        self.insert_edge_unchecked(u, v);
        Ok(())
    }

    /// Inserts `(u, v)` without the simple-graph checks.
    ///
    /// The maintenance drivers use this after they have already consulted
    /// [`DynamicGraph::has_edge`]; keeping the probe out of the mutation
    /// avoids paying it twice.
    #[inline]
    pub fn insert_edge_unchecked(&mut self, u: VertexId, v: VertexId) {
        debug_assert!(u != v);
        debug_assert!(!self.has_edge(u, v));
        self.adj.push(u, v);
        self.adj.push(v, u);
        self.m += 1;
    }

    /// Removes the undirected edge `(u, v)`; `Err` if it was not present.
    ///
    /// Removal leaves relocation holes in the adjacency arena and **never**
    /// compacts on its own: callers schedule compaction explicitly through
    /// [`maintain_adjacency`][Self::maintain_adjacency] at their batch
    /// boundaries (the maintenance engines do this once per update batch),
    /// so removal-heavy streams see no mid-batch latency spikes.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), EdgeListError> {
        let n = self.adj.num_vertices();
        if u as usize >= n || v as usize >= n {
            return Err(EdgeListError::Missing(u, v));
        }
        let Some(pu) = self.adj.position(u, v) else {
            return Err(EdgeListError::Missing(u, v));
        };
        let pv = self.adj.position(v, u).expect("adjacency symmetric");
        self.adj.swap_remove(u, pu);
        self.adj.swap_remove(v, pv);
        self.m -= 1;
        Ok(())
    }

    /// Pre-sizes `v`'s adjacency slot for `additional` more neighbours,
    /// so the upcoming [`insert_edge_unchecked`][Self::insert_edge_unchecked]
    /// calls relocate at most once. Batch writers call this with per-vertex
    /// degree deltas before applying an edge batch.
    #[inline]
    pub fn reserve_neighbors(&mut self, v: VertexId, additional: usize) {
        self.adj.reserve(v, additional);
    }

    /// Rebuilds adjacency in vertex order (CSR layout), dropping
    /// relocation holes and restoring scan locality. Every row of `d`
    /// neighbours is laid out with room for `max(d / 4, 2)` more, so the
    /// next edges a vertex gains do not move its row. The index
    /// constructors call this once before their first scan of the graph.
    pub fn compact_adjacency(&mut self) {
        self.adj.compact();
    }

    /// The adjacency compaction policy hook: compacts when the backing
    /// buffer exceeds `max_hole_ratio` times the rows' capacity plus a
    /// slack, so only relocation holes count and a freshly laid-out
    /// graph never trips it (see [`AdjArena::maintain`]). Returns whether
    /// a compaction ran. Call at batch boundaries with
    /// [`DEFAULT_MAX_HOLE_RATIO`].
    pub fn maintain_adjacency(&mut self, max_hole_ratio: f64) -> bool {
        self.adj.maintain(max_hole_ratio)
    }

    /// Number of adjacency compactions over this graph's lifetime
    /// (diagnostics; tests assert one per removal batch at most).
    pub fn adjacency_compactions(&self) -> u64 {
        self.adj.compactions()
    }

    /// `(live half-edges, row capacity, backing-buffer entries)` of the
    /// adjacency arena: capacity minus live is the rows' spare room,
    /// backing minus capacity is relocation holes (diagnostics).
    pub fn adjacency_footprint(&self) -> (usize, usize, usize) {
        (
            self.adj.half_edges(),
            self.adj.capacity(),
            self.adj.backing_len(),
        )
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Degrees of all vertices as a fresh `Vec` (the seed snapshot for
    /// peeling decompositions and atomic degree views).
    pub fn degree_vec(&self) -> Vec<u32> {
        self.vertices().map(|v| self.degree(v) as u32).collect()
    }

    /// Average degree `2m / n` (0 for an empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            2.0 * self.m as f64 / self.num_vertices() as f64
        }
    }

    /// Sum of degrees, i.e. `2m`.
    pub fn degree_sum(&self) -> usize {
        2 * self.m
    }

    /// Collects the edge list (each edge once, `u < v`). Useful for
    /// snapshotting a graph before replaying update streams.
    pub fn edge_vec(&self) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::with_capacity(self.m);
        out.extend(self.edges());
        out
    }

    /// Verifies internal consistency (symmetry, no loops, no duplicates,
    /// correct edge count). Intended for tests and debug assertions.
    pub fn check_consistency(&self) -> Result<(), String> {
        self.adj.check()?;
        let mut half_edges = 0usize;
        for u in self.vertices() {
            let nbrs = self.neighbors(u);
            half_edges += nbrs.len();
            let mut seen = crate::hash::FxHashSet::default();
            for &v in nbrs {
                if v == u {
                    return Err(format!("self loop at {u}"));
                }
                if v as usize >= self.adj.num_vertices() {
                    return Err(format!("dangling neighbour {v} of {u}"));
                }
                if !seen.insert(v) {
                    return Err(format!("duplicate neighbour {v} of {u}"));
                }
                if !self.adj.slice(v).contains(&u) {
                    return Err(format!("asymmetric edge ({u}, {v})"));
                }
            }
        }
        if half_edges != 2 * self.m {
            return Err(format!(
                "edge count mismatch: m = {}, half-edge sum = {half_edges}",
                self.m
            ));
        }
        Ok(())
    }
}

impl fmt::Debug for DynamicGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DynamicGraph {{ n: {}, m: {} }}",
            self.num_vertices(),
            self.num_edges()
        )
    }
}

/// Packs an undirected edge into a canonical `u64` key (`min << 32 | max`),
/// handy for hash-set based edge dedup in generators and samplers.
#[inline]
pub fn edge_key(u: VertexId, v: VertexId) -> u64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    ((a as u64) << 32) | b as u64
}

/// Inverse of [`edge_key`].
#[inline]
pub fn key_edge(key: u64) -> (VertexId, VertexId) {
    ((key >> 32) as VertexId, key as VertexId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = DynamicGraph::new();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_empty());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn insert_and_query() {
        let mut g = DynamicGraph::with_vertices(5);
        g.insert_edge(0, 1).unwrap();
        g.insert_edge(1, 2).unwrap();
        g.insert_edge(2, 0).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(1), 2);
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(3, 4));
        g.check_consistency().unwrap();
    }

    #[test]
    fn rejects_self_loop_and_duplicate() {
        let mut g = DynamicGraph::with_vertices(3);
        assert_eq!(g.insert_edge(1, 1), Err(EdgeListError::SelfLoop(1)));
        g.insert_edge(0, 1).unwrap();
        assert_eq!(g.insert_edge(1, 0), Err(EdgeListError::Duplicate(1, 0)));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn rejects_unknown_vertex() {
        let mut g = DynamicGraph::with_vertices(2);
        assert_eq!(g.insert_edge(0, 5), Err(EdgeListError::UnknownVertex(5)));
        assert_eq!(g.insert_edge(9, 0), Err(EdgeListError::UnknownVertex(9)));
    }

    #[test]
    fn remove_edge_roundtrip() {
        let mut g = DynamicGraph::with_vertices(4);
        g.insert_edge(0, 1).unwrap();
        g.insert_edge(0, 2).unwrap();
        g.insert_edge(0, 3).unwrap();
        g.remove_edge(2, 0).unwrap();
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.remove_edge(0, 2), Err(EdgeListError::Missing(0, 2)));
        g.check_consistency().unwrap();
    }

    #[test]
    fn from_edges_dedups_and_grows() {
        let g = DynamicGraph::from_edges(vec![(0, 1), (1, 0), (1, 1), (7, 2)]);
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(2, 7));
    }

    #[test]
    fn edge_list_build_matches_pushes_and_refuses_non_simple_lists() {
        let list = [(0, 3), (3, 1), (2, 0), (1, 2), (4, 0)];
        let g = DynamicGraph::try_from_edge_list(5, list).unwrap();
        // The rows the one-edge-at-a-time build gives, compacted.
        let mut want = DynamicGraph::with_vertices(5);
        for (u, v) in list {
            want.insert_edge_unchecked(u, v);
        }
        want.compact_adjacency();
        for v in 0..5 {
            assert_eq!(g.neighbors(v), want.neighbors(v));
        }
        assert_eq!(g.num_edges(), 5);
        g.adj.check_compacted().unwrap();
        g.check_consistency().unwrap();

        let refuse = |list: &[(VertexId, VertexId)]| {
            DynamicGraph::try_from_edge_list(5, list.iter().copied()).unwrap_err()
        };
        assert_eq!(refuse(&[(0, 1), (2, 2)]), EdgeListError::SelfLoop(2));
        assert_eq!(refuse(&[(0, 5)]), EdgeListError::UnknownVertex(5));
        assert_eq!(
            refuse(&[(0, 1), (2, 3), (1, 0)]),
            EdgeListError::Duplicate(0, 1)
        );
        assert_eq!(refuse(&[(3, 4), (3, 4)]), EdgeListError::Duplicate(3, 4));
    }

    #[test]
    fn edges_iterates_each_once() {
        let mut g = DynamicGraph::with_vertices(4);
        g.insert_edge(3, 1).unwrap();
        g.insert_edge(0, 2).unwrap();
        let mut es = g.edge_vec();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn add_vertex_extends_range() {
        let mut g = DynamicGraph::new();
        let a = g.add_vertex();
        let b = g.add_vertex();
        assert_eq!((a, b), (0, 1));
        g.insert_edge(a, b).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn ensure_vertex_is_idempotent() {
        let mut g = DynamicGraph::new();
        g.ensure_vertex(3);
        g.ensure_vertex(1);
        assert_eq!(g.num_vertices(), 4);
    }

    #[test]
    fn edge_key_roundtrip() {
        assert_eq!(edge_key(7, 3), edge_key(3, 7));
        assert_eq!(key_edge(edge_key(3, 7)), (3, 7));
        assert_ne!(edge_key(1, 2), edge_key(1, 3));
    }

    #[test]
    fn removal_never_compacts_implicitly() {
        // Grow a complete graph the way batch writers do, reserving room
        // edge by edge, so relocation holes outweigh the rows; then check
        // removal leaves the holes alone until maintain_adjacency runs.
        let mut g = DynamicGraph::with_vertices(200);
        for u in 0..200u32 {
            for v in u + 1..200u32 {
                g.reserve_neighbors(u, 1);
                g.reserve_neighbors(v, 1);
                g.insert_edge_unchecked(u, v);
            }
        }
        for u in 0..200u32 {
            for v in u + 1..200u32 {
                if (u + v) % 20 != 0 {
                    g.remove_edge(u, v).unwrap();
                }
            }
        }
        assert_eq!(g.adjacency_compactions(), 0);
        let (_, capacity, backing) = g.adjacency_footprint();
        assert!(
            backing > 2 * capacity,
            "test graph must actually have holes"
        );
        let before: Vec<Vec<VertexId>> = (0..200).map(|v| g.neighbors(v).to_vec()).collect();
        assert!(g.maintain_adjacency(DEFAULT_MAX_HOLE_RATIO));
        assert_eq!(g.adjacency_compactions(), 1);
        g.adj.check_compacted().unwrap();
        for (v, row) in before.iter().enumerate() {
            assert_eq!(g.neighbors(v as VertexId), row.as_slice());
        }
        assert!(!g.maintain_adjacency(DEFAULT_MAX_HOLE_RATIO));
        g.check_consistency().unwrap();
    }

    #[test]
    fn degree_sum_is_twice_m() {
        let mut g = DynamicGraph::with_vertices(10);
        for i in 0..9 {
            g.insert_edge(i, i + 1).unwrap();
        }
        assert_eq!(g.degree_sum(), 18);
        assert!((g.avg_degree() - 1.8).abs() < 1e-12);
    }
}
