//! [`CoreMaintainer`]: one interface over the three maintenance engines —
//! order-based ([`OrderCore`]), traversal ([`TraversalCore`]) and the
//! naive full-recompute baseline ([`RecomputeCore`]) — so the experiment
//! harness and the integration tests can drive them uniformly.

use crate::order_core::OrderCore;
use crate::planner::PlannedCore;
use kcore_decomp::core_decomposition;
use kcore_graph::{DynamicGraph, EdgeListError, VertexId};
use kcore_order::OrderSeq;
use kcore_traversal::{SubCoreAlgo, TraversalCore, UpdateStats};

/// A dynamic-graph engine that maintains core numbers under edge updates.
pub trait CoreMaintainer {
    /// Inserts an edge; errors leave the state unchanged.
    fn insert(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError>;

    /// Removes an edge; errors leave the state unchanged.
    fn remove(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError>;

    /// Inserts a batch of edges, skipping invalid entries (counted in
    /// [`UpdateStats::skipped`]). The default loops over
    /// [`CoreMaintainer::insert`]; engines with a genuine batch path
    /// override it.
    fn insert_batch(&mut self, edges: &[(VertexId, VertexId)]) -> UpdateStats {
        let mut stats = UpdateStats::default();
        for &(u, v) in edges {
            match self.insert(u, v) {
                Ok(s) => stats.absorb(s),
                Err(_) => stats.skipped += 1,
            }
        }
        stats
    }

    /// Removes a batch of edges, skipping invalid entries (counted in
    /// [`UpdateStats::skipped`]). Default loops over
    /// [`CoreMaintainer::remove`].
    fn remove_batch(&mut self, edges: &[(VertexId, VertexId)]) -> UpdateStats {
        let mut stats = UpdateStats::default();
        for &(u, v) in edges {
            match self.remove(u, v) {
                Ok(s) => stats.absorb(s),
                Err(_) => stats.skipped += 1,
            }
        }
        stats
    }

    /// Core number of one vertex.
    fn core_of(&self, v: VertexId) -> u32;

    /// All core numbers.
    fn core_slice(&self) -> &[u32];

    /// The underlying graph.
    fn graph_ref(&self) -> &DynamicGraph;

    /// Short display name for reports.
    fn name(&self) -> String;
}

impl<S: OrderSeq> CoreMaintainer for OrderCore<S> {
    fn insert(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        self.insert_edge(u, v)
    }

    fn remove(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        self.remove_edge(u, v)
    }

    fn insert_batch(&mut self, edges: &[(VertexId, VertexId)]) -> UpdateStats {
        self.insert_edges(edges)
    }

    fn remove_batch(&mut self, edges: &[(VertexId, VertexId)]) -> UpdateStats {
        self.remove_edges(edges)
    }

    fn core_of(&self, v: VertexId) -> u32 {
        self.core(v)
    }

    fn core_slice(&self) -> &[u32] {
        self.cores()
    }

    fn graph_ref(&self) -> &DynamicGraph {
        self.graph()
    }

    fn name(&self) -> String {
        "Order".to_string()
    }
}

/// The adaptive engine: batch entry points dispatch through the planner
/// (order-based passes vs recompute with a deferred k-order rebuild);
/// single-edge updates run the order-based algorithms, re-freshening the
/// order index first when a recompute left it stale.
impl<S: OrderSeq> CoreMaintainer for PlannedCore<S> {
    fn insert(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        self.insert_edge(u, v)
    }

    fn remove(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        self.remove_edge(u, v)
    }

    fn insert_batch(&mut self, edges: &[(VertexId, VertexId)]) -> UpdateStats {
        self.insert_edges(edges)
    }

    fn remove_batch(&mut self, edges: &[(VertexId, VertexId)]) -> UpdateStats {
        self.remove_edges(edges)
    }

    fn core_of(&self, v: VertexId) -> u32 {
        self.core(v)
    }

    fn core_slice(&self) -> &[u32] {
        self.cores()
    }

    fn graph_ref(&self) -> &DynamicGraph {
        self.graph()
    }

    fn name(&self) -> String {
        "Planned".to_string()
    }
}

impl CoreMaintainer for TraversalCore {
    fn insert(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        self.insert_edge(u, v)
    }

    fn remove(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        self.remove_edge(u, v)
    }

    fn core_of(&self, v: VertexId) -> u32 {
        self.core(v)
    }

    fn core_slice(&self) -> &[u32] {
        self.cores()
    }

    fn graph_ref(&self) -> &DynamicGraph {
        self.graph()
    }

    fn name(&self) -> String {
        format!("Trav-{}", self.hops())
    }
}

impl CoreMaintainer for SubCoreAlgo {
    fn insert(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        self.insert_edge(u, v)
    }

    fn remove(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        self.remove_edge(u, v)
    }

    fn core_of(&self, v: VertexId) -> u32 {
        self.core(v)
    }

    fn core_slice(&self) -> &[u32] {
        self.cores()
    }

    fn graph_ref(&self) -> &DynamicGraph {
        self.graph()
    }

    fn name(&self) -> String {
        "SubCore".to_string()
    }
}

/// The naive baseline: rerun the `O(m + n)` decomposition after every
/// update. Correct by construction; used as the ground-truth oracle and as
/// the "no index" row in benchmarks.
pub struct RecomputeCore {
    graph: DynamicGraph,
    core: Vec<u32>,
}

impl RecomputeCore {
    /// Builds the baseline (one decomposition).
    pub fn new(graph: DynamicGraph) -> Self {
        let core = core_decomposition(&graph);
        RecomputeCore { graph, core }
    }

    fn recompute(&mut self) -> UpdateStats {
        let new = core_decomposition(&self.graph);
        let changed = new
            .iter()
            .zip(self.core.iter())
            .filter(|(a, b)| a != b)
            .count();
        self.core = new;
        UpdateStats {
            visited: self.graph.num_vertices(),
            changed,
            ..UpdateStats::default()
        }
    }
}

impl CoreMaintainer for RecomputeCore {
    fn insert(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        self.graph.insert_edge(u, v)?;
        Ok(self.recompute())
    }

    /// The genuine recompute batch path: apply every valid edge, then
    /// decompose **once** — the fallback the batch benchmarks compare
    /// the maintenance engines against.
    fn insert_batch(&mut self, edges: &[(VertexId, VertexId)]) -> UpdateStats {
        let mut stats = UpdateStats::default();
        let mut applied = false;
        for &(u, v) in edges {
            match self.graph.insert_edge(u, v) {
                Ok(()) => applied = true,
                Err(_) => stats.skipped += 1,
            }
        }
        if applied {
            stats.absorb(self.recompute());
        }
        stats
    }

    fn remove_batch(&mut self, edges: &[(VertexId, VertexId)]) -> UpdateStats {
        let mut stats = UpdateStats::default();
        let mut applied = false;
        for &(u, v) in edges {
            match self.graph.remove_edge(u, v) {
                Ok(()) => applied = true,
                Err(_) => stats.skipped += 1,
            }
        }
        if applied {
            self.graph
                .maintain_adjacency(kcore_graph::DEFAULT_MAX_HOLE_RATIO);
            stats.absorb(self.recompute());
        }
        stats
    }

    fn remove(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        self.graph.remove_edge(u, v)?;
        self.graph
            .maintain_adjacency(kcore_graph::DEFAULT_MAX_HOLE_RATIO);
        Ok(self.recompute())
    }

    fn core_of(&self, v: VertexId) -> u32 {
        self.core[v as usize]
    }

    fn core_slice(&self) -> &[u32] {
        &self.core
    }

    fn graph_ref(&self) -> &DynamicGraph {
        &self.graph
    }

    fn name(&self) -> String {
        "Recompute".to_string()
    }
}
