//! Vertex-level updates and batch application.
//!
//! The paper treats vertex insertion/removal as a sequence of edge updates
//! (Section I); these helpers package that, plus an adaptive batch
//! applicator that falls back to a full index rebuild when a batch is so
//! large that incremental maintenance would lose to the `O(m + n)`
//! decomposition.

use crate::journal::GraphEvent;
use crate::order_core::OrderCore;
use kcore_decomp::Heuristic;
use kcore_graph::{EdgeListError, VertexId};
use kcore_order::OrderSeq;
use kcore_traversal::UpdateStats;

/// One edge-level operation for [`OrderCore::apply_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOp {
    /// Insert an edge.
    Insert(VertexId, VertexId),
    /// Remove an edge.
    Remove(VertexId, VertexId),
}

impl<S: OrderSeq> OrderCore<S> {
    /// Adds a vertex along with its initial edges — the paper's "vertex
    /// insertion as an edge sequence". Returns the new id and accumulated
    /// stats. Duplicate neighbours are an error (the vertex still exists
    /// afterwards, with the edges inserted so far).
    pub fn insert_vertex_with_edges(
        &mut self,
        neighbors: &[VertexId],
    ) -> Result<(VertexId, UpdateStats), EdgeListError> {
        let v = self.add_vertex();
        let mut total = UpdateStats::default();
        for &w in neighbors {
            total.absorb(self.insert_edge(v, w)?);
        }
        Ok((v, total))
    }

    /// Removes every incident edge of `v` (the paper's "vertex removal as
    /// an edge sequence") and detaches it from the order index. The id
    /// remains allocated (ids are dense); its core number is 0 afterwards.
    pub fn remove_vertex(&mut self, v: VertexId) -> UpdateStats {
        let mut total = UpdateStats::default();
        while self.graph.degree(v) > 0 {
            let w = self.graph.neighbors(v)[0];
            total.absorb(self.remove_edge(v, w).expect("incident edge present"));
        }
        total
    }

    /// Rebuilds the whole index from the current graph (fresh k-order,
    /// `A_k` lists, `deg⁺`, `mcd`). `O((m + n) log n)` — the Table III cost.
    pub fn rebuild(&mut self) {
        let graph = std::mem::take(&mut self.graph);
        let seed = self.seed;
        *self = OrderCore::with_heuristic(graph, Heuristic::SmallDegFirst, seed);
    }

    /// Applies a batch of updates. When the batch is large relative to the
    /// graph (more than `rebuild_fraction` of the current edge count), the
    /// graph is mutated directly and the index rebuilt once — cheaper than
    /// maintaining through every update. Otherwise each update is
    /// maintained incrementally.
    ///
    /// All edges are validated first; an invalid op aborts with no state
    /// change.
    pub fn apply_batch(
        &mut self,
        ops: &[BatchOp],
        rebuild_fraction: f64,
    ) -> Result<UpdateStats, EdgeListError> {
        // Validate against a simulated edge set.
        let mut delta: kcore_graph::FxHashMap<u64, bool> = Default::default();
        for &op in ops {
            let (u, v, present_after) = match op {
                BatchOp::Insert(u, v) => (u, v, true),
                BatchOp::Remove(u, v) => (u, v, false),
            };
            if u == v {
                return Err(EdgeListError::SelfLoop(u));
            }
            let n = self.graph.num_vertices() as VertexId;
            if u >= n {
                return Err(EdgeListError::UnknownVertex(u));
            }
            if v >= n {
                return Err(EdgeListError::UnknownVertex(v));
            }
            let key = kcore_graph::edge_key(u, v);
            let currently = *delta.get(&key).unwrap_or(&self.graph.has_edge(u, v));
            match (currently, present_after) {
                (true, true) => return Err(EdgeListError::Duplicate(u, v)),
                (false, false) => return Err(EdgeListError::Missing(u, v)),
                _ => {}
            }
            delta.insert(key, present_after);
        }

        let threshold = (self.graph.num_edges() as f64 * rebuild_fraction) as usize;
        if ops.len() > threshold.max(1) {
            // Bulk path: mutate the graph, rebuild once. Removals leave
            // arena holes; one compaction check per batch before the
            // rebuild's decomposition scans the adjacency heavily.
            let before = self.core.clone();
            for &op in ops {
                match op {
                    BatchOp::Insert(u, v) => self.graph.insert_edge_unchecked(u, v),
                    BatchOp::Remove(u, v) => self.graph.remove_edge(u, v).expect("validated above"),
                }
            }
            self.graph
                .maintain_adjacency(kcore_graph::DEFAULT_MAX_HOLE_RATIO);
            // Recompute + k-order bridge: cheaper than the full
            // heuristic-peel rebuild, identical observable state.
            self.rebuild_via_decomposition();
            let changed = before
                .iter()
                .zip(self.core.iter())
                .filter(|(a, b)| a != b)
                .count();
            Ok(UpdateStats {
                visited: self.graph.num_vertices(),
                changed,
                ..UpdateStats::default()
            })
        } else {
            // Incremental path: run the ops through the batch engine
            // (pre-reservation, level sort, merged passes), reusing the
            // journal replayer's grouping of consecutive same-kind runs.
            // Everything was validated above, so the batch entry points'
            // skip-counting never triggers.
            let events = ops.iter().map(|&op| match op {
                BatchOp::Insert(u, v) => GraphEvent::EdgeInserted(u, v),
                BatchOp::Remove(u, v) => GraphEvent::EdgeRemoved(u, v),
            });
            let total = crate::journal::replay_batched(self, events, ops.len());
            debug_assert_eq!(total.skipped, 0, "apply_batch pre-validated every op");
            Ok(total)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OrderCore;
    use kcore_graph::fixtures;

    #[test]
    fn vertex_insertion_with_edges() {
        let mut oc: OrderCore = OrderCore::new(fixtures::clique(4), 1);
        let (v, stats) = oc.insert_vertex_with_edges(&[0, 1, 2, 3]).unwrap();
        assert_eq!(oc.core(v), 4); // K5 now
        assert!(stats.changed >= 4);
        oc.validate();
    }

    #[test]
    fn vertex_removal_unwires_everything() {
        let mut oc: OrderCore = OrderCore::new(fixtures::clique(5), 1);
        let stats = oc.remove_vertex(2);
        assert!(stats.changed > 0);
        assert_eq!(oc.core(2), 0);
        assert_eq!(oc.graph().degree(2), 0);
        // remaining K4
        for v in [0u32, 1, 3, 4] {
            assert_eq!(oc.core(v), 3);
        }
        oc.validate();
        assert!(oc.detach_isolated(2));
    }

    #[test]
    fn vertex_insert_rolls_back_nothing_on_error() {
        let mut oc: OrderCore = OrderCore::new(fixtures::triangle(), 1);
        // duplicate neighbour -> error after first two edges applied
        let err = oc.insert_vertex_with_edges(&[0, 1, 0]).unwrap_err();
        assert!(matches!(err, EdgeListError::Duplicate(..)));
        oc.validate(); // index still coherent
    }

    #[test]
    fn batch_incremental_path() {
        let mut oc: OrderCore = OrderCore::new(fixtures::path(30), 1);
        let ops = vec![BatchOp::Insert(0, 29), BatchOp::Remove(5, 6)];
        let stats = oc.apply_batch(&ops, 0.5).unwrap();
        assert!(stats.changed > 0);
        oc.validate();
        assert!(oc.graph().has_edge(0, 29));
        assert!(!oc.graph().has_edge(5, 6));
    }

    #[test]
    fn batch_rebuild_path() {
        let mut oc: OrderCore = OrderCore::new(fixtures::path(10), 1);
        // a batch bigger than half the edges triggers the rebuild path
        let ops: Vec<BatchOp> = (0..8).map(|i| BatchOp::Insert(i, i + 2)).collect();
        let stats = oc.apply_batch(&ops, 0.5).unwrap();
        assert_eq!(stats.visited, oc.graph().num_vertices());
        oc.validate();
        for i in 0..8u32 {
            assert!(oc.graph().has_edge(i, i + 2));
        }
    }

    #[test]
    fn batch_validation_catches_conflicts() {
        let mut oc: OrderCore = OrderCore::new(fixtures::triangle(), 1);
        let before = oc.cores().to_vec();
        // insert then insert again within one batch
        let err = oc
            .apply_batch(&[BatchOp::Insert(0, 3), BatchOp::Insert(3, 0)], 10.0)
            .unwrap_err();
        assert!(matches!(err, EdgeListError::UnknownVertex(3)));
        // remove then remove again
        let err = oc
            .apply_batch(&[BatchOp::Remove(0, 1), BatchOp::Remove(1, 0)], 10.0)
            .unwrap_err();
        assert!(matches!(err, EdgeListError::Missing(1, 0)));
        // nothing changed
        assert_eq!(oc.cores(), &before[..]);
        oc.validate();
    }

    #[test]
    fn rebuild_preserves_semantics() {
        let mut oc: OrderCore = OrderCore::new(fixtures::two_cliques_bridge(), 1);
        let cores = oc.cores().to_vec();
        oc.rebuild();
        assert_eq!(oc.cores(), &cores[..]);
        oc.validate();
        // engine still fully usable
        oc.insert_edge(0, 5).unwrap();
        oc.validate();
    }
}
