//! Vertex-level updates and a full index rebuild.
//!
//! The paper treats vertex insertion/removal as a sequence of edge updates
//! (Section I); these helpers package that. Batches go through
//! [`OrderCore::insert_edges`] / [`OrderCore::remove_edges`], and the
//! choice between passes and a full recompute is
//! [`crate::PlannedCore`]'s.

use crate::order_core::OrderCore;
use kcore_decomp::Heuristic;
use kcore_graph::{EdgeListError, VertexId};
use kcore_order::OrderSeq;
use kcore_traversal::UpdateStats;

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
    /// an edge sequence"). The vertex stays in the index as an isolated
    /// vertex in `A_0` (ids are dense); its core number is 0 afterwards.
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
