//! Read-side queries over the maintained index: k-core membership and
//! extraction, degeneracy, histograms, subcores, and k-order inspection.
//!
//! Everything here works off the *maintained* state — no recomputation —
//! which is the point of core maintenance: after any update stream the
//! queries are immediately consistent.

use crate::order_core::OrderCore;
use kcore_graph::{DynamicGraph, VertexId};
use kcore_order::OrderSeq;

impl<S: OrderSeq> OrderCore<S> {
    /// `true` iff `v` belongs to the `k`-core.
    #[inline]
    pub fn in_kcore(&self, v: VertexId, k: u32) -> bool {
        self.core(v) >= k
    }

    /// All vertices of the `k`-core. The maintained per-level counts give
    /// the exact member count up front, so the result vector is allocated
    /// once at its final size (and an empty `k`-core allocates nothing).
    pub fn kcore_members(&self, k: u32) -> Vec<VertexId> {
        let total: usize = self.level_counts.iter().skip(k as usize).copied().sum();
        let mut out = Vec::with_capacity(total);
        if total == 0 {
            return out;
        }
        out.extend(
            self.cores()
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c >= k)
                .map(|(v, _)| v as VertexId),
        );
        debug_assert_eq!(out.len(), total);
        out
    }

    /// The `k`-core as a subgraph (original ids; outside vertices are
    /// isolated).
    pub fn kcore_subgraph(&self, k: u32) -> DynamicGraph {
        let mut sub = DynamicGraph::with_vertices(self.graph().num_vertices());
        for (u, v) in self.graph().edges() {
            if self.core(u) >= k && self.core(v) >= k {
                sub.insert_edge_unchecked(u, v);
            }
        }
        sub
    }

    /// The degeneracy of the graph: the largest `k` with a non-empty
    /// `k`-core. Served from the incrementally maintained per-level
    /// counts in `O(levels)` — no `O(n)` rescan of the core numbers.
    pub fn degeneracy(&self) -> u32 {
        self.level_counts.iter().rposition(|&c| c > 0).unwrap_or(0) as u32
    }

    /// `hist[k]` = number of vertices with core number exactly `k`.
    /// `O(levels)`: a copy of the maintained per-level counts, truncated
    /// at the degeneracy (promotion passes may leave empty trailing
    /// levels behind).
    pub fn core_histogram(&self) -> Vec<usize> {
        self.level_counts[..=self.degeneracy() as usize].to_vec()
    }

    /// The subcore `sc(v)`: the maximal connected set of vertices sharing
    /// `v`'s core number (Section III) — by Theorem 3.2, the region any
    /// single update around `v` can possibly affect.
    pub fn subcore(&self, v: VertexId) -> Vec<VertexId> {
        let k = self.core(v);
        let mut seen = vec![false; self.graph().num_vertices()];
        let mut out = vec![v];
        let mut stack = vec![v];
        seen[v as usize] = true;
        while let Some(x) = stack.pop() {
            for &w in self.graph().neighbors(x) {
                if !seen[w as usize] && self.core(w) == k {
                    seen[w as usize] = true;
                    out.push(w);
                    stack.push(w);
                }
            }
        }
        out
    }

    /// The global k-order as one sequence `O_0 O_1 O_2 …` (diagnostics;
    /// `O(n)`).
    pub fn global_order(&self) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.graph().num_vertices());
        for k in 0..self.lists.num_lists() as u32 {
            out.extend(self.level_order(k));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::OrderCore;
    use kcore_graph::fixtures;

    #[test]
    fn kcore_queries_on_paper_graph() {
        let pg = fixtures::PaperGraph::small();
        let oc: OrderCore = OrderCore::new(pg.graph.clone(), 1);
        assert_eq!(oc.degeneracy(), 3);
        assert_eq!(oc.kcore_members(3).len(), 8);
        assert_eq!(oc.kcore_members(2).len(), 13);
        assert!(oc.in_kcore(pg.v(7), 3));
        assert!(!oc.in_kcore(pg.v(1), 3));
        let sub = oc.kcore_subgraph(3);
        assert_eq!(sub.num_edges(), 12);
        let hist = oc.core_histogram();
        assert_eq!(hist[1], 21);
        assert_eq!(hist[2], 5);
        assert_eq!(hist[3], 8);
    }

    #[test]
    fn queries_track_updates() {
        let mut oc: OrderCore = OrderCore::new(fixtures::path(4), 1);
        assert_eq!(oc.degeneracy(), 1);
        oc.insert_edge(3, 0).unwrap();
        assert_eq!(oc.degeneracy(), 2);
        assert_eq!(oc.kcore_members(2).len(), 4);
        oc.remove_edge(1, 2).unwrap();
        assert_eq!(oc.degeneracy(), 1);
        assert!(oc.kcore_members(2).is_empty());
    }

    #[test]
    fn subcore_matches_example_3_1() {
        let pg = fixtures::PaperGraph::full();
        let oc: OrderCore = OrderCore::new(pg.graph.clone(), 1);
        let mut sc2 = oc.subcore(pg.v(3));
        sc2.sort_unstable();
        let mut expected: Vec<u32> = (1..=5).map(|j| pg.v(j)).collect();
        expected.sort_unstable();
        assert_eq!(sc2, expected);
        assert_eq!(oc.subcore(pg.u(77)).len(), 2001);
        assert_eq!(oc.subcore(pg.v(11)).len(), 4);
    }

    #[test]
    fn global_order_is_a_permutation_grouped_by_core() {
        let pg = fixtures::PaperGraph::small();
        let oc: OrderCore = OrderCore::new(pg.graph.clone(), 1);
        let order = oc.global_order();
        assert_eq!(order.len(), pg.graph.num_vertices());
        let cores: Vec<u32> = order.iter().map(|&v| oc.core(v)).collect();
        let mut sorted = cores.clone();
        sorted.sort_unstable();
        assert_eq!(cores, sorted);
    }
}
