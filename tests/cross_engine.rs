//! Property-based cross-validation: all three maintenance engines (order,
//! traversal at several hop counts, naive recompute) must agree on every
//! core number after every update, for arbitrary graphs and update
//! sequences.

use kcore::graph::DynamicGraph;
use kcore::{CoreMaintainer, OrderCore, RecomputeCore, SubCoreAlgo, TraversalCore, TreapOrderCore};
use proptest::prelude::*;

/// A random simple graph as a deduplicated edge list over `n` vertices.
fn arb_graph(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges).prop_map(move |pairs| {
        let mut seen = std::collections::HashSet::new();
        pairs
            .into_iter()
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .filter(|e| seen.insert(*e))
            .collect()
    })
}

/// A sequence of updates: `true` = try-insert a random pair, `false` =
/// remove a random currently-present edge (index into the live list).
fn arb_updates(n: u32, len: usize) -> impl Strategy<Value = Vec<(bool, u32, u32)>> {
    prop::collection::vec((any::<bool>(), 0..n, 0..n), 0..len)
}

fn build_graph(n: u32, edges: &[(u32, u32)]) -> DynamicGraph {
    let mut g = DynamicGraph::with_vertices(n as usize);
    for &(a, b) in edges {
        g.insert_edge_unchecked(a, b);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_agree_under_churn(
        edges in arb_graph(20, 60),
        updates in arb_updates(20, 60),
    ) {
        let g = build_graph(20, &edges);
        let mut order = OrderCore::new(g.clone(), 1);
        let mut treap = TreapOrderCore::new(g.clone(), 1);
        let mut sub = SubCoreAlgo::new(g.clone());
        let mut trav2 = TraversalCore::new(g.clone(), 2);
        let mut trav4 = TraversalCore::new(g.clone(), 4);
        let mut oracle = RecomputeCore::new(g.clone());
        let mut present: Vec<(u32, u32)> = g.edge_vec();

        for (ins, a, b) in updates {
            if ins {
                if a == b || oracle.graph_ref().has_edge(a, b) {
                    continue;
                }
                order.insert(a, b).unwrap();
                treap.insert(a, b).unwrap();
                sub.insert(a, b).unwrap();
                trav2.insert(a, b).unwrap();
                trav4.insert(a, b).unwrap();
                oracle.insert(a, b).unwrap();
                present.push((a, b));
            } else {
                if present.is_empty() {
                    continue;
                }
                let idx = (a as usize * 31 + b as usize) % present.len();
                let (x, y) = present.swap_remove(idx);
                order.remove(x, y).unwrap();
                treap.remove(x, y).unwrap();
                sub.remove(x, y).unwrap();
                trav2.remove(x, y).unwrap();
                trav4.remove(x, y).unwrap();
                oracle.remove(x, y).unwrap();
            }
            prop_assert_eq!(order.core_slice(), oracle.core_slice());
            prop_assert_eq!(treap.core_slice(), oracle.core_slice());
            // Both A_k implementations must hold the same k-order.
            prop_assert_eq!(treap.global_order(), order.global_order());
            prop_assert_eq!(sub.core_slice(), oracle.core_slice());
            prop_assert_eq!(trav2.core_slice(), oracle.core_slice());
            prop_assert_eq!(trav4.core_slice(), oracle.core_slice());
        }
        // Deep index invariants at the end of the run.
        order.validate();
        treap.validate();
        sub.validate();
        trav2.validate();
        trav4.validate();
    }

    #[test]
    fn order_index_invariants_hold_after_every_update(
        edges in arb_graph(14, 40),
        updates in arb_updates(14, 40),
    ) {
        let g = build_graph(14, &edges);
        let mut order = OrderCore::new(g, 3);
        let mut present = order.graph().edge_vec();
        for (ins, a, b) in updates {
            if ins {
                if a != b && !order.graph().has_edge(a, b) {
                    order.insert_edge(a, b).unwrap();
                    present.push((a.min(b), a.max(b)));
                }
            } else if !present.is_empty() {
                let idx = (a as usize * 17 + b as usize) % present.len();
                let (x, y) = present.swap_remove(idx);
                order.remove_edge(x, y).unwrap();
            }
            // validate() asserts Lemma 5.1, deg+, mcd, list/A_k
            // agreement, and core correctness.
            order.validate();
        }
    }

    #[test]
    fn theorem_3_1_single_step_delta(
        edges in arb_graph(16, 50),
        extra in (0u32..16, 0u32..16),
    ) {
        // Inserting (removing) one edge changes each core number by at
        // most 1, never negatively (positively).
        let g = build_graph(16, &edges);
        let (a, b) = extra;
        prop_assume!(a != b && !g.has_edge(a, b));
        let mut order = OrderCore::new(g, 2);
        let before = order.cores().to_vec();
        order.insert_edge(a, b).unwrap();
        for (v, &b0) in before.iter().enumerate() {
            let d = order.cores()[v] as i64 - b0 as i64;
            prop_assert!((0..=1).contains(&d));
        }
        let mid = order.cores().to_vec();
        order.remove_edge(a, b).unwrap();
        for (v, &m0) in mid.iter().enumerate() {
            let d = m0 as i64 - order.cores()[v] as i64;
            prop_assert!((0..=1).contains(&d));
        }
        // Full revert.
        prop_assert_eq!(order.cores(), &before[..]);
    }

    #[test]
    fn insert_remove_sequences_are_invertible(
        edges in arb_graph(18, 50),
        new_edges in prop::collection::vec((0u32..18, 0u32..18), 1..12),
    ) {
        let g = build_graph(18, &edges);
        let mut order = OrderCore::new(g.clone(), 9);
        let before = order.cores().to_vec();
        let mut applied = Vec::new();
        for (a, b) in new_edges {
            if a != b && !order.graph().has_edge(a, b) {
                order.insert_edge(a, b).unwrap();
                applied.push((a, b));
            }
        }
        for &(a, b) in applied.iter().rev() {
            order.remove_edge(a, b).unwrap();
        }
        prop_assert_eq!(order.cores(), &before[..]);
        order.validate();
    }
}
