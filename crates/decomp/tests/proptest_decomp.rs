//! Property-based tests of the static decomposition layer: the bucket
//! algorithm against the defining fixed-point characterisation, k-order
//! validity for every heuristic, and region-analysis invariants.

use kcore_decomp::bucket::{core_histogram, kcore_subgraph, kcore_vertices};
use kcore_decomp::regions::{ordercore_sizes, purecore_sizes, subcore_sizes};
use kcore_decomp::validate::{compute_cd_levels, compute_mcd, compute_pcd};
use kcore_decomp::{
    core_decomposition, is_valid_korder, korder_decomposition, korder_from_cores, Heuristic, KOrder,
};
use kcore_graph::{DynamicGraph, VertexId};
use proptest::prelude::*;

/// `deg⁺` recounted from final positions: each vertex's neighbours that
/// come later in `order`.
fn later_neighbours(g: &DynamicGraph, order: &[VertexId]) -> Vec<u32> {
    let mut pos = vec![0usize; g.num_vertices()];
    for (i, &v) in order.iter().enumerate() {
        pos[v as usize] = i;
    }
    (0..g.num_vertices())
        .map(|v| {
            g.neighbors(v as VertexId)
                .iter()
                .filter(|&&w| pos[w as usize] > pos[v])
                .count() as u32
        })
        .collect()
}

/// FNV-1a over the `core`, `order` and `deg⁺` words of `kos`.
fn digest(kos: &[KOrder]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ko in kos {
        for w in ko.core.iter().chain(&ko.order).chain(&ko.deg_plus) {
            for b in w.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// The one-scan peel emits exactly the k-orders the earlier build did,
/// when `deg⁺` came from a recount after the peel: the digests below
/// were taken from that build, over every heuristic and the
/// cores-to-k-order bridge on four generator graphs.
#[test]
fn korder_outputs_are_pinned() {
    let mut peels = Vec::new();
    let mut bridges = Vec::new();
    for g in [
        kcore_gen::barabasi_albert(2_000, 3, 1),
        kcore_gen::barabasi_albert(2_000, 5, 2),
        kcore_gen::erdos_renyi_gnm(1_500, 4_000, 7),
        kcore_gen::heterogeneous_social(1_500, 6, 0.3, 9),
    ] {
        for h in Heuristic::ALL {
            peels.push(korder_decomposition(&g, h, 11));
        }
        bridges.push(korder_from_cores(&g, &core_decomposition(&g)));
    }
    assert_eq!(digest(&peels), 0x8337_763d_b790_ccb3);
    assert_eq!(digest(&bridges), 0x2137_3164_d80b_195b);
}

fn arb_graph() -> impl Strategy<Value = DynamicGraph> {
    (
        2u32..40,
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..160),
    )
        .prop_map(|(n, pairs)| {
            let mut g = DynamicGraph::with_vertices(n as usize);
            for (a, b) in pairs {
                let (a, b) = (a % n, b % n);
                if a != b && !g.has_edge(a, b) {
                    g.insert_edge_unchecked(a, b);
                }
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The defining property: `core(v) >= k` iff `v` survives iterated
    /// deletion of vertices with degree < k.
    #[test]
    fn core_numbers_satisfy_fixed_point(g in arb_graph()) {
        let core = core_decomposition(&g);
        let max_k = core.iter().copied().max().unwrap_or(0);
        for k in 1..=max_k {
            // peel to the k-core independently
            let mut alive: Vec<bool> = (0..g.num_vertices()).map(|_| true).collect();
            let mut deg: Vec<usize> = (0..g.num_vertices())
                .map(|v| g.degree(v as u32))
                .collect();
            let mut changed = true;
            while changed {
                changed = false;
                for v in 0..g.num_vertices() {
                    if alive[v] && deg[v] < k as usize {
                        alive[v] = false;
                        changed = true;
                        for &w in g.neighbors(v as u32) {
                            if alive[w as usize] {
                                deg[w as usize] -= 1;
                            }
                        }
                    }
                }
            }
            for v in 0..g.num_vertices() {
                prop_assert_eq!(alive[v], core[v] >= k, "k = {}, v = {}", k, v);
            }
        }
    }

    /// Every heuristic, and the cores-to-k-order bridge, produces a valid
    /// k-order (Lemma 5.1 + grouping + correct cores), and the `deg⁺` and
    /// `mcd` each peel reads off its pops equal the definitions: the
    /// later-neighbour recount and `compute_mcd`.
    #[test]
    fn all_heuristics_yield_valid_korders(g in arb_graph(), seed in any::<u64>()) {
        let mut kos: Vec<KOrder> = Heuristic::ALL
            .iter()
            .map(|&h| korder_decomposition(&g, h, seed))
            .collect();
        kos.push(korder_from_cores(&g, &core_decomposition(&g)));
        for ko in &kos {
            prop_assert_eq!(&ko.deg_plus, &later_neighbours(&g, &ko.order));
            prop_assert_eq!(&ko.mcd, &compute_mcd(&g, &ko.core));
            if let Err(e) = is_valid_korder(&g, ko) {
                prop_assert!(false, "{e}");
            }
        }
    }

    /// Histogram accounts for every vertex; k-core extraction and
    /// subgraph agree.
    #[test]
    fn histogram_and_extraction_agree(g in arb_graph()) {
        let core = core_decomposition(&g);
        let hist = core_histogram(&core);
        prop_assert_eq!(hist.iter().sum::<usize>(), g.num_vertices());
        let max_k = core.iter().copied().max().unwrap_or(0);
        for k in 0..=max_k {
            let members = kcore_vertices(&core, k);
            let expected: usize = hist[k as usize..].iter().sum();
            prop_assert_eq!(members.len(), expected);
            let sub = kcore_subgraph(&g, &core, k);
            // every member has degree >= k inside the k-core subgraph
            for &v in &members {
                prop_assert!(sub.degree(v) >= k as usize,
                    "vertex {} has degree {} < {} in its own core", v, sub.degree(v), k);
            }
        }
    }

    /// mcd >= core, pcd <= mcd, and the cd hierarchy is pointwise
    /// non-increasing in the level.
    #[test]
    fn degree_hierarchy_monotone(g in arb_graph()) {
        let core = core_decomposition(&g);
        let mcd = compute_mcd(&g, &core);
        let pcd = compute_pcd(&g, &core, &mcd);
        for v in 0..g.num_vertices() {
            prop_assert!(mcd[v] >= core[v]);
            prop_assert!(pcd[v] <= mcd[v]);
        }
        let levels = compute_cd_levels(&g, &core, 6);
        for l in 1..levels.len() {
            for (&hi, &lo) in levels[l].iter().zip(levels[l - 1].iter()) {
                prop_assert!(hi <= lo);
            }
        }
        prop_assert_eq!(&levels[0], &mcd);
        prop_assert_eq!(&levels[1], &pcd);
    }

    /// Region containments: oc(v) ⊆ same-core level, |oc| <= |sc|,
    /// pure cores are consistent with qualification.
    #[test]
    fn region_sizes_are_ordered(g in arb_graph(), seed in any::<u64>()) {
        let core = core_decomposition(&g);
        let sc = subcore_sizes(&g, &core);
        let pc = purecore_sizes(&g, &core);
        let ko = korder_decomposition(&g, Heuristic::SmallDegFirst, seed);
        let all: Vec<u32> = (0..g.num_vertices() as u32).collect();
        let oc = ordercore_sizes(&g, &ko, &all);
        for v in 0..g.num_vertices() {
            prop_assert!(sc[v] >= 1 && pc[v] >= 1 && oc[v] >= 1);
            prop_assert!(oc[v] <= sc[v], "oc({v}) > sc({v})");
            prop_assert!(pc[v] <= sc[v] + 1, "pc({v}) vs sc({v})");
        }
    }
}
