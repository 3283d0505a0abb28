//! Property-based tests of the static decomposition layer: the bucket
//! algorithm against the defining fixed-point characterisation, k-order
//! validity for every heuristic, and region-analysis invariants.

use kcore_decomp::bucket::{core_histogram, kcore_subgraph, kcore_vertices};
use kcore_decomp::regions::{ordercore_sizes, purecore_sizes, subcore_sizes};
use kcore_decomp::validate::{compute_cd_levels, compute_mcd, compute_pcd};
use kcore_decomp::{
    core_decomposition, is_valid_korder, korder_decomposition, par_core_decomposition, Heuristic,
    Parallelism,
};
use kcore_graph::DynamicGraph;
use proptest::prelude::*;

/// Asserts the parallel peel (at 1, 2 and 4 threads, cutoff 0 so the
/// threads actually engage) is bit-identical to the sequential
/// decomposition.
fn assert_par_matches_sequential(g: &DynamicGraph) -> Result<(), TestCaseError> {
    let reference = core_decomposition(g);
    for t in [1usize, 2, 4] {
        let par = Parallelism::exact(t).with_cutoff(0);
        prop_assert_eq!(
            &par_core_decomposition(g, &par),
            &reference,
            "peel diverged at {} threads",
            t
        );
    }
    Ok(())
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

    /// Every heuristic produces a valid k-order (Lemma 5.1 + grouping +
    /// correct cores + correct deg+).
    #[test]
    fn all_heuristics_yield_valid_korders(g in arb_graph(), seed in any::<u64>()) {
        for h in Heuristic::ALL {
            let ko = korder_decomposition(&g, h, seed);
            if let Err(e) = is_valid_korder(&g, &ko) {
                prop_assert!(false, "{h:?}: {e}");
            }
        }
    }

    /// The parallel peel equals the sequential decomposition on random
    /// edge soups — `arb_graph` routinely yields isolated vertices and
    /// several components, the cases a frontier seeding bug would miss.
    #[test]
    fn parallel_peel_matches_sequential(g in arb_graph()) {
        assert_par_matches_sequential(&g)?;
    }

    /// Same contract on the generator families the benchmarks use:
    /// Barabási–Albert (power-law, low degeneracy) and G(n, m) (flat
    /// degrees), again with forced multi-threading.
    #[test]
    fn parallel_peel_matches_sequential_on_generators(
        n in 12usize..120,
        attach in 1usize..5,
        seed in any::<u64>(),
    ) {
        let ba = kcore_gen::barabasi_albert(n, attach, seed);
        assert_par_matches_sequential(&ba)?;
        let gnm = kcore_gen::erdos_renyi_gnm(n, (n * attach) / 2, seed ^ 0x5EED);
        assert_par_matches_sequential(&gnm)?;
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
