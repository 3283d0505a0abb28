//! Component splitting of per-level seed pools for the batch engine.
//!
//! A promotion or dismissal pass at level `k` propagates exclusively
//! through level-`k` vertices: candidates grant `deg*` to same-core
//! neighbours, demotion cascades walk same-core neighbours, and the
//! dismissal peel expands only into `core = k` vertices. Two seeds that
//! are not connected inside the level-`k` induced subgraph therefore
//! drive passes over **disjoint** state — independent units of work.
//!
//! `OrderCore::split_level_seeds` discovers that independence with a
//! union-find over the seed-touched subgraph (path-compressed, grown
//! lazily from a BFS that never leaves level `k`), and the
//! `*_edges_with` batch entry points run one pass per component,
//! merging each pass's [`UpdateStats`](kcore_traversal::UpdateStats)
//! counters exactly (`absorb` is a plain sum, so totals are identical
//! whatever order — or worker — executes the component passes).
//!
//! With a [`BatchOptions::parallelism`] knob set, the component passes
//! run **thread-parallel** through the plan/apply machinery of the
//! crate's `par_pass` module: every component's pass is *planned*
//! read-only on the shared `kcore-decomp` worker team, then the plans
//! are *applied* serially in deterministic component order —
//! bit-identical to the serial loop (the equivalence proptests pin this
//! at 1/2/4 threads).
//! Without the knob the passes execute sequentially on the calling
//! thread, exactly as before.

use crate::order_core::OrderCore;
use kcore_decomp::Parallelism;
use kcore_graph::{FxHashMap, VertexId};
use kcore_order::OrderSeq;

/// Options for the batched update entry points
/// ([`OrderCore::insert_edges_with`], [`OrderCore::remove_edges_with`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOptions {
    /// Split each level's seed pool by connected component of the
    /// level-induced subgraph and run one (independent) pass per
    /// component instead of one merged pass per level.
    pub split_components: bool,
    /// Run the per-component passes thread-parallel (plan on the shared
    /// worker team, apply serially in component order). Implies nothing
    /// without `split_components`; `None` (default) and configs that
    /// resolve to one thread keep the fully serial path. The config's
    /// `sequential_cutoff` bounds the per-level seed count below which
    /// planning stays on the calling thread (clamped to a small
    /// pass-specific ceiling, so the default cutoff still engages).
    pub parallelism: Option<Parallelism>,
}

impl BatchOptions {
    /// The component-splitting configuration.
    pub fn component_split() -> Self {
        BatchOptions {
            split_components: true,
            parallelism: None,
        }
    }

    /// Component splitting with thread-parallel component passes.
    pub fn parallel(par: Parallelism) -> Self {
        BatchOptions {
            split_components: true,
            parallelism: Some(par),
        }
    }

    /// Worker count the options resolve to on this host (1 = serial).
    pub(crate) fn pass_threads(&self) -> usize {
        match self.parallelism {
            Some(par) if self.split_components => par.resolved_threads(),
            _ => 1,
        }
    }

    /// Minimum per-level seed-pool size for parallel planning.
    pub(crate) fn pass_seed_cutoff(&self) -> usize {
        self.parallelism.map_or(usize::MAX, |par| {
            par.sequential_cutoff
                .min(crate::par_pass::PAR_PASS_SEED_CUTOFF)
        })
    }
}

/// Lazily-indexed union-find over the vertices a BFS touches (the full
/// vertex range never materialises — seed-touched subgraphs are usually
/// tiny compared to `n`).
struct SeedUnionFind {
    index: FxHashMap<VertexId, u32>,
    parent: Vec<u32>,
}

impl SeedUnionFind {
    fn new() -> Self {
        SeedUnionFind {
            index: FxHashMap::default(),
            parent: Vec::new(),
        }
    }

    /// Slot of `v`, allocating a fresh singleton on first sight. Returns
    /// `(slot, first_sight)`.
    fn slot(&mut self, v: VertexId) -> (u32, bool) {
        if let Some(&i) = self.index.get(&v) {
            return (i, false);
        }
        let i = self.parent.len() as u32;
        self.index.insert(v, i);
        self.parent.push(i);
        (i, true)
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let up = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = up;
            x = up;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }
}

impl<S: OrderSeq> OrderCore<S> {
    /// Partitions `seeds` (all at level `k`) into groups whose promotion /
    /// dismissal passes cannot interact: two seeds share a group iff they
    /// are connected in the subgraph induced by `core = k` vertices,
    /// discovered by BFS from the seeds (the "seed-touched subgraph" —
    /// vertices of other levels are never entered). Groups preserve the
    /// seeds' input order and groups are ordered by first seed occurrence,
    /// so the partition — and every downstream counter — is deterministic.
    pub(crate) fn split_level_seeds(&self, seeds: &[VertexId], k: u32) -> Vec<Vec<VertexId>> {
        debug_assert!(seeds.iter().all(|&s| self.core[s as usize] == k));
        if seeds.len() <= 1 {
            return vec![seeds.to_vec()];
        }
        let mut uf = SeedUnionFind::new();
        let mut queue: Vec<VertexId> = Vec::new();
        for &s in seeds {
            let (_, fresh) = uf.slot(s);
            if !fresh {
                continue; // already reached from an earlier seed's BFS
            }
            // BFS over the level-k subgraph, unioning as we go. Vertices
            // first seen here are enqueued exactly once.
            queue.clear();
            queue.push(s);
            let mut qi = 0;
            while qi < queue.len() {
                let w = queue[qi];
                qi += 1;
                let (ws, _) = uf.slot(w);
                for &z in self.graph.neighbors(w) {
                    if self.core[z as usize] != k {
                        continue;
                    }
                    let (zs, fresh_z) = uf.slot(z);
                    uf.union(ws, zs);
                    if fresh_z {
                        queue.push(z);
                    }
                }
            }
        }
        // Bucket seeds by root, keeping first-occurrence order.
        let mut root_group: FxHashMap<u32, usize> = FxHashMap::default();
        let mut groups: Vec<Vec<VertexId>> = Vec::new();
        for &s in seeds {
            let (slot, _) = uf.slot(s);
            let root = uf.find(slot);
            let gi = *root_group.entry(root).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gi].push(s);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use crate::OrderCore;
    use kcore_graph::DynamicGraph;

    /// Two disjoint cliques with an extra path dangling off the first.
    fn two_islands() -> DynamicGraph {
        let mut g = DynamicGraph::with_vertices(12);
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                g.insert_edge(a, b).unwrap();
            }
        }
        for a in 6..10u32 {
            for b in (a + 1)..10 {
                g.insert_edge(a, b).unwrap();
            }
        }
        g.insert_edge(3, 10).unwrap();
        g.insert_edge(10, 11).unwrap();
        g
    }

    #[test]
    fn seeds_split_by_level_component() {
        let oc: OrderCore = OrderCore::new(two_islands(), 3);
        // Both cliques sit at core 3; they are disconnected within the
        // level-3 subgraph (the bridge path has core 1).
        assert_eq!(oc.core(0), 3);
        assert_eq!(oc.core(6), 3);
        let groups = oc.split_level_seeds(&[0, 6, 2], 3);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec![0, 2]); // first-occurrence order kept
        assert_eq!(groups[1], vec![6]);
    }

    #[test]
    fn connected_seeds_stay_merged() {
        let oc: OrderCore = OrderCore::new(two_islands(), 3);
        let groups = oc.split_level_seeds(&[0, 3], 3);
        assert_eq!(groups, vec![vec![0, 3]]);
        let single = oc.split_level_seeds(&[6], 3);
        assert_eq!(single, vec![vec![6]]);
    }

    // -----------------------------------------------------------------
    // PR 8 satellite: the split is a true partition under adversarial
    // shapes, and its ordering is deterministic (hence independent of
    // the thread count that later consumes the groups).
    // -----------------------------------------------------------------

    use kcore_graph::VertexId;
    use proptest::prelude::*;

    /// Oracle: component id per level-`k` vertex by plain BFS over the
    /// level-induced subgraph.
    fn level_component_oracle(oc: &OrderCore, k: u32) -> Vec<Option<u32>> {
        let n = oc.cores().len();
        let mut comp: Vec<Option<u32>> = vec![None; n];
        let mut next = 0u32;
        for s in 0..n as u32 {
            if oc.core(s) != k || comp[s as usize].is_some() {
                continue;
            }
            comp[s as usize] = Some(next);
            let mut queue = vec![s];
            let mut qi = 0;
            while qi < queue.len() {
                let w = queue[qi];
                qi += 1;
                for &z in oc.graph.neighbors(w) {
                    if oc.core(z) == k && comp[z as usize].is_none() {
                        comp[z as usize] = Some(next);
                        queue.push(z);
                    }
                }
            }
            next += 1;
        }
        comp
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On arbitrary edge soups — which produce both shattered
        /// multi-component levels and single giant components — the
        /// split is a true partition of the seed pool that agrees with
        /// the BFS oracle, keeps first-occurrence ordering, and is
        /// deterministic across invocations.
        #[test]
        fn split_is_a_true_partition(
            pairs in prop::collection::vec((0u32..32, 0u32..32), 0..140),
            seed_sel in prop::collection::vec(any::<bool>(), 32),
        ) {
            let mut g = DynamicGraph::with_vertices(32);
            for (a, b) in pairs {
                if a != b && !g.has_edge(a, b) {
                    g.insert_edge_unchecked(a, b);
                }
            }
            let oc: OrderCore = OrderCore::new(g, 11);
            // Exercise every populated level, not just one.
            let levels: std::collections::BTreeSet<u32> =
                oc.cores().iter().copied().collect();
            for k in levels {
                let seeds: Vec<VertexId> = (0..32u32)
                    .filter(|&v| oc.core(v) == k && seed_sel[v as usize])
                    .collect();
                if seeds.is_empty() {
                    continue;
                }
                let groups = oc.split_level_seeds(&seeds, k);

                // True partition: no seed in two groups, union == pool.
                let mut flat: Vec<VertexId> = groups.iter().flatten().copied().collect();
                prop_assert_eq!(flat.len(), seeds.len(), "partition size mismatch");
                flat.sort_unstable();
                let mut pool = seeds.clone();
                pool.sort_unstable();
                prop_assert_eq!(&flat, &pool, "union of groups must cover the pool exactly");
                prop_assert!(flat.windows(2).all(|w| w[0] != w[1]), "a seed landed in two groups");
                // Within each group, seeds keep their input order.
                for group in &groups {
                    let positions: Vec<usize> = group
                        .iter()
                        .map(|s| seeds.iter().position(|x| x == s).unwrap())
                        .collect();
                    prop_assert!(positions.windows(2).all(|w| w[0] < w[1]));
                }

                // Agreement with the BFS oracle: same group iff same
                // level-k component.
                let oracle = level_component_oracle(&oc, k);
                for (gi, group) in groups.iter().enumerate() {
                    let c0 = oracle[group[0] as usize];
                    prop_assert!(c0.is_some());
                    for &s in group {
                        prop_assert_eq!(oracle[s as usize], c0, "split merged two components");
                    }
                    for other in groups.iter().skip(gi + 1) {
                        prop_assert!(
                            oracle[other[0] as usize] != c0,
                            "split separated one component"
                        );
                    }
                }

                // Deterministic: identical output on a second call.
                prop_assert_eq!(groups, oc.split_level_seeds(&seeds, k));
            }
        }

        /// A single giant component never splits: clique levels produce
        /// exactly one group whatever the seed order.
        #[test]
        fn giant_component_stays_whole(
            keys in prop::collection::vec(any::<u32>(), 8),
        ) {
            let mut perm: Vec<u32> = (0..8).collect();
            perm.sort_by_key(|&v| (keys[v as usize], v));
            let mut g = DynamicGraph::with_vertices(8);
            for a in 0..8u32 {
                for b in (a + 1)..8 {
                    g.insert_edge_unchecked(a, b);
                }
            }
            let oc: OrderCore = OrderCore::new(g, 5);
            let k = oc.core(0);
            let groups = oc.split_level_seeds(&perm, k);
            prop_assert_eq!(groups.len(), 1);
            prop_assert_eq!(&groups[0], &perm);
        }
    }
}
