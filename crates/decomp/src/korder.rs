//! Peeling that emits a **k-order** (Definition 5.1) together with core
//! numbers, remaining degrees `deg⁺` (Definition 5.2) and max-core
//! degrees `mcd` (Section IV).
//!
//! This is Algorithm 1 with the Section-VI instrumentation — "append `u` to
//! `O_{k−1}`; `deg⁺(u) ← deg(u)`" — and a pluggable victim-selection
//! heuristic among the vertices eligible for removal (`deg < k`). Both
//! per-vertex degrees come out of the one neighbour scan the peel already
//! runs when it pops a vertex: `deg⁺` is the remaining degree at that
//! moment (every unpeeled neighbour comes later in the order, and the
//! count never moves again), and `mcd` adds the neighbours already peeled
//! at the same level (every earlier neighbour of a lower level has a
//! smaller core number). No pass over the adjacency follows the peel.
//!
//! The heuristics:
//!
//! * [`Heuristic::SmallDegFirst`] — the paper's choice: always peel a
//!   vertex of minimum remaining degree (lazy bucket queue, `O(m + n)`);
//! * [`Heuristic::LargeDegFirst`] — peel a maximum-remaining-degree
//!   eligible vertex (lazy max-heap, `O(m log n)`);
//! * [`Heuristic::RandomDegFirst`] — peel a uniformly random eligible
//!   vertex (`O(m + n)` expected).
//!
//! All three produce *valid* k-orders (every victim satisfies `deg < k`);
//! they differ only in tie-breaking, which is precisely what Fig 9
//! compares.

use kcore_graph::{DynamicGraph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Victim-selection heuristic for k-order generation (Section VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// Peel minimum remaining degree first (the paper's default).
    SmallDegFirst,
    /// Peel maximum remaining degree first.
    LargeDegFirst,
    /// Peel a uniformly random eligible vertex.
    RandomDegFirst,
}

impl Heuristic {
    /// All heuristics, in the order Fig 9 reports them.
    pub const ALL: [Heuristic; 3] = [
        Heuristic::SmallDegFirst,
        Heuristic::LargeDegFirst,
        Heuristic::RandomDegFirst,
    ];

    /// Display label used by the experiment binaries.
    pub fn label(self) -> &'static str {
        match self {
            Heuristic::SmallDegFirst => "small-deg+-first",
            Heuristic::LargeDegFirst => "large-deg+-first",
            Heuristic::RandomDegFirst => "random-deg+-first",
        }
    }
}

/// The output of a k-order decomposition.
#[derive(Debug, Clone)]
pub struct KOrder {
    /// Core number per vertex.
    pub core: Vec<u32>,
    /// Global peel order: the concatenation `O_0 O_1 O_2 …`.
    pub order: Vec<VertexId>,
    /// Remaining degree `deg⁺(v)` — the number of neighbours of `v` that
    /// appear *after* `v` in `order`.
    pub deg_plus: Vec<u32>,
    /// Max-core degree `mcd(v)` — the number of neighbours `w` of `v`
    /// with `core(w) >= core(v)`.
    pub mcd: Vec<u32>,
}

impl KOrder {
    /// Position of every vertex in `order` (inverse permutation).
    pub fn positions(&self) -> Vec<u32> {
        let mut pos = vec![0u32; self.order.len()];
        for (i, &v) in self.order.iter().enumerate() {
            pos[v as usize] = i as u32;
        }
        pos
    }

    /// The `O_k` block: vertices with core number `k`, in k-order.
    pub fn block(&self, k: u32) -> Vec<VertexId> {
        self.order
            .iter()
            .copied()
            .filter(|&v| self.core[v as usize] == k)
            .collect()
    }
}

/// Eligible-vertex pool behind the three heuristics. Entries are inserted
/// lazily (possibly duplicated as degrees decay) and validated at pop time.
enum Pool {
    Small {
        /// `buckets[d]` holds candidates whose remaining degree was `d`
        /// when pushed (may be stale).
        buckets: Vec<Vec<u32>>,
        min_d: usize,
    },
    Large {
        /// Max-heap of `(remaining_degree_at_push, vertex)`.
        heap: std::collections::BinaryHeap<(u32, u32)>,
    },
    Random {
        pool: Vec<u32>,
        rng: SmallRng,
    },
}

impl Pool {
    fn new(h: Heuristic, max_deg: usize, seed: u64) -> Self {
        match h {
            Heuristic::SmallDegFirst => Pool::Small {
                buckets: vec![Vec::new(); max_deg + 1],
                min_d: 0,
            },
            Heuristic::LargeDegFirst => Pool::Large {
                heap: std::collections::BinaryHeap::new(),
            },
            Heuristic::RandomDegFirst => Pool::Random {
                pool: Vec::new(),
                rng: SmallRng::seed_from_u64(seed),
            },
        }
    }

    /// Registers `v` with current remaining degree `d`. For `Random`, the
    /// caller guarantees `v` is not already pooled (degrees only decrease,
    /// so threshold-crossing happens once per round).
    fn push(&mut self, v: u32, d: u32) {
        match self {
            Pool::Small { buckets, min_d } => {
                buckets[d as usize].push(v);
                *min_d = (*min_d).min(d as usize);
            }
            Pool::Large { heap } => heap.push((d, v)),
            Pool::Random { pool, .. } => pool.push(v),
        }
    }

    /// Pops the next victim according to the heuristic; `rdeg`/`removed`
    /// validate stale entries.
    fn pop(&mut self, rdeg: &[u32], removed: &[bool]) -> Option<u32> {
        match self {
            Pool::Small { buckets, min_d } => loop {
                while *min_d < buckets.len() && buckets[*min_d].is_empty() {
                    *min_d += 1;
                }
                if *min_d >= buckets.len() {
                    return None;
                }
                let v = buckets[*min_d].pop().unwrap();
                if !removed[v as usize] && rdeg[v as usize] as usize == *min_d {
                    return Some(v);
                }
            },
            Pool::Large { heap } => loop {
                let (d, v) = heap.pop()?;
                if !removed[v as usize] && rdeg[v as usize] == d {
                    return Some(v);
                }
            },
            Pool::Random { pool, rng } => loop {
                if pool.is_empty() {
                    return None;
                }
                let i = rng.gen_range(0..pool.len());
                let v = pool.swap_remove(i);
                if !removed[v as usize] {
                    return Some(v);
                }
            },
        }
    }
}

/// Runs Algorithm 1 with the given heuristic, producing core numbers, the
/// global k-order, `deg⁺` and `mcd` in one peel.
///
/// ```
/// use kcore_graph::fixtures;
/// use kcore_decomp::{korder_decomposition, Heuristic};
///
/// let g = fixtures::cycle(5);
/// let ko = korder_decomposition(&g, Heuristic::SmallDegFirst, 42);
/// assert_eq!(ko.core, vec![2; 5]);
/// assert!(ko.deg_plus.iter().all(|&d| d <= 2)); // Lemma 5.1
/// ```
pub fn korder_decomposition(g: &DynamicGraph, heuristic: Heuristic, seed: u64) -> KOrder {
    let n = g.num_vertices();
    let mut rdeg: Vec<u32> = (0..n).map(|v| g.degree(v as VertexId) as u32).collect();
    let mut removed = vec![false; n];
    let mut pooled = vec![false; n];
    let mut core = vec![0u32; n];
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    let mut mcd = vec![0u32; n];

    let mut pool = Pool::new(heuristic, g.max_degree(), seed);
    // waiting[d] holds (possibly stale) vertices whose remaining degree was
    // d when last touched while still >= the round threshold; bucket d is
    // drained into the pool exactly once, when k reaches d + 1.
    let mut waiting: Vec<Vec<u32>> = vec![Vec::new(); g.max_degree() + 1];
    for v in 0..n as u32 {
        waiting[rdeg[v as usize] as usize].push(v);
    }
    let mut left = n;
    let mut k: u32 = 1;
    while left > 0 {
        // Vertices crossing the threshold as k grows: rdeg == k - 1 now.
        if let Some(bucket) = waiting.get_mut(k as usize - 1) {
            for v in std::mem::take(bucket) {
                let vi = v as usize;
                if !removed[vi] && !pooled[vi] && rdeg[vi] < k {
                    pooled[vi] = true;
                    pool.push(v, rdeg[vi]);
                }
            }
        }
        while let Some(v) = pool.pop(&rdeg, &removed) {
            removed[v as usize] = true;
            left -= 1;
            core[v as usize] = k - 1;
            order.push(v);
            let mut same_level = 0;
            for &w in g.neighbors(v) {
                let wi = w as usize;
                if removed[wi] {
                    same_level += u32::from(core[wi] == k - 1);
                    continue;
                }
                rdeg[wi] -= 1;
                if rdeg[wi] < k {
                    if !pooled[wi] {
                        pooled[wi] = true;
                        pool.push(w, rdeg[wi]);
                    } else if !matches!(heuristic, Heuristic::RandomDegFirst) {
                        // re-key under the new degree (lazy duplicate)
                        pool.push(w, rdeg[wi]);
                    }
                } else {
                    // still above threshold: park for a later round
                    waiting[rdeg[wi] as usize].push(w);
                }
            }
            mcd[v as usize] = rdeg[v as usize] + same_level;
        }
        k += 1;
    }

    // A peeled vertex's remaining degree never moves again: it is `deg⁺`.
    KOrder {
        core,
        order,
        deg_plus: rdeg,
        mcd,
    }
}

/// Builds a k-order from **already computed** core numbers — the
/// recompute→k-order bridge. After `core_decomposition` has refreshed
/// the cores, this emits a valid k-order in
/// `O(m + n)` without paying the victim-selection machinery of
/// [`korder_decomposition`] again: the adaptive planner's recompute
/// fallback uses it to restore the order index, and the persistence layer
/// could bulk-load through it.
///
/// The order is produced by a *constrained* peel: levels ascend, and
/// within level `k` a FIFO of core-`k` vertices whose remaining degree
/// has dropped to `<= k` is drained. Every emitted vertex therefore
/// satisfies the Algorithm 1 eligibility rule at its own level, so
/// Lemma 5.1 (`deg⁺(v) <= core(v)`) holds along the order by
/// construction — [`crate::validate::is_valid_korder`] accepts the
/// result (property-tested). As in [`korder_decomposition`], `deg⁺` and
/// `mcd` are recorded in the peel's own neighbour scan.
///
/// `core` **must** be the exact core numbers of `g`; the constrained peel
/// stalls otherwise and the function panics rather than emit a corrupt
/// order.
pub fn korder_from_cores(g: &DynamicGraph, core: &[u32]) -> KOrder {
    let n = g.num_vertices();
    assert_eq!(core.len(), n, "core slice must cover every vertex");
    let mut rdeg: Vec<u32> = (0..n).map(|v| g.degree(v as VertexId) as u32).collect();
    let max_k = core.iter().copied().max().unwrap_or(0);
    // Bucket vertices by core value (counting sort keeps ids ascending
    // within a level, so the emitted order is deterministic).
    let mut level_start = vec![0u32; max_k as usize + 2];
    for &c in core {
        level_start[c as usize + 1] += 1;
    }
    for k in 1..level_start.len() {
        level_start[k] += level_start[k - 1];
    }
    let mut by_core = vec![0u32; n];
    {
        let mut next = level_start.clone();
        for (v, &c) in core.iter().enumerate() {
            by_core[next[c as usize] as usize] = v as u32;
            next[c as usize] += 1;
        }
    }

    let mut queued = vec![false; n];
    let mut peeled = vec![false; n];
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    let mut mcd = vec![0u32; n];
    let mut queue: Vec<VertexId> = Vec::new();
    for k in 0..=max_k {
        // Seed: level-k vertices already at or under the threshold.
        queue.clear();
        let (lo, hi) = (level_start[k as usize], level_start[k as usize + 1]);
        for &v in &by_core[lo as usize..hi as usize] {
            if rdeg[v as usize] <= k {
                queued[v as usize] = true;
                queue.push(v);
            }
        }
        let mut qi = 0;
        while qi < queue.len() {
            let v = queue[qi];
            qi += 1;
            peeled[v as usize] = true;
            order.push(v);
            let mut same_level = 0;
            for &w in g.neighbors(v) {
                let wi = w as usize;
                if peeled[wi] {
                    same_level += u32::from(core[wi] == k);
                    continue;
                }
                rdeg[wi] -= 1;
                if !queued[wi] && core[wi] == k && rdeg[wi] <= k {
                    queued[wi] = true;
                    queue.push(w);
                }
            }
            mcd[v as usize] = rdeg[v as usize] + same_level;
        }
        assert_eq!(
            queue.len() as u32,
            hi - lo,
            "core numbers do not match the graph (level {k} stalled)"
        );
    }
    debug_assert_eq!(order.len(), n);

    KOrder {
        core: core.to_vec(),
        order,
        deg_plus: rdeg,
        mcd,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::core_decomposition;
    use crate::validate::is_valid_korder;
    use kcore_graph::fixtures;

    fn check_all_heuristics(g: &DynamicGraph) {
        let reference = core_decomposition(g);
        for h in Heuristic::ALL {
            let ko = korder_decomposition(g, h, 7);
            assert_eq!(ko.core, reference, "{h:?} core mismatch");
            is_valid_korder(g, &ko).unwrap_or_else(|e| panic!("{h:?}: {e}"));
        }
    }

    #[test]
    fn all_heuristics_on_fixtures() {
        check_all_heuristics(&fixtures::triangle());
        check_all_heuristics(&fixtures::path(6));
        check_all_heuristics(&fixtures::star(5));
        check_all_heuristics(&fixtures::petersen());
        check_all_heuristics(&fixtures::two_cliques_bridge());
        check_all_heuristics(&fixtures::complete_bipartite(3, 4));
        check_all_heuristics(&fixtures::PaperGraph::small().graph);
    }

    #[test]
    fn order_is_grouped_by_core() {
        let pg = fixtures::PaperGraph::small();
        let ko = korder_decomposition(&pg.graph, Heuristic::SmallDegFirst, 0);
        let cores_along: Vec<u32> = ko.order.iter().map(|&v| ko.core[v as usize]).collect();
        let mut sorted = cores_along.clone();
        sorted.sort_unstable();
        assert_eq!(cores_along, sorted, "order must be O_0 O_1 O_2 …");
    }

    #[test]
    fn deg_plus_counts_later_neighbours() {
        let g = fixtures::cycle(4);
        let ko = korder_decomposition(&g, Heuristic::SmallDegFirst, 0);
        // In a 4-cycle, the first peeled vertex has both neighbours later,
        // the last has none.
        let first = ko.order[0] as usize;
        let last = ko.order[3] as usize;
        assert_eq!(ko.deg_plus[first], 2);
        assert_eq!(ko.deg_plus[last], 0);
        let total: u32 = ko.deg_plus.iter().sum();
        assert_eq!(total as usize, g.num_edges());
    }

    #[test]
    fn deg_plus_total_is_edge_count() {
        // Every edge contributes to exactly one endpoint's deg+.
        for h in Heuristic::ALL {
            let g = fixtures::PaperGraph::small().graph;
            let ko = korder_decomposition(&g, h, 3);
            let total: u32 = ko.deg_plus.iter().sum();
            assert_eq!(total as usize, g.num_edges());
        }
    }

    #[test]
    fn block_extraction() {
        let pg = fixtures::PaperGraph::small();
        let ko = korder_decomposition(&pg.graph, Heuristic::SmallDegFirst, 0);
        assert_eq!(ko.block(2).len(), 5);
        assert_eq!(ko.block(3).len(), 8);
        assert_eq!(ko.block(1).len(), 21);
        assert_eq!(ko.block(7), Vec::<u32>::new());
    }

    #[test]
    fn positions_invert_order() {
        let g = fixtures::petersen();
        let ko = korder_decomposition(&g, Heuristic::RandomDegFirst, 5);
        let pos = ko.positions();
        for (i, &v) in ko.order.iter().enumerate() {
            assert_eq!(pos[v as usize] as usize, i);
        }
    }

    #[test]
    fn korder_from_cores_is_valid_on_fixtures() {
        for g in [
            fixtures::triangle(),
            fixtures::path(6),
            fixtures::star(5),
            fixtures::petersen(),
            fixtures::two_cliques_bridge(),
            fixtures::complete_bipartite(3, 4),
            fixtures::PaperGraph::small().graph,
            DynamicGraph::with_vertices(3),
            DynamicGraph::new(),
        ] {
            let core = core_decomposition(&g);
            let ko = korder_from_cores(&g, &core);
            assert_eq!(ko.core, core, "bridge must preserve the given cores");
            is_valid_korder(&g, &ko).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "stalled")]
    fn korder_from_cores_rejects_wrong_cores() {
        let g = fixtures::triangle();
        // Claiming core 1 for a triangle stalls the constrained peel:
        // every remaining degree is 2, so nothing is eligible at level 1.
        korder_from_cores(&g, &[1, 1, 1]);
    }

    #[test]
    fn random_heuristic_is_seed_deterministic() {
        let g = fixtures::PaperGraph::small().graph;
        let a = korder_decomposition(&g, Heuristic::RandomDegFirst, 11);
        let b = korder_decomposition(&g, Heuristic::RandomDegFirst, 11);
        assert_eq!(a.order, b.order);
        let c = korder_decomposition(&g, Heuristic::RandomDegFirst, 12);
        // Extremely likely to differ on a 34-vertex graph.
        assert_ne!(a.order, c.order);
    }

    #[test]
    fn empty_and_isolated() {
        let ko = korder_decomposition(&DynamicGraph::new(), Heuristic::SmallDegFirst, 0);
        assert!(ko.order.is_empty());
        let g = DynamicGraph::with_vertices(3);
        let ko = korder_decomposition(&g, Heuristic::SmallDegFirst, 0);
        assert_eq!(ko.core, vec![0, 0, 0]);
        assert_eq!(ko.order.len(), 3);
    }
}
