//! The traversal insertion / removal algorithms with `Trav-h` maintenance.

use kcore_decomp::core_decomposition;
use kcore_graph::{DynamicGraph, EdgeListError, VertexId};

/// Per-update instrumentation (the quantities of Figs 1 and 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// `|V'|`: vertices visited while identifying `V*` (DFS-marked for
    /// insertion, peeling-touched for removal).
    pub visited: usize,
    /// `|V*|`: vertices whose core number changed.
    pub changed: usize,
    /// Vertices whose `cd` entries were recomputed during index
    /// maintenance (the hidden cost of the traversal family).
    pub refreshed: usize,
    /// Updates short-circuited by Lemma 5.2 (`V* = ∅` without touching
    /// any order structure) — the fast path batch processing exploits.
    pub noop: usize,
    /// Batch entries skipped as invalid (self-loops, duplicates, missing
    /// edges, out-of-range endpoints). Always 0 for single-edge updates,
    /// which report such edges as errors instead.
    pub skipped: usize,
    /// Promotion/dismissal passes run over the k-order. Single-edge
    /// order-based updates pay one pass per removal (and one per
    /// insertion that survives the Lemma 5.2 short-circuit); the batched
    /// engine runs **at most one per affected level**, which is what
    /// tests assert through this counter. Traversal engines leave it 0
    /// (they have no pass notion).
    pub passes: usize,
    /// Seeds handed to those passes in total. `merged_seeds / passes > 1`
    /// is the batching win: several violating roots resolved by one walk.
    pub merged_seeds: usize,
}

impl UpdateStats {
    /// Field names, in declaration order (the order of
    /// [`UpdateStats::values`]).
    pub const FIELDS: [&'static str; 7] = [
        "visited",
        "changed",
        "refreshed",
        "noop",
        "skipped",
        "passes",
        "merged_seeds",
    ];

    /// Field values, in [`UpdateStats::FIELDS`] order.
    pub fn values(&self) -> [usize; 7] {
        [
            self.visited,
            self.changed,
            self.refreshed,
            self.noop,
            self.skipped,
            self.passes,
            self.merged_seeds,
        ]
    }

    /// The stats whose [`UpdateStats::values`] are `values`.
    pub fn from_values(values: [usize; 7]) -> Self {
        let [visited, changed, refreshed, noop, skipped, passes, merged_seeds] = values;
        UpdateStats {
            visited,
            changed,
            refreshed,
            noop,
            skipped,
            passes,
            merged_seeds,
        }
    }

    /// Accumulates another update's counters into `self`.
    pub fn absorb(&mut self, other: UpdateStats) {
        let (a, b) = (self.values(), other.values());
        *self = UpdateStats::from_values(std::array::from_fn(|i| a[i] + b[i]));
    }
}

/// A dynamic graph with core numbers maintained by the traversal
/// algorithm, parameterised by the hop count `h >= 1` (`h = 2` is the
/// classic `mcd`/`pcd` variant; the paper benchmarks `h ∈ {2,…,6}`).
pub struct TraversalCore {
    graph: DynamicGraph,
    core: Vec<u32>,
    /// `cd[l - 1][v]` is `cd_l(v)`; `cd[0]` is `mcd`.
    cd: Vec<Vec<u32>>,
    h: usize,

    // ---- reusable scratch (epoch-stamped to avoid O(n) clears) ----
    epoch: u32,
    visit_mark: Vec<u32>,
    evict_mark: Vec<u32>,
    cd_work: Vec<u32>,
    touch_mark: Vec<u32>,
    stack: Vec<VertexId>,
    queue: Vec<VertexId>,
    visited_list: Vec<VertexId>,
    changed_buf: Vec<VertexId>,
    cand_buf: Vec<VertexId>,
}

impl TraversalCore {
    /// Builds the index from scratch: core decomposition plus the `h`
    /// `cd` levels (this is the Table III "index creation" cost).
    pub fn new(graph: DynamicGraph, h: usize) -> Self {
        assert!(h >= 1, "hop count must be at least 1");
        let n = graph.num_vertices();
        let core = core_decomposition(&graph);
        let mut this = TraversalCore {
            graph,
            core,
            cd: vec![vec![0; n]; h],
            h,
            epoch: 0,
            visit_mark: vec![0; n],
            evict_mark: vec![0; n],
            cd_work: vec![0; n],
            touch_mark: vec![0; n],
            stack: Vec::new(),
            queue: Vec::new(),
            visited_list: Vec::new(),
            changed_buf: Vec::new(),
            cand_buf: Vec::new(),
        };
        this.rebuild_cd();
        this
    }

    /// Recomputes every `cd` level from the definition (`O(h·m)`).
    fn rebuild_cd(&mut self) {
        let n = self.graph.num_vertices();
        for l in 0..self.h {
            for v in 0..n as VertexId {
                self.cd[l][v as usize] = self.cd_value(l, v);
            }
        }
    }

    /// Definitional `cd_{l+1}(v)` computed from level `l` (0-based `l`;
    /// level 0 reads only core numbers, i.e. produces `mcd`).
    #[inline]
    fn cd_value(&self, l: usize, v: VertexId) -> u32 {
        let cv = self.core[v as usize];
        let mut count = 0u32;
        for &w in self.graph.neighbors(v) {
            let cw = self.core[w as usize];
            if cw > cv || (cw == cv && (l == 0 || self.cd[l - 1][w as usize] > cw)) {
                count += 1;
            }
        }
        count
    }

    /// Hop count `h`.
    #[inline]
    pub fn hops(&self) -> usize {
        self.h
    }

    /// Current core number of `v`.
    #[inline]
    pub fn core(&self, v: VertexId) -> u32 {
        self.core[v as usize]
    }

    /// All core numbers.
    #[inline]
    pub fn cores(&self) -> &[u32] {
        &self.core
    }

    /// The maintained graph.
    #[inline]
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// `mcd` view (`cd_1`).
    #[inline]
    pub fn mcd(&self) -> &[u32] {
        &self.cd[0]
    }

    /// `cd_h` view — the insertion DFS seed (equals `pcd` when `h = 2`).
    #[inline]
    pub fn cd_top(&self) -> &[u32] {
        &self.cd[self.h - 1]
    }

    /// Starts a new epoch and returns it. After `u32::MAX` epochs every
    /// mark is reset and the count restarts at 1: a wrapped epoch would
    /// meet old stamps and read them as fresh.
    #[inline]
    fn bump_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.visit_mark.fill(0);
            self.evict_mark.fill(0);
            self.touch_mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Adds an isolated vertex.
    pub fn add_vertex(&mut self) -> VertexId {
        let v = self.graph.add_vertex();
        self.core.push(0);
        for l in 0..self.h {
            self.cd[l].push(0);
        }
        self.visit_mark.push(0);
        self.evict_mark.push(0);
        self.cd_work.push(0);
        self.touch_mark.push(0);
        v
    }

    /// Inserts `(u, v)` and updates core numbers and the `cd` index.
    /// Errors (leaving everything unchanged) on self loops, duplicates, or
    /// unknown endpoints.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        let n = self.graph.num_vertices() as VertexId;
        if u == v {
            return Err(EdgeListError::SelfLoop(u));
        }
        if u >= n {
            return Err(EdgeListError::UnknownVertex(u));
        }
        if v >= n {
            return Err(EdgeListError::UnknownVertex(v));
        }
        if self.graph.has_edge(u, v) {
            return Err(EdgeListError::Duplicate(u, v));
        }
        self.graph.insert_edge_unchecked(u, v);
        let mut stats = UpdateStats::default();

        // Phase A: bring the cd hierarchy up to date for the new edge
        // (old core numbers) — the DFS seeds below must see fresh values.
        stats.refreshed += self.refresh_cd(&[], Some((u, v)));

        // Select the root on the smaller-core side.
        let root = if self.core[u as usize] <= self.core[v as usize] {
            u
        } else {
            v
        };
        let k = self.core[root as usize];

        // Phase B: expand-shrink search for V*.
        //
        // The DFS may only visit vertices counted by the cd_h seeds of
        // their neighbours, i.e. those with cd_{h-1} > K (mcd for the
        // classic h = 2); otherwise eviction propagation would retract
        // contributions the seeds never contained.
        let vis_idx = self.h.saturating_sub(2);
        let visit = self.bump_epoch();
        self.visited_list.clear();
        if self.cd[vis_idx][root as usize] > k {
            self.stack.clear();
            self.visit(root, k, visit);
            self.stack.push(root);
            while let Some(w) = self.stack.pop() {
                if self.cd_work[w as usize] > k {
                    for i in 0..self.graph.degree(w) {
                        let z = self.graph.neighbors(w)[i];
                        let zi = z as usize;
                        if self.core[zi] == k
                            && self.visit_mark[zi] != visit
                            && self.cd[vis_idx][zi] > k
                        {
                            self.visit(z, k, visit);
                            self.stack.push(z);
                        }
                    }
                } else if self.evict_mark[w as usize] != visit {
                    self.propagate_eviction(w, k, visit);
                }
            }
        }
        stats.visited = self.visited_list.len();

        // V* = visited ∧ ¬evicted → core rises to k + 1.
        self.changed_buf.clear();
        for i in 0..self.visited_list.len() {
            let w = self.visited_list[i];
            if self.evict_mark[w as usize] != visit {
                self.core[w as usize] = k + 1;
                self.changed_buf.push(w);
            }
        }
        stats.changed = self.changed_buf.len();

        // Phase C: repair the cd hierarchy around the core changes.
        if !self.changed_buf.is_empty() {
            let changed = std::mem::take(&mut self.changed_buf);
            stats.refreshed += self.refresh_cd(&changed, None);
            self.changed_buf = changed;
        }
        Ok(stats)
    }

    /// Marks `z` visited and seeds its working candidate degree from
    /// `cd_h`, minus the same-core neighbours that were already evicted in
    /// this search — the seed counted them (eviction implies they passed
    /// the `cd_{h-1} > K` visit test), but their retraction already
    /// happened and must not be lost.
    fn visit(&mut self, z: VertexId, k: u32, visit: u32) {
        let zi = z as usize;
        self.visit_mark[zi] = visit;
        let mut cd = self.cd[self.h - 1][zi];
        for &w in self.graph.neighbors(z) {
            let wi = w as usize;
            if self.core[wi] == k && self.evict_mark[wi] == visit {
                cd -= 1;
            }
        }
        self.cd_work[zi] = cd;
        self.visited_list.push(z);
    }

    /// Backward eviction: `w` cannot be in the new `(k+1)`-core; retract
    /// its contribution from visited neighbours, cascading.
    fn propagate_eviction(&mut self, w: VertexId, k: u32, visit: u32) {
        self.queue.clear();
        self.queue.push(w);
        self.evict_mark[w as usize] = visit;
        let mut qi = 0;
        while qi < self.queue.len() {
            let x = self.queue[qi];
            qi += 1;
            for i in 0..self.graph.degree(x) {
                let z = self.graph.neighbors(x)[i];
                let zi = z as usize;
                if self.core[zi] == k
                    && self.visit_mark[zi] == visit
                    && self.evict_mark[zi] != visit
                {
                    self.cd_work[zi] -= 1;
                    if self.cd_work[zi] <= k {
                        self.evict_mark[zi] = visit;
                        self.queue.push(z);
                    }
                }
            }
        }
    }

    /// Removes `(u, v)` and updates core numbers and the `cd` index.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        if !self.graph.has_edge(u, v) {
            return Err(EdgeListError::Missing(u, v));
        }
        self.graph.remove_edge(u, v).expect("edge present");
        self.graph
            .maintain_adjacency(kcore_graph::DEFAULT_MAX_HOLE_RATIO);
        let mut stats = UpdateStats::default();

        // Keep mcd coherent for the peeling seeds below (Algorithm 4
        // lines 3–4 of the paper do exactly this before searching).
        if self.core[u as usize] <= self.core[v as usize] {
            self.cd[0][u as usize] -= 1;
        }
        if self.core[v as usize] <= self.core[u as usize] {
            self.cd[0][v as usize] -= 1;
        }

        let k = self.core[u as usize].min(self.core[v as usize]);

        // CoreDecomp-style peeling restricted to the K-level, seeded from
        // mcd. cd_work is initialised lazily per touched vertex; a vertex
        // is dismissed (core drops to k − 1) in exactly one place, which
        // also doubles as the queue-membership guard.
        let touch = self.bump_epoch();
        self.changed_buf.clear();
        self.queue.clear();
        let mut touched = 0usize;
        for root in [u, v] {
            let ri = root as usize;
            if self.core[ri] != k {
                continue;
            }
            if self.touch_mark[ri] != touch {
                self.touch_mark[ri] = touch;
                self.cd_work[ri] = self.cd[0][ri];
                touched += 1;
            }
            if self.core[ri] == k && self.cd_work[ri] < k {
                self.core[ri] = k - 1; // dismiss
                self.changed_buf.push(root);
                self.queue.push(root);
            }
        }
        let mut qi = 0;
        while qi < self.queue.len() {
            let w = self.queue[qi];
            qi += 1;
            for i in 0..self.graph.degree(w) {
                let z = self.graph.neighbors(w)[i];
                let zi = z as usize;
                if self.core[zi] != k {
                    continue;
                }
                if self.touch_mark[zi] != touch {
                    self.touch_mark[zi] = touch;
                    self.cd_work[zi] = self.cd[0][zi];
                    touched += 1;
                }
                self.cd_work[zi] -= 1;
                if self.cd_work[zi] < k {
                    self.core[zi] = k - 1; // dismiss; also blocks re-entry
                    self.changed_buf.push(z);
                    self.queue.push(z);
                }
            }
        }
        stats.visited = touched;
        stats.changed = self.changed_buf.len();

        let changed = std::mem::take(&mut self.changed_buf);
        stats.refreshed += self.refresh_cd(&changed, Some((u, v)));
        self.changed_buf = changed;
        Ok(stats)
    }

    /// Repairs the `cd` hierarchy after `core_changed` vertices changed
    /// core number and/or the adjacency of `endpoints` changed. Returns
    /// the number of vertex-level recomputations (the maintenance cost).
    ///
    /// Level `l`'s value at `v` depends on `core(v)`, the cores of `v`'s
    /// neighbours, and their `cd_{l-1}`; so the candidate frontier at each
    /// level is: changed cores + their neighbours + neighbours of vertices
    /// whose previous level changed (+ the endpoints).
    #[allow(clippy::needless_range_loop)] // index loops sidestep holding &self borrows
    fn refresh_cd(&mut self, core_changed: &[VertexId], endpoints: Option<(u32, u32)>) -> usize {
        let mut refreshed = 0usize;
        // prev_changed: vertices whose cd at the previous level changed.
        let mut prev_changed: Vec<VertexId> = Vec::new();
        for l in 0..self.h {
            let mark = self.bump_epoch();
            self.cand_buf.clear();
            let push = |this: &mut Self, x: VertexId| {
                if this.touch_mark[x as usize] != mark {
                    this.touch_mark[x as usize] = mark;
                    this.cand_buf.push(x);
                }
            };
            if let Some((a, b)) = endpoints {
                push(self, a);
                push(self, b);
            }
            for i in 0..core_changed.len() {
                let w = core_changed[i];
                push(self, w);
                for j in 0..self.graph.degree(w) {
                    let z = self.graph.neighbors(w)[j];
                    push(self, z);
                }
            }
            for i in 0..prev_changed.len() {
                let w = prev_changed[i];
                for j in 0..self.graph.degree(w) {
                    let z = self.graph.neighbors(w)[j];
                    push(self, z);
                }
            }
            let mut next_changed = Vec::new();
            for i in 0..self.cand_buf.len() {
                let v = self.cand_buf[i];
                let new = self.cd_value(l, v);
                refreshed += 1;
                if new != self.cd[l][v as usize] {
                    self.cd[l][v as usize] = new;
                    next_changed.push(v);
                }
            }
            if l == 0 {
                // The callers may have pre-applied the endpoint mcd deltas
                // (the removal peeling needs them before this refresh), so
                // value comparison cannot detect those changes — treat the
                // endpoints as changed unconditionally.
                if let Some((a, b)) = endpoints {
                    if !next_changed.contains(&a) {
                        next_changed.push(a);
                    }
                    if !next_changed.contains(&b) {
                        next_changed.push(b);
                    }
                }
            }
            prev_changed = next_changed;
        }
        refreshed
    }

    /// Cross-checks every maintained quantity against a from-scratch
    /// recomputation; panics with a description on divergence (tests).
    #[allow(clippy::needless_range_loop)]
    pub fn validate(&self) {
        let reference = core_decomposition(&self.graph);
        assert_eq!(self.core, reference, "core numbers diverged");
        let levels = kcore_decomp::validate::compute_cd_levels(&self.graph, &self.core, self.h);
        for l in 0..self.h {
            assert_eq!(self.cd[l], levels[l], "cd level {} diverged", l + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcore_graph::fixtures;

    fn assert_cores(tc: &TraversalCore, expected: &[u32]) {
        assert_eq!(tc.cores(), expected);
    }

    #[test]
    fn epoch_wraparound_closes_a_triangle() {
        // A wrapped epoch of 0 would read every mark stamped 0 as fresh;
        // the wrap resets the marks and restarts at 1 instead.
        for h in 1..=3 {
            let mut tc = TraversalCore::new(fixtures::path(3), h);
            tc.epoch = u32::MAX;
            tc.insert_edge(0, 2).unwrap();
            assert_cores(&tc, &[2, 2, 2]);
            assert!(tc.epoch < 16, "the epoch did not restart");
            tc.validate();
            tc.remove_edge(0, 1).unwrap();
            assert_cores(&tc, &[1, 1, 1]);
            tc.validate();
        }
    }

    #[test]
    fn build_matches_decomposition() {
        for h in 1..=4 {
            let pg = fixtures::PaperGraph::small();
            let tc = TraversalCore::new(pg.graph.clone(), h);
            tc.validate();
            assert_eq!(tc.hops(), h);
        }
    }

    #[test]
    fn insert_forms_triangle() {
        let mut g = DynamicGraph::with_vertices(3);
        g.insert_edge(0, 1).unwrap();
        g.insert_edge(1, 2).unwrap();
        let mut tc = TraversalCore::new(g, 2);
        assert_cores(&tc, &[1, 1, 1]);
        let stats = tc.insert_edge(2, 0).unwrap();
        assert_cores(&tc, &[2, 2, 2]);
        assert_eq!(stats.changed, 3);
        tc.validate();
    }

    #[test]
    fn insert_between_isolated_vertices() {
        let g = DynamicGraph::with_vertices(2);
        let mut tc = TraversalCore::new(g, 2);
        tc.insert_edge(0, 1).unwrap();
        assert_cores(&tc, &[1, 1]);
        tc.validate();
    }

    #[test]
    fn paper_example_4_2_insertion() {
        // Inserting (v4, u0) raises only u0's core, but Trav visits the
        // whole qualified chain.
        let pg = fixtures::PaperGraph::full();
        let mut tc = TraversalCore::new(pg.graph.clone(), 2);
        let stats = tc.insert_edge(pg.v(4), pg.u(0)).unwrap();
        assert_eq!(stats.changed, 1);
        assert_eq!(tc.core(pg.u(0)), 2);
        assert_eq!(tc.core(pg.u(1)), 1);
        // The DFS visits ~all interior chain vertices (the paper counts
        // 1,999 of them) — the deficiency motivating the order approach.
        assert!(
            stats.visited > 1900,
            "expected a near-full chain scan, visited {}",
            stats.visited
        );
        tc.validate();
    }

    #[test]
    fn removal_reverts_insertion() {
        let pg = fixtures::PaperGraph::small();
        let mut tc = TraversalCore::new(pg.graph.clone(), 2);
        tc.insert_edge(pg.v(4), pg.u(0)).unwrap();
        assert_eq!(tc.core(pg.u(0)), 2);
        let stats = tc.remove_edge(pg.v(4), pg.u(0)).unwrap();
        assert_eq!(tc.core(pg.u(0)), 1);
        assert_eq!(stats.changed, 1);
        assert_eq!(tc.cores(), &pg.expected_cores());
        tc.validate();
    }

    #[test]
    fn removal_unravels_clique_edge() {
        let mut tc = TraversalCore::new(fixtures::clique(4), 2);
        assert_cores(&tc, &[3, 3, 3, 3]);
        tc.remove_edge(0, 1).unwrap();
        assert_cores(&tc, &[2, 2, 2, 2]);
        tc.validate();
    }

    #[test]
    fn higher_hops_prune_harder() {
        // On the full paper graph, Trav-2 visits ~2000 vertices for the
        // (v4, u0) insertion; higher h prunes the chain further.
        let pg = fixtures::PaperGraph::full();
        let mut visited = Vec::new();
        for h in [2usize, 4, 6] {
            let mut tc = TraversalCore::new(pg.graph.clone(), h);
            let stats = tc.insert_edge(pg.v(4), pg.u(0)).unwrap();
            tc.validate();
            visited.push(stats.visited);
        }
        assert!(
            visited[0] >= visited[1] && visited[1] >= visited[2],
            "pruning must not degrade with h: {visited:?}"
        );
    }

    #[test]
    fn duplicate_and_missing_edges_error() {
        let mut tc = TraversalCore::new(fixtures::triangle(), 2);
        assert!(matches!(
            tc.insert_edge(0, 1),
            Err(EdgeListError::Duplicate(0, 1))
        ));
        assert!(matches!(
            tc.remove_edge(0, 9),
            Err(EdgeListError::Missing(0, 9))
        ));
        assert!(matches!(
            tc.insert_edge(1, 1),
            Err(EdgeListError::SelfLoop(1))
        ));
        tc.validate();
    }

    #[test]
    fn random_churn_stays_consistent() {
        // Insert & remove random edges, validating after every step.
        let mut state = 0xABCDEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for h in [2usize, 3] {
            let mut tc = TraversalCore::new(DynamicGraph::with_vertices(24), h);
            let mut present: Vec<(u32, u32)> = Vec::new();
            for _ in 0..160 {
                let do_remove = !present.is_empty() && next() % 3 == 0;
                if do_remove {
                    let idx = (next() % present.len() as u64) as usize;
                    let (a, b) = present.swap_remove(idx);
                    tc.remove_edge(a, b).unwrap();
                } else {
                    let a = (next() % 24) as u32;
                    let b = (next() % 24) as u32;
                    if a != b && !tc.graph().has_edge(a, b) {
                        tc.insert_edge(a, b).unwrap();
                        present.push((a, b));
                    }
                }
                tc.validate();
            }
        }
    }

    #[test]
    fn add_vertex_then_connect() {
        let mut tc = TraversalCore::new(fixtures::triangle(), 2);
        let v = tc.add_vertex();
        assert_eq!(tc.core(v), 0);
        tc.insert_edge(v, 0).unwrap();
        assert_eq!(tc.core(v), 1);
        tc.validate();
    }

    #[test]
    fn theorem_3_1_core_changes_by_at_most_one() {
        let pg = fixtures::PaperGraph::small();
        let mut tc = TraversalCore::new(pg.graph.clone(), 2);
        let before = tc.cores().to_vec();
        tc.insert_edge(pg.v(4), pg.u(0)).unwrap();
        for (v, &b0) in before.iter().enumerate() {
            let d = tc.cores()[v] as i64 - b0 as i64;
            assert!((0..=1).contains(&d));
        }
    }
}
