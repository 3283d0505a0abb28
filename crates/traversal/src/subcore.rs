//! The **SubCore** algorithm — the other core-maintenance algorithm of
//! Sariyüce et al. (PVLDB'13), discussed in the paper's related work
//! (the algorithm of Aksu et al. is "similar … but less efficient due to
//! weaker bounds").
//!
//! SubCore keeps **no index at all** beyond the core numbers: on every
//! update it materialises the *subcore* around the touched edge — the
//! maximal connected set of vertices sharing the root's core number
//! (Theorem 3.2's containment region) — and runs a local peeling on it.
//! Its search space is therefore `|sc|`, against `|pc|` for the traversal
//! algorithm and `|oc|` for the order-based one: exactly the three
//! curves of the paper's Fig 5. It trades the traversal algorithm's
//! `pcd` maintenance cost for a strictly larger search region, which is
//! why the traversal algorithm superseded it and the order-based
//! algorithm supersedes both.

use kcore_decomp::core_decomposition;
use kcore_graph::{DynamicGraph, EdgeListError, VertexId};

use crate::algo::UpdateStats;

/// Index-free core maintenance via subcore peeling.
pub struct SubCoreAlgo {
    graph: DynamicGraph,
    core: Vec<u32>,

    // epoch-stamped scratch
    epoch: u32,
    seen_mark: Vec<u32>,
    evict_mark: Vec<u32>,
    cd: Vec<u32>,
    members: Vec<VertexId>,
    queue: Vec<VertexId>,
}

impl SubCoreAlgo {
    /// Builds the engine (one core decomposition; there is no index).
    pub fn new(graph: DynamicGraph) -> Self {
        let n = graph.num_vertices();
        let core = core_decomposition(&graph);
        SubCoreAlgo {
            graph,
            core,
            epoch: 0,
            seen_mark: vec![0; n],
            evict_mark: vec![0; n],
            cd: vec![0; n],
            members: Vec::new(),
            queue: Vec::new(),
        }
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

    /// Adds an isolated vertex.
    pub fn add_vertex(&mut self) -> VertexId {
        let v = self.graph.add_vertex();
        self.core.push(0);
        self.seen_mark.push(0);
        self.evict_mark.push(0);
        self.cd.push(0);
        v
    }

    /// Starts a new epoch and returns it. After `u32::MAX` epochs every
    /// mark is reset and the count restarts at 1: a wrapped epoch would
    /// meet old stamps and read them as fresh.
    #[inline]
    fn bump_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.seen_mark.fill(0);
            self.evict_mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Collects the subcores containing the level-`k` endpoints and
    /// initialises `cd(w)` = number of neighbours that could be in the
    /// target core (`core > k`, or `core == k` — all subcore members and
    /// other level-k vertices count, matching the CoreDecomp upper
    /// bound). Returns the number of vertices gathered.
    fn gather_subcore(&mut self, roots: &[VertexId], k: u32, epoch: u32) -> usize {
        self.members.clear();
        for &r in roots {
            if self.core[r as usize] != k || self.seen_mark[r as usize] == epoch {
                continue;
            }
            self.seen_mark[r as usize] = epoch;
            self.members.push(r);
            let mut head = self.members.len() - 1;
            while head < self.members.len() {
                let w = self.members[head];
                head += 1;
                for i in 0..self.graph.degree(w) {
                    let z = self.graph.neighbors(w)[i];
                    let zi = z as usize;
                    if self.core[zi] == k && self.seen_mark[zi] != epoch {
                        self.seen_mark[zi] = epoch;
                        self.members.push(z);
                    }
                }
            }
        }
        for i in 0..self.members.len() {
            let w = self.members[i];
            let mut cd = 0u32;
            for j in 0..self.graph.degree(w) {
                let z = self.graph.neighbors(w)[j];
                if self.core[z as usize] >= k {
                    cd += 1;
                }
            }
            self.cd[w as usize] = cd;
        }
        self.members.len()
    }

    /// Inserts `(u, v)`: gather the root's subcore, peel it against the
    /// threshold `k + 1`; survivors are `V*`.
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

        let k = self.core[u as usize].min(self.core[v as usize]);
        let root = if self.core[u as usize] <= self.core[v as usize] {
            u
        } else {
            v
        };
        let epoch = self.bump_epoch();
        stats.visited = self.gather_subcore(&[root], k, epoch);

        // Peel: evict members with cd <= k, cascading.
        self.queue.clear();
        let mut members = std::mem::take(&mut self.members);
        for &w in &members {
            if self.cd[w as usize] <= k && self.evict_mark[w as usize] != epoch {
                self.evict_mark[w as usize] = epoch;
                self.queue.push(w);
            }
        }
        self.run_evictions(k, epoch);

        // Survivors form the new (k+1)-core portion.
        stats.changed = 0;
        for &w in &members {
            if self.evict_mark[w as usize] != epoch {
                self.core[w as usize] = k + 1;
                stats.changed += 1;
            }
        }
        members.clear();
        self.members = members;
        Ok(stats)
    }

    /// Removes `(u, v)`: gather the subcores of the level-`k` endpoints,
    /// peel against threshold `k`; evicted members drop to `k − 1`.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        if !self.graph.has_edge(u, v) {
            return Err(EdgeListError::Missing(u, v));
        }
        self.graph.remove_edge(u, v).expect("edge present");
        self.graph
            .maintain_adjacency(kcore_graph::DEFAULT_MAX_HOLE_RATIO);
        let mut stats = UpdateStats::default();

        let k = self.core[u as usize].min(self.core[v as usize]);
        let epoch = self.bump_epoch();
        stats.visited = self.gather_subcore(&[u, v], k, epoch);

        self.queue.clear();
        let mut members = std::mem::take(&mut self.members);
        for &w in &members {
            if self.cd[w as usize] < k && self.evict_mark[w as usize] != epoch {
                self.evict_mark[w as usize] = epoch;
                self.queue.push(w);
            }
        }
        // threshold k: a member must keep >= k usable neighbours
        let mut qi = 0;
        while qi < self.queue.len() {
            let w = self.queue[qi];
            qi += 1;
            for i in 0..self.graph.degree(w) {
                let z = self.graph.neighbors(w)[i];
                let zi = z as usize;
                if self.seen_mark[zi] == epoch && self.evict_mark[zi] != epoch {
                    self.cd[zi] -= 1;
                    if self.cd[zi] < k {
                        self.evict_mark[zi] = epoch;
                        self.queue.push(z);
                    }
                }
            }
        }

        stats.changed = 0;
        for &w in &members {
            if self.evict_mark[w as usize] == epoch {
                self.core[w as usize] = k - 1;
                stats.changed += 1;
            }
        }
        members.clear();
        self.members = members;
        Ok(stats)
    }

    /// Cascade for insertion peeling (threshold `k + 1`, i.e. evict when
    /// `cd <= k`).
    fn run_evictions(&mut self, k: u32, epoch: u32) {
        let mut qi = 0;
        while qi < self.queue.len() {
            let w = self.queue[qi];
            qi += 1;
            for i in 0..self.graph.degree(w) {
                let z = self.graph.neighbors(w)[i];
                let zi = z as usize;
                if self.seen_mark[zi] == epoch && self.evict_mark[zi] != epoch {
                    self.cd[zi] -= 1;
                    if self.cd[zi] <= k {
                        self.evict_mark[zi] = epoch;
                        self.queue.push(z);
                    }
                }
            }
        }
    }

    /// Cross-checks against a fresh decomposition (tests).
    pub fn validate(&self) {
        assert_eq!(
            self.core,
            core_decomposition(&self.graph),
            "subcore engine diverged"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcore_graph::fixtures;

    #[test]
    fn epoch_wraparound_closes_a_triangle() {
        // A wrapped epoch of 0 would read every mark stamped 0 as fresh;
        // the wrap resets the marks and restarts at 1 instead.
        let mut sc = SubCoreAlgo::new(fixtures::path(3));
        sc.epoch = u32::MAX;
        sc.insert_edge(0, 2).unwrap();
        assert_eq!(sc.cores(), &[2, 2, 2]);
        assert_eq!(sc.epoch, 1);
        sc.validate();
        sc.remove_edge(0, 1).unwrap();
        assert_eq!(sc.cores(), &[1, 1, 1]);
        sc.validate();
    }

    #[test]
    fn triangle_roundtrip() {
        let mut g = DynamicGraph::with_vertices(3);
        g.insert_edge(0, 1).unwrap();
        g.insert_edge(1, 2).unwrap();
        let mut sc = SubCoreAlgo::new(g);
        sc.insert_edge(2, 0).unwrap();
        assert_eq!(sc.cores(), &[2, 2, 2]);
        sc.remove_edge(0, 1).unwrap();
        assert_eq!(sc.cores(), &[1, 1, 1]);
        sc.validate();
    }

    #[test]
    fn paper_insertion_visits_whole_subcore() {
        // The 1-subcore of the paper graph has 2001 members; SubCore must
        // visit all of them — even more than the traversal algorithm's
        // 1,999 — to conclude V* = {u0}.
        let pg = fixtures::PaperGraph::full();
        let mut sc = SubCoreAlgo::new(pg.graph.clone());
        let stats = sc.insert_edge(pg.v(4), pg.u(0)).unwrap();
        assert_eq!(stats.changed, 1);
        assert_eq!(stats.visited, 2001);
        assert_eq!(sc.core(pg.u(0)), 2);
        sc.validate();
    }

    #[test]
    fn search_space_ordering_sc_ge_pc_ge_oc() {
        // On the same update: SubCore visits >= Traversal visits >= Order
        // visits (the sc >= pc >= oc containment chain of Fig 5).
        let pg = fixtures::PaperGraph::full();
        let mut sub = SubCoreAlgo::new(pg.graph.clone());
        let mut trav = crate::TraversalCore::new(pg.graph.clone(), 2);
        let s = sub.insert_edge(pg.v(4), pg.u(0)).unwrap();
        let t = trav.insert_edge(pg.v(4), pg.u(0)).unwrap();
        assert!(s.visited >= t.visited);
        assert_eq!(sub.cores(), trav.cores());
    }

    #[test]
    fn removal_merges_subcores() {
        let mut sc = SubCoreAlgo::new(fixtures::clique(5));
        sc.remove_edge(0, 1).unwrap();
        assert_eq!(sc.cores(), &[3, 3, 3, 3, 3]);
        sc.validate();
        sc.remove_edge(2, 3).unwrap();
        sc.validate();
    }

    #[test]
    fn random_churn_matches_oracle() {
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut sc = SubCoreAlgo::new(DynamicGraph::with_vertices(22));
        let mut present: Vec<(u32, u32)> = Vec::new();
        for _ in 0..260 {
            let do_remove = !present.is_empty() && next() % 3 == 0;
            if do_remove {
                let idx = (next() % present.len() as u64) as usize;
                let (a, b) = present.swap_remove(idx);
                sc.remove_edge(a, b).unwrap();
            } else {
                let a = (next() % 22) as u32;
                let b = (next() % 22) as u32;
                if a != b && !sc.graph().has_edge(a, b) {
                    sc.insert_edge(a, b).unwrap();
                    present.push((a, b));
                }
            }
            sc.validate();
        }
    }

    #[test]
    fn vertex_and_error_paths() {
        let mut sc = SubCoreAlgo::new(fixtures::triangle());
        let v = sc.add_vertex();
        assert_eq!(sc.core(v), 0);
        sc.insert_edge(v, 0).unwrap();
        assert_eq!(sc.core(v), 1);
        assert!(matches!(
            sc.insert_edge(v, 0),
            Err(EdgeListError::Duplicate(..))
        ));
        assert!(matches!(
            sc.remove_edge(v, 2),
            Err(EdgeListError::Missing(..))
        ));
        sc.validate();
    }
}
