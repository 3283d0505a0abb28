//! `OrderInsert` — Algorithm 2 of the paper, with `RemoveCandidates`
//! (Algorithm 3).
//!
//! One pass over `O_K` starting at the root (the earlier endpoint of the
//! new edge), *jumping* between the vertices that still need attention via
//! the min-heap `B` keyed by pass-start ranks:
//!
//! * **Case-1** (`deg* + deg⁺ > K`): the vertex becomes a candidate
//!   (joins `VC`, leaves `O_K`), and grants one `deg*` to every later
//!   same-core neighbour — which thereby enters `B`;
//! * **Case-2a** (`deg* = 0`): never popped from `B` at all — these are
//!   the vertices the algorithm skips wholesale, the source of its
//!   advantage over the traversal DFS;
//! * **Case-2b** (`deg* > 0`, total `<= K`): the vertex stays at level
//!   `K`, folds `deg*` into `deg⁺` (its candidate neighbours will end up
//!   after it either way), and retracts itself from the candidates'
//!   budgets — possibly cascading demotions out of `VC`
//!   (`RemoveCandidates`), each demoted vertex re-entering `O_K` right
//!   after the current frontier (Observation 6.1).
//!
//! When `B` drains, `VC` is exactly `V*`: those cores rise to `K + 1`, the
//! vertices move (order-preserved) to the *front* of `O_{K+1}`, and
//! `deg⁺`/`mcd` are repaired around them.

use crate::order_core::OrderCore;
use kcore_graph::{EdgeListError, VertexId};
use kcore_order::OrderSeq;
use kcore_traversal::UpdateStats;

impl<S: OrderSeq> OrderCore<S> {
    /// Inserts the edge `(u, v)`, updating core numbers and the k-order.
    /// Errors (with no state change) on self loops, duplicates, and
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

        // mcd reflects the new edge immediately (old core numbers).
        let (cu, cv) = (self.core[u as usize], self.core[v as usize]);
        if cv >= cu {
            self.mcd[u as usize] += 1;
        }
        if cu >= cv {
            self.mcd[v as usize] += 1;
        }

        // Root = the earlier endpoint in k-order; it gains the deg⁺.
        let root = if cu < cv {
            u
        } else if cv < cu {
            v
        } else if self.seqs[cu as usize].precedes(self.node[u as usize], self.node[v as usize]) {
            u
        } else {
            v
        };
        self.insert_post_root(root, &mut stats);
        Ok(stats)
    }

    /// Shared tail of edge insertion once the root (earlier endpoint) is
    /// known: bump its `deg⁺`, apply the Lemma 5.2 short-circuit, and run
    /// the promotion pass only when the k-order actually broke.
    pub(crate) fn insert_post_root(&mut self, root: VertexId, stats: &mut UpdateStats) {
        let k = self.core[root as usize];
        self.deg_plus[root as usize] += 1;
        if self.deg_plus[root as usize] <= k {
            // Lemma 5.2: O_K is still a valid k-order; nothing changes.
            stats.noop += 1;
            return;
        }
        self.promote_pass(&[root], k, stats);
    }

    /// `OrderInsert`'s pass + ending phase (Algorithms 2 and 3): finds
    /// `V*` at level `k` and repairs the k-order. `seeds` are the
    /// Lemma 5.1 violators (`deg⁺ > k`) triggering the pass — one root
    /// for a single-edge insert, every violating root of a level for the
    /// batched engine. The pass machinery is seed-count agnostic: the
    /// heap `B` processes violators in pass-start rank order either way.
    ///
    /// With multiple seeds, promoted vertices can still violate Lemma 5.1
    /// at level `k + 1` (a batch may raise a core by more than one);
    /// callers with multi-edge batches must re-check the promoted set
    /// (`self.vstar`) and cascade upward.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn promote_pass(&mut self, seeds: &[VertexId], k: u32, stats: &mut UpdateStats) {
        stats.passes += 1;
        stats.merged_seeds += seeds.len();
        self.ensure_level(k + 1);
        let epoch = self.bump_epoch();
        self.vc.clear();
        self.demotions.clear();
        let mut heap = std::mem::take(&mut self.heap);
        heap.clear();
        for i in 0..seeds.len() {
            let root = seeds[i];
            debug_assert_eq!(self.core[root as usize], k);
            debug_assert!(self.deg_plus[root as usize] > k);
            let rank = self.order_key(root);
            heap.push(rank, root);
        }

        // ---- the pass (core phase of Algorithm 2) ----
        loop {
            let popped = heap.pop_valid(|w| {
                let wi = w as usize;
                self.vc_mark[wi] != epoch && (self.star(w, epoch) > 0 || self.deg_plus[wi] > k)
            });
            let Some((_, w)) = popped else { break };
            stats.visited += 1;
            let wi = w as usize;
            let star_w = self.star(w, epoch);
            if star_w + self.deg_plus[wi] > k {
                // Case-1: w is a potential candidate.
                self.vc_mark[wi] = epoch;
                self.vc.push(w);
                // Grant candidate degree to later same-core neighbours.
                // All order tests during the pass compare pass-start
                // positions: A_K is frozen until the ending phase.
                let rank_w = self.order_key(w);
                for i in 0..self.graph.degree(w) {
                    let z = self.graph.neighbors(w)[i];
                    let zi = z as usize;
                    if self.core[zi] == k {
                        let rank_z = self.order_key(z);
                        if rank_w < rank_z {
                            let new = self.star_add(z, epoch, 1);
                            if new == 1 {
                                heap.push(rank_z, z);
                            }
                        }
                    }
                }
            } else {
                // Case-2b (Case-2a vertices never enter the heap): w stays
                // at level K; its candidate neighbours will sit after it in
                // the new order whether they are promoted or demoted, so
                // deg* folds into deg⁺.
                debug_assert!(star_w > 0);
                self.deg_plus[wi] += star_w;
                self.star_add(w, epoch, -(star_w as i64));
                self.remove_candidates(w, k, epoch);
            }
        }
        self.heap = heap;

        // Surviving candidates are V*.
        let mut vstar = std::mem::take(&mut self.vstar);
        vstar.clear();
        vstar.extend(
            self.vc
                .iter()
                .copied()
                .filter(|&w| self.vc_mark[w as usize] == epoch),
        );
        let demotions = std::mem::take(&mut self.demotions);
        self.finish_promote(k, epoch, &vstar, &demotions, stats);
        self.demotions = demotions;
        self.vstar = vstar;
    }

    /// `OrderInsert`'s ending phase, shared by [`OrderCore::promote_pass`]
    /// and the parallel plan commit: raises `vstar` (in candidate order)
    /// to level `k + 1` and repairs the k-order around it. `demotions`
    /// lists the pass's Observation 6.1 repositionings as `(d, pred)`:
    /// demoted `d` rejoined `O_K` right after `pred`. `epoch` is the
    /// pass's epoch; `vc_mark == epoch` marks `V*` during the repair scan.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn finish_promote(
        &mut self,
        k: u32,
        epoch: u32,
        vstar: &[VertexId],
        demotions: &[(VertexId, VertexId)],
        stats: &mut UpdateStats,
    ) {
        stats.changed += vstar.len();
        self.change_log.record_slice(vstar);
        self.level_counts[k as usize] -= vstar.len();
        self.level_counts[k as usize + 1] += vstar.len();

        for (i, &w) in vstar.iter().enumerate() {
            self.core[w as usize] = k + 1;
            self.vc_mark[w as usize] = epoch;
            self.vc_pos[w as usize] = i as u32;
        }

        // One scan per promoted vertex repairs both deg⁺ and mcd.
        //
        // deg⁺ of promoted vertices: later V* members (V* keeps its
        // relative order at the *front* of O_{K+1}), everything already in
        // O_{K+1}, and higher levels. mcd of promoted vertices counts
        // neighbours with core > k; their neighbours already at level K+1
        // gain one mcd. (Index loops sidestep holding &self borrows
        // across &mut accesses; the two repairs are write-disjoint, so
        // fusing the scans is safe.)
        for idx in 0..vstar.len() {
            let w = vstar[idx];
            let mut dp = 0u32;
            let mut m = 0u32;
            for j in 0..self.graph.degree(w) {
                let z = self.graph.neighbors(w)[j];
                let zi = z as usize;
                let cz = self.core[zi];
                if cz > k {
                    m += 1;
                }
                if cz > k + 1 {
                    dp += 1;
                } else if cz == k + 1 {
                    if self.vc_mark[zi] == epoch {
                        if (self.vc_pos[zi] as usize) > idx {
                            dp += 1;
                        }
                    } else {
                        dp += 1; // original O_{K+1} member: after all of V*
                        self.mcd[zi] += 1;
                        stats.refreshed += 1;
                    }
                }
            }
            self.deg_plus[w as usize] = dp;
            self.mcd[w as usize] = m;
            stats.refreshed += 1;
        }

        // A_K repairs deferred from the pass: first the Observation 6.1
        // repositionings, then the promotion moves into A_{K+1}.
        for &(d, pred) in demotions {
            self.seqs[k as usize].remove(self.node[d as usize]);
            self.node[d as usize] = self.seqs[k as usize].insert_after(self.node[pred as usize], d);
        }
        for &w in vstar {
            self.seqs[k as usize].remove(self.node[w as usize]);
        }
        for &w in vstar.iter().rev() {
            self.node[w as usize] = self.seqs[k as usize + 1].insert_first(w);
        }
    }

    /// Algorithm 3: the frontier vertex `w` has just been ruled out of
    /// `V*`; retract its contribution from the candidates and cascade
    /// demotions out of `VC`. Demoted vertices rejoin `O_K` right after
    /// the current frontier, preserving queue order.
    fn remove_candidates(&mut self, w: VertexId, k: u32, epoch: u32) {
        self.queue.clear();
        // w will stay at level K: candidates counted it in deg⁺.
        for i in 0..self.graph.degree(w) {
            let z = self.graph.neighbors(w)[i];
            let zi = z as usize;
            if self.vc_mark[zi] == epoch {
                self.deg_plus[zi] -= 1;
                if self.deg_plus[zi] + self.star(z, epoch) <= k && self.queue_mark[zi] != epoch {
                    self.queue_mark[zi] = epoch;
                    self.queue.push(z);
                }
            }
        }
        // Order tests below compare pass-start positions (A_K is frozen
        // during the pass).
        let rank_w = self.order_key(w);
        let mut cursor = w;
        let mut qi = 0;
        while qi < self.queue.len() {
            let d = self.queue[qi];
            qi += 1;
            let di = d as usize;
            // Demote d: leave VC, fold deg* into deg⁺, rejoin O_K after
            // the cursor.
            let star_d = self.star(d, epoch);
            self.deg_plus[di] += star_d;
            self.star_add(d, epoch, -(star_d as i64));
            self.vc_mark[di] = 0;
            self.demotions.push((d, cursor));
            cursor = d;

            let rank_d = self.order_key(d);
            for i in 0..self.graph.degree(d) {
                let z = self.graph.neighbors(d)[i];
                let zi = z as usize;
                if self.core[zi] != k {
                    continue;
                }
                let rank_z = self.order_key(z);
                if rank_w < rank_z {
                    // Unvisited vertex after the frontier: loses one
                    // candidate-granted degree (heap entry goes stale
                    // lazily if this was its last).
                    self.star_add(z, epoch, -1);
                } else if self.vc_mark[zi] == epoch {
                    // A remaining candidate: d contributed either through
                    // deg* (d was after z? no — through position) …
                    // d granted z a deg* if d preceded z, else z counted d
                    // in deg⁺.
                    if rank_d < rank_z {
                        self.star_add(z, epoch, -1);
                    } else {
                        self.deg_plus[zi] -= 1;
                    }
                    if self.deg_plus[zi] + self.star(z, epoch) <= k && self.queue_mark[zi] != epoch
                    {
                        self.queue_mark[zi] = epoch;
                        self.queue.push(z);
                    }
                }
                // Everything else (processed stayers, earlier demotions,
                // skipped vertices): d ends up after them either way —
                // their deg⁺ already counts it correctly.
            }
        }
    }
}
