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

use crate::order_core::{OrderCore, StarDeg};
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
        } else if self.order.key(u) < self.order.key(v) {
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
    pub(crate) fn promote_pass(&mut self, seeds: &[VertexId], k: u32, stats: &mut UpdateStats) {
        stats.passes += 1;
        stats.merged_seeds += seeds.len();
        self.ensure_level(k + 1);
        let epoch = self.bump_epoch();
        self.vc.clear();
        self.demotions.clear();
        self.heap.clear();
        for &root in seeds {
            debug_assert_eq!(self.core[root as usize], k);
            debug_assert!(self.deg_plus[root as usize] > k);
            let rank = self.order_key(root);
            self.heap.push(rank, root);
        }

        // ---- the pass (core phase of Algorithm 2) ----
        // All order tests during the pass compare pass-start keys: A_K is
        // frozen until the ending phase, so a popped key is its vertex's
        // rank.
        loop {
            let mut star = StarDeg::new(&mut self.star_mark, &mut self.deg_star, epoch);
            let (vc_mark, deg_plus) = (&mut self.vc_mark[..], &mut self.deg_plus[..]);
            let popped = self.heap.pop_valid(|w| {
                let wi = w as usize;
                vc_mark[wi] != epoch && (star.get(wi) > 0 || deg_plus[wi] > k)
            });
            let Some((rank_w, w)) = popped else { break };
            stats.visited += 1;
            let wi = w as usize;
            let star_w = star.get(wi);
            if star_w + deg_plus[wi] > k {
                // Case-1: w is a potential candidate.
                vc_mark[wi] = epoch;
                self.vc.push(w);
                // Grant candidate degree to later same-core neighbours.
                let (core, order) = (&self.core[..], &self.order);
                for &z in self.graph.neighbors(w) {
                    let zi = z as usize;
                    if core[zi] == k {
                        let rank_z = order.key(z);
                        if rank_w < rank_z && star.inc(zi) == 1 {
                            self.heap.push(rank_z, z);
                        }
                    }
                }
            } else {
                // Case-2b (Case-2a vertices never enter the heap): w stays
                // at level K; its candidate neighbours will sit after it in
                // the new order whether they are promoted or demoted, so
                // deg* folds into deg⁺.
                debug_assert!(star_w > 0);
                deg_plus[wi] += star.take(wi);
                self.remove_candidates(w, rank_w, k, epoch);
            }
        }

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

    /// `OrderInsert`'s ending phase of [`OrderCore::promote_pass`]: raises
    /// `vstar` (in candidate order) to level `k + 1` and repairs the
    /// k-order around it. `demotions`
    /// lists the pass's Observation 6.1 repositionings as `(d, pred)`:
    /// demoted `d` rejoined `O_K` right after `pred`. `epoch` is the
    /// pass's epoch; `vc_mark == epoch` marks `V*` during the repair scan.
    fn finish_promote(
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
        // gain one mcd. The two repairs are write-disjoint, so fusing the
        // scans is safe.
        let (core, vc_mark, vc_pos) = (&self.core[..], &self.vc_mark[..], &self.vc_pos[..]);
        let (deg_plus, mcd) = (&mut self.deg_plus[..], &mut self.mcd[..]);
        for (idx, &w) in vstar.iter().enumerate() {
            let mut dp = 0u32;
            let mut m = 0u32;
            for &z in self.graph.neighbors(w) {
                let zi = z as usize;
                let cz = core[zi];
                if cz > k {
                    m += 1;
                }
                if cz > k + 1 {
                    dp += 1;
                } else if cz == k + 1 {
                    if vc_mark[zi] == epoch {
                        if (vc_pos[zi] as usize) > idx {
                            dp += 1;
                        }
                    } else {
                        dp += 1; // original O_{K+1} member: after all of V*
                        mcd[zi] += 1;
                        stats.refreshed += 1;
                    }
                }
            }
            deg_plus[w as usize] = dp;
            mcd[w as usize] = m;
            stats.refreshed += 1;
        }

        // A_K repairs deferred from the pass: first the Observation 6.1
        // repositionings, then the promotion moves into A_{K+1}.
        for &(d, pred) in demotions {
            self.order.remove(k, d);
            self.order.insert_after(k, pred, d);
        }
        for &w in vstar {
            self.order.remove(k, w);
        }
        for &w in vstar.iter().rev() {
            self.order.insert_first(k + 1, w);
        }
    }

    /// Algorithm 3: the frontier vertex `w` (pass-start rank `rank_w`) has
    /// just been ruled out of `V*`; retract its contribution from the
    /// candidates and cascade demotions out of `VC`. Demoted vertices
    /// rejoin `O_K` right after the current frontier, preserving queue
    /// order. Order tests compare pass-start keys (`A_K` is frozen during
    /// the pass).
    fn remove_candidates(&mut self, w: VertexId, rank_w: u64, k: u32, epoch: u32) {
        let mut star = StarDeg::new(&mut self.star_mark, &mut self.deg_star, epoch);
        let (core, order) = (&self.core[..], &self.order);
        let (deg_plus, vc_mark) = (&mut self.deg_plus[..], &mut self.vc_mark[..]);
        let queue_mark = &mut self.queue_mark[..];
        let queue = &mut self.queue;
        queue.clear();
        // w will stay at level K: candidates counted it in deg⁺.
        for &z in self.graph.neighbors(w) {
            let zi = z as usize;
            if vc_mark[zi] == epoch {
                deg_plus[zi] -= 1;
                if deg_plus[zi] + star.get(zi) <= k && queue_mark[zi] != epoch {
                    queue_mark[zi] = epoch;
                    queue.push(z);
                }
            }
        }
        let mut cursor = w;
        let mut qi = 0;
        while qi < queue.len() {
            let d = queue[qi];
            qi += 1;
            let di = d as usize;
            // Demote d: leave VC, fold deg* into deg⁺, rejoin O_K after
            // the cursor.
            deg_plus[di] += star.take(di);
            vc_mark[di] = 0;
            self.demotions.push((d, cursor));
            cursor = d;

            let rank_d = order.key(d);
            for &z in self.graph.neighbors(d) {
                let zi = z as usize;
                if core[zi] != k {
                    continue;
                }
                let rank_z = order.key(z);
                if rank_w < rank_z {
                    // Unvisited vertex after the frontier: loses one
                    // candidate-granted degree (heap entry goes stale
                    // lazily if this was its last).
                    star.dec(zi);
                } else if vc_mark[zi] == epoch {
                    // A remaining candidate. d granted z a deg* iff
                    // rank_d < rank_z; otherwise z counted d in deg⁺.
                    if rank_d < rank_z {
                        star.dec(zi);
                    } else {
                        deg_plus[zi] -= 1;
                    }
                    if deg_plus[zi] + star.get(zi) <= k && queue_mark[zi] != epoch {
                        queue_mark[zi] = epoch;
                        queue.push(z);
                    }
                }
                // Everything else (processed stayers, earlier demotions,
                // skipped vertices): d ends up after them either way —
                // their deg⁺ already counts it correctly.
            }
        }
    }
}
