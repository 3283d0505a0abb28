//! `OrderInsert` — Algorithm 2 of the paper, with `RemoveCandidates`
//! (Algorithm 3).
//!
//! One pass over `O_K` starting at the seeds (the roots — earlier
//! endpoints of new edges — that broke Lemma 5.1 at level `K`; the paper's
//! single root is a batch of one), *jumping* between the vertices that
//! still need attention via the min-heap `B` keyed by pass-start ranks:
//!
//! * **Case-1** (`deg* + deg⁺ > K`): the vertex becomes a candidate
//!   (joins `VC`, leaves `O_K`), and grants one `deg*` to every later
//!   same-core neighbour — which enters `B` on its first grant of the
//!   pass, and only then;
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

use crate::order_core::{OrderCore, PassScratch};
use kcore_graph::VertexId;
use kcore_order::OrderSeq;
use kcore_traversal::UpdateStats;

impl<S: OrderSeq> OrderCore<S> {
    /// `OrderInsert`'s pass + ending phase (Algorithms 2 and 3): finds
    /// `V*` at level `k` and repairs the k-order. `seeds` are the
    /// Lemma 5.1 violators (`deg⁺ > k`) of level `k` that the apply phase
    /// of [`OrderCore::insert_edges`] collected: one root after a
    /// single-edge insert, every violating root of the level after a
    /// larger batch. The heap `B` processes them in pass-start rank order
    /// either way.
    ///
    /// With multiple seeds, promoted vertices can still violate Lemma 5.1
    /// at level `k + 1` (a batch may raise a core by more than one); the
    /// pass phase re-checks the promoted set (`self.vstar`) and cascades
    /// upward.
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
            let rank = self.order.key(root);
            self.heap.push(rank, root);
        }

        // ---- the pass (core phase of Algorithm 2) ----
        // All order tests during the pass compare pass-start keys: A_K is
        // frozen until the ending phase, so a popped key is its vertex's
        // rank.
        loop {
            let (scratch, deg_plus) = (&mut self.scratch[..], &mut self.deg_plus[..]);
            let popped = self.heap.pop_valid(|w| {
                let wi = w as usize;
                let r = &scratch[wi];
                !r.has(epoch, PassScratch::IN_VC) && (r.work(epoch) > 0 || deg_plus[wi] > k)
            });
            let Some((rank_w, w)) = popped else { break };
            stats.visited += 1;
            let wi = w as usize;
            let star_w = scratch[wi].work(epoch);
            if star_w + deg_plus[wi] > k {
                // Case-1: w is a potential candidate.
                scratch[wi].mark(epoch, PassScratch::IN_VC);
                self.vc.push(w);
                // Grant candidate degree to later same-core neighbours. A
                // neighbour enters B on its first grant only: its key is
                // frozen, so a second entry could only pop stale.
                let (core, order) = (&self.core[..], &self.order);
                for &z in self.graph.neighbors(w) {
                    let zi = z as usize;
                    if core[zi] == k {
                        let rank_z = order.key(z);
                        if rank_w < rank_z && scratch[zi].grant(epoch) {
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
                deg_plus[wi] += scratch[wi].take(epoch);
                self.remove_candidates(w, rank_w, k, epoch);
            }
        }

        // Surviving candidates are V*.
        let scratch = &self.scratch;
        self.vstar.clear();
        self.vstar.extend(
            self.vc
                .iter()
                .copied()
                .filter(|&w| scratch[w as usize].has(epoch, PassScratch::IN_VC)),
        );
        self.finish_promote(k, stats);
    }

    /// `OrderInsert`'s ending phase of [`OrderCore::promote_pass`]: raises
    /// `self.vstar` (in candidate order) to level `k + 1` and repairs the
    /// k-order around it. `self.demotions` lists the pass's Observation
    /// 6.1 repositionings as `(d, pred)`: demoted `d` rejoined `O_K` right
    /// after `pred`. The `IN_VC` mark of the pass's epoch, with each
    /// member's index in `V*`, marks `V*` during the repair scan.
    fn finish_promote(&mut self, k: u32, stats: &mut UpdateStats) {
        let (epoch, vstar) = (self.epoch, &self.vstar);
        stats.changed += vstar.len();
        self.change_log.record_slice(vstar);
        self.level_counts[k as usize] -= vstar.len();
        self.level_counts[k as usize + 1] += vstar.len();

        for (i, &w) in vstar.iter().enumerate() {
            self.core[w as usize] = k + 1;
            self.scratch[w as usize].mark_at(epoch, PassScratch::IN_VC, i as u32);
        }

        // One scan per promoted vertex repairs both deg⁺ and mcd.
        //
        // deg⁺ of promoted vertices: later V* members (V* keeps its
        // relative order at the *front* of O_{K+1}), everything already in
        // O_{K+1}, and higher levels. mcd of promoted vertices counts
        // neighbours with core > k; their neighbours already at level K+1
        // gain one mcd. The two repairs are write-disjoint, so fusing the
        // scans is safe.
        let (core, scratch) = (&self.core[..], &self.scratch[..]);
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
                    if let Some(pos) = scratch[zi].pos_if(epoch, PassScratch::IN_VC) {
                        if pos as usize > idx {
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
        for &(d, pred) in &self.demotions {
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
        let (core, order) = (&self.core[..], &self.order);
        let (deg_plus, scratch) = (&mut self.deg_plus[..], &mut self.scratch[..]);
        let queue = &mut self.queue;
        queue.clear();
        // w will stay at level K: candidates counted it in deg⁺.
        for &z in self.graph.neighbors(w) {
            let zi = z as usize;
            let r = &mut scratch[zi];
            if r.has(epoch, PassScratch::IN_VC) {
                deg_plus[zi] -= 1;
                if deg_plus[zi] + r.work(epoch) <= k && r.mark(epoch, PassScratch::QUEUED) {
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
            deg_plus[di] += scratch[di].take(epoch);
            scratch[di].unmark(PassScratch::IN_VC);
            self.demotions.push((d, cursor));
            cursor = d;

            let rank_d = order.key(d);
            for &z in self.graph.neighbors(d) {
                let zi = z as usize;
                if core[zi] != k {
                    continue;
                }
                let rank_z = order.key(z);
                let r = &mut scratch[zi];
                if rank_w < rank_z {
                    // Unvisited vertex after the frontier: loses one
                    // candidate-granted degree (heap entry goes stale
                    // lazily if this was its last).
                    r.revoke(epoch);
                } else if r.has(epoch, PassScratch::IN_VC) {
                    // A remaining candidate. d granted z a deg* iff
                    // rank_d < rank_z; otherwise z counted d in deg⁺.
                    if rank_d < rank_z {
                        r.revoke(epoch);
                    } else {
                        deg_plus[zi] -= 1;
                    }
                    if deg_plus[zi] + r.work(epoch) <= k && r.mark(epoch, PassScratch::QUEUED) {
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
