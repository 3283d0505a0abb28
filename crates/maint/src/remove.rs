//! `OrderRemoval` — Algorithm 4 of the paper.
//!
//! `V*` is found exactly as in the traversal removal algorithm (a
//! `CoreDecomp`-style peeling of the `K` level seeded from `mcd`); the
//! k-order is then maintained by moving the dismissed vertices, in
//! dismissal order, to the **end** of `O_{K−1}` while recomputing their
//! `deg⁺` and decrementing the `deg⁺` of the level-K vertices that
//! preceded them. No `pcd` is maintained — that is the whole point.
//!
//! The pass machinery is **seed-count agnostic**: a single-edge removal
//! seeds the peel from the two endpoints, while the batched engine
//! ([`OrderCore::remove_edges`](crate::order_core::OrderCore)) hands it
//! every dismissible vertex of a level at once and runs one merged pass
//! per affected level, cascading downward.

use crate::order_core::OrderCore;
use kcore_graph::{EdgeListError, VertexId, DEFAULT_MAX_HOLE_RATIO};
use kcore_order::OrderSeq;
use kcore_traversal::UpdateStats;

impl<S: OrderSeq> OrderCore<S> {
    /// Removes the edge `(u, v)`, updating core numbers and the k-order.
    /// Errors (with no state change) when the edge is absent.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        if !self.graph.has_edge(u, v) {
            return Err(EdgeListError::Missing(u, v));
        }
        self.graph.remove_edge(u, v).expect("edge present");
        // Adjacency compaction is an explicit policy step now; the O(1)
        // check per update preserves the old amortised behaviour.
        self.graph.maintain_adjacency(DEFAULT_MAX_HOLE_RATIO);
        let mut stats = UpdateStats::default();

        let (cu, cv) = (self.core[u as usize], self.core[v as usize]);
        debug_assert!(cu >= 1 && cv >= 1, "an incident edge implies core >= 1");
        // mcd loses the removed edge (Algorithm 4 lines 3–4).
        if cu <= cv {
            self.mcd[u as usize] -= 1;
        }
        if cv <= cu {
            self.mcd[v as usize] -= 1;
        }
        // The earlier endpoint counted the later one in deg⁺.
        let earlier = if cu < cv {
            u
        } else if cv < cu {
            v
        } else if self.seqs[cu as usize].precedes(self.node[u as usize], self.node[v as usize]) {
            u
        } else {
            v
        };
        self.deg_plus[earlier as usize] -= 1;

        self.dismiss_pass(&[u, v], cu.min(cv), &mut stats);
        Ok(stats)
    }

    /// `OrderRemoval`'s dismissal pass (Algorithm 4): finds `V*` at level
    /// `k` by an mcd-seeded peeling from `seeds` (roots not at level `k`,
    /// or with `mcd >= k`, contribute nothing and are skipped) and moves
    /// the dismissed vertices to the end of `O_{K−1}`, repairing `deg⁺`
    /// and `mcd` around them in one fused scan per dismissed vertex. The
    /// graph mutations, mcd decrements, and the earlier endpoints' `deg⁺`
    /// decrements have already happened.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn dismiss_pass(&mut self, seeds: &[VertexId], k: u32, stats: &mut UpdateStats) {
        stats.passes += 1;
        // ---- find V* (traversal-removal routine, mcd-seeded) ----
        let epoch = self.bump_epoch();
        let mut vstar = std::mem::take(&mut self.vstar);
        vstar.clear();
        self.queue.clear();
        let mut touched = 0usize;
        for i in 0..seeds.len() {
            let root = seeds[i];
            let ri = root as usize;
            if self.core[ri] != k {
                continue;
            }
            if self.touch_mark[ri] != epoch {
                self.touch_mark[ri] = epoch;
                self.cd_work[ri] = self.mcd[ri];
                touched += 1;
                stats.merged_seeds += 1;
            }
            if self.cd_work[ri] < k {
                self.core[ri] = k - 1; // dismiss
                self.queue_mark[ri] = epoch; // marks membership of V*
                vstar.push(root);
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
                if self.touch_mark[zi] != epoch {
                    self.touch_mark[zi] = epoch;
                    self.cd_work[zi] = self.mcd[zi];
                    touched += 1;
                }
                self.cd_work[zi] -= 1;
                if self.cd_work[zi] < k {
                    self.core[zi] = k - 1; // dismiss
                    self.queue_mark[zi] = epoch;
                    vstar.push(z);
                    self.queue.push(z);
                }
            }
        }
        stats.visited += touched;
        self.finish_dismiss(k, epoch, &vstar, stats);
        self.vstar = vstar;
    }

    /// `OrderRemoval`'s ending phase (Algorithm 4 lines 6–14), shared by
    /// [`OrderCore::dismiss_pass`] and the parallel plan commit: drops
    /// `vstar` (in dismissal order) to level `k − 1`, moves it to the end
    /// of `O_{K−1}`, and repairs `deg⁺` and `mcd` around it in one fused
    /// scan per dismissed vertex. `epoch` is the pass's epoch;
    /// `queue_mark == epoch` marks `V*` during the scan.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn finish_dismiss(
        &mut self,
        k: u32,
        epoch: u32,
        vstar: &[VertexId],
        stats: &mut UpdateStats,
    ) {
        stats.changed += vstar.len();
        if vstar.is_empty() {
            stats.noop += 1;
            return;
        }
        self.change_log.record_slice(vstar);
        self.level_counts[k as usize] -= vstar.len();
        self.level_counts[k as usize - 1] += vstar.len();

        // Process in dismissal order; vc_pos[w] = index lets the deg⁺
        // recomputation see which V* members are still "remaining". One
        // scan per dismissed vertex repairs the stayers' deg⁺ *and* mcd
        // plus w's own deg⁺ and mcd: the mcd terms only read core values
        // and V* membership, both fixed before this loop, so fusing them
        // into the order-repair scan is safe.
        for (i, &w) in vstar.iter().enumerate() {
            self.core[w as usize] = k - 1;
            self.queue_mark[w as usize] = epoch;
            self.vc_pos[w as usize] = i as u32;
        }
        for idx in 0..vstar.len() {
            let w = vstar[idx];
            let wi = w as usize;
            let mut dp = 0u32;
            let mut m = 0u32;
            for i in 0..self.graph.degree(w) {
                let z = self.graph.neighbors(w)[i];
                let zi = z as usize;
                let cz = self.core[zi];
                // w's mcd at its new level counts neighbours with
                // core >= k − 1.
                if cz >= k - 1 {
                    m += 1;
                }
                // Level-K stayers: they lose w from mcd (it drops below
                // their level), and those that preceded w lose it from
                // deg⁺ too (w moves to O_{K−1}, i.e. in front of them).
                if cz == k {
                    self.mcd[zi] -= 1;
                    if self.seqs[k as usize].precedes(self.node[zi], self.node[wi]) {
                        self.deg_plus[zi] -= 1;
                    }
                    stats.refreshed += 1;
                }
                // w's own deg⁺: stayers at level >= K are all after the
                // end of O_{K−1}; so are the V* members not yet moved
                // (they will be appended after w).
                if cz >= k || (self.queue_mark[zi] == epoch && self.vc_pos[zi] as usize > idx) {
                    dp += 1;
                }
            }
            self.deg_plus[wi] = dp;
            self.mcd[wi] = m;
            // Move w: out of A_K, to the end of A_{K−1}.
            self.seqs[k as usize].remove(self.node[wi]);
            self.node[wi] = self.seqs[k as usize - 1].insert_last(w);
        }
    }
}
