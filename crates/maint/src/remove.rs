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
        } else if self.order.key(u) < self.order.key(v) {
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
    pub(crate) fn dismiss_pass(&mut self, seeds: &[VertexId], k: u32, stats: &mut UpdateStats) {
        stats.passes += 1;
        // ---- find V* (traversal-removal routine, mcd-seeded) ----
        let epoch = self.bump_epoch();
        let mut vstar = std::mem::take(&mut self.vstar);
        vstar.clear();
        let (core, mcd) = (&mut self.core[..], &self.mcd[..]);
        let (touch_mark, cd_work) = (&mut self.touch_mark[..], &mut self.cd_work[..]);
        let queue_mark = &mut self.queue_mark[..];
        let queue = &mut self.queue;
        queue.clear();
        let mut touched = 0usize;
        for &root in seeds {
            let ri = root as usize;
            if core[ri] != k {
                continue;
            }
            if touch_mark[ri] != epoch {
                touch_mark[ri] = epoch;
                cd_work[ri] = mcd[ri];
                touched += 1;
                stats.merged_seeds += 1;
            }
            if cd_work[ri] < k {
                core[ri] = k - 1; // dismiss
                queue_mark[ri] = epoch; // marks membership of V*
                vstar.push(root);
                queue.push(root);
            }
        }
        let mut qi = 0;
        while qi < queue.len() {
            let w = queue[qi];
            qi += 1;
            for &z in self.graph.neighbors(w) {
                let zi = z as usize;
                if core[zi] != k {
                    continue;
                }
                if touch_mark[zi] != epoch {
                    touch_mark[zi] = epoch;
                    cd_work[zi] = mcd[zi];
                    touched += 1;
                }
                cd_work[zi] -= 1;
                if cd_work[zi] < k {
                    core[zi] = k - 1; // dismiss
                    queue_mark[zi] = epoch;
                    vstar.push(z);
                    queue.push(z);
                }
            }
        }
        stats.visited += touched;
        self.finish_dismiss(k, epoch, &vstar, stats);
        self.vstar = vstar;
    }

    /// `OrderRemoval`'s ending phase (Algorithm 4 lines 6–14) of
    /// [`OrderCore::dismiss_pass`]: drops `vstar` (in dismissal order) to
    /// level `k − 1`, moves it to the end of `O_{K−1}`, and repairs `deg⁺`
    /// and `mcd` around it in one fused scan per dismissed vertex. `epoch`
    /// is the pass's epoch; `queue_mark == epoch` marks `V*` during the
    /// scan.
    fn finish_dismiss(&mut self, k: u32, epoch: u32, vstar: &[VertexId], stats: &mut UpdateStats) {
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
        let order = &mut self.order;
        let (core, queue_mark, vc_pos) = (&self.core[..], &self.queue_mark[..], &self.vc_pos[..]);
        let (deg_plus, mcd) = (&mut self.deg_plus[..], &mut self.mcd[..]);
        for (idx, &w) in vstar.iter().enumerate() {
            let wi = w as usize;
            // Removals from A_K keep the keys of the vertices left on it
            // in order, so they compare the stayers with w.
            let key_w = order.key(w);
            let mut dp = 0u32;
            let mut m = 0u32;
            for &z in self.graph.neighbors(w) {
                let zi = z as usize;
                let cz = core[zi];
                // w's mcd at its new level counts neighbours with
                // core >= k − 1.
                if cz >= k - 1 {
                    m += 1;
                }
                // Level-K stayers: they lose w from mcd (it drops below
                // their level), and those that preceded w lose it from
                // deg⁺ too (w moves to O_{K−1}, i.e. in front of them).
                if cz == k {
                    mcd[zi] -= 1;
                    if order.key(z) < key_w {
                        deg_plus[zi] -= 1;
                    }
                    stats.refreshed += 1;
                }
                // w's own deg⁺: stayers at level >= K are all after the
                // end of O_{K−1}; so are the V* members not yet moved
                // (they will be appended after w).
                if cz >= k || (queue_mark[zi] == epoch && vc_pos[zi] as usize > idx) {
                    dp += 1;
                }
            }
            deg_plus[wi] = dp;
            mcd[wi] = m;
            // Move w: out of A_K, to the end of A_{K−1}.
            order.remove(k, w);
            order.insert_last(k - 1, w);
        }
    }
}
