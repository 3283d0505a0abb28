//! `OrderRemoval` — Algorithm 4 of the paper.
//!
//! `V*` is found exactly as in the traversal removal algorithm (a
//! `CoreDecomp`-style peeling of the `K` level seeded from `mcd`); the
//! k-order is then maintained by moving the dismissed vertices, in
//! dismissal order, to the **end** of `O_{K−1}` while recomputing their
//! `deg⁺` and decrementing the `deg⁺` of the level-K vertices that
//! preceded them. No `pcd` is maintained — that is the whole point.
//!
//! The pass machinery is **seed-count agnostic**: the apply phase of
//! [`OrderCore::remove_edges`] hands it every dismissible vertex of a
//! level at once — at most the two endpoints after a single-edge removal,
//! which is a batch of one — and runs one merged pass per affected level,
//! cascading downward. A removal that leaves every `mcd >= core` runs no
//! pass at all.

use crate::order_core::{OrderCore, PassScratch};
use kcore_graph::VertexId;
use kcore_order::OrderSeq;
use kcore_traversal::UpdateStats;

impl<S: OrderSeq> OrderCore<S> {
    /// `OrderRemoval`'s dismissal pass (Algorithm 4): finds `V*` at level
    /// `k` by an mcd-seeded peeling from `seeds` — distinct vertices at
    /// level `k` with `mcd < k`, so `V*` is never empty — and moves the
    /// dismissed vertices to the end of `O_{K−1}`, repairing `deg⁺` and
    /// `mcd` around them in one fused scan per dismissed vertex. The
    /// apply phase of [`OrderCore::remove_edges`] has already made the
    /// graph mutations, mcd decrements, and the earlier endpoints' `deg⁺`
    /// decrements.
    pub(crate) fn dismiss_pass(&mut self, seeds: &[VertexId], k: u32, stats: &mut UpdateStats) {
        stats.passes += 1;
        // ---- find V* (traversal-removal routine, mcd-seeded) ----
        let epoch = self.bump_epoch();
        let vstar = &mut self.vstar;
        vstar.clear();
        let (core, mcd) = (&mut self.core[..], &self.mcd[..]);
        let scratch = &mut self.scratch[..];
        // Seeds are dismissed outright; the peel below never reads their
        // `cd` (it skips vertices no longer at level `k`). `V*` in
        // dismissal order doubles as the peel's FIFO queue. A vertex's
        // record is stamped when the peel first touches it, with its `cd`
        // starting at `mcd`.
        for &root in seeds {
            let ri = root as usize;
            debug_assert_eq!(core[ri], k, "seed {root} is not at level {k}");
            debug_assert!(mcd[ri] < k, "seed {root} is not dismissible");
            core[ri] = k - 1; // dismiss
            vstar.push(root);
        }
        stats.merged_seeds += seeds.len();
        let mut touched = seeds.len();
        let mut qi = 0;
        while qi < vstar.len() {
            let w = vstar[qi];
            qi += 1;
            for &z in self.graph.neighbors(w) {
                let zi = z as usize;
                if core[zi] != k {
                    continue;
                }
                let r = &mut scratch[zi];
                if !r.is_fresh(epoch) {
                    r.set_work(epoch, mcd[zi]);
                    touched += 1;
                }
                if r.dec_work() < k {
                    core[zi] = k - 1; // dismiss
                    vstar.push(z);
                }
            }
        }
        stats.visited += touched;
        self.finish_dismiss(k, stats);
    }

    /// `OrderRemoval`'s ending phase (Algorithm 4 lines 6–14) of
    /// [`OrderCore::dismiss_pass`]: drops `self.vstar` (in dismissal
    /// order) to level `k − 1`, moves it to the end of `O_{K−1}`, and
    /// repairs `deg⁺` and `mcd` around it in one fused scan per dismissed
    /// vertex. The `QUEUED` mark of the pass's epoch, with each member's
    /// index in `V*`, marks `V*` during the scan.
    fn finish_dismiss(&mut self, k: u32, stats: &mut UpdateStats) {
        let (epoch, vstar) = (self.epoch, &self.vstar);
        stats.changed += vstar.len();
        self.change_log.record_slice(vstar);
        self.level_counts[k as usize] -= vstar.len();
        self.level_counts[k as usize - 1] += vstar.len();

        // Process in dismissal order; w's index in V* lets the deg⁺
        // recomputation see which V* members are still "remaining". One
        // scan per dismissed vertex repairs the stayers' deg⁺ *and* mcd
        // plus w's own deg⁺ and mcd: the mcd terms only read core values
        // and V* membership, both fixed before this loop, so fusing them
        // into the order-repair scan is safe.
        for (i, &w) in vstar.iter().enumerate() {
            self.core[w as usize] = k - 1;
            self.scratch[w as usize].mark_at(epoch, PassScratch::QUEUED, i as u32);
        }
        let order = &mut self.order;
        let (core, scratch) = (&self.core[..], &self.scratch[..]);
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
                // (they will be appended after w). V* is at level K − 1
                // now, so only those neighbours read their record.
                if cz >= k
                    || (cz == k - 1
                        && scratch[zi]
                            .pos_if(epoch, PassScratch::QUEUED)
                            .is_some_and(|pos| pos as usize > idx))
                {
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
