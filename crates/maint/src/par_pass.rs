//! Thread-parallel component passes: **plan in parallel, commit
//! serially**.
//!
//! [`crate::components`] proves that the level-`k` seed pool splits into
//! vertex-disjoint, non-adjacent components, and the serial batch path
//! already runs one promotion/dismissal pass per component. Those passes
//! are independent *except* that they mutate the shared per-level order
//! structures (`A_k`, the scratch arrays) — so this module splits each
//! pass into two phases:
//!
//! 1. **Plan** (`plan_promote` / `plan_dismiss`): a read-only replay of
//!    the serial pass against `&OrderCore<S>`, with every mutation
//!    captured in pass-local overlays (hash-map `deg⁺`/`deg*` deltas, a
//!    local jump heap, a local candidate set). The plan phase runs on
//!    the shared worker team ([`kcore_decomp::par`]), one component per
//!    task — sound because components are disjoint at level `k` and
//!    `A_k` is *frozen during a pass* anyway (the serial engine's
//!    standing invariant; order tests compare pass-start ranks).
//! 2. **Apply** (`apply_promote_plan` / `apply_dismiss_plan`): commit
//!    each plan **serially, in component order** — write the surviving
//!    `deg⁺` overlays, then run the ending phase the serial pass runs
//!    (`finish_promote` / `finish_dismiss`: fused `deg⁺`/`mcd` repair
//!    scan, `A_k` repairs, level counts, core-change log).
//!
//! ## Why this is bit-identical to the serial component loop
//!
//! * Components at level `k` share no vertices and no edges inside level
//!   `k`, so a pass reads only (a) its own component's level-`k` state
//!   and (b) `core` values of higher/lower-level neighbours — and the
//!   only *cross-component* write a pass performs is the ending-phase
//!   `mcd += 1` / `mcd -= 1` on neighbours at adjacent levels, which the
//!   plan phase never reads and the serial-order applies reproduce
//!   exactly.
//! * Order tests compare pass-start order keys, and the serial path only
//!   ever compares keys of *same-component* vertices. An earlier
//!   component's `A_k` edits can rewrite keys (a relabel, a shifted treap
//!   rank) but never reorder the survivors — so the frozen pre-batch keys
//!   the plan phase reads order identically.
//! * Applies run in the deterministic component order of
//!   [`OrderCore::split_level_seeds`], so `UpdateStats`, the core-change
//!   log, and every `A_k` mutation land in the serial sequence.
//!
//! The equivalence proptests in `tests/` pin this down at 1/2/4 threads.

use kcore_decomp::par::run_chunks;
use kcore_graph::{FxHashMap, FxHashSet, VertexId};
use kcore_order::{MinRankHeap, OrderSeq};
use kcore_traversal::UpdateStats;

use crate::order_core::OrderCore;

/// Parallel planning engages at a level only when the seed pool is at
/// least this large (after clamping by the configured
/// `sequential_cutoff`, so `with_cutoff(0)` forces the parallel path in
/// tests): below it, per-component planning overhead beats the win.
pub(crate) const PAR_PASS_SEED_CUTOFF: usize = 32;

/// The outcome of a read-only promotion pass over one component.
pub(crate) struct PromotePlan {
    /// Seed count (for `stats.merged_seeds`).
    pub(crate) seeds: usize,
    /// Frontier pops (for `stats.visited`).
    pub(crate) visited: usize,
    /// Surviving candidates `V*`, in candidate (pass) order.
    pub(crate) vstar: Vec<VertexId>,
    /// Observation 6.1 demotions `(d, pred)` in pass order, as the serial
    /// pass records them in `OrderCore::demotions`.
    pub(crate) demotions: Vec<(VertexId, VertexId)>,
    /// Final `deg⁺` of touched vertices that stayed at level `k`
    /// (demoted candidates and decremented bystanders), sorted by id.
    pub(crate) stayer_deg: Vec<(VertexId, u32)>,
}

/// The outcome of a read-only dismissal pass over one component.
pub(crate) struct DismissPlan {
    /// First-touch seed count (for `stats.merged_seeds`).
    pub(crate) merged_seeds: usize,
    /// Vertices whose `cd` working copy was touched (for
    /// `stats.visited`).
    pub(crate) visited: usize,
    /// Dismissed vertices `V*`, in dismissal order.
    pub(crate) vstar: Vec<VertexId>,
}

/// Pass-local mutable state of a promotion plan: overlays shadowing the
/// engine arrays the serial pass would have written.
#[derive(Default)]
struct PromoteOverlay {
    /// `deg⁺` shadow (read-through to `OrderCore::deg_plus`).
    deg: FxHashMap<VertexId, u32>,
    /// `deg*` shadow (`star_mark`/`deg_star`; absent = 0).
    star: FxHashMap<VertexId, u32>,
    /// Current candidates (`vc_mark == epoch`); demotion removes.
    vc_set: FxHashSet<VertexId>,
    /// Ever queued for demotion (`queue_mark == epoch`).
    queued: FxHashSet<VertexId>,
    /// Candidates in pass order (`self.vc`), demoted ones included.
    vc: Vec<VertexId>,
    demotions: Vec<(VertexId, VertexId)>,
    visited: usize,
}

impl PromoteOverlay {
    #[inline]
    fn deg<S: OrderSeq>(&self, core: &OrderCore<S>, v: VertexId) -> u32 {
        match self.deg.get(&v) {
            Some(&d) => d,
            None => core.deg_plus[v as usize],
        }
    }

    #[inline]
    fn deg_add<S: OrderSeq>(&mut self, core: &OrderCore<S>, v: VertexId, delta: i64) {
        let cur = self.deg(core, v) as i64;
        self.deg.insert(v, (cur + delta) as u32);
    }

    #[inline]
    fn star(&self, v: VertexId) -> u32 {
        self.star.get(&v).copied().unwrap_or(0)
    }

    /// Mirrors the serial pass's `deg*` updates (`StarDeg`), clamp at 0
    /// included.
    #[inline]
    fn star_add(&mut self, v: VertexId, delta: i64) -> u32 {
        let new = (self.star(v) as i64 + delta).max(0) as u32;
        self.star.insert(v, new);
        new
    }
}

impl<S: OrderSeq> OrderCore<S> {
    /// Read-only mirror of [`OrderCore::promote_pass`]'s core phase
    /// (Algorithm 2 + `RemoveCandidates`, Algorithm 3) over one
    /// component's seeds. Every decision replays the serial control flow
    /// against the pass-start snapshot; every write lands in the
    /// overlay. Requires `ensure_level(k + 1)` to have run (the caller
    /// does it once before planning).
    pub(crate) fn plan_promote(&self, seeds: &[VertexId], k: u32) -> PromotePlan {
        let mut ov = PromoteOverlay::default();
        let mut heap = MinRankHeap::new();
        for &root in seeds {
            debug_assert_eq!(self.core[root as usize], k);
            debug_assert!(self.deg_plus[root as usize] > k);
            let rank = self.order_key(root);
            heap.push(rank, root);
        }

        loop {
            let popped = heap
                .pop_valid(|w| !ov.vc_set.contains(&w) && (ov.star(w) > 0 || ov.deg(self, w) > k));
            let Some((rank_w, w)) = popped else { break };
            ov.visited += 1;
            let star_w = ov.star(w);
            if star_w + ov.deg(self, w) > k {
                // Case-1: w is a potential candidate.
                ov.vc_set.insert(w);
                ov.vc.push(w);
                for &z in self.graph.neighbors(w) {
                    if self.core[z as usize] == k {
                        let rank_z = self.order_key(z);
                        if rank_w < rank_z {
                            let new = ov.star_add(z, 1);
                            if new == 1 {
                                heap.push(rank_z, z);
                            }
                        }
                    }
                }
            } else {
                // Case-2b: w stays; fold deg* into deg⁺ and cascade.
                debug_assert!(star_w > 0);
                ov.deg_add(self, w, star_w as i64);
                ov.star_add(w, -(star_w as i64));
                self.plan_remove_candidates(&mut ov, w, rank_w, k);
            }
        }

        let vstar: Vec<VertexId> = ov
            .vc
            .iter()
            .copied()
            .filter(|w| ov.vc_set.contains(w))
            .collect();
        // deg⁺ of V* members is recomputed wholesale by the apply-time
        // ending scan; only stayers keep their overlay value.
        let mut stayer_deg: Vec<(VertexId, u32)> = ov
            .deg
            .iter()
            .filter(|(v, _)| !ov.vc_set.contains(v))
            .map(|(&v, &d)| (v, d))
            .collect();
        stayer_deg.sort_unstable();
        PromotePlan {
            seeds: seeds.len(),
            visited: ov.visited,
            vstar,
            demotions: ov.demotions,
            stayer_deg,
        }
    }

    /// Read-only mirror of `OrderCore::remove_candidates` (Algorithm 3).
    fn plan_remove_candidates(&self, ov: &mut PromoteOverlay, w: VertexId, rank_w: u64, k: u32) {
        let mut queue: Vec<VertexId> = Vec::new();
        for &z in self.graph.neighbors(w) {
            if ov.vc_set.contains(&z) {
                ov.deg_add(self, z, -1);
                if ov.deg(self, z) + ov.star(z) <= k && !ov.queued.contains(&z) {
                    ov.queued.insert(z);
                    queue.push(z);
                }
            }
        }
        let mut cursor = w;
        let mut qi = 0;
        while qi < queue.len() {
            let d = queue[qi];
            qi += 1;
            let star_d = ov.star(d);
            ov.deg_add(self, d, star_d as i64);
            ov.star_add(d, -(star_d as i64));
            ov.vc_set.remove(&d);
            ov.demotions.push((d, cursor));
            cursor = d;

            let rank_d = self.order_key(d);
            for &z in self.graph.neighbors(d) {
                if self.core[z as usize] != k {
                    continue;
                }
                let rank_z = self.order_key(z);
                if rank_w < rank_z {
                    ov.star_add(z, -1);
                } else if ov.vc_set.contains(&z) {
                    if rank_d < rank_z {
                        ov.star_add(z, -1);
                    } else {
                        ov.deg_add(self, z, -1);
                    }
                    if ov.deg(self, z) + ov.star(z) <= k && !ov.queued.contains(&z) {
                        ov.queued.insert(z);
                        queue.push(z);
                    }
                }
            }
        }
    }

    /// Commits a [`PromotePlan`]: writes the stayer `deg⁺` values, then
    /// runs the serial pass's ending phase, [`OrderCore::finish_promote`].
    pub(crate) fn apply_promote_plan(
        &mut self,
        plan: &PromotePlan,
        k: u32,
        stats: &mut UpdateStats,
    ) {
        stats.passes += 1;
        stats.merged_seeds += plan.seeds;
        stats.visited += plan.visited;
        let epoch = self.bump_epoch();
        for &(v, d) in &plan.stayer_deg {
            self.deg_plus[v as usize] = d;
        }
        self.finish_promote(k, epoch, &plan.vstar, &plan.demotions, stats);
    }

    /// Read-only mirror of [`OrderCore::dismiss_pass`]'s find phase
    /// (Algorithm 4's mcd-seeded peeling) over one component's seeds.
    pub(crate) fn plan_dismiss(&self, seeds: &[VertexId], k: u32) -> DismissPlan {
        // `cd` doubles as the touch marker (`touch_mark == epoch` ⇔
        // present); `dismissed` stands in for the serial in-place
        // `core[v] = k - 1` write.
        let mut cd: FxHashMap<VertexId, u32> = FxHashMap::default();
        let mut dismissed: FxHashSet<VertexId> = FxHashSet::default();
        let mut vstar: Vec<VertexId> = Vec::new();
        let mut queue: Vec<VertexId> = Vec::new();
        let mut touched = 0usize;
        let mut merged_seeds = 0usize;

        for &root in seeds {
            if self.core[root as usize] != k || dismissed.contains(&root) {
                continue;
            }
            let cw = *cd.entry(root).or_insert_with(|| {
                touched += 1;
                merged_seeds += 1;
                self.mcd[root as usize]
            });
            if cw < k {
                dismissed.insert(root);
                vstar.push(root);
                queue.push(root);
            }
        }
        let mut qi = 0;
        while qi < queue.len() {
            let w = queue[qi];
            qi += 1;
            for &z in self.graph.neighbors(w) {
                if self.core[z as usize] != k || dismissed.contains(&z) {
                    continue;
                }
                let e = cd.entry(z).or_insert_with(|| {
                    touched += 1;
                    self.mcd[z as usize]
                });
                *e -= 1;
                if *e < k {
                    dismissed.insert(z);
                    vstar.push(z);
                    queue.push(z);
                }
            }
        }
        DismissPlan {
            merged_seeds,
            visited: touched,
            vstar,
        }
    }

    /// Commits a [`DismissPlan`] through the serial pass's ending phase,
    /// [`OrderCore::finish_dismiss`].
    pub(crate) fn apply_dismiss_plan(
        &mut self,
        plan: &DismissPlan,
        k: u32,
        stats: &mut UpdateStats,
    ) {
        stats.passes += 1;
        stats.merged_seeds += plan.merged_seeds;
        stats.visited += plan.visited;
        let epoch = self.bump_epoch();
        self.finish_dismiss(k, epoch, &plan.vstar, stats);
    }

    /// Plans every component's promotion pass on the worker team, then
    /// applies the plans serially in component order — bit-identical to
    /// the serial `for group { promote_group(group) }` loop. Cascade
    /// violators land in `dirty` in the serial order.
    pub(crate) fn promote_groups_parallel(
        &mut self,
        groups: &[Vec<VertexId>],
        k: u32,
        threads: usize,
        stats: &mut UpdateStats,
        dirty: &mut Vec<VertexId>,
    ) {
        self.ensure_level(k + 1);
        let plans: Vec<PromotePlan> = {
            let this: &Self = &*self;
            run_chunks(threads, groups, 0, |_, chunk| {
                chunk
                    .iter()
                    .map(|group| this.plan_promote(group, k))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
        };
        for plan in &plans {
            self.apply_promote_plan(plan, k, stats);
            for &w in &plan.vstar {
                if self.deg_plus[w as usize] > self.core[w as usize] {
                    dirty.push(w);
                }
            }
        }
    }

    /// Dismissal twin of [`OrderCore::promote_groups_parallel`]: plan on
    /// the team, apply serially, refill `pool` in the serial order.
    pub(crate) fn dismiss_groups_parallel(
        &mut self,
        groups: &[Vec<VertexId>],
        k: u32,
        threads: usize,
        stats: &mut UpdateStats,
        pool: &mut Vec<VertexId>,
    ) {
        let plans: Vec<DismissPlan> = {
            let this: &Self = &*self;
            run_chunks(threads, groups, 0, |_, chunk| {
                chunk
                    .iter()
                    .map(|group| this.plan_dismiss(group, k))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
        };
        for plan in &plans {
            self.apply_dismiss_plan(plan, k, stats);
            for &w in &plan.vstar {
                if self.mcd[w as usize] < self.core[w as usize] {
                    pool.push(w);
                }
            }
        }
    }
}
