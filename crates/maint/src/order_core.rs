//! The [`OrderCore`] structure: graph + k-order index + per-vertex degrees.

use kcore_decomp::validate::compute_mcd;
use kcore_decomp::{korder_decomposition, Heuristic, KOrder};
use kcore_graph::{DynamicGraph, VertexId};
use kcore_order::{MinRankHeap, OrderSeq, TagList};

/// Opt-in record of which vertices changed core number since the last
/// drain — the `O(changed)` feed for snapshot publication (the
/// streaming writer applies the drained ids to its core mirror and
/// rewrites only those cores in a recycled snapshot buffer, instead of
/// re-copying all `n` core numbers per epoch).
///
/// Entries may repeat (a vertex promoted and later dismissed in one
/// batch appears twice); consumers read the *final* core value per id,
/// so duplicates are harmless.
#[derive(Debug, Default)]
pub(crate) struct CoreChangeLog {
    pub(crate) enabled: bool,
    pub(crate) ids: Vec<VertexId>,
}

impl CoreChangeLog {
    /// Records a batch of changed vertices (no-op when tracking is off).
    pub(crate) fn record_slice(&mut self, vs: &[VertexId]) {
        if self.enabled {
            self.ids.extend_from_slice(vs);
        }
    }
}

/// A vertex's scratch for the passes, one 16-byte record per vertex:
/// the epoch `stamp` it was last written in, and for that epoch the
/// pass's `work` counter (`deg*` in a promotion pass, the peel's `cd` in
/// a dismissal pass), the vertex's `pos` in `V*` during an ending phase,
/// and the [`PassScratch::IN_VC`], [`PassScratch::QUEUED`] and
/// [`PassScratch::DIRTY`] marks. A record with a stale stamp reads as all
/// zero, so a pass starts from clean scratch after one epoch bump.
///
/// A promotion pass stamps a vertex ahead of its frontier only by a
/// `deg*` grant ([`PassScratch::grant`]); [`PassScratch::revoke`] and
/// [`PassScratch::take`] leave an unstamped record alone. So a grant that
/// finds the record unstamped is the vertex's first of the pass, and only
/// that grant pushes the vertex into `B`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PassScratch {
    stamp: u32,
    work: u32,
    pos: u32,
    flags: u32,
}

const _: () = assert!(std::mem::size_of::<PassScratch>() == 16);

impl PassScratch {
    /// In `VC`: a candidate of the current promotion pass, or a member of
    /// `V*` during its ending phase.
    pub(crate) const IN_VC: u32 = 1;
    /// Queued: in `RemoveCandidates`' demotion queue, or a member of `V*`
    /// during a dismissal's ending phase.
    pub(crate) const QUEUED: u32 = 2;
    /// Already in the apply phase's seed pool.
    pub(crate) const DIRTY: u32 = 4;

    /// `work` of the record, 0 when it is stale.
    #[inline]
    pub(crate) fn work(&self, epoch: u32) -> u32 {
        if self.stamp == epoch {
            self.work
        } else {
            0
        }
    }

    /// `true` when `flag` is set in `epoch`.
    #[inline]
    pub(crate) fn has(&self, epoch: u32, flag: u32) -> bool {
        self.stamp == epoch && self.flags & flag != 0
    }

    /// `true` when the record was written in `epoch`.
    #[inline]
    pub(crate) fn is_fresh(&self, epoch: u32) -> bool {
        self.stamp == epoch
    }

    /// The record for `epoch`, zeroed first when it is stale.
    #[inline]
    fn fresh(&mut self, epoch: u32) -> &mut Self {
        if self.stamp != epoch {
            *self = PassScratch {
                stamp: epoch,
                ..PassScratch::default()
            };
        }
        self
    }

    /// Sets `flag` in `epoch`; returns `true` when it was not set yet.
    #[inline]
    pub(crate) fn mark(&mut self, epoch: u32, flag: u32) -> bool {
        let r = self.fresh(epoch);
        let new = r.flags & flag == 0;
        r.flags |= flag;
        new
    }

    /// Sets `flag` in `epoch` and records `pos`, the vertex's index in
    /// `V*`.
    #[inline]
    pub(crate) fn mark_at(&mut self, epoch: u32, flag: u32, pos: u32) {
        let r = self.fresh(epoch);
        r.flags |= flag;
        r.pos = pos;
    }

    /// The `pos` recorded by [`PassScratch::mark_at`], when `flag` is set
    /// in `epoch`.
    #[inline]
    pub(crate) fn pos_if(&self, epoch: u32, flag: u32) -> Option<u32> {
        self.has(epoch, flag).then_some(self.pos)
    }

    /// Clears `flag` of a record written in the current epoch.
    #[inline]
    pub(crate) fn unmark(&mut self, flag: u32) {
        self.flags &= !flag;
    }

    /// Sets `work` in `epoch`.
    #[inline]
    pub(crate) fn set_work(&mut self, epoch: u32, work: u32) {
        self.fresh(epoch).work = work;
    }

    /// Takes one from `work`, a record written in the current epoch.
    #[inline]
    pub(crate) fn dec_work(&mut self) -> u32 {
        self.work -= 1;
        self.work
    }

    /// Grants one `deg*`; returns `true` on the vertex's first grant of
    /// the pass.
    #[inline]
    pub(crate) fn grant(&mut self, epoch: u32) -> bool {
        let first = self.stamp != epoch;
        self.fresh(epoch).work += 1;
        first
    }

    /// Takes one `deg*` back, stopping at 0. A vertex never granted in
    /// `epoch` stays unstamped.
    #[inline]
    pub(crate) fn revoke(&mut self, epoch: u32) {
        if self.stamp == epoch {
            self.work = self.work.saturating_sub(1);
        }
    }

    /// Zeroes `deg*`; returns the old value.
    #[inline]
    pub(crate) fn take(&mut self, epoch: u32) -> u32 {
        if self.stamp == epoch {
            std::mem::take(&mut self.work)
        } else {
            0
        }
    }
}

/// A dynamic graph whose core numbers are maintained by the order-based
/// algorithms of the paper. `S` is the `A_k` order structure: the `O(1)`
/// vertex-indexed label list [`TagList`] by default;
/// [`crate::TreapOrderCore`] runs the paper's treap for the ablation.
pub struct OrderCore<S: OrderSeq = TagList> {
    pub(crate) graph: DynamicGraph,
    pub(crate) core: Vec<u32>,
    /// `deg⁺` — neighbours after the vertex in the global k-order.
    pub(crate) deg_plus: Vec<u32>,
    /// `mcd` — neighbours with `core >= own core` (removals need it).
    pub(crate) mcd: Vec<u32>,
    /// `A_k` for every core value `k`, addressed by level and vertex:
    /// level `k` holds the k-order sequence `O_k` and answers order
    /// tests over it.
    pub(crate) order: S,
    pub(crate) seed: u64,
    /// `level_counts[k]` = number of vertices with core number exactly
    /// `k`, maintained incrementally by the promote/dismiss passes and
    /// the recompute fallback — so [`OrderCore::core_histogram`] and
    /// [`OrderCore::degeneracy`] answer in `O(levels)` instead of
    /// rescanning all `n` core numbers. One slot per `A_k` level.
    pub(crate) level_counts: Vec<usize>,

    // ---- per-batch scratch, reused across batches ----
    /// Filtered edge list of the current batch (apply phase).
    pub(crate) edge_scratch: Vec<(VertexId, VertexId)>,
    /// Sorted endpoint multiset used for adjacency pre-reservation.
    pub(crate) endpoint_scratch: Vec<VertexId>,
    /// Seeds collected by an apply phase for the pass phase: Lemma 5.1
    /// violators for insertion, dismissible vertices for removal.
    pub(crate) batch_seeds: Vec<VertexId>,
    /// The per-level seed slice the pass loop is currently working on.
    pub(crate) level_seeds: Vec<VertexId>,

    // ---- per-operation scratch ----
    /// The current epoch: [`PassScratch`] records stamped with another
    /// read as zero.
    pub(crate) epoch: u32,
    /// One epoch-stamped record per vertex.
    pub(crate) scratch: Vec<PassScratch>,
    pub(crate) heap: MinRankHeap,
    pub(crate) vc: Vec<VertexId>,
    pub(crate) demotions: Vec<(VertexId, VertexId)>,
    pub(crate) queue: Vec<VertexId>,
    pub(crate) vstar: Vec<VertexId>,

    /// Opt-in core-change tracking for incremental snapshot publication.
    pub(crate) change_log: CoreChangeLog,
}

impl<S: OrderSeq> std::fmt::Debug for OrderCore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "OrderCore {{ n: {}, m: {}, levels: {} }}",
            self.graph.num_vertices(),
            self.graph.num_edges(),
            self.order.levels()
        )
    }
}

impl<S: OrderSeq> OrderCore<S> {
    /// Builds the index: lays the graph's adjacency out once
    /// ([`DynamicGraph::compact_adjacency`]), then one peel via
    /// [`korder_decomposition`] (the paper's "small deg⁺ first"
    /// heuristic by default — pass another for the Fig 9 study) yields
    /// the k-order, `deg⁺` and `mcd`, from which the `A_k` structures
    /// are built.
    pub fn with_heuristic(mut graph: DynamicGraph, heuristic: Heuristic, seed: u64) -> Self {
        graph.compact_adjacency();
        let ko = korder_decomposition(&graph, heuristic, seed);
        Self::from_korder(graph, ko, seed)
    }

    /// Assembles the full index from a precomputed [`KOrder`] of `graph`
    /// (shared by [`OrderCore::with_heuristic`] and the persistence
    /// loader), taking `core`, `deg⁺` and `mcd` from it as they are.
    /// `A_k` structures are built by chaining `insert_after` at the
    /// current tail: one stride step per element for the label list
    /// (never a relabel), and no right-spine walk for the treap.
    pub(crate) fn from_korder(graph: DynamicGraph, ko: KOrder, seed: u64) -> Self {
        let n = graph.num_vertices();
        let mut core = OrderCore {
            graph,
            core: Vec::new(),
            deg_plus: Vec::new(),
            mcd: Vec::new(),
            order: S::with_seed(seed),
            seed,
            level_counts: Vec::new(),
            edge_scratch: Vec::new(),
            endpoint_scratch: Vec::new(),
            batch_seeds: Vec::new(),
            level_seeds: Vec::new(),
            epoch: 0,
            scratch: vec![PassScratch::default(); n],
            heap: MinRankHeap::new(),
            vc: Vec::new(),
            demotions: Vec::new(),
            queue: Vec::new(),
            vstar: Vec::new(),
            change_log: CoreChangeLog::default(),
        };
        core.install_korder(ko);
        core
    }

    /// Rebuilds the entire order index **in place** from a fresh
    /// [`KOrder`] of the *current* graph: `A_k`, `core`/`deg⁺`/`mcd`, and
    /// the per-level counts.
    /// Per-vertex scratch keeps its allocations — this is the recompute
    /// fallback's re-entry point into order-based maintenance, so it must
    /// leave the engine exactly as a fresh build would (asserted by
    /// [`OrderCore::validate`] in tests).
    pub fn rebuild_from_korder(&mut self, ko: KOrder) {
        assert_eq!(ko.core.len(), self.graph.num_vertices());
        // The rebuild replaces `core` wholesale; tracking needs the diff.
        // `core` always spans the graph's vertices, so the two arrays
        // line up. The O(n) compare is amortised by the O(n + m) rebuild
        // itself, and a rebuild with *unchanged* cores (the deferred
        // k-order refresh after a recompute) records nothing.
        if self.change_log.enabled {
            for (v, (&old, &new)) in self.core.iter().zip(&ko.core).enumerate() {
                if old != new {
                    self.change_log.ids.push(v as VertexId);
                }
            }
        }
        self.install_korder(ko);
    }

    /// Shared tail of [`OrderCore::from_korder`] /
    /// [`OrderCore::rebuild_from_korder`]: installs order structures and
    /// per-vertex order state (`core`, `deg⁺`, `mcd`) from `ko`.
    fn install_korder(&mut self, ko: KOrder) {
        let max_k = ko.core.iter().copied().max().unwrap_or(0);
        self.order.clear();
        self.level_counts.clear();
        self.ensure_level(max_k);
        let mut prev: Option<(u32, VertexId)> = None;
        for &v in &ko.order {
            let k = ko.core[v as usize];
            // The order is grouped by level, so each level is filled by
            // appending after the previous vertex.
            match prev {
                Some((level, at)) if level == k => self.order.insert_after(k, at, v),
                _ => self.order.insert_last(k, v),
            }
            prev = Some((k, v));
        }
        self.core = ko.core;
        self.deg_plus = ko.deg_plus;
        self.mcd = ko.mcd;
        for &c in &self.core {
            self.level_counts[c as usize] += 1;
        }
    }

    /// Recounts `level_counts` from the core numbers (`O(n)`) — used when
    /// a recompute refreshes `core` wholesale instead of moving vertices
    /// level by level.
    pub(crate) fn refresh_level_counts(&mut self) {
        let max_k = self.core.iter().copied().max().unwrap_or(0) as usize;
        self.level_counts.clear();
        self.level_counts.resize(max_k + 1, 0);
        for &c in &self.core {
            self.level_counts[c as usize] += 1;
        }
    }

    /// Builds the index with the default (paper) heuristic.
    pub fn new(graph: DynamicGraph, seed: u64) -> Self {
        Self::with_heuristic(graph, Heuristic::SmallDegFirst, seed)
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

    /// `deg⁺` of `v`.
    #[inline]
    pub fn deg_plus(&self, v: VertexId) -> u32 {
        self.deg_plus[v as usize]
    }

    /// `mcd` of `v`.
    #[inline]
    pub fn mcd(&self, v: VertexId) -> u32 {
        self.mcd[v as usize]
    }

    /// Turns on core-change tracking: from now on every vertex whose
    /// core number changes (promotion, dismissal, or recompute) is
    /// recorded, and [`OrderCore::drain_core_changes`] hands the set
    /// over in `O(changed)`. The streaming ingest writer uses this to
    /// publish snapshots without an `O(n)` copy per epoch.
    pub fn enable_core_change_tracking(&mut self) {
        self.change_log.enabled = true;
        self.change_log.ids.clear();
    }

    /// Appends the vertices whose core number changed since the last
    /// drain to `out` (possibly with duplicates — read the final core
    /// value per id) and clears the log. Returns `false` when tracking
    /// is off: the caller must then compare against
    /// [`OrderCore::cores`] itself.
    pub fn drain_core_changes(&mut self, out: &mut Vec<VertexId>) -> bool {
        if !self.change_log.enabled {
            return false;
        }
        out.extend_from_slice(&self.change_log.ids);
        self.change_log.ids.clear();
        true
    }

    /// Number of Observation 6.1 demotions (candidates retracted out of
    /// `VC` and re-inserted into `O_K`) during the most recent promotion
    /// pass (diagnostics).
    pub fn last_demotions(&self) -> usize {
        self.demotions.len()
    }

    /// The `O_k` sequence as a `Vec`, read from `A_k` (diagnostics /
    /// tests).
    pub fn level_order(&self, k: u32) -> Vec<VertexId> {
        if (k as usize) < self.order.levels() {
            self.order.iter(k).collect()
        } else {
            Vec::new()
        }
    }

    /// `true` iff `u ⪯ v` in the global k-order.
    pub fn precedes(&self, u: VertexId, v: VertexId) -> bool {
        let (cu, cv) = (self.core[u as usize], self.core[v as usize]);
        if cu != cv {
            return cu < cv;
        }
        self.order.key(u) < self.order.key(v)
    }

    /// Adds an isolated vertex (core 0, appended to `O_0`).
    pub fn add_vertex(&mut self) -> VertexId {
        let v = self.graph.add_vertex();
        self.core.push(0);
        self.deg_plus.push(0);
        self.mcd.push(0);
        self.ensure_level(0);
        self.order.insert_last(0, v);
        self.level_counts[0] += 1;
        self.scratch.push(PassScratch::default());
        v
    }

    /// Makes sure level `k` of `A_k` and its level-count slot exist.
    pub(crate) fn ensure_level(&mut self, k: u32) {
        while self.level_counts.len() <= k as usize {
            self.order.push_level();
            self.level_counts.push(0);
        }
    }

    /// Total capacity (in elements) of the reusable per-batch scratch
    /// buffers — a diagnostic for the zero-steady-state-allocation
    /// property: after a warm-up batch, identical batches must not grow
    /// any of these.
    pub fn batch_scratch_capacity(&self) -> usize {
        self.edge_scratch.capacity()
            + self.endpoint_scratch.capacity()
            + self.batch_seeds.capacity()
            + self.level_seeds.capacity()
            + self.vc.capacity()
            + self.queue.capacity()
            + self.vstar.capacity()
            + self.demotions.capacity()
    }

    /// Starts a new epoch and returns it. After `u32::MAX` epochs every
    /// record is reset and the count restarts at 1: a wrapped epoch would
    /// meet old stamps and read them as fresh.
    #[inline]
    pub(crate) fn bump_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.scratch.fill(PassScratch::default());
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Cross-checks the entire index against from-scratch recomputations:
    /// core numbers, the Lemma 5.1 k-order invariant, `deg⁺` against the
    /// `A_k` order, `mcd`, level membership, and `A_k`'s own invariants.
    /// Panics with a description on the first divergence (tests only).
    pub fn validate(&self) {
        use kcore_decomp::core_decomposition;
        let reference = core_decomposition(&self.graph);
        assert_eq!(self.core, reference, "core numbers diverged");

        // Rebuild the global order from the per-level A_k walks.
        let n = self.graph.num_vertices();
        let mut pos = vec![u32::MAX; n];
        let mut counter = 0u32;
        self.order.validate();
        for k in 0..self.order.levels() as u32 {
            for v in self.order.iter(k) {
                assert_eq!(self.core[v as usize], k, "vertex {v} on wrong level");
                assert_eq!(pos[v as usize], u32::MAX, "vertex {v} is in A_k twice");
                pos[v as usize] = counter;
                counter += 1;
            }
        }
        assert_eq!(counter as usize, n, "some vertex is in no A_k");

        // deg+ definition + Lemma 5.1.
        for v in 0..n as VertexId {
            let later = self
                .graph
                .neighbors(v)
                .iter()
                .filter(|&&w| pos[w as usize] > pos[v as usize])
                .count() as u32;
            assert_eq!(
                self.deg_plus[v as usize], later,
                "deg+ of {v} diverged (stored {}, actual {later})",
                self.deg_plus[v as usize]
            );
            assert!(
                later <= self.core[v as usize],
                "Lemma 5.1 violated at {v}: deg+ {later} > core {}",
                self.core[v as usize]
            );
        }

        // mcd definition.
        let mcd_ref = compute_mcd(&self.graph, &self.core);
        assert_eq!(self.mcd, mcd_ref, "mcd diverged");

        // Incrementally maintained per-level counts against a recount.
        assert_eq!(
            self.level_counts.len(),
            self.order.levels(),
            "level_counts and A_k levels diverged"
        );
        let mut counts = vec![0usize; self.level_counts.len()];
        for &c in &self.core {
            counts[c as usize] += 1;
        }
        assert_eq!(self.level_counts, counts, "level_counts diverged");
    }
}
