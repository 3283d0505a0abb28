//! The **update planner**: per-batch dispatch between the order-based
//! batch passes and a full recompute.
//!
//! `BENCH_batch.json` shows the crossover plainly: the order-based engine
//! wins decisively on small batches, but once a batch approaches the
//! graph size a single `O(m + n)` decomposition beats thousands of
//! promotion/dismissal walks by an order of magnitude. [`PlannedCore`]
//! prices every batch with a fixed cost model and runs whichever family
//! is cheaper —
//!
//! * the **passes**: [`Strategy::Batched`], one merged multi-seed
//!   order-based pass per affected level ([`OrderCore::insert_edges`] /
//!   [`OrderCore::remove_edges`]), always on the calling thread;
//! * the **recompute family**: [`Strategy::Recompute`] /
//!   [`Strategy::ParRecompute`] apply the batch raw, rerun the
//!   decomposition ([`core_decomposition`], or the parallel peel), and
//!   **defer** the k-order rebuild.
//!
//! ## The cost model
//!
//! A batch of `b` edges on a graph with `n` vertices and `m` edges costs
//! `b · 5,000 ns` through the passes and `(n + m + b) · 16 ns` through a
//! recompute (the decomposition's measured single-core throughput). When
//! a recompute left the k-order stale, the pass side also pays the
//! deferred rebuild, `(n + m) · 40 ns` amortised over 16 batches: one
//! rebuild re-enables order-based maintenance for every batch after it.
//! [`PlanPolicy::Auto`] runs the passes unless they price strictly
//! higher. With more than one worker thread a recompute runs the
//! parallel peel ([`Strategy::ParRecompute`]); the passes stay serial.
//! The prices are constants: the planner keeps no timing state, so a
//! plan depends only on the policy, the thread count, the batch and
//! graph sizes, and whether the order is fresh.
//!
//! ## Deferred order rebuild
//!
//! The recompute strategy refreshes core numbers (and the per-level
//! counts serving histogram/degeneracy queries) but leaves the k-order
//! index stale: a stream of recompute-priced batches pays **zero** order
//! maintenance. The index is rebuilt lazily — through the
//! [`korder_from_cores`] bridge, `O(m + n)` plus one `A_k` tail append
//! per vertex — the moment order-based work resumes (a
//! single-edge update, a pass-family batch, or an explicit
//! [`PlannedCore::ensure_order_fresh`]). After the rebuild the engine is
//! indistinguishable from a freshly built [`OrderCore`]
//! ([`OrderCore::validate`] passes; property-tested for every
//! [`PlanPolicy`]).

use crate::order_core::OrderCore;
use kcore_decomp::{core_decomposition, korder_from_cores, par_core_decomposition, Parallelism};
use kcore_graph::{DynamicGraph, EdgeListError, VertexId, DEFAULT_MAX_HOLE_RATIO};
use kcore_order::{OrderSeq, TagList};
use kcore_traversal::UpdateStats;

/// Price of one batch edge through the order-based passes, ns.
const PASS_NS_PER_EDGE: u64 = 5_000;
/// Price of one unit (vertex, edge or batch edge) through the
/// decomposition, ns. Near the crossover the recompute side is the safer
/// mispricing: its cost is a low-variance linear scan, while a cold
/// order index makes the first pass an order of magnitude slower than
/// steady state.
const RECOMPUTE_NS_PER_UNIT: u64 = 16;
/// Price of one unit (vertex or edge) through the deferred k-order
/// rebuild, ns.
const REBUILD_NS_PER_UNIT: u64 = 40;
/// Batches one deferred rebuild is amortised over when the pass side is
/// priced against a stale order: charging it all to one batch would lock
/// a recompute streak in permanently.
const REBUILD_HORIZON_BATCHES: u64 = 16;

/// Which algorithm the planner dispatches a batch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Merged multi-seed order-based passes (one per affected level).
    Batched,
    /// Full recompute of core numbers; k-order rebuild deferred.
    Recompute,
    /// Full recompute on the level-synchronous parallel peel
    /// (`decomp::par`); k-order rebuild deferred.
    ParRecompute,
}

/// Dispatch policy of a [`Planner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanPolicy {
    /// Fixed-price cost-model dispatch (the default).
    #[default]
    Auto,
    /// Always run the merged order-based passes.
    ForceBatch,
    /// Always recompute (order rebuild stays deferred). With more than
    /// one thread configured this executes — and is recorded as — the
    /// parallel peel.
    ForceRecompute,
}

/// Configuration of a [`Planner`].
#[derive(Debug, Clone, Default)]
pub struct PlannerConfig {
    /// Dispatch policy.
    pub policy: PlanPolicy,
}

impl PlannerConfig {
    /// The configuration under `policy`.
    pub fn with_policy(policy: PlanPolicy) -> Self {
        PlannerConfig { policy }
    }
}

/// Decision counters — the observable state of a [`Planner`].
#[derive(Debug, Clone, Default)]
pub struct PlannerStats {
    /// Pass pipelines dispatched to the merged order-based passes (a
    /// mixed churn micro-batch counts each executed half).
    pub batched_chosen: usize,
    /// Recomputes actually executed (fully-skipped batches that changed
    /// nothing are not counted).
    pub recompute_chosen: usize,
    /// Recomputes executed on the parallel peel.
    pub par_recompute_chosen: usize,
    /// Deferred k-order rebuilds performed on re-entry to order-based
    /// work.
    pub rebuilds: usize,
    /// The most recent dispatch.
    pub last: Option<Strategy>,
}

impl PlannerStats {
    /// Total dispatch decisions recorded (all strategies).
    pub fn decisions(&self) -> usize {
        self.batched_chosen + self.recompute_chosen + self.par_recompute_chosen
    }
}

impl std::fmt::Display for PlannerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} decisions (batched {}, recompute {}, par-recompute {}; {} rebuilds)",
            self.decisions(),
            self.batched_chosen,
            self.recompute_chosen,
            self.par_recompute_chosen,
            self.rebuilds,
        )
    }
}

/// The cost model: policy, parallelism and decision counters. Usually
/// owned by a [`PlannedCore`]; [`Planner::plan`] also prices batches
/// standalone (e.g. for an external scheduler).
#[derive(Debug)]
pub struct Planner {
    cfg: PlannerConfig,
    stats: PlannerStats,
    /// The recompute's worker threads, resolved when set; `None` is
    /// serial. Both [`Planner::plan`] and the recompute a [`PlannedCore`]
    /// runs read it, so the strategy recorded is the one run.
    par: Option<Parallelism>,
}

impl Planner {
    /// A serial planner with the given configuration.
    pub fn new(cfg: PlannerConfig) -> Self {
        Planner {
            cfg,
            stats: PlannerStats::default(),
            par: None,
        }
    }

    /// Sets the recompute's [`Parallelism`] (`None` = serial). With more
    /// than one thread a recompute runs, and is recorded as, the
    /// parallel peel ([`Strategy::ParRecompute`]).
    pub fn set_parallelism(&mut self, par: Option<Parallelism>) {
        self.par = par.map(|p| Parallelism {
            threads: p.resolved_threads(),
            ..p
        });
    }

    /// The configured [`Parallelism`], its thread count resolved.
    pub fn parallelism(&self) -> Option<Parallelism> {
        self.par
    }

    /// Worker threads the planner dispatches for (1 = serial).
    pub fn threads(&self) -> usize {
        self.par.map_or(1, |p| p.threads.max(1))
    }

    /// The parallel peel's configuration, when a recompute runs on it.
    fn peel(&self) -> Option<&Parallelism> {
        self.par.as_ref().filter(|p| p.threads > 1)
    }

    /// Prices a batch of `inserts + removes` edges against a graph with
    /// `n` vertices and `m` edges (see the module docs). `order_fresh ==
    /// false` charges the pass side with the amortised deferred rebuild.
    /// Pure — counters move via the execution paths.
    pub fn plan(
        &self,
        inserts: usize,
        removes: usize,
        n: usize,
        m: usize,
        order_fresh: bool,
    ) -> Strategy {
        let recompute = if self.peel().is_some() {
            Strategy::ParRecompute
        } else {
            Strategy::Recompute
        };
        match self.cfg.policy {
            PlanPolicy::ForceBatch => Strategy::Batched,
            PlanPolicy::ForceRecompute => recompute,
            PlanPolicy::Auto => {
                let (b, units) = ((inserts + removes) as u64, (n + m) as u64);
                let mut est_pass = b * PASS_NS_PER_EDGE;
                if !order_fresh {
                    est_pass += units * REBUILD_NS_PER_UNIT / REBUILD_HORIZON_BATCHES;
                }
                if est_pass > (units + b) * RECOMPUTE_NS_PER_UNIT {
                    recompute
                } else {
                    Strategy::Batched
                }
            }
        }
    }

    /// Counts an executed dispatch.
    fn record(&mut self, strategy: Strategy) {
        match strategy {
            Strategy::Batched => self.stats.batched_chosen += 1,
            Strategy::Recompute => self.stats.recompute_chosen += 1,
            Strategy::ParRecompute => self.stats.par_recompute_chosen += 1,
        }
        self.stats.last = Some(strategy);
    }
}

/// An [`OrderCore`] driven through the planner: batch entry points
/// dispatch per the cost model, single-edge updates run the plain
/// order-based algorithms (re-freshening the order index first when a
/// recompute left it stale).
pub struct PlannedCore<S: OrderSeq = TagList> {
    engine: OrderCore<S>,
    planner: Planner,
    /// `false` after a recompute until the deferred k-order rebuild runs.
    order_fresh: bool,
}

impl<S: OrderSeq> std::fmt::Debug for PlannedCore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PlannedCore {{ engine: {:?}, order_fresh: {} }}",
            self.engine, self.order_fresh
        )
    }
}

impl<S: OrderSeq> PlannedCore<S> {
    /// Builds the engine with the default (Auto) planner.
    pub fn new(graph: DynamicGraph, seed: u64) -> Self {
        Self::with_config(graph, seed, PlannerConfig::default())
    }

    /// Builds the engine with an explicit planner configuration.
    pub fn with_config(graph: DynamicGraph, seed: u64, cfg: PlannerConfig) -> Self {
        Self::from_parts(OrderCore::new(graph, seed), Planner::new(cfg))
    }

    /// Builds the engine under a policy.
    pub fn with_policy(graph: DynamicGraph, seed: u64, policy: PlanPolicy) -> Self {
        Self::with_config(graph, seed, PlannerConfig::with_policy(policy))
    }

    /// Wraps an existing index and planner (e.g. an index loaded from a
    /// checkpoint); the planner's parallelism carries over.
    pub fn from_parts(engine: OrderCore<S>, planner: Planner) -> Self {
        PlannedCore {
            engine,
            planner,
            order_fresh: true,
        }
    }

    /// The seed the index was built or loaded with.
    pub fn seed(&self) -> u64 {
        self.engine.seed
    }

    /// Recompute fallbacks run the level-synchronous parallel peel under
    /// `par` (identical core numbers, more cores). The order-based passes
    /// stay on the calling thread.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.set_parallelism(Some(par));
        self
    }

    /// The configured [`Parallelism`], if any (see
    /// [`Planner::parallelism`]).
    pub fn parallelism(&self) -> Option<Parallelism> {
        self.planner.parallelism()
    }

    /// Re-points the engine at a (new) [`Parallelism`] — or back to
    /// serial with `None` — keeping the decision counters.
    pub fn set_parallelism(&mut self, par: Option<Parallelism>) {
        self.planner.set_parallelism(par);
    }

    /// Decision counters.
    pub fn planner_stats(&self) -> &PlannerStats {
        &self.planner.stats
    }

    /// The planner (e.g. to price a hypothetical batch via
    /// [`Planner::plan`]).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Labels the k-order's `A_k` has rewritten in relabels so far,
    /// rebuilds included (0 for the treap).
    pub fn korder_relabels(&self) -> u64 {
        self.engine.order.relabels()
    }

    /// `false` while a recompute's deferred k-order rebuild is pending.
    pub fn is_order_fresh(&self) -> bool {
        self.order_fresh
    }

    /// Turns on core-change tracking on the underlying engine (see
    /// [`OrderCore::enable_core_change_tracking`]); the planner's
    /// recompute path records its diff into the same log.
    pub fn enable_core_change_tracking(&mut self) {
        self.engine.enable_core_change_tracking();
    }

    /// Drains the tracked core changes (see
    /// [`OrderCore::drain_core_changes`]).
    pub fn drain_core_changes(&mut self, out: &mut Vec<VertexId>) -> bool {
        self.engine.drain_core_changes(out)
    }

    /// Current core number of `v`.
    #[inline]
    pub fn core(&self, v: VertexId) -> u32 {
        self.engine.core(v)
    }

    /// All core numbers.
    #[inline]
    pub fn cores(&self) -> &[u32] {
        self.engine.cores()
    }

    /// The maintained graph.
    #[inline]
    pub fn graph(&self) -> &DynamicGraph {
        self.engine.graph()
    }

    /// `hist[k]` = vertices with core exactly `k` (`O(levels)`; valid
    /// even while the order rebuild is deferred).
    pub fn core_histogram(&self) -> Vec<usize> {
        self.engine.core_histogram()
    }

    /// Largest `k` with a non-empty `k`-core (`O(levels)`).
    pub fn degeneracy(&self) -> u32 {
        self.engine.degeneracy()
    }

    /// Rebuilds the k-order index now if a recompute left it stale
    /// (no-op otherwise). Runs the [`korder_from_cores`] bridge — the
    /// cores are already correct, so no decomposition is repeated.
    pub fn ensure_order_fresh(&mut self) {
        if self.order_fresh {
            return;
        }
        let ko = korder_from_cores(self.engine.graph(), self.engine.cores());
        self.engine.rebuild_from_korder(ko);
        self.order_fresh = true;
        self.planner.stats.rebuilds += 1;
    }

    /// The underlying order-based engine, order index guaranteed fresh.
    pub fn order(&mut self) -> &mut OrderCore<S> {
        self.ensure_order_fresh();
        &mut self.engine
    }

    /// Full cross-check: refreshes the order index if needed, then runs
    /// [`OrderCore::validate`] (tests only).
    pub fn validate(&mut self) {
        self.ensure_order_fresh();
        self.engine.validate();
    }

    /// Single-edge insertion through the order-based algorithm.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        self.ensure_order_fresh();
        self.engine.insert_edge(u, v)
    }

    /// Single-edge removal through the order-based algorithm.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        self.ensure_order_fresh();
        self.engine.remove_edge(u, v)
    }

    /// Planned batch insertion. Invalid entries are skipped and counted
    /// exactly as by [`OrderCore::insert_edges`].
    pub fn insert_edges(&mut self, edges: &[(VertexId, VertexId)]) -> UpdateStats {
        self.apply_churn(edges, &[])
    }

    /// Planned batch removal (mirror of [`PlannedCore::insert_edges`]).
    pub fn remove_edges(&mut self, edges: &[(VertexId, VertexId)]) -> UpdateStats {
        self.apply_churn(&[], edges)
    }

    /// Planned mixed micro-batch (`inserts` then `removes`, the churn
    /// shape a streaming ingest loop delivers): one decision over the
    /// combined size, so a recompute-priced micro-batch pays **one**
    /// decomposition instead of one per half.
    pub fn apply_churn(
        &mut self,
        inserts: &[(VertexId, VertexId)],
        removes: &[(VertexId, VertexId)],
    ) -> UpdateStats {
        let mut stats = UpdateStats::default();
        if inserts.is_empty() && removes.is_empty() {
            return stats;
        }
        let (n, m) = (
            self.engine.graph().num_vertices(),
            self.engine.graph().num_edges(),
        );
        match self
            .planner
            .plan(inserts.len(), removes.len(), n, m, self.order_fresh)
        {
            Strategy::Batched => {
                if !inserts.is_empty() {
                    self.run_passes(inserts, false, &mut stats);
                }
                if !removes.is_empty() {
                    self.run_passes(removes, true, &mut stats);
                }
            }
            s => {
                if self.recompute_batch(inserts, removes, &mut stats) {
                    self.planner.record(s);
                }
            }
        }
        stats
    }

    /// The [`Strategy::Batched`] execution path: the merged passes over
    /// a fresh order.
    fn run_passes(
        &mut self,
        edges: &[(VertexId, VertexId)],
        removal: bool,
        stats: &mut UpdateStats,
    ) {
        self.ensure_order_fresh();
        stats.absorb(if removal {
            self.engine.remove_edges(edges)
        } else {
            self.engine.insert_edges(edges)
        });
        self.planner.record(Strategy::Batched);
    }

    /// The recompute strategy: raw-apply both halves (identical skip
    /// semantics to the batch entry points), decompose once, refresh the
    /// per-level counts, and leave the k-order rebuild deferred. Returns
    /// `false` when every entry was skipped — nothing changed, so the
    /// caller must not count the batch as a recompute dispatch.
    fn recompute_batch(
        &mut self,
        inserts: &[(VertexId, VertexId)],
        removes: &[(VertexId, VertexId)],
        stats: &mut UpdateStats,
    ) -> bool {
        let n = self.engine.graph.num_vertices() as VertexId;
        let mut inserted_any = false;
        for &(u, v) in inserts {
            if u == v || u >= n || v >= n || self.engine.graph.has_edge(u, v) {
                stats.skipped += 1;
            } else {
                self.engine.graph.insert_edge_unchecked(u, v);
                inserted_any = true;
            }
        }
        let mut removed_any = false;
        for &(u, v) in removes {
            if u == v || u >= n || v >= n || self.engine.graph.remove_edge(u, v).is_err() {
                stats.skipped += 1;
            } else {
                removed_any = true;
            }
        }
        if removed_any {
            self.engine.graph.maintain_adjacency(DEFAULT_MAX_HOLE_RATIO);
        }
        if !inserted_any && !removed_any {
            // Nothing changed; the current cores (and order) still hold.
            return false;
        }
        self.recompute_in_place(stats);
        true
    }

    /// Decomposes the current graph, refreshes cores + per-level counts,
    /// and marks the k-order stale.
    fn recompute_in_place(&mut self, stats: &mut UpdateStats) {
        let new_core = match self.planner.peel() {
            Some(par) => par_core_decomposition(&self.engine.graph, par),
            None => core_decomposition(&self.engine.graph),
        };
        // The diff both counts the churn for the stats and — when
        // core-change tracking is on — feeds the change log, at no extra
        // asymptotic cost (the recompute already paid O(n + m)).
        let mut changed = 0usize;
        let log_active = self.engine.change_log.enabled;
        for (v, (&new, &old)) in new_core.iter().zip(&self.engine.core).enumerate() {
            if new != old {
                changed += 1;
                if log_active {
                    self.engine.change_log.ids.push(v as VertexId);
                }
            }
        }
        stats.visited += self.engine.graph.num_vertices();
        stats.changed += changed;
        self.engine.core = new_core;
        self.engine.refresh_level_counts();
        self.order_fresh = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcore_graph::fixtures;

    type Planned = PlannedCore;

    #[test]
    fn force_recompute_defers_then_rebuilds_on_demand() {
        let mut pc = Planned::with_policy(fixtures::path(12), 3, PlanPolicy::ForceRecompute);
        let stats = pc.insert_edges(&[(0, 11), (2, 9)]);
        assert_eq!(stats.skipped, 0);
        assert!(!pc.is_order_fresh(), "recompute must defer the rebuild");
        assert_eq!(pc.cores(), &core_decomposition(pc.graph())[..]);
        // Histogram/degeneracy stay served while the order is stale.
        assert_eq!(pc.degeneracy(), 2);
        // An order-based operation forces the rebuild and keeps working.
        pc.insert_edge(3, 8).unwrap();
        assert!(pc.is_order_fresh());
        assert_eq!(pc.planner_stats().rebuilds, 1);
        pc.validate();
    }

    #[test]
    fn every_policy_agrees_on_cores() {
        let batch: Vec<(u32, u32)> =
            vec![(0, 11), (1, 10), (2, 9), (3, 8), (4, 7), (0, 0), (5, 99)];
        let mut reference: Option<Vec<u32>> = None;
        let policies = [
            PlanPolicy::Auto,
            PlanPolicy::ForceBatch,
            PlanPolicy::ForceRecompute,
        ];
        for (policy, threads) in policies.into_iter().flat_map(|p| [(p, 1), (p, 2)]) {
            let mut pc = Planned::with_policy(fixtures::path(12), 9, policy)
                .with_parallelism(Parallelism::exact(threads).with_cutoff(0));
            let stats = pc.insert_edges(&batch);
            assert_eq!(stats.skipped, 2, "{policy:?} skip semantics diverged");
            if policy == PlanPolicy::ForceBatch {
                // Threads never leave the passes.
                assert_eq!(pc.planner_stats().last, Some(Strategy::Batched));
            }
            pc.validate();
            let cores = pc.cores().to_vec();
            if let Some(r) = &reference {
                assert_eq!(&cores, r, "{policy:?} at {threads} threads: cores diverged");
            } else {
                reference = Some(cores);
            }
        }
    }

    #[test]
    fn churn_recompute_runs_one_decomposition() {
        let g = fixtures::clique(6);
        let mut pc = Planned::with_policy(g, 5, PlanPolicy::ForceRecompute);
        let inserts: Vec<(u32, u32)> = Vec::new();
        let removes: Vec<(u32, u32)> = vec![(0, 1), (2, 3)];
        let s = pc.apply_churn(&inserts, &removes);
        assert_eq!(s.skipped, 0);
        // One combined recompute: visited counts n exactly once.
        assert_eq!(s.visited, pc.graph().num_vertices());
        assert_eq!(pc.planner_stats().recompute_chosen, 1);
        pc.validate();
    }

    /// The fixed prices pinned as a table of `(inserts, removes, n, m,
    /// order_fresh) → Strategy` rows under `Auto` with one thread.
    #[test]
    fn plan_decisions_are_pinned() {
        let ba = kcore_gen::barabasi_albert(20_000, 4, 1);
        let (bn, bm) = (ba.num_vertices(), ba.num_edges());
        // n + m = 100,000: passes win up to 321 edges (1,605,000 ns
        // against 1,605,136 ns), recompute from 322. A stale order adds
        // 100,000 · 40 / 16 = 250,000 ns to the pass side, which moves
        // the crossover down to 270 / 271.
        let (n, m) = (20_000, 80_000);
        let rows = [
            // 256-edge churn on 20k BA: what the ingest writer sends.
            (128, 128, bn, bm, true, Strategy::Batched),
            (128, 128, bn, bm, false, Strategy::Batched),
            (321, 0, n, m, true, Strategy::Batched),
            (322, 0, n, m, true, Strategy::Recompute),
            (161, 161, n, m, true, Strategy::Recompute),
            (100_000, 0, n, m, true, Strategy::Recompute),
            // The stale-order charge.
            (270, 0, n, m, false, Strategy::Batched),
            (271, 0, n, m, false, Strategy::Recompute),
            (300, 0, n, m, true, Strategy::Batched),
            (300, 0, n, m, false, Strategy::Recompute),
            // On a 30-unit graph one edge already prices above the
            // decomposition.
            (1, 0, 10, 20, true, Strategy::Recompute),
        ];
        for (ins, rem, n, m, fresh, want) in rows {
            let p = Planner::new(PlannerConfig::default());
            assert_eq!(
                p.plan(ins, rem, n, m, fresh),
                want,
                "batch {ins}+{rem}, n {n}, m {m}, fresh {fresh}"
            );
        }
    }

    /// A `Force*` policy overrides the fixed crossover on either side of
    /// it; `Auto` follows it.
    #[test]
    fn crossover_override_is_respected() {
        // n + m = 100,000: `Auto` runs passes up to 321 edges.
        let (n, m) = (20_000, 80_000);
        let plan =
            |policy, b| Planner::new(PlannerConfig::with_policy(policy)).plan(b, 0, n, m, true);
        assert_eq!(plan(PlanPolicy::Auto, 321), Strategy::Batched);
        assert_eq!(plan(PlanPolicy::Auto, 322), Strategy::Recompute);
        assert_eq!(plan(PlanPolicy::ForceRecompute, 1), Strategy::Recompute);
        assert_eq!(plan(PlanPolicy::ForceRecompute, 321), Strategy::Recompute);
        assert_eq!(plan(PlanPolicy::ForceBatch, 322), Strategy::Batched);
        assert_eq!(plan(PlanPolicy::ForceBatch, 100_000), Strategy::Batched);
    }

    /// With threads a recompute runs the parallel peel and the passes
    /// stay `Batched`; the crossover between the families does not move.
    #[test]
    fn parallel_members_are_priced_distinctly_with_threads() {
        use Strategy::{Batched, ParRecompute, Recompute};
        let ba = kcore_gen::barabasi_albert(20_000, 4, 1);
        let (bn, bm) = (ba.num_vertices(), ba.num_edges());
        let (n, m) = (20_000, 80_000);
        let rows = [
            (128, 128, bn, bm, true, Batched, Batched),
            (321, 0, n, m, true, Batched, Batched),
            (322, 0, n, m, true, Recompute, ParRecompute),
            (300, 0, n, m, false, Recompute, ParRecompute),
        ];
        for (ins, rem, n, m, fresh, serial, parallel) in rows {
            let mut p = Planner::new(PlannerConfig::default());
            assert_eq!(p.plan(ins, rem, n, m, fresh), serial);
            p.set_parallelism(Some(Parallelism::exact(4)));
            assert_eq!(p.plan(ins, rem, n, m, fresh), parallel);
        }
    }

    #[test]
    fn single_thread_plan_never_prices_parallel_members() {
        let p = Planner::new(PlannerConfig::default());
        for b in [1usize, 8, 64, 512, 4096] {
            for (n, m) in [(100usize, 200usize), (10_000, 80_000)] {
                for fresh in [true, false] {
                    let got = p.plan(b, b / 2, n, m, fresh);
                    assert_ne!(got, Strategy::ParRecompute);
                }
            }
        }
    }

    #[test]
    fn force_policies_degrade_without_threads() {
        let mk = |policy, threads| {
            let mut p = Planner::new(PlannerConfig::with_policy(policy));
            p.set_parallelism(Some(Parallelism::exact(threads)));
            p.plan(10, 0, 100, 200, true)
        };
        assert_eq!(mk(PlanPolicy::ForceBatch, 1), Strategy::Batched);
        assert_eq!(mk(PlanPolicy::ForceBatch, 4), Strategy::Batched);
        // ForceRecompute rides the peel when threads are available.
        assert_eq!(mk(PlanPolicy::ForceRecompute, 4), Strategy::ParRecompute);
        assert_eq!(mk(PlanPolicy::ForceRecompute, 1), Strategy::Recompute);
    }

    #[test]
    fn parallel_policies_agree_on_cores_and_record_choices() {
        let batch: Vec<(u32, u32)> = vec![(0, 11), (1, 10), (2, 9), (3, 8), (4, 7)];
        let par = Parallelism::exact(4).with_cutoff(0);
        let mut reference = Planned::with_policy(fixtures::path(12), 9, PlanPolicy::ForceBatch);
        reference.insert_edges(&batch);
        reference.validate();

        // Threads leave the passes serial: still recorded as `Batched`.
        let mut ps = Planned::with_policy(fixtures::path(12), 9, PlanPolicy::ForceBatch)
            .with_parallelism(par);
        assert_eq!(ps.parallelism(), Some(par));
        ps.insert_edges(&batch);
        ps.validate();
        assert_eq!(ps.cores(), reference.cores());
        assert_eq!(ps.planner_stats().batched_chosen, 1);
        assert_eq!(ps.planner_stats().last, Some(Strategy::Batched));

        let mut pr = Planned::with_policy(fixtures::path(12), 9, PlanPolicy::ForceRecompute)
            .with_parallelism(par);
        pr.insert_edges(&batch);
        pr.validate();
        assert_eq!(pr.cores(), reference.cores());
        assert_eq!(pr.planner_stats().par_recompute_chosen, 1);
        assert_eq!(pr.planner_stats().last, Some(Strategy::ParRecompute));
    }

    #[test]
    fn set_parallelism_drives_planner_threads() {
        let mut pc = Planned::new(fixtures::triangle(), 1);
        assert_eq!(pc.planner().threads(), 1);
        assert_eq!(pc.parallelism(), None);
        let par = Parallelism::exact(3);
        pc.set_parallelism(Some(par));
        assert_eq!(pc.planner().threads(), 3);
        assert_eq!(pc.parallelism(), Some(par));
        pc.set_parallelism(None);
        assert_eq!(pc.planner().threads(), 1);
        assert_eq!(pc.parallelism(), None);
    }

    /// A planner given threads before [`PlannedCore::from_parts`] keeps
    /// them: the recompute it records is the one it runs.
    #[test]
    fn threaded_planner_from_parts_runs_the_strategy_it_records() {
        let par = Parallelism::exact(4).with_cutoff(0);
        let mut planner = Planner::new(PlannerConfig::with_policy(PlanPolicy::ForceRecompute));
        planner.set_parallelism(Some(par));
        let engine = OrderCore::new(fixtures::path(12), 9);
        let mut pc: Planned = PlannedCore::from_parts(engine, planner);
        assert_eq!(pc.parallelism(), Some(par));
        let jobs = kcore_decomp::team::stats().jobs;
        pc.insert_edges(&[(0, 11), (2, 9)]);
        assert_eq!(pc.planner_stats().last, Some(Strategy::ParRecompute));
        assert_eq!(pc.planner_stats().par_recompute_chosen, 1);
        assert!(
            kcore_decomp::team::stats().jobs > jobs,
            "the parallel peel must dispatch to the worker team"
        );
        assert_eq!(pc.cores(), &core_decomposition(pc.graph())[..]);
        pc.validate();
    }

    #[test]
    fn empty_batches_touch_nothing() {
        let mut pc = Planned::new(fixtures::triangle(), 1);
        assert_eq!(pc.insert_edges(&[]), UpdateStats::default());
        assert_eq!(pc.remove_edges(&[]), UpdateStats::default());
        assert_eq!(pc.apply_churn(&[], &[]), UpdateStats::default());
        assert!(pc.planner_stats().last.is_none());
        pc.validate();
    }
}
