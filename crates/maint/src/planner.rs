//! The **adaptive update planner**: per-batch cost-model dispatch between
//! the order-based batch passes and a full recompute.
//!
//! `BENCH_batch.json` shows the crossover plainly: the order-based engine
//! wins decisively on small batches, but once a batch approaches the
//! graph size a single `O(m + n)` decomposition beats thousands of
//! promotion/dismissal walks by an order of magnitude. Unconditionally
//! running order-based passes therefore leaves the worst benchmark cells
//! at ~0.1× of what the hardware allows. [`PlannedCore`] closes that gap:
//! every batch is priced against a small cost model and dispatched to
//! whichever strategy is estimated cheaper —
//!
//! * [`Strategy::Batched`] — the merged multi-seed order-based pass
//!   ([`OrderCore::insert_edges`] / [`OrderCore::remove_edges`]);
//! * [`Strategy::Split`] — the same passes split per connected component
//!   of each level's seed pool ([`crate::BatchOptions::component_split`]);
//! * [`Strategy::Recompute`] — apply the batch raw, rerun the
//!   decomposition ([`core_decomposition`], or the parallel peel when a
//!   [`Parallelism`] is configured), and **defer** the k-order rebuild.
//!
//! ## The cost model
//!
//! Stage 1 (before touching anything) prices the batch from its size and
//! the graph dimensions: `est(batched) = i·cᵢ + r·cᵣₘ (+ rebuild charge
//! when the order index is stale)` versus `est(recompute) =
//! (n + m + b)·c_d`. Stage 2 re-prices *after* the apply phase, when the
//! per-level seed counts and the affected-level span are known — a batch
//! whose seeds threaten an avalanche of pass work is abandoned mid-way
//! (the collected seeds are discarded) in favour of a recompute, which is
//! correct because the recompute only needs the already-mutated graph.
//!
//! All per-unit costs start from static priors and **self-calibrate
//! online**: every executed strategy feeds an EWMA of its observed
//! per-unit cost ([`Planner::observe_batched`] etc.), so a planner that
//! starts mispriced converges to the strategy the actual hardware favours
//! (unit-tested with a scripted clock — no wall-clock dependence).
//!
//! ## Deferred order rebuild
//!
//! The recompute strategy refreshes core numbers (and the per-level
//! counts serving histogram/degeneracy queries) but leaves the k-order
//! index stale: a stream of recompute-priced batches pays **zero** order
//! maintenance. The index is rebuilt lazily — through the
//! [`korder_from_cores`] bridge, `O(m + n)` plus one `A_k` tail append
//! per vertex — the moment order-based work resumes (a
//! single-edge update, a batched-strategy batch, or an explicit
//! [`PlannedCore::ensure_order_fresh`]). After the rebuild the engine is
//! indistinguishable from a freshly built [`OrderCore`]
//! ([`OrderCore::validate`] passes; property-tested for every
//! [`PlanPolicy`]).

use crate::components::BatchOptions;
use crate::order_core::OrderCore;
use kcore_decomp::{core_decomposition, korder_from_cores, par_core_decomposition, Parallelism};
use kcore_graph::{DynamicGraph, EdgeListError, VertexId, DEFAULT_MAX_HOLE_RATIO};
use kcore_order::{OrderSeq, TagList};
use kcore_traversal::UpdateStats;

/// Which algorithm the planner dispatches a batch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Merged multi-seed order-based passes (one per affected level).
    Batched,
    /// Order-based passes split per seed component.
    Split,
    /// Component-split passes with the plan phase on the worker team
    /// (thread-parallel maintenance; priced only when the planner knows
    /// about more than one thread).
    ParSplit,
    /// Full recompute of core numbers; k-order rebuild deferred.
    Recompute,
    /// Full recompute on the level-synchronous parallel peel
    /// (`decomp::par`); k-order rebuild deferred.
    ParRecompute,
}

impl Strategy {
    /// `true` for the order-based pass family (batched / split /
    /// par-split) — the hysteresis incumbent is tracked per *family*,
    /// so switching between members of one family is free while
    /// pass ↔ recompute flips still pay the challenger bar.
    pub fn is_pass_family(self) -> bool {
        matches!(
            self,
            Strategy::Batched | Strategy::Split | Strategy::ParSplit
        )
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Batched => write!(f, "batched"),
            Strategy::Split => write!(f, "split"),
            Strategy::ParSplit => write!(f, "par-split"),
            Strategy::Recompute => write!(f, "recompute"),
            Strategy::ParRecompute => write!(f, "par-recompute"),
        }
    }
}

/// Dispatch policy of a [`Planner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanPolicy {
    /// Cost-model dispatch with online calibration (the default).
    #[default]
    Auto,
    /// Always run the merged order-based passes.
    ForceBatch,
    /// Always run the component-split order-based passes.
    ForceSplit,
    /// Always run thread-parallel component passes (degrades to
    /// [`PlanPolicy::ForceSplit`] when only one thread is available).
    ForceParSplit,
    /// Always recompute (order rebuild stays deferred). With more than
    /// one thread configured this executes — and is recorded as — the
    /// parallel peel, matching the engine's long-standing behaviour of
    /// using the peel whenever a [`Parallelism`] is set.
    ForceRecompute,
    /// Always recompute on the parallel peel (degrades to the serial
    /// decomposition when only one thread is available).
    ForceParRecompute,
}

/// Tunables of the [`Planner`]: the policy, the EWMA smoothing factor,
/// the static cost priors the calibration starts from, and hard
/// threshold overrides.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Dispatch policy.
    pub policy: PlanPolicy,
    /// Weight of the newest observation in each EWMA (`0 < α <= 1`).
    pub ewma_alpha: f64,
    /// Prior: batched-insert maintenance cost per batch edge, ns.
    pub batched_insert_ns_per_edge: f64,
    /// Prior: batched-removal maintenance cost per batch edge, ns.
    pub batched_remove_ns_per_edge: f64,
    /// Prior: decomposition cost per graph unit (vertex + edge), ns.
    pub recompute_ns_per_unit: f64,
    /// Prior: thread-parallel maintenance cost per batch edge, ns
    /// (priced only when the planner knows about > 1 thread).
    pub par_pass_ns_per_edge: f64,
    /// Prior: parallel-peel recompute cost per graph unit, ns (priced
    /// only when the planner knows about > 1 thread).
    pub par_recompute_ns_per_unit: f64,
    /// Prior: pass-phase cost per seed (stage-2 re-pricing), ns.
    pub pass_ns_per_seed: f64,
    /// Prior: deferred k-order rebuild cost per graph unit, ns.
    pub rebuild_ns_per_unit: f64,
    /// Per-observation clamp on EWMA movement: one observation may move
    /// a calibrated cost by at most this factor (either direction).
    /// Cold-start outliers — the first batch on a freshly built index
    /// pays page faults and cache misses two orders of magnitude above
    /// steady state — would otherwise poison the model in one step and
    /// lock Auto onto the wrong strategy.
    pub ewma_max_step: f64,
    /// Per-batch relaxation of the *un-exercised* strategy's calibrated
    /// costs toward their priors (Auto only). A strategy the planner
    /// stopped choosing is no longer observed, so its estimate goes
    /// stale; without relaxation one mispriced estimate could lock the
    /// dispatch one way forever. Where the priors already price the
    /// exercised strategy cheaper the relaxed model stays put, so this
    /// cannot oscillate a correctly-settled choice.
    pub stale_decay: f64,
    /// Switch hysteresis (Auto only): the challenger strategy's estimate
    /// must be at least this factor cheaper than the incumbent's before
    /// the dispatch flips. Near the batched/recompute crossover the two
    /// estimates sit within noise of each other, and alternating costs a
    /// deferred-rebuild round trip per flip — without hysteresis the
    /// planner thrashes below *both* pure strategies there. The default
    /// of 2 means a single clamped outlier observation can never flip
    /// the incumbent, and bounds the steady-state regret of sticking at
    /// 2× — a region where the strategies differ by less than that
    /// anyway (the crossover is sharp in the batch size).
    pub switch_hysteresis: f64,
    /// The deferred-rebuild switching charge is amortised over this many
    /// future batches when stage 1 prices the batched strategy from a
    /// stale order index: one rebuild re-enables order-based maintenance
    /// for every subsequent batch, so charging it all to one batch would
    /// lock a recompute streak in permanently.
    pub rebuild_horizon_batches: usize,
    /// Auto switches the pass phase to component splitting when a batch
    /// leaves at least this many seeds. `usize::MAX` (the default)
    /// disables the heuristic — on current single-core hosts the
    /// component discovery BFS over a large level-induced subgraph costs
    /// more than the merged pass saves; the seam stays available through
    /// [`PlanPolicy::ForceSplit`] and this override.
    pub split_seed_threshold: usize,
    /// Stage-2 bias: the recompute estimate is multiplied by this margin
    /// before it may abandon already-started passes (`> 1` favours
    /// finishing them).
    pub recompute_margin: f64,
    /// Hard override: batches of at least this many edges always
    /// recompute, smaller ones always run passes. Disables the cost
    /// model's stage-1 comparison (calibration continues regardless).
    pub crossover_edges: Option<usize>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            policy: PlanPolicy::Auto,
            ewma_alpha: 0.5,
            batched_insert_ns_per_edge: 5_000.0,
            batched_remove_ns_per_edge: 5_000.0,
            // Seeded from the measured single-core decomposition
            // throughput (`BENCH_batch.json` recompute baselines run
            // ~16 ns per vertex + edge on the reference container).
            // Near the batched/recompute boundary the recompute side is
            // the safer mispricing: its cost is a low-variance linear
            // scan, while a cold order index makes the first batched
            // pass an order of magnitude slower than steady state.
            recompute_ns_per_unit: 16.0,
            // Parallel priors assume roughly 2× scaling at the typical
            // 4-thread configuration — deliberately conservative (the
            // plan/apply split serialises the commit phase, the peel its
            // level barriers); the EWMAs converge to the real ratio.
            par_pass_ns_per_edge: 2_500.0,
            par_recompute_ns_per_unit: 9.0,
            pass_ns_per_seed: 2_000.0,
            rebuild_ns_per_unit: 40.0,
            ewma_max_step: 3.0,
            stale_decay: 0.05,
            switch_hysteresis: 2.0,
            rebuild_horizon_batches: 16,
            split_seed_threshold: usize::MAX,
            recompute_margin: 1.5,
            crossover_edges: None,
        }
    }
}

impl PlannerConfig {
    /// The default configuration under a different policy.
    pub fn with_policy(policy: PlanPolicy) -> Self {
        PlannerConfig {
            policy,
            ..PlannerConfig::default()
        }
    }
}

/// Decision counters and the calibrated per-unit costs — the observable
/// state of a [`Planner`].
#[derive(Debug, Clone, Default)]
pub struct PlannerStats {
    /// Pass pipelines dispatched to the merged order-based passes (a
    /// mixed churn micro-batch counts each executed half).
    pub batched_chosen: usize,
    /// Pass pipelines dispatched to component-split passes.
    pub split_chosen: usize,
    /// Pass pipelines dispatched to thread-parallel component passes.
    pub par_split_chosen: usize,
    /// Recomputes actually executed (fully-skipped batches that changed
    /// nothing are not counted and do not move the incumbent).
    pub recompute_chosen: usize,
    /// Recomputes executed on the parallel peel.
    pub par_recompute_chosen: usize,
    /// Auto decisions revised *after* the apply phase: passes abandoned
    /// for a recompute once the seed counts were known.
    pub late_recompute: usize,
    /// Deferred k-order rebuilds performed on re-entry to order-based
    /// work.
    pub rebuilds: usize,
    /// The most recent dispatch.
    pub last: Option<Strategy>,
    /// Calibrated EWMA: batched-insert cost per edge, ns.
    pub batched_insert_ns_per_edge: f64,
    /// Calibrated EWMA: batched-removal cost per edge, ns.
    pub batched_remove_ns_per_edge: f64,
    /// Calibrated EWMA: recompute cost per graph unit, ns.
    pub recompute_ns_per_unit: f64,
    /// Calibrated EWMA: thread-parallel maintenance cost per edge, ns.
    pub par_pass_ns_per_edge: f64,
    /// Calibrated EWMA: parallel-peel recompute cost per unit, ns.
    pub par_recompute_ns_per_unit: f64,
    /// Calibrated EWMA: pass-phase cost per seed, ns.
    pub pass_ns_per_seed: f64,
    /// Calibrated EWMA: order rebuild cost per graph unit, ns.
    pub rebuild_ns_per_unit: f64,
}

impl PlannerStats {
    /// Total dispatch decisions recorded (all strategies).
    pub fn decisions(&self) -> usize {
        self.batched_chosen
            + self.split_chosen
            + self.par_split_chosen
            + self.recompute_chosen
            + self.par_recompute_chosen
    }

    /// One-line JSON for ops logs and bench embedding: decision
    /// counters plus the calibrated EWMA cost model.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"batched_chosen\":{},\"split_chosen\":{},\"par_split_chosen\":{},\
             \"recompute_chosen\":{},\"par_recompute_chosen\":{},\"late_recompute\":{},\
             \"rebuilds\":{},\"last\":{},\"batched_insert_ns_per_edge\":{:.3},\
             \"batched_remove_ns_per_edge\":{:.3},\"recompute_ns_per_unit\":{:.3},\
             \"par_pass_ns_per_edge\":{:.3},\"par_recompute_ns_per_unit\":{:.3},\
             \"pass_ns_per_seed\":{:.3},\"rebuild_ns_per_unit\":{:.3}}}",
            self.batched_chosen,
            self.split_chosen,
            self.par_split_chosen,
            self.recompute_chosen,
            self.par_recompute_chosen,
            self.late_recompute,
            self.rebuilds,
            match self.last {
                Some(s) => format!("\"{s}\""),
                None => "null".to_string(),
            },
            self.batched_insert_ns_per_edge,
            self.batched_remove_ns_per_edge,
            self.recompute_ns_per_unit,
            self.par_pass_ns_per_edge,
            self.par_recompute_ns_per_unit,
            self.pass_ns_per_seed,
            self.rebuild_ns_per_unit,
        )
    }
}

impl std::fmt::Display for PlannerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} decisions (batched {}, split {}, par-split {}, recompute {}, \
             par-recompute {}; {} late recomputes, {} rebuilds); ewma ns/unit: \
             ins {:.0}, rem {:.0}, recompute {:.1}, par-pass {:.0}, \
             par-recompute {:.1}, seed {:.0}, rebuild {:.1}",
            self.decisions(),
            self.batched_chosen,
            self.split_chosen,
            self.par_split_chosen,
            self.recompute_chosen,
            self.par_recompute_chosen,
            self.late_recompute,
            self.rebuilds,
            self.batched_insert_ns_per_edge,
            self.batched_remove_ns_per_edge,
            self.recompute_ns_per_unit,
            self.par_pass_ns_per_edge,
            self.par_recompute_ns_per_unit,
            self.pass_ns_per_seed,
            self.rebuild_ns_per_unit,
        )
    }
}

/// Time source of a [`Planner`]. The scripted variant exists so
/// calibration tests can inject synthetic timings — decisions then depend
/// only on the scripted values, never on the wall clock.
enum Clock {
    Wall(std::time::Instant),
    Scripted(Box<dyn FnMut() -> u64 + Send>),
}

impl std::fmt::Debug for Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Clock::Wall(_) => write!(f, "Clock::Wall"),
            Clock::Scripted(_) => write!(f, "Clock::Scripted"),
        }
    }
}

/// The cost model: policy + calibration state + decision counters.
/// Usually owned by a [`PlannedCore`]; standalone use (e.g. pricing
/// batches for an external scheduler) works through [`Planner::plan`] /
/// [`Planner::observe_batched`] and friends.
#[derive(Debug)]
pub struct Planner {
    cfg: PlannerConfig,
    stats: PlannerStats,
    clock: Clock,
    /// Worker threads the engine may use (1 = serial). Parallel
    /// strategies are priced only when this exceeds 1, so a planner that
    /// never learns about a [`Parallelism`] plans exactly as before.
    threads: usize,
}

impl Planner {
    /// A planner with the given configuration and the wall clock.
    pub fn new(cfg: PlannerConfig) -> Self {
        let stats = PlannerStats {
            batched_insert_ns_per_edge: cfg.batched_insert_ns_per_edge,
            batched_remove_ns_per_edge: cfg.batched_remove_ns_per_edge,
            recompute_ns_per_unit: cfg.recompute_ns_per_unit,
            par_pass_ns_per_edge: cfg.par_pass_ns_per_edge,
            par_recompute_ns_per_unit: cfg.par_recompute_ns_per_unit,
            pass_ns_per_seed: cfg.pass_ns_per_seed,
            rebuild_ns_per_unit: cfg.rebuild_ns_per_unit,
            ..PlannerStats::default()
        };
        Planner {
            cfg,
            stats,
            clock: Clock::Wall(std::time::Instant::now()),
            threads: 1,
        }
    }

    /// Tells the cost model how many worker threads the engine may use.
    /// With `threads <= 1` every estimate — and therefore every plan —
    /// is identical to a planner that never heard of parallelism.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Worker threads the cost model prices against.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A planner whose notion of time is `clock` (monotone nanoseconds).
    /// The engine samples it a handful of times per batch: once before
    /// the work, once between the apply and pass phases of a batched
    /// strategy, and once after — tests script the returned values to
    /// inject synthetic strategy timings.
    pub fn with_clock(cfg: PlannerConfig, clock: Box<dyn FnMut() -> u64 + Send>) -> Self {
        let mut p = Planner::new(cfg);
        p.clock = Clock::Scripted(clock);
        p
    }

    /// The configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// Decision counters and calibrated costs.
    pub fn stats(&self) -> &PlannerStats {
        &self.stats
    }

    fn now_ns(&mut self) -> u64 {
        match &mut self.clock {
            Clock::Wall(origin) => origin.elapsed().as_nanos() as u64,
            Clock::Scripted(f) => f(),
        }
    }

    /// Stage-1 decision: prices a batch of `inserts + removes` edges
    /// against a graph with `n` vertices and `m` edges. `order_fresh`
    /// charges the batched estimate with the deferred rebuild when the
    /// order index is currently stale (choosing passes would pay it
    /// first). Pure — counters move via the execution paths.
    pub fn plan(
        &self,
        inserts: usize,
        removes: usize,
        n: usize,
        m: usize,
        order_fresh: bool,
    ) -> Strategy {
        let b = inserts + removes;
        let par = self.threads > 1;
        match self.cfg.policy {
            PlanPolicy::ForceBatch => Strategy::Batched,
            PlanPolicy::ForceSplit => Strategy::Split,
            PlanPolicy::ForceParSplit => {
                if par {
                    Strategy::ParSplit
                } else {
                    Strategy::Split
                }
            }
            // ForceRecompute keeps the engine's PR-5 behaviour: the peel
            // runs parallel whenever a Parallelism is configured, so with
            // threads the dispatch is (and is recorded as) ParRecompute.
            PlanPolicy::ForceRecompute | PlanPolicy::ForceParRecompute => {
                if par {
                    Strategy::ParRecompute
                } else {
                    Strategy::Recompute
                }
            }
            PlanPolicy::Auto => {
                // Family members first: the cheapest way to run passes,
                // and the cheapest way to recompute. With one thread the
                // parallel candidates are not priced at all, so the plan
                // is bit-compatible with the serial-only planner.
                let mut est_batched = inserts as f64 * self.stats.batched_insert_ns_per_edge
                    + removes as f64 * self.stats.batched_remove_ns_per_edge;
                let est_par_pass = b as f64 * self.stats.par_pass_ns_per_edge;
                let mut pass_member = Strategy::Batched;
                if par && est_par_pass < est_batched {
                    est_batched = est_par_pass;
                    pass_member = Strategy::ParSplit;
                }
                if !order_fresh {
                    // Amortised switching charge (see `PlannerConfig::
                    // rebuild_horizon_batches`): going back to passes
                    // pays one rebuild for many future batches.
                    est_batched += (n + m) as f64 * self.stats.rebuild_ns_per_unit
                        / self.cfg.rebuild_horizon_batches.max(1) as f64;
                }
                let mut est_recompute = (n + m + b) as f64 * self.stats.recompute_ns_per_unit;
                let est_par_recompute = (n + m + b) as f64 * self.stats.par_recompute_ns_per_unit;
                let mut rec_member = Strategy::Recompute;
                if par && est_par_recompute < est_recompute {
                    est_recompute = est_par_recompute;
                    rec_member = Strategy::ParRecompute;
                }
                if let Some(crossover) = self.cfg.crossover_edges {
                    return if b >= crossover {
                        rec_member
                    } else {
                        pass_member
                    };
                }
                // Hysteresis: the challenger *family* must clearly
                // undercut the incumbent family, or the planner sticks
                // with what it last ran (near the crossover the
                // estimates sit within noise and flipping costs a
                // rebuild round trip). Switching members inside a family
                // is free — no rebuild is involved.
                let h = self.cfg.switch_hysteresis.max(1.0);
                match self.stats.last {
                    Some(last) if last.is_pass_family() => {
                        if est_recompute * h < est_batched {
                            rec_member
                        } else {
                            pass_member
                        }
                    }
                    Some(_) => {
                        if est_batched * h < est_recompute {
                            pass_member
                        } else {
                            rec_member
                        }
                    }
                    None => {
                        if est_recompute < est_batched {
                            rec_member
                        } else {
                            pass_member
                        }
                    }
                }
            }
        }
    }

    /// Stage-2 decision, available once the apply phase has counted the
    /// seeds: `true` when the estimated pass cost (per seed, plus one
    /// term per affected level) exceeds the margin-weighted recompute
    /// estimate — the caller should discard the seeds and recompute.
    ///
    /// Seeds are bounded by the batch (≤ 1 violating root per inserted
    /// edge, ≤ 2 dismissal seeds per removed edge), so small batches on
    /// large graphs can never abandon: the escape exists for big batches
    /// whose apply phase reveals an avalanche, and the stage-1
    /// hysteresis keeps a post-abandon incumbent from re-attempting the
    /// same shape every batch.
    pub fn should_abandon_passes(&self, seeds: usize, level_span: u32, n: usize, m: usize) -> bool {
        if !matches!(self.cfg.policy, PlanPolicy::Auto) {
            return false;
        }
        let est_pass = (seeds + level_span as usize) as f64 * self.stats.pass_ns_per_seed;
        let est_recompute =
            (n + m) as f64 * self.stats.recompute_ns_per_unit * self.cfg.recompute_margin;
        est_pass > est_recompute
    }

    /// EWMA update, clamped so one observation moves the estimate by at
    /// most `ewma_max_step`× (outlier robustness — see the config docs).
    fn ewma(&self, current: f64, observed: f64) -> f64 {
        let raw = self.cfg.ewma_alpha * observed + (1.0 - self.cfg.ewma_alpha) * current;
        let step = self.cfg.ewma_max_step.max(1.0);
        raw.clamp(current / step, current * step)
    }

    /// Feeds an observed batched-insert execution (`edges` batch edges in
    /// `ns` nanoseconds) into the calibration.
    pub fn observe_batched(&mut self, removal: bool, edges: usize, ns: u64) {
        if edges == 0 {
            return;
        }
        let per_edge = ns as f64 / edges as f64;
        if removal {
            self.stats.batched_remove_ns_per_edge =
                self.ewma(self.stats.batched_remove_ns_per_edge, per_edge);
        } else {
            self.stats.batched_insert_ns_per_edge =
                self.ewma(self.stats.batched_insert_ns_per_edge, per_edge);
        }
    }

    /// Feeds an observed thread-parallel maintenance execution
    /// (`edges` batch edges in `ns` nanoseconds).
    pub fn observe_par_pass(&mut self, edges: usize, ns: u64) {
        if edges == 0 {
            return;
        }
        self.stats.par_pass_ns_per_edge =
            self.ewma(self.stats.par_pass_ns_per_edge, ns as f64 / edges as f64);
    }

    /// Feeds an observed parallel-peel recompute (`units` = vertices +
    /// edges + batch).
    pub fn observe_par_recompute(&mut self, units: usize, ns: u64) {
        if units == 0 {
            return;
        }
        self.stats.par_recompute_ns_per_unit = self.ewma(
            self.stats.par_recompute_ns_per_unit,
            ns as f64 / units as f64,
        );
    }

    /// Feeds an observed pass phase (`units` = seeds + level span).
    pub fn observe_pass(&mut self, units: usize, ns: u64) {
        if units == 0 {
            return;
        }
        self.stats.pass_ns_per_seed =
            self.ewma(self.stats.pass_ns_per_seed, ns as f64 / units as f64);
    }

    /// Feeds an observed recompute (`units` = vertices + edges + batch).
    pub fn observe_recompute(&mut self, units: usize, ns: u64) {
        if units == 0 {
            return;
        }
        self.stats.recompute_ns_per_unit =
            self.ewma(self.stats.recompute_ns_per_unit, ns as f64 / units as f64);
    }

    /// Feeds an observed deferred-rebuild (`units` = vertices + edges).
    pub fn observe_rebuild(&mut self, units: usize, ns: u64) {
        self.stats.rebuilds += 1;
        if units == 0 {
            return;
        }
        self.stats.rebuild_ns_per_unit =
            self.ewma(self.stats.rebuild_ns_per_unit, ns as f64 / units as f64);
    }

    /// Counts an executed dispatch and updates the hysteresis incumbent —
    /// no calibration side effects.
    fn record(&mut self, strategy: Strategy) {
        match strategy {
            Strategy::Batched => self.stats.batched_chosen += 1,
            Strategy::Split => self.stats.split_chosen += 1,
            Strategy::ParSplit => self.stats.par_split_chosen += 1,
            Strategy::Recompute => self.stats.recompute_chosen += 1,
            Strategy::ParRecompute => self.stats.par_recompute_chosen += 1,
        }
        self.stats.last = Some(strategy);
    }

    /// [`Planner::record`] plus the stale-estimate relaxation — the
    /// normal bookkeeping for one executed planner decision. Callers that
    /// execute several pipelines for a single decision (churn halves) or
    /// have direct evidence against relaxing (stage-2 abandons) call
    /// `record` alone.
    fn note_choice(&mut self, strategy: Strategy) {
        self.record(strategy);
        if matches!(self.cfg.policy, PlanPolicy::Auto) {
            self.relax_unexercised(strategy);
        }
    }

    /// Relaxes the strategy *not* chosen this batch toward its priors
    /// (see [`PlannerConfig::stale_decay`]).
    fn relax_unexercised(&mut self, chosen: Strategy) {
        let d = self.cfg.stale_decay.clamp(0.0, 1.0);
        let relax = |current: f64, prior: f64| current + (prior - current) * d;
        match chosen {
            Strategy::Recompute | Strategy::ParRecompute => {
                self.stats.batched_insert_ns_per_edge = relax(
                    self.stats.batched_insert_ns_per_edge,
                    self.cfg.batched_insert_ns_per_edge,
                );
                self.stats.batched_remove_ns_per_edge = relax(
                    self.stats.batched_remove_ns_per_edge,
                    self.cfg.batched_remove_ns_per_edge,
                );
                self.stats.pass_ns_per_seed =
                    relax(self.stats.pass_ns_per_seed, self.cfg.pass_ns_per_seed);
                self.stats.par_pass_ns_per_edge = relax(
                    self.stats.par_pass_ns_per_edge,
                    self.cfg.par_pass_ns_per_edge,
                );
            }
            Strategy::Batched | Strategy::Split | Strategy::ParSplit => {
                self.stats.recompute_ns_per_unit = relax(
                    self.stats.recompute_ns_per_unit,
                    self.cfg.recompute_ns_per_unit,
                );
                self.stats.par_recompute_ns_per_unit = relax(
                    self.stats.par_recompute_ns_per_unit,
                    self.cfg.par_recompute_ns_per_unit,
                );
                // The pass-family member that did not run also drifts
                // toward its prior (stale estimates may not lock the
                // intra-family pick either).
                match chosen {
                    Strategy::ParSplit => {
                        self.stats.batched_insert_ns_per_edge = relax(
                            self.stats.batched_insert_ns_per_edge,
                            self.cfg.batched_insert_ns_per_edge,
                        );
                        self.stats.batched_remove_ns_per_edge = relax(
                            self.stats.batched_remove_ns_per_edge,
                            self.cfg.batched_remove_ns_per_edge,
                        );
                    }
                    _ => {
                        self.stats.par_pass_ns_per_edge = relax(
                            self.stats.par_pass_ns_per_edge,
                            self.cfg.par_pass_ns_per_edge,
                        );
                    }
                }
            }
        }
    }
}

/// An [`OrderCore`] driven through the adaptive planner: batch entry
/// points dispatch per the cost model, single-edge updates run the plain
/// order-based algorithms (re-freshening the order index first when a
/// recompute left it stale).
pub struct PlannedCore<S: OrderSeq = TagList> {
    engine: OrderCore<S>,
    planner: Planner,
    /// Runs recompute decompositions on the parallel peel when set.
    par: Option<Parallelism>,
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

    /// Builds the engine under a policy with otherwise-default tunables.
    pub fn with_policy(graph: DynamicGraph, seed: u64, policy: PlanPolicy) -> Self {
        Self::with_config(graph, seed, PlannerConfig::with_policy(policy))
    }

    /// Wraps an existing index and planner (the calibration-test hook:
    /// combine with [`Planner::with_clock`] for scripted timings).
    pub fn from_parts(engine: OrderCore<S>, planner: Planner) -> Self {
        PlannedCore {
            engine,
            planner,
            par: None,
            order_fresh: true,
        }
    }

    /// Recompute fallbacks run the level-synchronous parallel peel under
    /// `par` (identical core numbers, more cores), batch passes may run
    /// thread-parallel component passes, and the planner prices both as
    /// distinct strategies.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.set_parallelism(Some(par));
        self
    }

    /// The configured [`Parallelism`], if any.
    pub fn parallelism(&self) -> Option<Parallelism> {
        self.par
    }

    /// Re-points the engine at a (new) [`Parallelism`] — or back to
    /// serial with `None` — keeping planner calibration intact.
    pub fn set_parallelism(&mut self, par: Option<Parallelism>) {
        self.par = par;
        self.planner
            .set_threads(par.map_or(1, |p| p.resolved_threads()));
    }

    /// Worker threads the planner prices against (1 = serial).
    fn threads(&self) -> usize {
        self.planner.threads()
    }

    /// The recompute-family member that actually executes: the peel runs
    /// parallel whenever threads are available.
    fn recompute_strategy(&self) -> Strategy {
        if self.threads() > 1 {
            Strategy::ParRecompute
        } else {
            Strategy::Recompute
        }
    }

    /// Decision counters and calibrated costs.
    pub fn planner_stats(&self) -> &PlannerStats {
        &self.planner.stats
    }

    /// The planner (e.g. to price a hypothetical batch via
    /// [`Planner::plan`]).
    pub fn planner(&self) -> &Planner {
        &self.planner
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
        let t0 = self.planner.now_ns();
        let ko = korder_from_cores(self.engine.graph(), self.engine.cores());
        self.engine.rebuild_from_korder(ko);
        self.order_fresh = true;
        let t1 = self.planner.now_ns();
        let units = self.engine.graph().num_vertices() + self.engine.graph().num_edges();
        self.planner.observe_rebuild(units, t1.saturating_sub(t0));
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

    /// Planned batch insertion: stage-1 dispatch on batch size, stage-2
    /// re-pricing on the apply-phase seed counts. Invalid entries are
    /// skipped and counted exactly as by [`OrderCore::insert_edges`].
    pub fn insert_edges(&mut self, edges: &[(VertexId, VertexId)]) -> UpdateStats {
        let mut stats = UpdateStats::default();
        if edges.is_empty() {
            return stats;
        }
        let (n, m) = self.dims();
        match self.planner.plan(edges.len(), 0, n, m, self.order_fresh) {
            s @ (Strategy::Recompute | Strategy::ParRecompute) => {
                if self.recompute_batch(edges, &[], &mut stats) {
                    self.planner.note_choice(s);
                }
            }
            s => self.run_batched(s, edges, false, true, &mut stats),
        }
        stats
    }

    /// Planned batch removal (mirror of [`PlannedCore::insert_edges`]).
    pub fn remove_edges(&mut self, edges: &[(VertexId, VertexId)]) -> UpdateStats {
        let mut stats = UpdateStats::default();
        if edges.is_empty() {
            return stats;
        }
        let (n, m) = self.dims();
        match self.planner.plan(0, edges.len(), n, m, self.order_fresh) {
            s @ (Strategy::Recompute | Strategy::ParRecompute) => {
                if self.recompute_batch(&[], edges, &mut stats) {
                    self.planner.note_choice(s);
                }
            }
            s => self.run_batched(s, edges, true, true, &mut stats),
        }
        stats
    }

    /// Planned mixed micro-batch (`inserts` then `removes`, the churn
    /// shape a streaming ingest loop delivers): one stage-1 decision over
    /// the combined size, so a recompute-priced micro-batch pays **one**
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
        let (n, m) = self.dims();
        match self
            .planner
            .plan(inserts.len(), removes.len(), n, m, self.order_fresh)
        {
            s @ (Strategy::Recompute | Strategy::ParRecompute) => {
                if self.recompute_batch(inserts, removes, &mut stats) {
                    self.planner.note_choice(s);
                }
            }
            s => {
                if !inserts.is_empty() {
                    self.run_batched(s, inserts, false, true, &mut stats);
                }
                if !removes.is_empty() {
                    if self.order_fresh {
                        // One planner decision covered the whole
                        // micro-batch: the second half skips the stale
                        // relaxation so churn batches do not decay the
                        // un-exercised estimate at double rate.
                        self.run_batched(s, removes, true, false, &mut stats);
                    } else {
                        // The insert half escaped to a recompute mid-way;
                        // rebuilding the order just to tear seeds out of it
                        // again would be wasted work.
                        self.recompute_batch(&[], removes, &mut stats);
                    }
                }
            }
        }
        stats
    }

    fn dims(&self) -> (usize, usize) {
        (
            self.engine.graph().num_vertices(),
            self.engine.graph().num_edges(),
        )
    }

    /// The batched/split execution path with the stage-2 escape.
    /// `relax` applies the stale-estimate relaxation for this decision
    /// (false for the second half of a churn micro-batch, whose planner
    /// decision already relaxed once).
    fn run_batched(
        &mut self,
        strategy: Strategy,
        edges: &[(VertexId, VertexId)],
        removal: bool,
        relax: bool,
        stats: &mut UpdateStats,
    ) {
        self.ensure_order_fresh();
        let t0 = self.planner.now_ns();
        if removal {
            self.engine.remove_apply_phase(edges, stats);
        } else {
            self.engine.insert_apply_phase(edges, stats);
        }
        let summary = self.engine.batch_seed_summary();

        // Stage 2: with the seeds known, re-price passes vs recompute.
        if let Some((seeds, lo, hi)) = summary {
            let (n, m) = self.dims();
            if self.planner.should_abandon_passes(seeds, hi - lo + 1, n, m) {
                self.engine.discard_batch_seeds();
                self.planner.stats.late_recompute += 1;
                // The incumbent flips (we genuinely recomputed), but the
                // batched estimates are *not* relaxed toward their cheap
                // priors — the abandoned apply phase is direct evidence
                // of batched cost, fed into the EWMA below so the model
                // learns rather than re-attempting the same batch shape.
                let rec = self.recompute_strategy();
                self.planner.record(rec);
                let t1 = self.planner.now_ns();
                self.planner
                    .observe_batched(removal, edges.len(), t1.saturating_sub(t0));
                self.recompute_in_place(stats);
                let t2 = self.planner.now_ns();
                if rec == Strategy::ParRecompute {
                    self.planner
                        .observe_par_recompute(n + m, t2.saturating_sub(t1));
                } else {
                    self.planner.observe_recompute(n + m, t2.saturating_sub(t1));
                }
                return;
            }
        }

        // ForceBatch means *merged* passes; only ForceSplit / ParSplit
        // or Auto's seed-count heuristic switch the pass phase to
        // component splits. ParSplit additionally hands the component
        // passes the configured Parallelism.
        let par_pass = matches!(strategy, Strategy::ParSplit) && self.threads() > 1;
        let split = par_pass
            || matches!(strategy, Strategy::Split)
            || (matches!(self.planner.cfg.policy, PlanPolicy::Auto)
                && summary
                    .is_some_and(|(seeds, _, _)| seeds >= self.planner.cfg.split_seed_threshold));
        let opts = BatchOptions {
            split_components: split,
            parallelism: if par_pass { self.par } else { None },
        };
        let tp = self.planner.now_ns();
        if removal {
            self.engine.remove_pass_phase(&opts, stats);
        } else {
            self.engine.insert_pass_phase(&opts, stats);
        }
        let t1 = self.planner.now_ns();
        if let Some((seeds, lo, hi)) = summary {
            self.planner
                .observe_pass(seeds + (hi - lo + 1) as usize, t1.saturating_sub(tp));
        }
        if par_pass {
            self.planner
                .observe_par_pass(edges.len(), t1.saturating_sub(t0));
        } else {
            self.planner
                .observe_batched(removal, edges.len(), t1.saturating_sub(t0));
        }
        let executed = if par_pass {
            Strategy::ParSplit
        } else if split {
            Strategy::Split
        } else {
            Strategy::Batched
        };
        if relax {
            self.planner.note_choice(executed);
        } else {
            self.planner.record(executed);
        }
    }

    /// The recompute strategy: raw-apply both halves (identical skip
    /// semantics to the batch entry points), decompose once, refresh the
    /// per-level counts, and leave the k-order rebuild deferred. Returns
    /// `false` when every entry was skipped — nothing changed, so the
    /// caller must not count the batch as a recompute dispatch (a
    /// duplicate-heavy stream would otherwise flip the hysteresis
    /// incumbent and relax the calibration over pure no-ops).
    fn recompute_batch(
        &mut self,
        inserts: &[(VertexId, VertexId)],
        removes: &[(VertexId, VertexId)],
        stats: &mut UpdateStats,
    ) -> bool {
        let t0 = self.planner.now_ns();
        let n = self.engine.graph.num_vertices() as VertexId;
        let mut applied = 0usize;
        for &(u, v) in inserts {
            if u == v || u >= n || v >= n || self.engine.graph.has_edge(u, v) {
                stats.skipped += 1;
            } else {
                self.engine.graph.insert_edge_unchecked(u, v);
                applied += 1;
            }
        }
        let mut removed_any = false;
        for &(u, v) in removes {
            if u == v || u >= n || v >= n || self.engine.graph.remove_edge(u, v).is_err() {
                stats.skipped += 1;
            } else {
                removed_any = true;
                applied += 1;
            }
        }
        if removed_any {
            self.engine.graph.maintain_adjacency(DEFAULT_MAX_HOLE_RATIO);
        }
        if applied == 0 {
            // Nothing changed; the current cores (and order) still hold.
            return false;
        }
        self.recompute_in_place(stats);
        let t1 = self.planner.now_ns();
        let (nv, m) = self.dims();
        if self.threads() > 1 {
            self.planner
                .observe_par_recompute(nv + m + applied, t1.saturating_sub(t0));
        } else {
            self.planner
                .observe_recompute(nv + m + applied, t1.saturating_sub(t0));
        }
        true
    }

    /// Decomposes the current graph, refreshes cores + per-level counts,
    /// and marks the k-order stale. The batch-seed scratch is discarded —
    /// a rebuild supersedes whatever an apply phase collected.
    fn recompute_in_place(&mut self, stats: &mut UpdateStats) {
        let new_core = match &self.par {
            Some(par) => par_core_decomposition(&self.engine.graph, par),
            None => core_decomposition(&self.engine.graph),
        };
        // The diff both counts the churn for the stats and — when
        // core-change tracking is on — feeds the change log, at no extra
        // asymptotic cost (the recompute already paid O(n + m)).
        let mut changed = 0usize;
        let log_active = self.engine.change_log.is_active();
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
        self.engine.discard_batch_seeds();
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
        for policy in [
            PlanPolicy::Auto,
            PlanPolicy::ForceBatch,
            PlanPolicy::ForceSplit,
            PlanPolicy::ForceRecompute,
        ] {
            let mut pc = Planned::with_policy(fixtures::path(12), 9, policy);
            let stats = pc.insert_edges(&batch);
            assert_eq!(stats.skipped, 2, "{policy:?} skip semantics diverged");
            pc.validate();
            let cores = pc.cores().to_vec();
            if let Some(r) = &reference {
                assert_eq!(&cores, r, "{policy:?} cores diverged");
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

    #[test]
    fn crossover_override_is_respected() {
        let cfg = PlannerConfig {
            crossover_edges: Some(4),
            ..PlannerConfig::default()
        };
        let planner = Planner::new(cfg);
        assert_eq!(planner.plan(3, 0, 100, 100, true), Strategy::Batched);
        assert_eq!(planner.plan(4, 0, 100, 100, true), Strategy::Recompute);
        assert_eq!(planner.plan(2, 2, 100, 100, true), Strategy::Recompute);
    }

    #[test]
    fn ewma_movement_is_clamped_per_observation() {
        let cfg = PlannerConfig {
            ewma_max_step: 3.0,
            batched_insert_ns_per_edge: 1_000.0,
            ..PlannerConfig::default()
        };
        let mut p = Planner::new(cfg);
        // A 1000× outlier (cold first batch) moves the estimate by at
        // most the configured factor…
        p.observe_batched(false, 10, 10_000_000);
        assert_eq!(p.stats().batched_insert_ns_per_edge, 3_000.0);
        // …and a cheap follow-up pulls it back down (also clamped).
        p.observe_batched(false, 10, 10_000);
        assert!(p.stats().batched_insert_ns_per_edge <= 3_000.0);
        assert!(p.stats().batched_insert_ns_per_edge >= 1_000.0);
    }

    #[test]
    fn unexercised_strategy_relaxes_toward_prior() {
        let g = fixtures::path(40);
        let cfg = PlannerConfig {
            // Poisoned batched estimate + a crossover forcing recompute:
            // recompute batches must relax the batched cost back toward
            // its (cheap) prior.
            batched_insert_ns_per_edge: 5_000.0,
            crossover_edges: Some(1),
            stale_decay: 0.5,
            ..PlannerConfig::default()
        };
        let mut pc = Planned::with_config(g, 3, cfg);
        pc.planner.stats.batched_insert_ns_per_edge = 5_000_000.0;
        for (a, b) in [(0u32, 2u32), (1, 3), (2, 4)] {
            pc.insert_edges(&[(a, b)]);
        }
        assert_eq!(pc.planner_stats().recompute_chosen, 3);
        let relaxed = pc.planner_stats().batched_insert_ns_per_edge;
        assert!(
            relaxed < 700_000.0,
            "stale batched estimate must relax toward its prior (got {relaxed})"
        );
    }

    #[test]
    fn single_thread_plan_never_prices_parallel_members() {
        // With one thread the parallel candidates must not even be
        // considered — regardless of how cheap their priors look — so
        // the dispatch is bit-compatible with the serial-only planner.
        let cfg = PlannerConfig {
            par_pass_ns_per_edge: 0.001,
            par_recompute_ns_per_unit: 0.001,
            ..PlannerConfig::default()
        };
        let serial = Planner::new(PlannerConfig::default());
        let tuned = Planner::new(cfg);
        for b in [1usize, 8, 64, 512, 4096] {
            for (n, m) in [(100usize, 200usize), (10_000, 80_000)] {
                for fresh in [true, false] {
                    let got = tuned.plan(b, b / 2, n, m, fresh);
                    assert!(!matches!(got, Strategy::ParSplit | Strategy::ParRecompute));
                    assert_eq!(got, serial.plan(b, b / 2, n, m, fresh));
                }
            }
        }
    }

    #[test]
    fn parallel_members_are_priced_distinctly_with_threads() {
        let mut p = Planner::new(PlannerConfig::default());
        p.set_threads(4);
        // Parallel passes priced below serial passes: small batches go
        // to ParSplit instead of Batched.
        p.stats.par_pass_ns_per_edge = p.stats.batched_insert_ns_per_edge / 10.0;
        assert_eq!(p.plan(4, 0, 100_000, 400_000, true), Strategy::ParSplit);
        // Parallel peel priced below the serial decomposition: huge
        // batches go to ParRecompute instead of Recompute.
        assert!(p.stats.par_recompute_ns_per_unit < p.stats.recompute_ns_per_unit);
        assert_eq!(
            p.plan(500_000, 0, 1_000, 2_000, true),
            Strategy::ParRecompute
        );
        // And the inverse calibration flips each member back serial.
        p.stats.par_pass_ns_per_edge = p.stats.batched_insert_ns_per_edge * 10.0;
        p.stats.par_recompute_ns_per_unit = p.stats.recompute_ns_per_unit * 10.0;
        assert_eq!(p.plan(4, 0, 100_000, 400_000, true), Strategy::Batched);
        assert_eq!(p.plan(500_000, 0, 1_000, 2_000, true), Strategy::Recompute);
    }

    #[test]
    fn force_policies_degrade_without_threads() {
        let mk = |policy, threads| {
            let mut p = Planner::new(PlannerConfig::with_policy(policy));
            p.set_threads(threads);
            p.plan(10, 0, 100, 200, true)
        };
        assert_eq!(mk(PlanPolicy::ForceParSplit, 1), Strategy::Split);
        assert_eq!(mk(PlanPolicy::ForceParSplit, 4), Strategy::ParSplit);
        assert_eq!(mk(PlanPolicy::ForceParRecompute, 1), Strategy::Recompute);
        assert_eq!(mk(PlanPolicy::ForceParRecompute, 4), Strategy::ParRecompute);
        // ForceRecompute rides the peel when threads are available
        // (PR-5 behaviour: the peel runs parallel whenever configured).
        assert_eq!(mk(PlanPolicy::ForceRecompute, 4), Strategy::ParRecompute);
        assert_eq!(mk(PlanPolicy::ForceRecompute, 1), Strategy::Recompute);
    }

    #[test]
    fn parallel_policies_agree_on_cores_and_record_choices() {
        let batch: Vec<(u32, u32)> = vec![(0, 11), (1, 10), (2, 9), (3, 8), (4, 7)];
        let par = Parallelism::exact(4).with_cutoff(0);
        let mut reference = Planned::with_policy(fixtures::path(12), 9, PlanPolicy::ForceSplit);
        reference.insert_edges(&batch);
        reference.validate();

        let mut ps = Planned::with_policy(fixtures::path(12), 9, PlanPolicy::ForceParSplit)
            .with_parallelism(par);
        assert_eq!(ps.parallelism(), Some(par));
        ps.insert_edges(&batch);
        ps.validate();
        assert_eq!(ps.cores(), reference.cores());
        assert_eq!(ps.planner_stats().par_split_chosen, 1);
        assert_eq!(ps.planner_stats().last, Some(Strategy::ParSplit));

        let mut pr = Planned::with_policy(fixtures::path(12), 9, PlanPolicy::ForceParRecompute)
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
