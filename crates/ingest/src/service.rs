//! The ingest service: a single-writer, multi-reader streaming loop.
//!
//! One dedicated **writer thread** owns the maintenance engine (wrapped
//! in a [`Journaled`] recorder) and is fed [`GraphEvent`]s through a
//! **bounded** MPSC channel — the bound is the backpressure contract:
//! [`IngestService::try_submit`] reports [`IngestError::QueueFull`]
//! instead of buffering unboundedly, [`IngestService::submit`] blocks
//! the producer until the writer drains. A **micro-batcher** buffers
//! events and flushes on whichever comes first: the batch-size cap or a
//! clock tick past the flush interval. Each flush applies the batch
//! through the engine's planner-driven batch path (via
//! [`replay_batched`], so mixed insert/remove runs group correctly),
//! ships the journal tail to the durability sink, and publishes a fresh
//! epoch-versioned [`CoreSnapshot`] — readers never observe a
//! half-applied batch (see [`SnapshotHandle`] for what a load and a
//! publish can wait on).
//!
//! ## Clocks and determinism
//!
//! Production uses [`ClockMode::Wall`]. Tests use
//! [`ClockMode::Scripted`], where time advances **only** through
//! [`IngestService::tick`] messages travelling the same channel as
//! events: the writer's behaviour becomes a pure function of the message
//! sequence, so flush boundaries, epochs, and journal contents are
//! bit-reproducible on any host — including this repo's 1-CPU CI
//! container — with no sleeps and no wall-clock reads. (This is the
//! same testing posture as `Planner::with_clock`, pushed one level up:
//! instead of injecting a closure the writer polls — which would race
//! with event arrival — the scripted clock serialises time itself into
//! the event stream.)
//!
//! ## Supervision and self-healing
//!
//! The writer is supervised: batch application runs under
//! `catch_unwind`, journal/checkpoint I/O errors are contained instead
//! of fatal, and a [`ServiceHealth`] state machine
//! (`Healthy → Degraded → Recovering → Failed`) is exported through
//! [`IngestService::health`]. When the engine panics mid-batch the
//! writer discards the poisoned state and rebuilds through
//! [`crate::durability::recover`] under a bounded, scripted-clock-aware
//! backoff ([`RecoveryPolicy`]); readers keep serving the last published
//! epoch throughout — publication is the last thing recovery does, and
//! epochs stay monotone because the epoch counter lives in the writer,
//! not the engine. Only when every rung of the recovery ladder is
//! exhausted does the service park in `Failed`, still serving reads.

use crate::chunked::CoreMirror;
use crate::durability::{
    persist_index_snapshot, recover, DurabilityConfig, JournalSink, Recovered,
};
use crate::snapshot::{CoreSnapshot, SnapshotHandle, SnapshotReceiver};
use kcore_decomp::Parallelism;
use kcore_graph::{DynamicGraph, VertexId};
use kcore_maint::journal::{replay_batched, GraphEvent, Journaled};
use kcore_maint::{
    CoreMaintainer, OrderCore, PlannedCore, PlannerConfig, PlannerStats, RecomputeCore, UpdateStats,
};
use kcore_obs::{Counter, Gauge, Histogram, MetricsRegistry, SpanRecorder};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An engine the ingest writer can drive: any [`CoreMaintainer`] that
/// can cross the thread boundary, with optional core-change-tracking
/// and index-persistence hooks.
pub trait IngestEngine: CoreMaintainer + Send + 'static {
    /// Asks the engine to start recording which vertices change core
    /// number, to be drained via [`IngestEngine::drain_core_changes`].
    /// Returns `false` (the default) for engines without tracking —
    /// the writer then syncs its snapshot mirror by a chunk-granular
    /// compare instead of a change list.
    fn enable_core_change_tracking(&mut self) -> bool {
        false
    }

    /// Appends the vertices whose core changed since the last drain to
    /// `out` (duplicates allowed; the caller reads final values) and
    /// clears the record. `false` means "no tracked set — do a full
    /// sync" (tracking off, or the log was overwhelmed).
    fn drain_core_changes(&mut self, _out: &mut Vec<VertexId>) -> bool {
        false
    }

    /// Writes the engine's persistent index form, if it has one. The
    /// default reports unsupported — durability then requires an engine
    /// that overrides this (the planner-driven order engine does).
    fn persist_index(&mut self, _out: &mut dyn io::Write) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "engine has no persistent index form",
        ))
    }

    /// Replaces this engine's state with one rebuilt by
    /// [`crate::durability::recover`], keeping any wrapper-local
    /// configuration. Returns `false` (the default) for engines that
    /// cannot adopt a recovered [`PlannedCore`] — the supervisor then
    /// parks in [`ServiceHealth::Failed`] instead of self-healing.
    fn adopt_recovered(&mut self, _rec: Recovered) -> bool {
        false
    }

    /// The engine's planner decision counters and cost-model EWMAs, when
    /// it is planner-driven — exported as `planner_*` metrics by the
    /// writer after every flush. `None` (the default) exports nothing.
    fn planner_stats(&self) -> Option<&PlannerStats> {
        None
    }
}

impl IngestEngine for PlannedCore {
    fn enable_core_change_tracking(&mut self) -> bool {
        PlannedCore::enable_core_change_tracking(self);
        true
    }

    fn drain_core_changes(&mut self, out: &mut Vec<VertexId>) -> bool {
        PlannedCore::drain_core_changes(self, out)
    }

    fn persist_index(&mut self, out: &mut dyn io::Write) -> io::Result<()> {
        // `order()` refreshes the deferred k-order first: the persisted
        // form always round-trips through `OrderCore::load` validation.
        self.order().save(out)
    }

    fn adopt_recovered(&mut self, rec: Recovered) -> bool {
        // Recovery rebuilds the engine from journal + snapshot, which
        // know nothing about wrapper-local configuration — re-apply the
        // parallelism so a self-healed writer keeps its worker team.
        let par = self.parallelism();
        *self = rec.engine;
        self.set_parallelism(par);
        true
    }

    fn planner_stats(&self) -> Option<&PlannerStats> {
        Some(PlannedCore::planner_stats(self))
    }
}

impl IngestEngine for OrderCore {
    fn enable_core_change_tracking(&mut self) -> bool {
        OrderCore::enable_core_change_tracking(self);
        true
    }

    fn drain_core_changes(&mut self, out: &mut Vec<VertexId>) -> bool {
        OrderCore::drain_core_changes(self, out)
    }

    fn persist_index(&mut self, out: &mut dyn io::Write) -> io::Result<()> {
        self.save(out)
    }
}

/// The oracle instantiation (decompose-per-batch); no change tracking —
/// the writer exercises the chunk-compare fallback — and durability is
/// unsupported.
impl IngestEngine for RecomputeCore {}

impl IngestEngine for crate::faults::FlakyEngine {
    fn enable_core_change_tracking(&mut self) -> bool {
        // Tracking would observe the poisoned half-batch; the mirror's
        // chunk-compare fallback is the robust path for a flaky engine.
        false
    }

    fn persist_index(&mut self, out: &mut dyn io::Write) -> io::Result<()> {
        self.persist_inner(out)
    }

    fn adopt_recovered(&mut self, rec: Recovered) -> bool {
        self.replace_inner(rec.engine);
        true
    }
}

/// Submission failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// The bounded queue is at capacity (backpressure): retry, shed, or
    /// switch to the blocking [`IngestService::submit`].
    QueueFull,
    /// The writer thread is gone (shut down, aborted, or panicked).
    Closed,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::QueueFull => write!(f, "ingest queue full"),
            IngestError::Closed => write!(f, "ingest service closed"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Which clock drives interval flushes (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Real time: the writer parks in `recv_timeout` until the flush
    /// deadline of the oldest buffered event.
    #[default]
    Wall,
    /// Time advances only via [`IngestService::tick`] messages;
    /// deterministic on any host.
    Scripted,
}

/// The writer's health state machine, exported through
/// [`IngestService::health`]. Transitions:
/// `Healthy → Degraded` on contained I/O trouble (failed journal ship
/// or fsync, failed checkpoint) and after a recovery;
/// `Degraded → Healthy` after [`RecoveryPolicy::healthy_after`] clean
/// flushes; `→ Recovering` on an engine panic (readers keep serving the
/// last published epoch); `Recovering → Degraded` when `recover()`
/// succeeds; `→ Failed` when retries are exhausted — the writer then
/// drops events but keeps serving reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum ServiceHealth {
    /// Everything applied, shipped, and persisted cleanly.
    #[default]
    Healthy = 0,
    /// Serving and applying, but some durability work is outstanding or
    /// state was recently rebuilt; clears after clean flushes.
    Degraded = 1,
    /// The engine is down; the supervisor is rebuilding it through
    /// `recover()` under backoff. Events are buffered (bounded), reads
    /// serve the last published epoch.
    Recovering = 2,
    /// Recovery exhausted or unsupported: events are dropped, reads
    /// still serve the last published epoch.
    Failed = 3,
}

impl ServiceHealth {
    fn from_u8(v: u8) -> ServiceHealth {
        match v {
            0 => ServiceHealth::Healthy,
            1 => ServiceHealth::Degraded,
            2 => ServiceHealth::Recovering,
            _ => ServiceHealth::Failed,
        }
    }
}

impl std::fmt::Display for ServiceHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceHealth::Healthy => write!(f, "healthy"),
            ServiceHealth::Degraded => write!(f, "degraded"),
            ServiceHealth::Recovering => write!(f, "recovering"),
            ServiceHealth::Failed => write!(f, "failed"),
        }
    }
}

/// How the supervisor retries [`crate::durability::recover`] after an
/// engine panic, and when a degraded service is considered healthy
/// again. Backoff delays are writer-clock nanoseconds: scripted ticks
/// drive them deterministically in tests, wall time in production.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// `recover()` attempts per incident before parking in
    /// [`ServiceHealth::Failed`]. Also bounds consecutive failed
    /// journal-ship rounds.
    pub max_attempts: u32,
    /// Delay before the 2nd attempt (the 1st is immediate).
    pub backoff_base_ns: u64,
    /// Multiplier between consecutive attempt delays.
    pub backoff_factor: u32,
    /// Seed for the rebuilt index.
    pub seed: u64,
    /// Micro-batch size for the recovery replay.
    pub replay_batch: usize,
    /// Clean flushes before `Degraded` clears back to `Healthy`.
    pub healthy_after: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 3,
            backoff_base_ns: 1_000_000, // 1 ms
            backoff_factor: 2,
            seed: 0xC0DE,
            replay_batch: 256,
            healthy_after: 2,
        }
    }
}

/// Observability wiring for a service instance (see `kcore-obs`).
///
/// Enabled by default: the cost is a handful of relaxed atomics and a
/// few span records per *flush* (never per event) — the bench's
/// `--max-obs-overhead-ratio` gate holds it under 5% on the churn
/// workload. Disable for A/B overhead measurements.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Register metrics and record flush-stage spans.
    pub enabled: bool,
    /// Span-ring capacity in spans (a flush records one span per
    /// pipeline stage, currently 6).
    pub span_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            span_capacity: 256,
        }
    }
}

impl ObsConfig {
    /// Metrics and tracing fully off (for overhead A/B runs).
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            ..ObsConfig::default()
        }
    }

    /// Sets the retained-span ring capacity.
    pub fn with_span_capacity(mut self, cap: usize) -> Self {
        self.span_capacity = cap;
        self
    }
}

/// Service tunables.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Bounded-queue capacity — the backpressure depth.
    pub queue_capacity: usize,
    /// Flush when this many events are buffered.
    pub max_batch: usize,
    /// Flush when the oldest buffered event is this old (`u64::MAX`
    /// disables interval flushes: size, explicit flush, shutdown only).
    pub flush_interval_ns: u64,
    /// Publish a snapshot every this many flushes (`1` = every batch;
    /// explicit [`IngestService::flush`] always publishes).
    pub publish_every_batches: usize,
    /// Interval-flush time source.
    pub clock: ClockMode,
    /// Journal/snapshot persistence; `None` runs in-memory only.
    pub durability: Option<DurabilityConfig>,
    /// Planner configuration for engines spawned by the convenience
    /// constructors ([`IngestService::spawn_planned`] and the recovery
    /// path).
    pub planner: PlannerConfig,
    /// Maintenance parallelism for engines spawned by the convenience
    /// constructors: component passes run on the shared worker team and
    /// the planner prices the parallel strategies. `None` keeps the
    /// writer strictly serial (the default).
    pub parallelism: Option<Parallelism>,
    /// Self-healing: rebuild a panicked engine through `recover()`
    /// (requires durability). `None` still catches the panic — the
    /// writer parks in [`ServiceHealth::Failed`] and keeps serving
    /// reads instead of dying.
    pub recovery: Option<RecoveryPolicy>,
    /// Observability wiring: metrics registry + flush-stage span tracer
    /// ([`IngestService::metrics`] / [`IngestService::spans`]).
    pub obs: ObsConfig,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            queue_capacity: 1024,
            max_batch: 256,
            flush_interval_ns: 5_000_000, // 5 ms
            publish_every_batches: 1,
            clock: ClockMode::Wall,
            durability: None,
            planner: PlannerConfig::default(),
            parallelism: None,
            recovery: None,
            obs: ObsConfig::default(),
        }
    }
}

impl IngestConfig {
    /// Scripted-clock config with interval flushes disabled by default —
    /// the deterministic test shape (size/tick/flush-driven only).
    pub fn scripted() -> Self {
        IngestConfig {
            clock: ClockMode::Scripted,
            flush_interval_ns: u64::MAX,
            ..IngestConfig::default()
        }
    }

    /// Sets the micro-batch size cap.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the bounded-queue capacity.
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap.max(1);
        self
    }

    /// Sets the flush interval in nanoseconds.
    pub fn flush_interval_ns(mut self, ns: u64) -> Self {
        self.flush_interval_ns = ns;
        self
    }

    /// Attaches durability.
    pub fn durable(mut self, d: DurabilityConfig) -> Self {
        self.durability = Some(d);
        self
    }

    /// Enables supervised self-healing under `policy`.
    pub fn self_healing(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Enables thread-parallel maintenance in spawned engines.
    pub fn parallel(mut self, par: Parallelism) -> Self {
        self.parallelism = Some(par);
        self
    }

    /// Sets the observability wiring (metrics registry + span tracer).
    pub fn observe(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }
}

/// Bounded exponential backoff for [`IngestService::submit_with_retry`].
#[derive(Debug, Clone, Copy)]
pub struct RetryBudget {
    /// Retries after the initial attempt (total tries = `attempts + 1`).
    pub attempts: u32,
    /// Delay before the first retry, nanoseconds.
    pub base_delay_ns: u64,
    /// Multiplier between consecutive delays.
    pub factor: u32,
    /// Per-wait ceiling, nanoseconds.
    pub max_delay_ns: u64,
}

impl Default for RetryBudget {
    fn default() -> Self {
        RetryBudget {
            attempts: 8,
            base_delay_ns: 100_000, // 100 µs
            factor: 2,
            max_delay_ns: 10_000_000, // 10 ms
        }
    }
}

/// What the writer hands back at shutdown.
#[derive(Debug, Default, Clone)]
pub struct IngestReport {
    /// Events the writer received.
    pub events: u64,
    /// Micro-batches flushed.
    pub batches: u64,
    /// Aggregate engine stats over every flush.
    pub update_stats: UpdateStats,
    /// Snapshots published.
    pub epochs_published: u64,
    /// Journal entries shipped to the sink.
    pub entries_shipped: u64,
    /// Index snapshots persisted.
    pub snapshots_persisted: u64,
    /// Per-flush apply+ship duration, writer-clock ns (the bench's p50 /
    /// p99 batch-latency source; scripted clocks make these synthetic).
    /// A bounded log-bucketed histogram — O(1) memory however long the
    /// run, with p50/p99 exact to one bucket (≤ 12.5%).
    pub batch_apply: Histogram,
    /// Per-flush snapshot-maintenance cost (mirror sync + publication),
    /// **wall**-clock ns even under a scripted clock — metrics do not
    /// affect determinism. Same histogram shape as `batch_apply`. This
    /// is the publish-cost gate's sample source: O(changed), not O(n).
    pub publish: Histogram,
    /// Chunks copy-on-written into the snapshot mirror, totalled over
    /// every flush (the "publish cost is proportional to the diff"
    /// witness; compare against `mirror_chunks` × flushes).
    pub chunks_copied: u64,
    /// Chunks backing the mirror at shutdown.
    pub mirror_chunks: u64,
    /// Mirror syncs served from the engine's tracked change set
    /// (`O(changed)`).
    pub tracked_drains: u64,
    /// Mirror syncs that fell back to the chunk-compare path (`O(n)`
    /// compare, still `O(changed)` copy).
    pub full_syncs: u64,
    /// Engine panics caught by the supervisor.
    pub engine_panics: u64,
    /// Successful `recover()` rebuilds after an engine panic.
    pub recoveries: u64,
    /// `recover()` attempts that failed and were retried under backoff.
    pub recovery_retries: u64,
    /// Incidents that exhausted recovery and parked the writer in
    /// [`ServiceHealth::Failed`].
    pub recovery_failures: u64,
    /// Journal ship rounds (append or fsync) that failed and were
    /// retried on later flushes.
    pub journal_ship_failures: u64,
    /// Index-snapshot persists that failed (non-fatal: the journal
    /// still carries everything, recovery just replays more).
    pub checkpoint_failures: u64,
    /// Events lost to an engine panic or dropped while
    /// `Recovering`/`Failed`.
    pub events_lost: u64,
    /// Health at shutdown.
    pub final_health: ServiceHealth,
}

/// While `Recovering`, buffered events are capped at this multiple of
/// `max(queue_capacity, max_batch)`; overflow is dropped and counted in
/// [`IngestReport::events_lost`].
const RECOVERING_BUFFER_FACTOR: usize = 4;

enum Msg {
    Event(GraphEvent),
    Tick(u64),
    Flush(mpsc::Sender<Arc<CoreSnapshot>>),
    Subscribe(mpsc::Sender<Arc<CoreSnapshot>>),
    Pause(mpsc::Sender<()>, mpsc::Receiver<()>),
    Shutdown { graceful: bool },
}

/// Handle to a running ingest service. Cheap operations
/// ([`IngestService::try_submit`], [`IngestService::snapshots`]) are
/// `&self`; lifecycle operations consume the handle. Dropping the handle
/// shuts the writer down gracefully (flushing pending events and taking
/// a final persisted snapshot when durability is on).
pub struct IngestService<M: IngestEngine = PlannedCore> {
    tx: SyncSender<Msg>,
    snapshots: SnapshotHandle,
    health: Arc<AtomicU8>,
    metrics: Option<MetricsRegistry>,
    spans: Option<SpanRecorder>,
    writer: Option<JoinHandle<(IngestReport, Journaled<M>)>>,
}

impl IngestService<PlannedCore> {
    /// Spawns the default planner-driven service over `graph`.
    pub fn spawn_planned(graph: DynamicGraph, seed: u64, cfg: IngestConfig) -> io::Result<Self> {
        let mut engine = PlannedCore::with_config(graph, seed, cfg.planner.clone());
        engine.set_parallelism(cfg.parallelism);
        Self::spawn_with_engine(engine, 0, cfg)
    }

    /// Resumes a recovered service: the engine continues from the
    /// restored state and journaling continues at the recovered seq, so
    /// the (re-opened, append-only) journal stays gap-free.
    pub fn spawn_recovered(rec: Recovered, cfg: IngestConfig) -> io::Result<Self> {
        Self::spawn_with_engine(rec.engine, rec.next_seq, cfg)
    }
}

impl<M: IngestEngine> IngestService<M> {
    /// Spawns the writer thread over an arbitrary engine. `start_seq` is
    /// the journal sequence to resume at (0 for a fresh stream).
    pub fn spawn_with_engine(mut engine: M, start_seq: u64, cfg: IngestConfig) -> io::Result<Self> {
        // Open the sink on the caller's thread so setup errors surface
        // synchronously instead of poisoning the writer.
        let sink = match &cfg.durability {
            Some(d) => {
                let sink = JournalSink::open(
                    &d.journal_path,
                    engine.graph_ref().num_vertices(),
                    d.fsync,
                    &d.storage,
                )?;
                // Seqs appended by this service continue at `start_seq`;
                // the file must hold exactly that many records or the
                // gap-free invariant breaks. The dangerous misuse this
                // rejects: a *fresh* spawn (start_seq 0) over a
                // directory that already holds a journal — appending
                // restarted seqs would make every later recovery read
                // the old run's prefix and silently truncate the new
                // run's records as a "torn tail". Resume with
                // `recover()` + `spawn_recovered`, or point durability
                // at a fresh directory.
                if sink.existing() != start_seq {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "journal already holds {} events but the service would resume at seq \
                             {start_seq}; recover() + spawn_recovered to continue this journal, \
                             or use a fresh durability directory",
                            sink.existing()
                        ),
                    ));
                }
                Some(sink)
            }
            None => None,
        };
        if let Some(d) = &cfg.durability {
            // Checkpoint zero: the journal only records *events*, so a
            // service spawned over a non-empty base graph must persist
            // the base state once — otherwise a crash before the first
            // periodic snapshot would lose the base edges irrecoverably.
            // Also the point where a non-persistable engine fails fast.
            if !d.snapshot_path.exists() {
                let mut payload = Vec::new();
                engine.persist_index(&mut payload)?;
                persist_index_snapshot(d, start_seq, &payload)?;
            }
        }
        // Core-change tracking feeds the copy-on-write snapshot mirror
        // in O(changed); engines without it (the recompute oracle) fall
        // back to a chunk-compare sync per flush.
        let tracking = engine.enable_core_change_tracking();
        let mirror = CoreMirror::from_slice(engine.core_slice());
        let journaled = Journaled::with_start_seq(engine, start_seq);
        let (tx, rx) = mpsc::sync_channel(cfg.queue_capacity.max(1));
        let health = Arc::new(AtomicU8::new(ServiceHealth::Healthy as u8));
        let report = IngestReport::default();
        let obs = cfg.obs.enabled.then(|| WriterObs::new(&cfg.obs, &report));
        let (registry, spans) = match &obs {
            Some(o) => (Some(o.registry.clone()), Some(o.spans.clone())),
            None => (None, None),
        };
        let writer = Writer {
            engine: journaled,
            cfg,
            sink,
            pending: Vec::new(),
            batch_open_ns: None,
            now_ns: 0,
            origin: Instant::now(),
            epoch: 0,
            ops: start_seq,
            published_ops: start_seq,
            ship_cursor: start_seq,
            batches_since_persist: 0,
            subscribers: Vec::new(),
            mirror,
            tracking,
            change_buf: Vec::new(),
            health: health.clone(),
            unshipped: Vec::new(),
            ship_failures: 0,
            sync_pending: false,
            recovery_attempts: 0,
            recovery_due_ns: 0,
            degraded_flushes_left: 0,
            obs,
            report,
        };
        let snapshots = SnapshotHandle::new(writer.compose_snapshot());
        let handle = snapshots.clone();
        let thread = std::thread::Builder::new()
            .name("kcore-ingest-writer".into())
            .spawn(move || writer.run(rx, handle))
            .expect("spawn ingest writer");
        Ok(IngestService {
            tx,
            snapshots,
            health,
            metrics: registry,
            spans,
            writer: Some(thread),
        })
    }

    /// The service's metrics registry (`None` when observability is
    /// disabled). Snapshots are live and never block the writer:
    /// `svc.metrics().unwrap().snapshot()` from any thread.
    pub fn metrics(&self) -> Option<MetricsRegistry> {
        self.metrics.clone()
    }

    /// The writer's flush-stage span ring (`None` when observability is
    /// disabled). Under a scripted clock the retained spans are
    /// bit-identical run over run.
    pub fn spans(&self) -> Option<SpanRecorder> {
        self.spans.clone()
    }

    /// Non-blocking submission: `QueueFull` is the backpressure signal.
    pub fn try_submit(&self, event: GraphEvent) -> Result<(), IngestError> {
        match self.tx.try_send(Msg::Event(event)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(IngestError::QueueFull),
            Err(TrySendError::Disconnected(_)) => Err(IngestError::Closed),
        }
    }

    /// Blocking submission: waits for queue space (the natural producer
    /// throttle when the writer is the bottleneck).
    pub fn submit(&self, event: GraphEvent) -> Result<(), IngestError> {
        self.tx
            .send(Msg::Event(event))
            .map_err(|_| IngestError::Closed)
    }

    /// Blocking submission of a whole stream, in order.
    pub fn submit_all<I: IntoIterator<Item = GraphEvent>>(
        &self,
        events: I,
    ) -> Result<usize, IngestError> {
        let mut sent = 0;
        for e in events {
            self.submit(e)?;
            sent += 1;
        }
        Ok(sent)
    }

    /// Bounded-backoff submission: retries [`IngestError::QueueFull`]
    /// up to `budget.attempts` times with exponential delays (real
    /// `thread::sleep`s — see [`IngestService::submit_with_retry_by`]
    /// for the injectable-wait form the scripted tests use). Returns
    /// the number of retries spent.
    pub fn submit_with_retry(
        &self,
        event: GraphEvent,
        budget: RetryBudget,
    ) -> Result<u32, IngestError> {
        self.submit_with_retry_by(event, budget, |ns| {
            std::thread::sleep(Duration::from_nanos(ns))
        })
    }

    /// [`IngestService::submit_with_retry`] with the wait injected:
    /// `wait(delay_ns)` is called before each retry. Tests pass a
    /// recording closure (and release backpressure from inside it), so
    /// the backoff schedule is asserted without a single wall-clock
    /// sleep.
    pub fn submit_with_retry_by(
        &self,
        event: GraphEvent,
        budget: RetryBudget,
        mut wait: impl FnMut(u64),
    ) -> Result<u32, IngestError> {
        let mut delay = budget.base_delay_ns.min(budget.max_delay_ns);
        for retry in 0..=budget.attempts {
            match self.try_submit(event) {
                Ok(()) => return Ok(retry),
                Err(IngestError::QueueFull) if retry < budget.attempts => {
                    wait(delay);
                    delay = delay
                        .saturating_mul(budget.factor.max(1) as u64)
                        .min(budget.max_delay_ns);
                }
                Err(e) => return Err(e),
            }
        }
        Err(IngestError::QueueFull)
    }

    /// Advances the scripted clock (monotone ns). In wall mode ticks are
    /// accepted but ignored for deadlines (real time governs).
    pub fn tick(&self, now_ns: u64) -> Result<(), IngestError> {
        self.tx
            .send(Msg::Tick(now_ns))
            .map_err(|_| IngestError::Closed)
    }

    /// Flush barrier: forces the pending micro-batch through, publishes,
    /// and returns the resulting snapshot (which covers every event
    /// submitted before this call). While `Recovering`/`Failed` the
    /// barrier still acks — with the last published epoch — so callers
    /// cannot deadlock on a down writer.
    pub fn flush(&self) -> Result<Arc<CoreSnapshot>, IngestError> {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.tx
            .send(Msg::Flush(ack_tx))
            .map_err(|_| IngestError::Closed)?;
        ack_rx.recv().map_err(|_| IngestError::Closed)
    }

    /// The snapshot slot readers load from (clone per reader thread).
    pub fn snapshots(&self) -> SnapshotHandle {
        self.snapshots.clone()
    }

    /// The writer's current health. Reads are lock-free; the state is
    /// advisory (it can advance the instant after you read it).
    pub fn health(&self) -> ServiceHealth {
        ServiceHealth::from_u8(self.health.load(Ordering::Acquire))
    }

    /// Subscribes to every future snapshot publication (unbounded
    /// buffering on the subscriber side — a test and audit hook, not a
    /// flow-controlled consumer API).
    pub fn subscribe(&self) -> Result<SnapshotReceiver, IngestError> {
        let (tx, rx) = mpsc::channel();
        self.tx
            .send(Msg::Subscribe(tx))
            .map_err(|_| IngestError::Closed)?;
        Ok(rx)
    }

    /// Parks the writer until the returned guard drops — deterministic
    /// backpressure in tests (park, fill the queue, observe `QueueFull`)
    /// and a maintenance hatch (quiesce without tearing down). Returns
    /// once the writer is actually parked.
    pub fn pause(&self) -> Result<IngestPause, IngestError> {
        let (ack_tx, ack_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        self.tx
            .send(Msg::Pause(ack_tx, release_rx))
            .map_err(|_| IngestError::Closed)?;
        ack_rx.recv().map_err(|_| IngestError::Closed)?;
        Ok(IngestPause {
            _release: release_tx,
        })
    }

    /// Graceful shutdown: drains the queue, flushes the pending batch,
    /// persists a final index snapshot (durability on), and returns the
    /// report plus the engine for inspection.
    pub fn shutdown(mut self) -> (IngestReport, M) {
        let _ = self.tx.send(Msg::Shutdown { graceful: true });
        let (report, journaled) = self
            .writer
            .take()
            .expect("writer already joined")
            .join()
            .expect("ingest writer panicked");
        (report, journaled.into_inner())
    }

    /// Unclean teardown: the writer stops at the next message without
    /// flushing the pending batch and without a final persist — the
    /// crash-simulation hook the recovery tests lean on. Events already
    /// shipped to the journal survive; buffered ones are lost, exactly
    /// like a kill would lose them.
    pub fn abort(mut self) {
        let _ = self.tx.send(Msg::Shutdown { graceful: false });
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
    }
}

impl<M: IngestEngine> Drop for IngestService<M> {
    fn drop(&mut self) {
        if let Some(h) = self.writer.take() {
            let _ = self.tx.send(Msg::Shutdown { graceful: true });
            let _ = h.join();
        }
    }
}

/// RAII guard from [`IngestService::pause`]; dropping it resumes the
/// writer.
pub struct IngestPause {
    _release: mpsc::Sender<()>,
}

/// Planner metric handles plus the last exported counter values —
/// [`PlannerStats`] counters are cumulative, so the writer exports
/// deltas to keep the registry's counters true monotone counters.
struct PlannerObs {
    batched: Counter,
    split: Counter,
    par_split: Counter,
    recompute: Counter,
    par_recompute: Counter,
    late_recompute: Counter,
    rebuilds: Counter,
    ewma: [Gauge; 7],
    last: [usize; 7],
}

impl PlannerObs {
    fn new(reg: &MetricsRegistry) -> Self {
        PlannerObs {
            batched: reg.counter("planner_batched_total"),
            split: reg.counter("planner_split_total"),
            par_split: reg.counter("planner_par_split_total"),
            recompute: reg.counter("planner_recompute_total"),
            par_recompute: reg.counter("planner_par_recompute_total"),
            late_recompute: reg.counter("planner_late_recompute_total"),
            rebuilds: reg.counter("planner_rebuilds_total"),
            ewma: [
                reg.gauge("planner_ewma_batched_insert_ns_per_edge"),
                reg.gauge("planner_ewma_batched_remove_ns_per_edge"),
                reg.gauge("planner_ewma_recompute_ns_per_unit"),
                reg.gauge("planner_ewma_par_pass_ns_per_edge"),
                reg.gauge("planner_ewma_par_recompute_ns_per_unit"),
                reg.gauge("planner_ewma_pass_ns_per_seed"),
                reg.gauge("planner_ewma_rebuild_ns_per_unit"),
            ],
            last: [0; 7],
        }
    }

    fn observe(&mut self, s: &PlannerStats) {
        let now = [
            s.batched_chosen,
            s.split_chosen,
            s.par_split_chosen,
            s.recompute_chosen,
            s.par_recompute_chosen,
            s.late_recompute,
            s.rebuilds,
        ];
        let counters = [
            &self.batched,
            &self.split,
            &self.par_split,
            &self.recompute,
            &self.par_recompute,
            &self.late_recompute,
            &self.rebuilds,
        ];
        for ((c, &n), last) in counters.iter().zip(&now).zip(&mut self.last) {
            c.add(n.saturating_sub(*last) as u64);
            *last = n;
        }
        let ewma = [
            s.batched_insert_ns_per_edge,
            s.batched_remove_ns_per_edge,
            s.recompute_ns_per_unit,
            s.par_pass_ns_per_edge,
            s.par_recompute_ns_per_unit,
            s.pass_ns_per_seed,
            s.rebuild_ns_per_unit,
        ];
        for (g, v) in self.ewma.iter().zip(ewma) {
            g.set(v);
        }
    }
}

/// The writer's cached metric handles — registered once at spawn so the
/// flush path never touches the registry lock.
struct WriterObs {
    registry: MetricsRegistry,
    spans: SpanRecorder,
    events: Counter,
    batches: Counter,
    epochs: Counter,
    shipped: Counter,
    events_lost: Counter,
    engine_panics: Counter,
    recoveries: Counter,
    recovery_retries: Counter,
    recovery_failures: Counter,
    rung_primary: Counter,
    rung_truncated_tail: Counter,
    rung_older_generation: Counter,
    rung_snapshot_only: Counter,
    rung_genesis_replay: Counter,
    recovery_ns: Histogram,
    health: Gauge,
    stage_dequeue: Histogram,
    stage_apply: Histogram,
    stage_core_drain: Histogram,
    stage_journal_ship: Histogram,
    stage_mirror_sync: Histogram,
    stage_publish: Histogram,
    planner: PlannerObs,
    team_jobs: Gauge,
    team_tasks: Gauge,
    team_workers: Gauge,
    team_busy: Gauge,
}

impl WriterObs {
    /// Registers every writer metric and shares the report's latency
    /// histograms into the registry (same cells — recorded once, read
    /// live from any thread).
    fn new(cfg: &ObsConfig, report: &IngestReport) -> Self {
        let reg = MetricsRegistry::new();
        reg.register_histogram("ingest_batch_apply_ns", &report.batch_apply);
        reg.register_histogram("ingest_publish_ns", &report.publish);
        WriterObs {
            events: reg.counter("ingest_events_total"),
            batches: reg.counter("ingest_batches_total"),
            epochs: reg.counter("ingest_epochs_published_total"),
            shipped: reg.counter("ingest_entries_shipped_total"),
            events_lost: reg.counter("ingest_events_lost_total"),
            engine_panics: reg.counter("ingest_engine_panics_total"),
            recoveries: reg.counter("ingest_recoveries_total"),
            recovery_retries: reg.counter("ingest_recovery_retries_total"),
            recovery_failures: reg.counter("ingest_recovery_failures_total"),
            rung_primary: reg.counter("ingest_recovery_rung_primary_total"),
            rung_truncated_tail: reg.counter("ingest_recovery_rung_truncated_tail_total"),
            rung_older_generation: reg.counter("ingest_recovery_rung_older_generation_total"),
            rung_snapshot_only: reg.counter("ingest_recovery_rung_snapshot_only_total"),
            rung_genesis_replay: reg.counter("ingest_recovery_rung_genesis_replay_total"),
            recovery_ns: reg.histogram("ingest_recovery_ns"),
            health: reg.gauge("ingest_health"),
            stage_dequeue: reg.histogram("ingest_flush_dequeue_ns"),
            stage_apply: reg.histogram("ingest_flush_apply_ns"),
            stage_core_drain: reg.histogram("ingest_flush_core_drain_ns"),
            stage_journal_ship: reg.histogram("ingest_flush_journal_ship_ns"),
            stage_mirror_sync: reg.histogram("ingest_flush_mirror_sync_ns"),
            stage_publish: reg.histogram("ingest_flush_publish_ns"),
            planner: PlannerObs::new(&reg),
            team_jobs: reg.gauge("team_jobs"),
            team_tasks: reg.gauge("team_tasks"),
            team_workers: reg.gauge("team_workers_spawned"),
            team_busy: reg.gauge("team_busy"),
            spans: SpanRecorder::with_capacity(cfg.span_capacity),
            registry: reg,
        }
    }

    fn rung_counter(&self, rung_metric: &str) -> &Counter {
        match rung_metric {
            "primary" => &self.rung_primary,
            "truncated_tail" => &self.rung_truncated_tail,
            "older_generation" => &self.rung_older_generation,
            "snapshot_only" => &self.rung_snapshot_only,
            _ => &self.rung_genesis_replay,
        }
    }
}

/// Stage breakdown returned by [`Writer::sync_mirror`], feeding the
/// `core_drain` and `mirror_sync` spans of the flush trace.
struct MirrorSync {
    drain_start: u64,
    drain_end: u64,
    drained: u64,
    copied: u64,
}

struct Writer<M: IngestEngine> {
    engine: Journaled<M>,
    cfg: IngestConfig,
    sink: Option<JournalSink>,
    pending: Vec<GraphEvent>,
    /// Writer-clock time the current batch opened (first buffered event).
    batch_open_ns: Option<u64>,
    /// Scripted-clock value (scripted mode only).
    now_ns: u64,
    origin: Instant,
    epoch: u64,
    /// Events applied so far (prefix length; journal seqs `0..ops`).
    ops: u64,
    /// `ops` at the last publication (avoid republishing identical state).
    published_ops: u64,
    ship_cursor: u64,
    batches_since_persist: usize,
    subscribers: Vec<mpsc::Sender<Arc<CoreSnapshot>>>,
    /// Copy-on-write mirror of the engine's cores + incremental
    /// histogram — what snapshots are composed from, in O(changed).
    mirror: CoreMirror,
    /// Whether the engine records core changes for us.
    tracking: bool,
    /// Reused drain buffer (no steady-state allocation per flush).
    change_buf: Vec<VertexId>,
    /// Shared with [`IngestService::health`].
    health: Arc<AtomicU8>,
    /// Journal entries whose append failed — retried on later flushes
    /// (the engine applied them; only the ship is outstanding).
    unshipped: Vec<kcore_maint::journal::JournalEntry>,
    /// Consecutive failed ship rounds (append or fsync); escalates to
    /// `Failed` at the recovery policy's `max_attempts`.
    ship_failures: u32,
    /// Journal data appended but its configured fsync still owed.
    sync_pending: bool,
    /// `recover()` attempts in the current incident.
    recovery_attempts: u32,
    /// Writer-clock time the next recovery attempt is due.
    recovery_due_ns: u64,
    /// Clean flushes left before `Degraded` clears to `Healthy`.
    degraded_flushes_left: u32,
    /// Cached metric handles + span ring (None = observability off).
    obs: Option<WriterObs>,
    report: IngestReport,
}

impl<M: IngestEngine> Writer<M> {
    fn now(&self) -> u64 {
        match self.cfg.clock {
            ClockMode::Wall => self.origin.elapsed().as_nanos() as u64,
            ClockMode::Scripted => self.now_ns,
        }
    }

    fn health(&self) -> ServiceHealth {
        ServiceHealth::from_u8(self.health.load(Ordering::Acquire))
    }

    fn set_health(&self, h: ServiceHealth) {
        self.health.store(h as u8, Ordering::Release);
        if let Some(o) = &self.obs {
            o.health.set(h as u8 as f64);
        }
    }

    /// Counts events dropped (panic, recovering-buffer overflow,
    /// `Failed`, or unflushed at teardown) in both the report and the
    /// registry.
    fn lose_events(&mut self, n: u64) {
        self.report.events_lost += n;
        if let Some(o) = &self.obs {
            o.events_lost.add(n);
        }
    }

    /// Exports the engine-side observables that live outside the writer:
    /// planner decision counters + EWMA gauges, and the process-wide
    /// worker-team occupancy gauges. Called once per flush.
    fn export_engine_obs(&mut self) {
        let Some(o) = self.obs.as_mut() else {
            return;
        };
        if let Some(ps) = self.engine.engine().planner_stats() {
            o.planner.observe(ps);
        }
        let ts = kcore_decomp::team::stats();
        o.team_jobs.set(ts.jobs as f64);
        o.team_tasks.set(ts.tasks as f64);
        o.team_workers.set(ts.workers_spawned as f64);
        o.team_busy.set(if ts.busy { 1.0 } else { 0.0 });
    }

    /// `Healthy → Degraded` (never downgrades `Recovering`/`Failed`).
    fn degrade(&mut self) {
        if self.health() == ServiceHealth::Healthy {
            self.set_health(ServiceHealth::Degraded);
            self.degraded_flushes_left = self.healthy_after();
        }
    }

    fn healthy_after(&self) -> u32 {
        self.cfg
            .recovery
            .as_ref()
            .map(|p| p.healthy_after)
            .unwrap_or(2)
            .max(1)
    }

    fn max_io_retries(&self) -> u32 {
        self.cfg
            .recovery
            .as_ref()
            .map(|p| p.max_attempts)
            .unwrap_or(3)
            .max(1)
    }

    /// Cuts a snapshot from the mirror: O(chunks) `Arc` clones for the
    /// cores plus the O(levels) histogram — never an O(n) copy.
    fn compose_snapshot(&self) -> CoreSnapshot {
        let engine = self.engine.engine();
        CoreSnapshot {
            epoch: self.epoch,
            ops: self.ops,
            num_vertices: engine.graph_ref().num_vertices(),
            num_edges: engine.graph_ref().num_edges(),
            cores: self.mirror.snapshot_cores(),
            histogram: self.mirror.histogram(),
            degeneracy: self.mirror.degeneracy(),
            published_at_ns: self.now(),
        }
    }

    /// Brings the mirror up to date with the engine after a flush —
    /// `O(changed)` via the drained change set when tracking is on, or
    /// the chunk-compare fallback (O(n) compare, O(changed) copy, and
    /// untouched chunks keep their snapshot-shared allocation). Returns
    /// the stage breakdown for the flush trace.
    fn sync_mirror(&mut self) -> MirrorSync {
        let n = self.engine.engine().graph_ref().num_vertices();
        if n > self.mirror.len() {
            self.mirror.grow(n);
        }
        let drain_start = self.now();
        let mut buf = std::mem::take(&mut self.change_buf);
        buf.clear();
        let tracked = self.tracking && self.engine.engine_mut().drain_core_changes(&mut buf);
        let drain_end = self.now();
        let drained = buf.len() as u64;
        let mut copied = 0u64;
        if tracked {
            self.report.tracked_drains += 1;
            let engine = self.engine.engine_mut();
            let cores = engine.core_slice();
            for &v in &buf {
                if self.mirror.apply(v, cores[v as usize]) {
                    copied += 1;
                }
            }
        } else {
            self.report.full_syncs += 1;
            let (_, c) = self.mirror.sync_full(self.engine.engine().core_slice());
            copied += c as u64;
        }
        self.change_buf = buf;
        self.report.chunks_copied += copied;
        debug_assert!(
            self.mirror.snapshot_cores().to_vec() == self.engine.engine().core_slice(),
            "mirror diverged from the engine"
        );
        MirrorSync {
            drain_start,
            drain_end,
            drained,
            copied,
        }
    }

    fn publish(&mut self, handle: &SnapshotHandle) {
        self.epoch += 1;
        let snap = Arc::new(self.compose_snapshot());
        handle.publish(snap.clone());
        self.subscribers.retain(|s| s.send(snap.clone()).is_ok());
        self.published_ops = self.ops;
        self.report.epochs_published += 1;
        if let Some(o) = &self.obs {
            o.epochs.inc();
        }
    }

    /// Ships everything owed to the journal: queued-from-failure entries
    /// first, then a configured-but-failed fsync. Returns whether the
    /// journal is fully caught up. Failures degrade (entries stay
    /// queued) and escalate to `Failed` after `max_attempts` consecutive
    /// bad rounds — the engine state is fine, but accepting new events
    /// against a journal that stopped growing would turn the next crash
    /// into silent data loss.
    fn ship_owed(&mut self) -> bool {
        let Some(sink) = &mut self.sink else {
            // In-memory mode: entries are dropped by design.
            self.report.entries_shipped += self.unshipped.len() as u64;
            if let Some(o) = &self.obs {
                o.shipped.add(self.unshipped.len() as u64);
            }
            self.unshipped.clear();
            self.sync_pending = false;
            return true;
        };
        if !self.unshipped.is_empty() {
            match sink.append(&self.unshipped) {
                Ok(()) => {
                    self.report.entries_shipped += self.unshipped.len() as u64;
                    if let Some(o) = &self.obs {
                        o.shipped.add(self.unshipped.len() as u64);
                    }
                    self.unshipped.clear();
                    self.sync_pending = false;
                }
                Err(_) => {
                    self.report.journal_ship_failures += 1;
                    self.ship_failures += 1;
                    if self.ship_failures >= self.max_io_retries() {
                        self.set_health(ServiceHealth::Failed);
                    } else {
                        self.degrade();
                    }
                    return false;
                }
            }
        }
        if self.sync_pending {
            match sink.sync() {
                Ok(()) => self.sync_pending = false,
                Err(_) => {
                    self.report.journal_ship_failures += 1;
                    self.ship_failures += 1;
                    if self.ship_failures >= self.max_io_retries() {
                        self.set_health(ServiceHealth::Failed);
                    } else {
                        self.degrade();
                    }
                    return false;
                }
            }
        }
        self.ship_failures = 0;
        true
    }

    /// The engine panicked mid-batch: contain it. The batch (applied or
    /// not, it never reached the journal) is lost; the supervisor either
    /// schedules a `recover()` rebuild or parks in `Failed`.
    fn on_engine_panic(&mut self, lost: u64) {
        self.report.engine_panics += 1;
        if let Some(o) = &self.obs {
            o.engine_panics.inc();
        }
        self.lose_events(lost);
        // Entries recorded against the poisoned engine must never ship.
        let _ = self.engine.drain();
        if self.cfg.recovery.is_some() && self.cfg.durability.is_some() {
            self.set_health(ServiceHealth::Recovering);
            self.recovery_attempts = 0;
            self.recovery_due_ns = self.now(); // first attempt immediate
        } else {
            self.set_health(ServiceHealth::Failed);
        }
    }

    /// One supervised `recover()` attempt. On success the rebuilt engine
    /// is adopted, the recorder/cursors/mirror re-based, the sink
    /// re-opened over the repaired journal, and a fresh (monotone) epoch
    /// published; the service comes back `Degraded` until clean flushes
    /// clear it. On failure the next attempt is scheduled under
    /// exponential backoff until the policy's budget is spent.
    fn try_recover(&mut self, handle: &SnapshotHandle) {
        let (Some(pol), Some(d)) = (self.cfg.recovery.clone(), self.cfg.durability.clone()) else {
            self.set_health(ServiceHealth::Failed);
            return;
        };
        self.recovery_attempts += 1;
        match recover(&d, pol.seed, self.cfg.planner.clone(), pol.replay_batch) {
            Ok(rec) => {
                let next = rec.next_seq;
                let rung = rec.report.rung_metric();
                let recovery_elapsed = rec.report.elapsed_ns;
                if !self.engine.engine_mut().adopt_recovered(rec) {
                    self.report.recovery_failures += 1;
                    if let Some(o) = &self.obs {
                        o.recovery_failures.inc();
                    }
                    self.set_health(ServiceHealth::Failed);
                    return;
                }
                self.engine.resync(next);
                self.ops = next;
                self.ship_cursor = next;
                self.unshipped.clear();
                self.sync_pending = false;
                self.ship_failures = 0;
                self.batches_since_persist = 0;
                // The journal was repaired by recover(); a fresh sink
                // must agree with the recovered seq or something is
                // still wrong on disk.
                let n = self.engine.engine().graph_ref().num_vertices();
                match JournalSink::open(&d.journal_path, n, d.fsync, &d.storage) {
                    Ok(sink) if sink.existing() == next => self.sink = Some(sink),
                    _ => {
                        self.report.recovery_failures += 1;
                        if let Some(o) = &self.obs {
                            o.recovery_failures.inc();
                        }
                        self.set_health(ServiceHealth::Failed);
                        return;
                    }
                }
                // Re-arm tracking and the mirror on the rebuilt engine.
                self.tracking = self.engine.engine_mut().enable_core_change_tracking();
                self.change_buf.clear();
                let _ = self
                    .engine
                    .engine_mut()
                    .drain_core_changes(&mut self.change_buf);
                self.change_buf.clear();
                if n > self.mirror.len() {
                    self.mirror.grow(n);
                }
                let (_, copied) = self.mirror.sync_full(self.engine.engine().core_slice());
                self.report.chunks_copied += copied as u64;
                self.report.full_syncs += 1;
                self.publish(handle);
                self.report.recoveries += 1;
                if let Some(o) = &self.obs {
                    o.recoveries.inc();
                    o.rung_counter(rung).inc();
                    o.recovery_ns.record(recovery_elapsed);
                }
                self.degraded_flushes_left = pol.healthy_after.max(1);
                self.set_health(ServiceHealth::Degraded);
            }
            Err(_) if self.recovery_attempts < pol.max_attempts => {
                self.report.recovery_retries += 1;
                if let Some(o) = &self.obs {
                    o.recovery_retries.inc();
                }
                let delay = pol.backoff_base_ns.saturating_mul(
                    (pol.backoff_factor.max(1) as u64)
                        .saturating_pow(self.recovery_attempts.saturating_sub(1)),
                );
                self.recovery_due_ns = self.now().saturating_add(delay.max(1));
            }
            Err(_) => {
                self.report.recovery_failures += 1;
                if let Some(o) = &self.obs {
                    o.recovery_failures.inc();
                }
                self.set_health(ServiceHealth::Failed);
            }
        }
    }

    /// Applies the pending micro-batch under `catch_unwind`, ships the
    /// journal tail, and publishes per the cadence. The engine's batch
    /// entry points see maximal same-kind runs (a micro-batch is at most
    /// `max_batch` events, so `replay_batched` groups each run into one
    /// call).
    fn flush(&mut self, handle: &SnapshotHandle) {
        match self.health() {
            ServiceHealth::Recovering | ServiceHealth::Failed => return,
            _ => {}
        }
        // Journal debt from earlier failed rounds goes first: entries
        // must land in seq order, and escalation to `Failed` must stop
        // new batches from widening the gap.
        if !self.ship_owed() {
            return;
        }
        if self.pending.is_empty() {
            return;
        }
        // Flush number doubles as the trace id: every stage span of this
        // flush carries it, so the trace can be reassembled from the ring.
        let trace = self.report.batches + 1;
        let open_ns = self.batch_open_ns.take().unwrap_or_else(|| self.now());
        let t0 = self.now();
        let batch_len = self.pending.len() as u64;
        let applied = catch_unwind(AssertUnwindSafe(|| {
            replay_batched(
                &mut self.engine,
                self.pending.drain(..),
                self.cfg.max_batch.max(1),
            )
        }));
        let stats = match applied {
            Ok(stats) => stats,
            Err(_) => {
                self.on_engine_panic(batch_len);
                return;
            }
        };
        self.ops = self.engine.next_seq();
        self.report.update_stats.absorb(stats);
        self.report.batches += 1;
        let apply_end = self.now();
        let apply_ns = apply_end.saturating_sub(t0);
        self.report.batch_apply.record(apply_ns);

        // Ship the journal tail (incremental cursor: each entry exactly
        // once). Without a sink the entries are dropped — the recorder
        // is still what assigns seqs, so `ops` stays exact. A failed
        // append keeps the entries queued for the next round instead of
        // killing the writer.
        let mut tail = self.engine.drain_since(self.ship_cursor);
        let tail_len = tail.len() as u64;
        self.ship_cursor = self.engine.next_seq();
        self.unshipped.append(&mut tail);
        if self.sink.is_some() && self.cfg.durability.as_ref().is_some_and(|d| d.fsync) {
            self.sync_pending = true;
        }
        let shipped = self.ship_owed();
        let ship_end = self.now();

        // Snapshot maintenance: sync the mirror every flush (the change
        // log must be drained even on non-publishing batches) and
        // publish per the cadence. Timed on the wall clock even in
        // scripted mode — publish cost is a real-machine metric, and
        // reading `Instant` does not perturb scripted determinism.
        let p0 = Instant::now();
        let sync = self.sync_mirror();
        let sync_end = self.now();
        let ops_at_last_publish = self.published_ops;
        let published = self
            .report
            .batches
            .is_multiple_of(self.cfg.publish_every_batches.max(1) as u64);
        if published {
            self.publish(handle);
        }
        let publish_ns = p0.elapsed().as_nanos() as u64;
        self.report.publish.record(publish_ns);

        if let Some(o) = &self.obs {
            o.batches.inc();
            let pub_end = self.now();
            let published_items = if published {
                self.ops.saturating_sub(ops_at_last_publish)
            } else {
                0
            };
            // Stage breakdown, recorded in pipeline order: queue wait,
            // engine apply, core-change drain, journal append/ship,
            // mirror sync, COW publish. Spans carry writer-clock
            // timestamps, so a scripted run yields a bit-exact trace.
            let stages = [
                ("dequeue", open_ns, t0.saturating_sub(open_ns), batch_len),
                ("apply", t0, apply_ns, batch_len),
                (
                    "core_drain",
                    sync.drain_start,
                    sync.drain_end.saturating_sub(sync.drain_start),
                    sync.drained,
                ),
                (
                    "journal_ship",
                    apply_end,
                    ship_end.saturating_sub(apply_end),
                    tail_len,
                ),
                (
                    "mirror_sync",
                    sync.drain_end,
                    sync_end.saturating_sub(sync.drain_end),
                    sync.copied,
                ),
                (
                    "publish",
                    sync_end,
                    pub_end.saturating_sub(sync_end),
                    published_items,
                ),
            ];
            let hists = [
                &o.stage_dequeue,
                &o.stage_apply,
                &o.stage_core_drain,
                &o.stage_journal_ship,
                &o.stage_mirror_sync,
                &o.stage_publish,
            ];
            for (hist, &(stage, start, dur, items)) in hists.iter().zip(&stages) {
                hist.record(dur);
                o.spans.record(trace, stage, start, dur, items);
            }
        }
        self.export_engine_obs();
        self.batches_since_persist += 1;
        if let Some(d) = &self.cfg.durability {
            if d.snapshot_every_batches > 0
                && self.batches_since_persist >= d.snapshot_every_batches
            {
                self.persist();
            }
        }
        // A fully clean flush works a degraded service back to healthy.
        if shipped && self.health() == ServiceHealth::Degraded {
            self.degraded_flushes_left = self.degraded_flushes_left.saturating_sub(1);
            if self.degraded_flushes_left == 0 {
                self.set_health(ServiceHealth::Healthy);
            }
        }
    }

    /// Persists the index snapshot into the rotation. Failures are
    /// contained: the journal still carries every event, so a missed
    /// checkpoint only makes a future recovery replay more — the
    /// service degrades instead of dying.
    fn persist(&mut self) {
        let Some(d) = self.cfg.durability.clone() else {
            return;
        };
        let ops = self.ops;
        let mut payload: Vec<u8> = Vec::new();
        let result = self
            .engine
            .engine_mut()
            .persist_index(&mut payload)
            .and_then(|_| persist_index_snapshot(&d, ops, &payload));
        self.batches_since_persist = 0;
        match result {
            Ok(()) => self.report.snapshots_persisted += 1,
            Err(_) => {
                self.report.checkpoint_failures += 1;
                self.degrade();
            }
        }
    }

    fn deadline(&self) -> Option<u64> {
        match (self.batch_open_ns, self.cfg.flush_interval_ns) {
            (Some(open), interval) if interval != u64::MAX => Some(open.saturating_add(interval)),
            _ => None,
        }
    }

    fn recovering_buffer_cap(&self) -> usize {
        self.cfg.queue_capacity.max(self.cfg.max_batch).max(1) * RECOVERING_BUFFER_FACTOR
    }

    fn run(mut self, rx: Receiver<Msg>, handle: SnapshotHandle) -> (IngestReport, Journaled<M>) {
        loop {
            // Deadline-driven work first: a due recovery attempt, or an
            // interval flush of the oldest buffered event.
            if self.health() == ServiceHealth::Recovering {
                if self.now() >= self.recovery_due_ns {
                    self.try_recover(&handle);
                    if self.health() != ServiceHealth::Recovering
                        && self.pending.len() >= self.cfg.max_batch.max(1)
                    {
                        // Events buffered through the outage flush as
                        // soon as the engine is back.
                        self.flush(&handle);
                    }
                }
            } else if let Some(deadline) = self.deadline() {
                if self.now() >= deadline {
                    self.flush(&handle);
                }
            }
            // Wall mode parks until the nearest deadline (flush interval
            // or recovery backoff); scripted mode blocks indefinitely
            // (time only moves via Tick messages).
            let wake = if self.health() == ServiceHealth::Recovering {
                Some(self.recovery_due_ns)
            } else {
                self.deadline()
            };
            let msg = match (self.cfg.clock, wake) {
                (ClockMode::Wall, Some(deadline)) => {
                    let now = self.now();
                    let wait = Duration::from_nanos(deadline.saturating_sub(now).max(1));
                    match rx.recv_timeout(wait) {
                        Ok(m) => m,
                        Err(mpsc::RecvTimeoutError::Timeout) => continue,
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                }
                _ => match rx.recv() {
                    Ok(m) => m,
                    Err(_) => break, // all handles gone: graceful drain
                },
            };
            match msg {
                Msg::Event(e) => {
                    self.report.events += 1;
                    if let Some(o) = &self.obs {
                        o.events.inc();
                    }
                    match self.health() {
                        ServiceHealth::Failed => {
                            self.lose_events(1);
                        }
                        ServiceHealth::Recovering => {
                            // Buffer through the outage (bounded).
                            if self.pending.len() >= self.recovering_buffer_cap() {
                                self.lose_events(1);
                            } else {
                                if self.pending.is_empty() {
                                    self.batch_open_ns = Some(self.now());
                                }
                                self.pending.push(e);
                            }
                        }
                        _ => {
                            if self.pending.is_empty() {
                                self.batch_open_ns = Some(self.now());
                            }
                            self.pending.push(e);
                            if self.pending.len() >= self.cfg.max_batch.max(1) {
                                self.flush(&handle);
                            }
                        }
                    }
                }
                Msg::Tick(t) => {
                    // Deadlines (flush interval, recovery backoff) are
                    // re-checked at the top of the loop.
                    self.now_ns = self.now_ns.max(t);
                }
                Msg::Flush(ack) => {
                    if self.health() == ServiceHealth::Recovering
                        && self.now() >= self.recovery_due_ns
                    {
                        self.try_recover(&handle);
                    }
                    self.flush(&handle);
                    if self.published_ops != self.ops {
                        self.publish(&handle);
                    }
                    let _ = ack.send(handle.load());
                }
                Msg::Subscribe(tx) => self.subscribers.push(tx),
                Msg::Pause(ack, release) => {
                    let _ = ack.send(());
                    // Parked until the guard drops (sender disconnect).
                    let _ = release.recv();
                }
                Msg::Shutdown { graceful } => {
                    if !graceful {
                        // Crash simulation: pending events and the final
                        // persist are lost, shipped journal survives.
                        self.report.mirror_chunks = self.mirror.num_chunks() as u64;
                        self.report.final_health = self.health();
                        return (self.report, self.engine);
                    }
                    break;
                }
            }
        }
        // Graceful exit: one last recovery attempt if one was in flight
        // (ignoring backoff — there is no later), then flush what's
        // buffered, publish the final state, persist a last snapshot
        // when durability is on. A `Failed` writer skips the flush and
        // persist: its engine state is not trustworthy, and a checkpoint
        // of it would poison the recovery ladder's newest rung.
        if self.health() == ServiceHealth::Recovering {
            self.try_recover(&handle);
        }
        match self.health() {
            ServiceHealth::Recovering | ServiceHealth::Failed => {
                let lost = self.pending.len() as u64;
                self.lose_events(lost);
                self.pending.clear();
                self.set_health(ServiceHealth::Failed);
            }
            _ => {
                self.flush(&handle);
                if self.published_ops != self.ops {
                    self.publish(&handle);
                }
                if self.cfg.durability.is_some()
                    && !matches!(
                        self.health(),
                        ServiceHealth::Recovering | ServiceHealth::Failed
                    )
                {
                    self.persist();
                }
            }
        }
        self.report.mirror_chunks = self.mirror.num_chunks() as u64;
        self.report.final_health = self.health();
        (self.report, self.engine)
    }
}
