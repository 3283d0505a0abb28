//! The ingest service: a single-writer, multi-reader streaming loop.
//!
//! One dedicated **writer thread** owns the maintenance engine, the
//! planner-driven order-based [`PlannedCore`], and is fed
//! [`GraphEvent`]s through a **bounded** MPSC channel — the bound is
//! the backpressure contract: [`IngestService::try_submit`] reports
//! [`IngestError::QueueFull`] instead of buffering unboundedly,
//! [`IngestService::submit`] blocks the producer until the writer
//! drains. A **micro-batcher** buffers events and, under the wall
//! clock, flushes when the batch reaches its size cap or the queue runs
//! dry ("smart batching", as in group commit), so the batch size follows
//! the backlog: a lone event is applied and published at once, and a
//! backlog goes through in `max_batch`-event batches. Under the
//! scripted clock the cap and a tick past the flush interval decide
//! instead. A flush that cannot make progress (journal debt that did
//! not ship, a writer that is `Recovering` or `Failed`) is not retried
//! until the next message or the recovery deadline. Each flush applies
//! the batch through the engine's
//! planner-driven batch path (via [`replay_batched`], so mixed
//! insert/remove runs group correctly), appends the batch's events to
//! the durability journal at seqs `ops..ops + len`, and publishes a
//! fresh epoch-versioned [`CoreSnapshot`] — readers never observe a
//! half-applied batch (see [`SnapshotHandle`] for what a load and a
//! publish can wait on).
//!
//! Index checkpoints are split in two: the writer serialises the index
//! (the only step that reads engine state) into a buffer it keeps across
//! checkpoints, and a thread spawned for that checkpoint frames it (the
//! snapshot header and CRC, filled in place) and writes it through the
//! [`crate::persist_index_snapshot`] write path, then hands the buffer
//! back. At most one write is in flight; the writer joins it before the
//! next checkpoint, at every [`IngestService::flush`] barrier, before
//! `recover()`, and at shutdown or abort, and only then counts the
//! outcome. The first one,
//! checkpoint zero, persists the base state of a durable directory that
//! has no snapshot or no journal yet. The writer serialises it before it
//! reads its first message, so the spawn itself does no storage writes.
//! Checkpoint zero holds the journal: when none exists, its thread
//! creates it after the snapshot's directory fsync, and the writer's
//! first ship joins it first. If it fails, the writer goes
//! [`ServiceHealth::Failed`], because without a durable base no event
//! can be made durable.
//!
//! ## Clocks and determinism
//!
//! Production uses [`ClockMode::Wall`]. Tests use
//! [`ClockMode::Scripted`], where time advances **only** through
//! [`IngestService::tick`] messages travelling the same channel as
//! events: the writer's behaviour becomes a pure function of the message
//! sequence, so flush boundaries, epochs, and journal contents are
//! bit-reproducible on any host — including this repo's 1-CPU CI
//! container — with no sleeps and no wall-clock reads. (A closure the
//! writer polled would race with event arrival, so the scripted clock
//! serialises time itself into the event stream.)
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
//! The fault suite scripts such panics with
//! [`crate::faults::FaultPlan::panic_at_flush`].

use crate::chunked::CoreMirror;
use crate::durability::{
    persist_framed_snapshot, recover, DurabilityConfig, JournalSink, Recovered, SNAP_HEADER_BYTES,
};
use crate::snapshot::{CoreSnapshot, SnapshotHandle, SnapshotReceiver};
use kcore_graph::{DynamicGraph, VertexId};
use kcore_maint::journal::{replay_batched, GraphEvent, JournalEntry};
use kcore_maint::{PlannedCore, PlannerConfig, UpdateStats};
use kcore_obs::{Counter, Gauge, Histogram, MetricsRegistry, SpanRecorder};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// The writer's clock, which also picks the batching rule (see the
/// module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Real time: the writer flushes whenever its queue runs dry or the
    /// batch fills.
    #[default]
    Wall,
    /// Time advances only via [`IngestService::tick`] messages, which
    /// drive interval flushes; deterministic on any host.
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
    /// Decodes the `ingest_health` gauge, the one record of the state.
    fn from_gauge(g: &Gauge) -> ServiceHealth {
        match g.get() as u8 {
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
    /// Clean flushes before `Degraded` clears back to `Healthy`.
    pub healthy_after: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 3,
            backoff_base_ns: 1_000_000, // 1 ms
            backoff_factor: 2,
            healthy_after: 2,
        }
    }
}

/// Service tunables. The writer runs every engine update, passes and
/// recomputes alike, on its own thread; no option adds threads.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Bounded-queue capacity — the backpressure depth.
    pub queue_capacity: usize,
    /// Flush when this many events are buffered; also the micro-batch
    /// size of a self-healing `recover()` replay.
    pub max_batch: usize,
    /// Scripted clock only: flush when a tick finds the oldest buffered
    /// event this old (`u64::MAX` disables interval flushes: size,
    /// explicit flush, shutdown only). The wall clock ignores it and
    /// flushes when the queue runs dry (see [`ClockMode::Wall`]).
    pub flush_interval_ns: u64,
    /// Time source and batching rule.
    pub clock: ClockMode,
    /// Journal/snapshot persistence; `None` runs in-memory only.
    pub durability: Option<DurabilityConfig>,
    /// Planner configuration of the writer's engine: the one
    /// [`IngestService::spawn_planned`] builds and the ones the writer's
    /// self-healing `recover()` rebuilds. [`IngestService::spawn_recovered`]
    /// keeps the configuration its `recover()` call was given.
    pub planner: PlannerConfig,
    /// Self-healing: rebuild a panicked engine through `recover()`
    /// (requires durability). `None` still catches the panic — the
    /// writer parks in [`ServiceHealth::Failed`] and keeps serving
    /// reads instead of dying.
    pub recovery: Option<RecoveryPolicy>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            queue_capacity: 1024,
            max_batch: 256,
            flush_interval_ns: 5_000_000, // 5 ms, scripted clock only
            clock: ClockMode::Wall,
            durability: None,
            planner: PlannerConfig::default(),
            recovery: None,
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

    /// Sets the scripted-clock flush interval in nanoseconds.
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

/// What the writer hands back at shutdown, read from its metrics
/// registry ([`IngestService::metrics`]): counter field `x` is
/// `ingest_x_total`, [`UpdateStats`] field `y` is `engine_y_total`.
/// `mirror_chunks` and `final_health` are read from writer state.
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
    /// Index snapshots persisted, checkpoint zero included (counted when
    /// the background write is joined).
    pub snapshots_persisted: u64,
    /// Per-flush engine apply duration, writer-clock ns (synthetic under
    /// a scripted clock): the registry's `ingest_flush_apply_ns`. A
    /// bounded log-bucketed histogram — O(1) memory however long the
    /// run, with p50/p99 exact to one bucket (≤ 12.5%).
    pub batch_apply: Histogram,
    /// [`crate::CHUNK`]-core blocks written into snapshot buffers,
    /// totalled over every publish (the "publish cost is proportional to
    /// the diff" witness; compare against `mirror_chunks` × epochs).
    pub chunks_copied: u64,
    /// [`crate::CHUNK`]-core blocks per snapshot buffer.
    pub mirror_chunks: u64,
    /// Mirror syncs served from the engine's tracked change set
    /// (`O(changed)`): one per applied flush.
    pub tracked_drains: u64,
    /// Mirror resyncs by full compare: one per successful recovery,
    /// against the rebuilt engine.
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
    /// still carries everything, recovery just replays more). A
    /// background write's failure is counted when it is joined.
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
pub struct IngestService {
    tx: SyncSender<Msg>,
    snapshots: SnapshotHandle,
    /// The writer's `ingest_health` gauge.
    health: Gauge,
    metrics: MetricsRegistry,
    spans: SpanRecorder,
    writer: Option<JoinHandle<(IngestReport, PlannedCore)>>,
}

impl IngestService {
    /// Spawns the default planner-driven service over `graph`.
    ///
    /// # Errors
    ///
    /// With durability on, only the synchronous checks fail the spawn:
    /// reading an existing journal (an I/O error, a bad header, a vertex
    /// count other than `graph`'s, or any events in it — a fresh stream
    /// starts at seq 0) and checking whether a snapshot exists.
    /// Checkpoint zero is written after the spawn returns; its failure
    /// leaves the writer [`ServiceHealth::Failed`] once the first ship or
    /// [`IngestService::flush`] barrier joins it.
    pub fn spawn_planned(graph: DynamicGraph, seed: u64, cfg: IngestConfig) -> io::Result<Self> {
        let engine = PlannedCore::with_config(graph, seed, cfg.planner.clone());
        Self::spawn_with_engine(engine, 0, cfg)
    }

    /// Resumes a recovered service: the engine continues from the
    /// restored state and journaling continues at the recovered seq
    /// ([`crate::RecoveryReport::durable_ops`]), so the (re-opened,
    /// append-only) journal stays gap-free.
    ///
    /// # Errors
    ///
    /// As [`IngestService::spawn_planned`], except that an existing
    /// journal must hold exactly `durable_ops` events. Checkpoint zero,
    /// due when recovery left no snapshot, is again the writer's.
    pub fn spawn_recovered(rec: Recovered, cfg: IngestConfig) -> io::Result<Self> {
        Self::spawn_with_engine(rec.engine, rec.report.durable_ops, cfg)
    }

    /// Spawns the writer thread over `engine`. `start_seq` is the journal
    /// sequence to resume at (0 for a fresh stream).
    fn spawn_with_engine(
        mut engine: PlannedCore,
        start_seq: u64,
        cfg: IngestConfig,
    ) -> io::Result<Self> {
        // The synchronous checks run on the caller's thread, so a
        // directory the service cannot resume fails the spawn instead of
        // poisoning the writer: an existing journal must hold exactly
        // `start_seq` events, and the snapshot check must succeed.
        let n = engine.graph().num_vertices();
        let (sink, checkpoint_zero) = match &cfg.durability {
            None => (None, None),
            Some(d) => {
                let sink = open_sink(d, n, start_seq)?;
                let snapshot = d.storage.with(|io| io.exists(&d.snapshot_path))?;
                // Checkpoint zero: the journal only records *events*, so
                // the base state must be durable before the first event
                // is — otherwise a crash would replay the journal onto
                // the empty universe and lose the base edges. The writer
                // takes it as its first checkpoint and holds the journal
                // until it has joined; it is due when no snapshot exists,
                // or when no journal does (an older run's snapshot cannot
                // be the base of a journal it never saw).
                match sink {
                    Some(sink) if snapshot => (Some(sink), None),
                    Some(sink) => (None, Some(JournalHandoff::Opened(sink))),
                    None => (None, Some(JournalHandoff::Create)),
                }
            }
        };
        // Core-change tracking feeds the snapshot mirror in O(changed).
        engine.enable_core_change_tracking();
        let mirror = CoreMirror::from_slice(engine.cores());
        // The fault suite's scripted engine panics; real storage scripts
        // none.
        let panic_flushes = cfg
            .durability
            .as_ref()
            .map_or_else(Vec::new, |d| d.storage.engine_panics().to_vec());
        let (tx, rx) = mpsc::sync_channel(cfg.queue_capacity.max(1));
        let obs = WriterObs::new();
        let (metrics, spans, health) =
            (obs.registry.clone(), obs.spans.clone(), obs.health.clone());
        let mut writer = Writer {
            engine,
            cfg,
            sink,
            pending: Vec::new(),
            batch_open_ns: None,
            now_ns: 0,
            origin: Instant::now(),
            epoch: 0,
            ops: start_seq,
            published_ops: start_seq,
            events_since_persist: 0,
            checkpoint: None,
            checkpoint_buf: Vec::new(),
            subscribers: Vec::new(),
            mirror,
            change_buf: Vec::new(),
            unshipped: Vec::new(),
            ship_failures: 0,
            sync_pending: false,
            recovery_attempts: 0,
            recovery_due_ns: 0,
            degraded_flushes_left: 0,
            flushes: 0,
            panic_flushes,
            obs,
        };
        let snapshots = SnapshotHandle::new(writer.compose_snapshot());
        let handle = snapshots.clone();
        let thread = std::thread::Builder::new()
            .name("kcore-ingest-writer".into())
            .spawn(move || writer.run(rx, handle, checkpoint_zero))
            .expect("spawn ingest writer");
        Ok(IngestService {
            tx,
            snapshots,
            health,
            metrics,
            spans,
            writer: Some(thread),
        })
    }

    /// The service's metrics registry, the writer's only ledger (always
    /// `Some`). Snapshots are live and never block the writer:
    /// `svc.metrics().unwrap().snapshot()` from any thread.
    pub fn metrics(&self) -> Option<MetricsRegistry> {
        Some(self.metrics.clone())
    }

    /// The writer's flush-stage span ring. Under a scripted clock the
    /// retained spans are bit-identical run over run.
    pub fn spans(&self) -> SpanRecorder {
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

    /// The writer's current health, read from its `ingest_health`
    /// gauge. Reads are lock-free; the state is advisory (it can advance
    /// the instant after you read it). A read after a [`Self::flush`]
    /// barrier sees every transition the barrier's flush made.
    pub fn health(&self) -> ServiceHealth {
        ServiceHealth::from_gauge(&self.health)
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
    pub fn shutdown(mut self) -> (IngestReport, PlannedCore) {
        let _ = self.tx.send(Msg::Shutdown { graceful: true });
        self.writer
            .take()
            .expect("writer already joined")
            .join()
            .expect("ingest writer panicked")
    }

    /// Unclean teardown: the writer stops at the next message without
    /// flushing the pending batch and without a final persist — the
    /// crash-simulation hook the recovery tests lean on. Events already
    /// shipped to the journal survive; buffered ones are lost, exactly
    /// like a kill would lose them. A checkpoint write already in flight
    /// is joined, so no writer thread outlives the call.
    pub fn abort(mut self) {
        let _ = self.tx.send(Msg::Shutdown { graceful: false });
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
    }
}

impl Drop for IngestService {
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

/// Opens `d`'s existing journal for append over an `n`-vertex universe
/// (`None` when there is none; checkpoint zero creates it) and checks
/// that it holds exactly `start_seq` events: the writer's appends
/// continue at `start_seq`, so any other count would break the journal's
/// gap-free invariant. The dangerous misuse this rejects is a *fresh*
/// spawn (seq 0) over a directory that already holds a journal:
/// appending restarted seqs would make every later recovery read the old
/// run's prefix and silently truncate the new run's records as a "torn
/// tail". Resume with `recover()` + `spawn_recovered`, or point
/// durability at a fresh directory.
fn open_sink(d: &DurabilityConfig, n: usize, start_seq: u64) -> io::Result<Option<JournalSink>> {
    let Some(sink) = JournalSink::open_existing(&d.journal_path, n, d.fsync, &d.storage)? else {
        return Ok(None);
    };
    if sink.existing() != start_seq {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "journal already holds {} events but the service would resume at seq \
                 {start_seq}; recover() + spawn_recovered to continue this journal, or use a \
                 fresh durability directory",
                sink.existing()
            ),
        ));
    }
    Ok(Some(sink))
}

/// Engine metric handles plus the last exported counter values — the
/// [`kcore_maint::PlannerStats`] counters and the k-order's relabel
/// count are cumulative, so the writer exports deltas to keep the
/// registry's counters true monotone counters.
struct EngineObs {
    counters: [Counter; 4],
    last: [u64; 4],
}

impl EngineObs {
    fn new(reg: &MetricsRegistry) -> Self {
        // No strategy adds to these three; they always read 0. They stay
        // registered because perfbench's `drive.rs` is their only reader
        // and panics on a missing counter. Drop them once that reader
        // goes (ROADMAP item 1).
        for name in [
            "planner_split_total",
            "planner_par_split_total",
            "planner_par_recompute_total",
        ] {
            reg.counter(name);
        }
        EngineObs {
            counters: [
                reg.counter("planner_batched_total"),
                reg.counter("planner_recompute_total"),
                reg.counter("planner_rebuilds_total"),
                reg.counter("engine_korder_relabels_total"),
            ],
            last: [0; 4],
        }
    }

    fn observe(&mut self, engine: &PlannedCore) {
        let s = engine.planner_stats();
        let now = [
            s.batched_chosen as u64,
            s.recompute_chosen as u64,
            s.rebuilds as u64,
            engine.korder_relabels(),
        ];
        for ((c, &n), last) in self.counters.iter().zip(&now).zip(&mut self.last) {
            c.add(n.saturating_sub(*last));
            *last = n;
        }
    }
}

/// The flush pipeline's stages, in order: each has a span in the flush
/// trace and a histogram `ingest_flush_{stage}_ns`.
const FLUSH_STAGES: [&str; 6] = [
    "batch_wait",
    "apply",
    "core_drain",
    "journal_ship",
    "mirror_sync",
    "publish",
];

/// The `apply` stage, whose histogram is [`IngestReport::batch_apply`].
const APPLY_STAGE: usize = 1;

/// Spans the writer's span ring retains (a flush records one per stage).
const SPAN_CAPACITY: usize = 256;

/// Recovery-ladder rungs as [`crate::RecoveryReport::rung_metric`] names
/// them; each has a counter `ingest_recovery_rung_{rung}_total`.
const RECOVERY_RUNGS: [&str; 5] = [
    "primary",
    "truncated_tail",
    "older_generation",
    "snapshot_only",
    "genesis_replay",
];

/// The writer's metric handles — registered once at spawn so the flush
/// path never touches the registry lock. The registry is the writer's
/// only counter store: [`Writer::report`] reads [`IngestReport`] from it.
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
    snapshots_persisted: Counter,
    checkpoint_failures: Counter,
    journal_ship_failures: Counter,
    chunks_copied: Counter,
    buffers_unpooled: Counter,
    tracked_drains: Counter,
    full_syncs: Counter,
    /// `engine_{field}_total` per [`UpdateStats`] field (the paper's |V+|
    /// and |V*|, Lemma 5.2 no-ops, passes and seeds), added per flush.
    update: [Counter; 7],
    /// In [`RECOVERY_RUNGS`] order.
    rungs: [Counter; 5],
    recovery_ns: Histogram,
    health: Gauge,
    /// In [`FLUSH_STAGES`] order.
    stages: [Histogram; 6],
    checkpoint_serialize: Histogram,
    checkpoint_write: Histogram,
    engine: EngineObs,
}

impl WriterObs {
    fn new() -> Self {
        let reg = MetricsRegistry::new();
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
            snapshots_persisted: reg.counter("ingest_snapshots_persisted_total"),
            checkpoint_failures: reg.counter("ingest_checkpoint_failures_total"),
            journal_ship_failures: reg.counter("ingest_journal_ship_failures_total"),
            chunks_copied: reg.counter("ingest_chunks_copied_total"),
            buffers_unpooled: reg.counter("ingest_buffers_unpooled_total"),
            tracked_drains: reg.counter("ingest_tracked_drains_total"),
            full_syncs: reg.counter("ingest_full_syncs_total"),
            update: UpdateStats::FIELDS.map(|f| reg.counter(&format!("engine_{f}_total"))),
            rungs: RECOVERY_RUNGS.map(|r| reg.counter(&format!("ingest_recovery_rung_{r}_total"))),
            recovery_ns: reg.histogram("ingest_recovery_ns"),
            health: reg.gauge("ingest_health"),
            stages: FLUSH_STAGES.map(|st| reg.histogram(&format!("ingest_flush_{st}_ns"))),
            checkpoint_serialize: reg.histogram("ingest_checkpoint_serialize_ns"),
            checkpoint_write: reg.histogram("ingest_checkpoint_write_ns"),
            engine: EngineObs::new(&reg),
            spans: SpanRecorder::with_capacity(SPAN_CAPACITY),
            registry: reg,
        }
    }
}

/// Stage breakdown returned by [`Writer::sync_mirror`], feeding the
/// `core_drain` and `mirror_sync` spans of the flush trace.
struct MirrorSync {
    drain_start: u64,
    drain_end: u64,
    drained: u64,
    changed: u64,
}

/// A background checkpoint write: its result, its wall-clock duration in
/// ns, and the snapshot buffer it wrote, handed back for the next
/// checkpoint. The result carries checkpoint zero's journal (see
/// [`JournalHandoff`]); a periodic checkpoint's carries `None`.
type CheckpointWrite = JoinHandle<(io::Result<Option<JournalSink>>, u64, Vec<u8>)>;

/// What a checkpoint's job does with the journal once its snapshot is
/// durable. Checkpoint zero hands the writer its journal, so the writer
/// holds no sink, and ships nothing, until that checkpoint has joined.
enum JournalHandoff {
    /// A periodic checkpoint: the writer already holds the journal.
    Held,
    /// Checkpoint zero over the existing journal, opened at spawn.
    Opened(JournalSink),
    /// Checkpoint zero with no journal yet: the job creates it, based at
    /// the snapshot's `ops`, after the snapshot's directory fsync.
    Create,
}

struct Writer {
    engine: PlannedCore,
    cfg: IngestConfig,
    /// The journal: `None` in memory mode, and in durable mode until
    /// checkpoint zero has joined and handed it over.
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
    /// Events applied since the last checkpoint started.
    events_since_persist: u64,
    /// The checkpoint write in flight, if any (at most one).
    checkpoint: Option<CheckpointWrite>,
    /// The snapshot buffer, kept across checkpoints: `persist` serialises
    /// the index into it after room for the snapshot header, the
    /// checkpoint thread frames and writes it, and the join hands it back.
    checkpoint_buf: Vec<u8>,
    subscribers: Vec<mpsc::Sender<Arc<CoreSnapshot>>>,
    /// Mirror of the engine's cores + incremental histogram, and the
    /// pool of snapshot buffers it publishes.
    mirror: CoreMirror,
    /// Reused drain buffer (no steady-state allocation per flush).
    change_buf: Vec<VertexId>,
    /// Journal entries not yet appended (durable mode only): the last
    /// flush's batch, plus any whose append failed — retried on later
    /// flushes (the engine applied them; only the ship is outstanding).
    unshipped: Vec<JournalEntry>,
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
    /// Flushes applied so far (panicked ones excluded): the next flush's
    /// trace id is `flushes + 1`.
    flushes: u64,
    /// Flushes (0-based, panicked ones included) scripted to panic
    /// mid-batch by [`crate::faults::FaultPlan::panic_at_flush`]; empty
    /// outside the fault suite.
    panic_flushes: Vec<u64>,
    /// Metric handles + span ring: the writer's only counter store.
    obs: WriterObs,
}

impl Writer {
    fn now(&self) -> u64 {
        match self.cfg.clock {
            ClockMode::Wall => self.origin.elapsed().as_nanos() as u64,
            ClockMode::Scripted => self.now_ns,
        }
    }

    fn health(&self) -> ServiceHealth {
        ServiceHealth::from_gauge(&self.obs.health)
    }

    fn set_health(&self, h: ServiceHealth) {
        self.obs.health.set(h as u8 as f64);
    }

    /// Parks the writer in `Failed`. Events still buffered will never be
    /// applied, so they are counted lost now and dropped: a `Failed`
    /// writer holds no work and sleeps until the next message.
    fn fail(&mut self) {
        self.obs.events_lost.add(self.pending.len() as u64);
        self.pending.clear();
        self.batch_open_ns = None;
        self.set_health(ServiceHealth::Failed);
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

    /// Cuts a snapshot from the mirror: a recycled buffer brought up to
    /// date with the cores that changed since its last use, plus the
    /// O(levels) histogram.
    fn compose_snapshot(&mut self) -> CoreSnapshot {
        let graph = self.engine.graph();
        CoreSnapshot {
            epoch: self.epoch,
            ops: self.ops,
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            cores: self.mirror.snapshot_cores(),
            histogram: self.mirror.histogram(),
            degeneracy: self.mirror.degeneracy(),
            published_at_ns: self.now(),
        }
    }

    /// Brings the mirror up to date with the engine after a flush, in
    /// `O(changed)`: the engine's drained change set names every vertex
    /// whose core moved. Returns the stage breakdown for the flush trace.
    fn sync_mirror(&mut self) -> MirrorSync {
        let drain_start = self.now();
        let mut buf = std::mem::take(&mut self.change_buf);
        buf.clear();
        let tracked = self.engine.drain_core_changes(&mut buf);
        debug_assert!(
            tracked,
            "tracking is armed at spawn and after every recovery"
        );
        let drain_end = self.now();
        let drained = buf.len() as u64;
        let mut changed = 0u64;
        self.obs.tracked_drains.inc();
        let cores = self.engine.cores();
        for &v in &buf {
            changed += self.mirror.apply(v, cores[v as usize]) as u64;
        }
        self.change_buf = buf;
        debug_assert!(
            self.mirror.cores() == self.engine.cores(),
            "mirror diverged from the engine"
        );
        MirrorSync {
            drain_start,
            drain_end,
            drained,
            changed,
        }
    }

    fn publish(&mut self, handle: &SnapshotHandle) {
        self.epoch += 1;
        let snap = Arc::new(self.compose_snapshot());
        let cost = self.mirror.last_publish();
        self.obs.chunks_copied.add(cost.blocks_written);
        self.obs.buffers_unpooled.add(cost.unpooled as u64);
        handle.publish(snap.clone());
        self.subscribers.retain(|s| s.send(snap.clone()).is_ok());
        self.published_ops = self.ops;
        self.obs.epochs.inc();
    }

    /// Ships everything owed to the journal: queued-from-failure entries
    /// first, then a configured-but-failed fsync. Returns whether the
    /// journal is fully caught up. Failures degrade (entries stay
    /// queued) and escalate to `Failed` after `max_attempts` consecutive
    /// bad rounds — the engine state is fine, but accepting new events
    /// against a journal that stopped growing would turn the next crash
    /// into silent data loss.
    fn ship_owed(&mut self) -> bool {
        if self.cfg.durability.is_none() {
            // In-memory mode: nothing is ever owed.
            return true;
        }
        if self.sink.is_none() {
            // Checkpoint zero still holds the journal: no journal bytes
            // before a durable snapshot of their base.
            self.join_checkpoint();
        }
        let Some(sink) = &mut self.sink else {
            // Checkpoint zero failed, and the writer with it.
            return false;
        };
        let appended = self.unshipped.len() as u64;
        let mut result = Ok(());
        if appended > 0 {
            result = sink.append(&self.unshipped);
            if result.is_ok() {
                self.unshipped.clear();
                self.sync_pending = false;
            }
        } else if self.sync_pending {
            result = sink.sync();
            if result.is_ok() {
                self.sync_pending = false;
            }
        }
        if result.is_err() {
            self.obs.journal_ship_failures.inc();
            self.ship_failures += 1;
            if self.ship_failures >= self.max_io_retries() {
                self.fail();
            } else {
                self.degrade();
            }
            return false;
        }
        self.obs.shipped.add(appended);
        self.ship_failures = 0;
        true
    }

    /// The engine panicked mid-batch: contain it. The batch (applied or
    /// not, it never reached the journal) is lost; the supervisor either
    /// schedules a `recover()` rebuild or parks in `Failed`.
    fn on_engine_panic(&mut self, lost: u64) {
        self.obs.engine_panics.inc();
        self.obs.events_lost.add(lost);
        if self.cfg.recovery.is_some() && self.cfg.durability.is_some() {
            self.set_health(ServiceHealth::Recovering);
            self.recovery_attempts = 0;
            self.recovery_due_ns = self.now(); // first attempt immediate
        } else {
            self.fail();
        }
    }

    /// One supervised `recover()` attempt. On success the rebuilt engine
    /// is adopted, the seq/mirror re-based, the sink re-opened over the
    /// repaired journal, and a fresh (monotone) epoch published; the
    /// service comes back `Degraded` until clean flushes clear it. On
    /// failure the next attempt is scheduled under exponential backoff
    /// until the policy's budget is spent.
    fn try_recover(&mut self, handle: &SnapshotHandle) {
        let (Some(pol), Some(d)) = (self.cfg.recovery.clone(), self.cfg.durability.clone()) else {
            self.fail();
            return;
        };
        // recover() reads the snapshot rotation a checkpoint write may
        // still be renaming.
        self.join_checkpoint();
        self.recovery_attempts += 1;
        let seed = self.engine.seed();
        match recover(&d, seed, self.cfg.planner.clone(), self.cfg.max_batch) {
            Ok(rec) => {
                let next = rec.report.durable_ops;
                let rung = rec.report.rung_metric();
                let recovery_elapsed = rec.report.elapsed_ns;
                self.engine = rec.engine;
                self.ops = next;
                self.unshipped.clear();
                self.sync_pending = false;
                self.ship_failures = 0;
                self.events_since_persist = 0;
                // The journal was repaired by recover(); a fresh sink
                // must agree with the recovered seq or something is
                // still wrong on disk.
                match open_sink(&d, self.engine.graph().num_vertices(), next) {
                    Ok(Some(sink)) => self.sink = Some(sink),
                    _ => {
                        self.obs.recovery_failures.inc();
                        self.fail();
                        return;
                    }
                }
                // Arm tracking on the rebuilt engine and resync the
                // mirror against it in full. `recover()` checks the
                // index against the journal's vertex count, so the
                // mirror's length still matches.
                self.engine.enable_core_change_tracking();
                self.mirror.sync_full(self.engine.cores());
                self.obs.full_syncs.inc();
                self.publish(handle);
                self.obs.recoveries.inc();
                let rung = RECOVERY_RUNGS.iter().position(|&r| r == rung);
                self.obs.rungs[rung.expect("a known rung")].inc();
                self.obs.recovery_ns.record(recovery_elapsed);
                self.degraded_flushes_left = pol.healthy_after.max(1);
                self.set_health(ServiceHealth::Degraded);
            }
            Err(_) if self.recovery_attempts < pol.max_attempts => {
                self.obs.recovery_retries.inc();
                let delay = pol.backoff_base_ns.saturating_mul(
                    (pol.backoff_factor.max(1) as u64)
                        .saturating_pow(self.recovery_attempts.saturating_sub(1)),
                );
                self.recovery_due_ns = self.now().saturating_add(delay.max(1));
            }
            Err(_) => {
                self.obs.recovery_failures.inc();
                self.fail();
            }
        }
    }

    /// Applies the pending micro-batch under `catch_unwind`, journals its
    /// events, and publishes a snapshot. The engine's batch entry
    /// points see maximal same-kind runs (a micro-batch is at most
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
        let trace = self.flushes + 1;
        let open_ns = self.batch_open_ns.take().unwrap_or_else(|| self.now());
        let t0 = self.now();
        let batch_len = self.pending.len() as u64;
        // A scripted engine fault applies the first half of the batch,
        // then panics: the poisoned engine is ahead of the journal.
        let attempt = self.flushes + self.obs.engine_panics.get();
        let scripted_panic = self
            .panic_flushes
            .iter()
            .position(|&n| n == attempt)
            .map(|at| self.panic_flushes.swap_remove(at))
            .is_some();
        let apply_len = if scripted_panic {
            self.pending.len() / 2
        } else {
            self.pending.len()
        };
        let applied = catch_unwind(AssertUnwindSafe(|| {
            let stats = replay_batched(
                &mut self.engine,
                self.pending[..apply_len].iter().copied(),
                self.cfg.max_batch.max(1),
            );
            if scripted_panic {
                panic!("scripted engine fault at flush {attempt}");
            }
            stats
        }));
        let stats = match applied {
            Ok(stats) => stats,
            Err(_) => {
                self.pending.clear();
                self.on_engine_panic(batch_len);
                return;
            }
        };
        for (c, n) in self.obs.update.iter().zip(stats.values()) {
            c.add(n as u64);
        }
        self.obs.batches.inc();
        self.flushes += 1;
        let apply_end = self.now();

        // Journal the applied batch: its events at seqs `ops..ops + len`
        // (KJRN stores events only, no core transitions). Without a sink
        // they are dropped by design. A failed append keeps the entries
        // queued for the next round instead of killing the writer.
        let first_seq = self.ops;
        self.ops += batch_len;
        if self.sink.is_some() {
            self.unshipped
                .extend(
                    self.pending
                        .drain(..)
                        .zip(first_seq..)
                        .map(|(event, seq)| JournalEntry {
                            seq,
                            event,
                            transitions: Vec::new(),
                        }),
                );
            if self.cfg.durability.as_ref().is_some_and(|d| d.fsync) {
                self.sync_pending = true;
            }
        } else {
            self.pending.clear();
            self.obs.shipped.add(batch_len);
        }
        let shipped = self.ship_owed();
        let ship_end = self.now();

        // Snapshot maintenance: sync the mirror and publish.
        let sync = self.sync_mirror();
        let sync_end = self.now();
        let published_items = self.ops.saturating_sub(self.published_ops);
        self.publish(handle);
        let o = &self.obs;
        let pub_end = self.now();
        // Stage breakdown as `(start, end, items)`, in pipeline order:
        // the oldest event's wait in the micro-batcher, engine apply,
        // core-change drain, journal append/ship, mirror sync, buffer
        // publish. Spans carry writer-clock timestamps, so a scripted run
        // yields a bit-exact trace.
        let stages = [
            (open_ns, t0, batch_len),
            (t0, apply_end, batch_len),
            (sync.drain_start, sync.drain_end, sync.drained),
            (apply_end, ship_end, batch_len),
            (sync.drain_end, sync_end, sync.changed),
            (sync_end, pub_end, published_items),
        ];
        for ((stage, hist), (start, end, items)) in
            FLUSH_STAGES.into_iter().zip(&o.stages).zip(stages)
        {
            let dur = end.saturating_sub(start);
            hist.record(dur);
            o.spans.record(trace, stage, start, dur, items);
        }
        self.obs.engine.observe(&self.engine);
        // The cadence counts events, so it does not depend on how the
        // queue happened to cut batches.
        self.events_since_persist += batch_len;
        if self.cfg.durability.as_ref().is_some_and(|d| {
            d.snapshot_every_batches > 0
                && self.events_since_persist
                    >= (d.snapshot_every_batches as u64)
                        .saturating_mul(self.cfg.max_batch.max(1) as u64)
        }) {
            self.persist(JournalHandoff::Held);
        }
        // A fully clean flush works a degraded service back to healthy.
        if shipped && self.health() == ServiceHealth::Degraded {
            self.degraded_flushes_left = self.degraded_flushes_left.saturating_sub(1);
            if self.degraded_flushes_left == 0 {
                self.set_health(ServiceHealth::Healthy);
            }
        }
    }

    /// Starts an index checkpoint covering `ops`: serialises the index
    /// here into the kept snapshot buffer, then hands the buffer to a
    /// thread spawned for this checkpoint, which frames it and writes it
    /// into the rotation (the [`crate::persist_index_snapshot`] write
    /// path) and then deals with the journal as `journal` says. The
    /// snapshot CRC runs on that thread, not here. A previous write still
    /// in flight is joined first; this one is counted when it is joined.
    fn persist(&mut self, journal: JournalHandoff) {
        let Some(d) = self.cfg.durability.clone() else {
            return;
        };
        self.join_checkpoint();
        self.events_since_persist = 0;
        let s0 = Instant::now();
        let mut snapshot = std::mem::take(&mut self.checkpoint_buf);
        snapshot.clear();
        snapshot.resize(SNAP_HEADER_BYTES, 0);
        // `order()` refreshes a deferred k-order first, so the persisted
        // form always round-trips through `OrderCore::load` validation.
        self.engine.order().save_into(&mut snapshot);
        self.obs
            .checkpoint_serialize
            .record(s0.elapsed().as_nanos() as u64);
        let (ops, n) = (self.ops, self.engine.graph().num_vertices());
        let write = std::thread::Builder::new()
            .name("kcore-ingest-checkpoint".into())
            .spawn(move || {
                let w0 = Instant::now();
                let result =
                    persist_framed_snapshot(&d, ops, &mut snapshot).and_then(|()| match journal {
                        JournalHandoff::Held => Ok(None),
                        JournalHandoff::Opened(sink) => Ok(Some(sink)),
                        JournalHandoff::Create => {
                            JournalSink::create(&d.journal_path, n, ops, d.fsync, &d.storage)
                                .map(Some)
                        }
                    });
                (result, w0.elapsed().as_nanos() as u64, snapshot)
            });
        match write {
            Ok(write) => self.checkpoint = Some(write),
            Err(_) => self.checkpoint_failed(),
        }
    }

    /// Waits for the checkpoint write in flight, if any, counts its
    /// outcome, and takes checkpoint zero's journal.
    fn join_checkpoint(&mut self) {
        let Some(write) = self.checkpoint.take() else {
            return;
        };
        let written = match write.join() {
            Ok((result, write_ns, snapshot)) => {
                self.obs.checkpoint_write.record(write_ns);
                self.checkpoint_buf = snapshot;
                result
            }
            Err(_) => Err(io::Error::other("checkpoint thread panicked")),
        };
        match written {
            Ok(journal) => {
                self.obs.snapshots_persisted.inc();
                if journal.is_some() {
                    self.sink = journal;
                }
            }
            Err(_) => self.checkpoint_failed(),
        }
    }

    /// Counts a failed checkpoint. A periodic checkpoint's failure is
    /// contained: the journal still carries every event, so a missed
    /// checkpoint only makes a future recovery replay more — the service
    /// degrades instead of dying. Checkpoint zero's fails the writer:
    /// without a durable base no event can be made durable. It is the
    /// failure with no journal held: every later checkpoint starts after
    /// checkpoint zero has joined and handed the journal over.
    fn checkpoint_failed(&mut self) {
        self.obs.checkpoint_failures.inc();
        if self.sink.is_none() {
            self.fail();
        } else {
            self.degrade();
        }
    }

    /// Scripted clock only: whether a tick has carried the writer clock
    /// past the buffered batch's flush interval.
    fn interval_due(&self) -> bool {
        match (self.cfg.clock, self.batch_open_ns) {
            (ClockMode::Scripted, Some(open)) if self.cfg.flush_interval_ns != u64::MAX => {
                self.now_ns >= open.saturating_add(self.cfg.flush_interval_ns)
            }
            _ => false,
        }
    }

    fn recovering_buffer_cap(&self) -> usize {
        self.cfg.queue_capacity.max(self.cfg.max_batch).max(1) * RECOVERING_BUFFER_FACTOR
    }

    fn run(
        mut self,
        rx: Receiver<Msg>,
        handle: SnapshotHandle,
        checkpoint_zero: Option<JournalHandoff>,
    ) -> (IngestReport, PlannedCore) {
        // Checkpoint zero is serialised before the first message is read
        // and written like any checkpoint; the first ship joins it.
        if let Some(journal) = checkpoint_zero {
            self.persist(journal);
        }
        let wall = self.cfg.clock == ClockMode::Wall;
        // Wall clock: set by every message (and every recovery wake-up),
        // cleared by the flush it triggers once the queue is empty. A
        // flush that leaves events buffered therefore waits for the next
        // message or recovery deadline instead of retrying in a loop.
        let mut flush_when_idle = false;
        loop {
            // Deadline-driven work first: a due recovery attempt, or a
            // scripted interval flush of the oldest buffered event.
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
            } else if self.interval_due() {
                self.flush(&handle);
            }
            // With events pending, a waiting message is taken first; an
            // empty queue flushes them at once.
            let idle = flush_when_idle && !self.pending.is_empty();
            let polled = if idle {
                rx.try_recv()
            } else {
                Err(mpsc::TryRecvError::Empty)
            };
            let msg = match polled {
                Ok(m) => m,
                Err(mpsc::TryRecvError::Disconnected) => break,
                Err(mpsc::TryRecvError::Empty) if idle => {
                    flush_when_idle = false;
                    self.flush(&handle);
                    continue;
                }
                // Wall mode parks until the recovery backoff ends;
                // otherwise the writer blocks (under the scripted clock
                // time only moves via Tick messages).
                Err(mpsc::TryRecvError::Empty)
                    if wall && self.health() == ServiceHealth::Recovering =>
                {
                    let wait = self.recovery_due_ns.saturating_sub(self.now()).max(1);
                    match rx.recv_timeout(Duration::from_nanos(wait)) {
                        Ok(m) => m,
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            flush_when_idle = true;
                            continue;
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                }
                Err(mpsc::TryRecvError::Empty) => match rx.recv() {
                    Ok(m) => m,
                    Err(_) => break, // all handles gone: graceful drain
                },
            };
            flush_when_idle = wall;
            match msg {
                Msg::Event(e) => {
                    self.obs.events.inc();
                    match self.health() {
                        ServiceHealth::Failed => self.obs.events_lost.inc(),
                        ServiceHealth::Recovering => {
                            // Buffer through the outage (bounded).
                            if self.pending.len() >= self.recovering_buffer_cap() {
                                self.obs.events_lost.inc();
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
                    self.join_checkpoint();
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
                        self.join_checkpoint();
                        return (self.report(), self.engine);
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
            ServiceHealth::Recovering | ServiceHealth::Failed => self.fail(),
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
                    self.persist(JournalHandoff::Held);
                }
            }
        }
        self.join_checkpoint();
        (self.report(), self.engine)
    }

    /// The shutdown report, read from a registry snapshot (see
    /// [`IngestReport`]). Called once, at whichever exit the writer takes.
    fn report(&self) -> IngestReport {
        let m = self.obs.registry.snapshot();
        let c = |name: &str| m.counter(name).expect("registered at spawn");
        IngestReport {
            events: c("ingest_events_total"),
            batches: c("ingest_batches_total"),
            update_stats: UpdateStats::from_values(
                UpdateStats::FIELDS.map(|f| c(&format!("engine_{f}_total")) as usize),
            ),
            epochs_published: c("ingest_epochs_published_total"),
            entries_shipped: c("ingest_entries_shipped_total"),
            snapshots_persisted: c("ingest_snapshots_persisted_total"),
            batch_apply: self.obs.stages[APPLY_STAGE].clone(),
            chunks_copied: c("ingest_chunks_copied_total"),
            mirror_chunks: self.mirror.num_chunks() as u64,
            tracked_drains: c("ingest_tracked_drains_total"),
            full_syncs: c("ingest_full_syncs_total"),
            engine_panics: c("ingest_engine_panics_total"),
            recoveries: c("ingest_recoveries_total"),
            recovery_retries: c("ingest_recovery_retries_total"),
            recovery_failures: c("ingest_recovery_failures_total"),
            journal_ship_failures: c("ingest_journal_ship_failures_total"),
            checkpoint_failures: c("ingest_checkpoint_failures_total"),
            events_lost: c("ingest_events_lost_total"),
            final_health: self.health(),
        }
    }
}
