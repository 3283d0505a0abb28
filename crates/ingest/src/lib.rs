//! # kcore-ingest
//!
//! The streaming ingest subsystem: the component that actually *runs*
//! the order-based maintenance of the source paper against a live stream
//! of edge updates, end to end.
//!
//! * **Single writer, bounded queue, real backpressure** — an
//!   [`IngestService`] owns a maintenance engine (by default the
//!   planner-driven [`kcore_maint::PlannedCore`]) on a dedicated writer
//!   thread fed by a bounded MPSC channel of [`GraphEvent`]s.
//!   [`IngestService::try_submit`] surfaces [`IngestError::QueueFull`]
//!   when the writer falls behind; [`IngestService::submit`] blocks.
//! * **Micro-batching** — under the wall clock events flush when the
//!   queue runs dry (at most once per 500 µs) or the batch fills, so
//!   batches grow with the backlog; [`ClockMode::Scripted`] flushes on
//!   batch size or clock
//!   tick and serialises time into the message stream so every test is
//!   wall-clock-free and deterministic.
//! * **Snapshot-isolated reads, published copy-on-write** — each flush
//!   publishes an immutable, epoch-versioned [`CoreSnapshot`] (cores,
//!   histogram, degeneracy, k-core membership) through an
//!   epoch-validated double buffer: any number of reader threads load
//!   consistent state without waiting on the writer's batch work (a
//!   publish can briefly wait on a slow load — see [`SnapshotHandle`]).
//!   Publication is `O(changed)`, not `O(n)` — cores live in a chunked
//!   persistent array ([`chunked::ChunkedCores`]) and consecutive epochs
//!   share every chunk the flush did not dirty.
//! * **Durability** — the writer appends each flushed batch's events to
//!   an append-only, per-frame-checksummed journal file (KJRN v3) and
//!   periodically persists the full index into a rotated set of
//!   snapshot generations, writing each from a background thread;
//!   [`recover`] restores snapshot + journal tail (replayed in
//!   planner-priced batches) after a crash,
//!   escalating down a ladder of fallbacks (truncate torn tail → older
//!   snapshot generation → genesis replay) and reporting which rung
//!   fired in a [`RecoveryReport`].
//! * **Fault tolerance** — storage I/O is routed through a
//!   [`faults::JournalIo`] seam so tests inject short writes, failed
//!   fsyncs, bit flips, and crashes at scripted operation counts; the
//!   writer itself is supervised ([`ServiceHealth`]): engine panics are
//!   caught, readers keep the last published epoch, and the service
//!   rebuilds itself through [`recover`] under a bounded
//!   [`RecoveryPolicy`] backoff.
//! * **Observability** — each writer carries a lock-light
//!   [`kcore_obs::MetricsRegistry`] (atomic counters, gauges, and
//!   log-bucketed latency histograms with a per-flush stage breakdown)
//!   plus a bounded [`kcore_obs::SpanRecorder`] whose spans use the
//!   writer's own clock — bit-exact traces under
//!   [`ClockMode::Scripted`]. Read live via [`IngestService::metrics`]
//!   / [`IngestService::spans`], render with
//!   [`MetricsSnapshot::render_text`] (Prometheus) or
//!   [`MetricsSnapshot::to_json`]; opt out per service with
//!   [`ObsConfig::disabled`].
//!
//! ```
//! use kcore_ingest::{GraphEvent, IngestConfig, IngestService};
//! use kcore_graph::DynamicGraph;
//!
//! let svc = IngestService::spawn_planned(
//!     DynamicGraph::with_vertices(4),
//!     42,
//!     IngestConfig::scripted().max_batch(2),
//! )
//! .unwrap();
//! svc.submit(GraphEvent::EdgeInserted(0, 1)).unwrap();
//! svc.submit(GraphEvent::EdgeInserted(1, 2)).unwrap(); // size-flush
//! let snap = svc.flush().unwrap();
//! assert_eq!(snap.ops, 2);
//! assert_eq!(snap.core(1), 1);
//! let (report, engine) = svc.shutdown();
//! assert_eq!(report.events, 2);
//! assert_eq!(engine.cores(), &[1, 1, 1, 0]);
//! ```

pub mod chunked;
pub mod durability;
pub mod faults;
pub mod service;
pub mod snapshot;
pub mod sources;

pub use chunked::{ChunkedCores, CoreMirror, CHUNK};
pub use durability::{
    persist_index_snapshot, read_journal, recover, snapshot_generation_path, DurabilityConfig,
    JournalContents, JournalSink, RecoverError, Recovered, RecoveryReport, RecoveryRung,
};
pub use faults::{
    FaultKind, FaultPlan, FlakyEngine, FlakyProbe, JournalIo, OpClass, StorageHandle,
};
pub use kcore_maint::journal::GraphEvent;
pub use kcore_obs::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsRegistry, MetricsSnapshot,
    Span, SpanRecorder,
};
pub use service::{
    ClockMode, IngestConfig, IngestEngine, IngestError, IngestPause, IngestReport, IngestService,
    ObsConfig, RecoveryPolicy, RetryBudget, ServiceHealth,
};
pub use snapshot::{CoreSnapshot, SnapshotHandle, SnapshotReceiver};

#[cfg(test)]
mod tests;
