//! Service-level tests. Everything runs under the scripted clock — time
//! only advances through `tick` messages on the writer's own channel, so
//! every flush boundary, epoch, and journal byte is deterministic on any
//! host, including the 1-CPU CI container.

use crate::durability::{recover, DurabilityConfig};
use crate::service::{
    ClockMode, IngestConfig, IngestError, IngestService, RecoveryPolicy, ServiceHealth,
};
use crate::sources::{apply_events, churn_events, window_event};
use crate::GraphEvent;
use kcore_decomp::core_decomposition;
use kcore_gen::{barabasi_albert, churn_stream, timestamp_edges, SlidingWindow};
use kcore_graph::DynamicGraph;
use kcore_maint::PlannerConfig;
use std::path::PathBuf;

fn path_graph(n: usize) -> DynamicGraph {
    let mut g = DynamicGraph::with_vertices(n);
    for v in 0..n as u32 - 1 {
        g.insert_edge_unchecked(v, v + 1);
    }
    g
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kcore_ingest_service").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn size_flush_publishes_epoch_snapshots() {
    let svc = IngestService::spawn_planned(path_graph(5), 1, IngestConfig::scripted().max_batch(2))
        .unwrap();
    let snaps = svc.subscribe().unwrap();
    let initial = svc.snapshots().load();
    assert_eq!((initial.epoch, initial.ops), (0, 0));

    svc.submit(GraphEvent::EdgeInserted(0, 2)).unwrap();
    svc.submit(GraphEvent::EdgeInserted(0, 3)).unwrap(); // size-flush
    let s1 = snaps.recv().unwrap();
    assert_eq!((s1.epoch, s1.ops), (1, 2));
    assert_eq!(s1.num_edges, 6);

    // A reader holding the old epoch still sees its own consistent view.
    assert_eq!(initial.num_edges, 4);

    let (report, engine) = svc.shutdown();
    assert_eq!(report.events, 2);
    assert_eq!(report.batches, 1);
    assert_eq!(report.epochs_published, 1);
    assert_eq!(
        engine.cores(),
        &core_decomposition(&apply_events(
            &path_graph(5),
            &[
                GraphEvent::EdgeInserted(0, 2),
                GraphEvent::EdgeInserted(0, 3)
            ]
        ))[..]
    );
}

#[test]
fn scripted_ticks_drive_interval_flushes() {
    let cfg = IngestConfig::scripted()
        .max_batch(1000)
        .flush_interval_ns(100);
    let svc = IngestService::spawn_planned(path_graph(6), 2, cfg).unwrap();
    let snaps = svc.subscribe().unwrap();

    // Batch opens at scripted t=0; a tick inside the interval must not
    // flush, one past it must.
    svc.submit(GraphEvent::EdgeInserted(0, 2)).unwrap();
    svc.tick(50).unwrap();
    svc.tick(150).unwrap();
    let s1 = snaps.recv().unwrap();
    assert_eq!((s1.epoch, s1.ops), (1, 1));
    assert_eq!(s1.published_at_ns, 150, "published on the flushing tick");

    // Next batch opens at t=150: flush exactly at deadline 250.
    svc.submit(GraphEvent::EdgeInserted(2, 4)).unwrap();
    svc.tick(249).unwrap();
    svc.tick(250).unwrap();
    let s2 = snaps.recv().unwrap();
    assert_eq!((s2.epoch, s2.ops), (2, 2));

    let (report, _) = svc.shutdown();
    assert_eq!(report.batches, 2);
    // Scripted latencies are synthetic but recorded per flush.
    assert_eq!(report.batch_apply.count(), 2);
}

#[test]
fn explicit_flush_is_a_barrier_covering_all_submitted() {
    let svc =
        IngestService::spawn_planned(path_graph(8), 3, IngestConfig::scripted().max_batch(1000))
            .unwrap();
    let events = [
        GraphEvent::EdgeInserted(0, 7),
        GraphEvent::EdgeInserted(2, 6),
        GraphEvent::EdgeRemoved(3, 4),
        GraphEvent::EdgeInserted(2, 6), // duplicate: skipped, still counted
    ];
    for &e in &events {
        svc.submit(e).unwrap();
    }
    let snap = svc.flush().unwrap();
    assert_eq!(snap.ops, events.len() as u64);
    let oracle = apply_events(&path_graph(8), &events);
    assert_eq!(snap.cores.to_vec(), core_decomposition(&oracle));
    assert_eq!(snap.num_edges, oracle.num_edges());
    // Histogram and degeneracy agree with the cores they ship with.
    let max = snap.cores.iter().max().unwrap();
    assert_eq!(snap.degeneracy, max);
    assert_eq!(snap.histogram.iter().sum::<usize>(), snap.num_vertices);
    // Flushing again without new events republishes nothing.
    let again = svc.flush().unwrap();
    assert_eq!(again.epoch, snap.epoch);
    let (report, _) = svc.shutdown();
    assert_eq!(report.update_stats.skipped, 1);
}

#[test]
fn bounded_queue_reports_queue_full_under_backpressure() {
    let svc = IngestService::spawn_planned(
        path_graph(4),
        4,
        IngestConfig::scripted().queue_capacity(3).max_batch(1000),
    )
    .unwrap();
    // Park the writer: the queue is drained (the pause ack proves the
    // writer consumed everything before parking), then fills to exactly
    // the configured bound.
    let pause = svc.pause().unwrap();
    for i in 0..3u32 {
        svc.try_submit(GraphEvent::EdgeInserted(0, 2 + (i % 2)))
            .unwrap();
    }
    assert_eq!(
        svc.try_submit(GraphEvent::EdgeInserted(1, 3)),
        Err(IngestError::QueueFull),
        "capacity-th + 1 submission must backpressure"
    );
    drop(pause); // resume
    let snap = svc.flush().unwrap();
    assert_eq!(snap.ops, 3, "rejected event was genuinely not enqueued");
    let (report, _) = svc.shutdown();
    assert_eq!(report.events, 3);
}

#[test]
fn drop_is_graceful_and_abort_is_not() {
    // Graceful drop: pending events are flushed and published before the
    // writer exits; the snapshot handle outlives the service.
    let svc = IngestService::spawn_planned(path_graph(3), 1, IngestConfig::scripted()).unwrap();
    let handle = svc.snapshots();
    let snaps = svc.subscribe().unwrap();
    svc.submit(GraphEvent::EdgeInserted(0, 2)).unwrap();
    drop(svc);
    let last = snaps.recv().unwrap();
    assert_eq!(last.ops, 1);
    assert!(snaps.recv().is_err(), "writer gone after drop");
    assert_eq!(handle.load().ops, 1, "handle still serves the final epoch");

    // Abort: the buffered event is dropped on the floor — the published
    // state never advances past what was flushed.
    let svc = IngestService::spawn_planned(path_graph(3), 1, IngestConfig::scripted()).unwrap();
    let handle = svc.snapshots();
    svc.submit(GraphEvent::EdgeInserted(0, 2)).unwrap();
    svc.abort();
    assert_eq!(handle.load().ops, 0, "aborted writer must not flush");
}

#[test]
fn churn_stream_end_to_end_matches_oracle() {
    // The acceptance workload, test-sized: a full churn stream through
    // the service, mixed flush triggers, final state bit-identical to
    // the recompute oracle.
    let base = barabasi_albert(80, 3, 7);
    let svc =
        IngestService::spawn_planned(base.clone(), 11, IngestConfig::scripted().max_batch(32))
            .unwrap();
    let mut all_events: Vec<GraphEvent> = Vec::new();
    for (i, b) in churn_stream(&base, 10, 12, 8, 23).iter().enumerate() {
        for e in churn_events(b) {
            all_events.push(e);
            svc.submit(e).unwrap();
        }
        if i % 3 == 0 {
            let snap = svc.flush().unwrap();
            // Snapshot consistency at an arbitrary mid-stream barrier.
            let oracle = apply_events(&base, &all_events[..snap.ops as usize]);
            assert_eq!(snap.cores.to_vec(), core_decomposition(&oracle));
        }
    }
    let (report, engine) = svc.shutdown();
    assert_eq!(report.events, all_events.len() as u64);
    assert_eq!(report.update_stats.skipped, 0, "churn streams replay clean");
    let oracle = apply_events(&base, &all_events);
    assert_eq!(engine.cores(), &core_decomposition(&oracle)[..]);
}

#[test]
fn sliding_window_stream_drains_to_empty() {
    let g = barabasi_albert(50, 2, 19);
    let n = 50;
    let ts = timestamp_edges(&g, 3, 5);
    let svc = IngestService::spawn_planned(
        DynamicGraph::with_vertices(n),
        13,
        IngestConfig::scripted().max_batch(16),
    )
    .unwrap();
    let mut live = DynamicGraph::with_vertices(n);
    let mut steps = 0usize;
    for op in SlidingWindow::new(ts, 30) {
        match op {
            kcore_gen::WindowOp::Admit(u, v) => live.insert_edge_unchecked(u, v),
            kcore_gen::WindowOp::Expire(u, v) => {
                live.remove_edge(u, v).unwrap();
            }
        }
        svc.submit(window_event(op)).unwrap();
        steps += 1;
        if steps.is_multiple_of(37) {
            let snap = svc.flush().unwrap();
            assert_eq!(snap.cores.to_vec(), core_decomposition(&live));
            assert_eq!(snap.num_edges, live.num_edges());
        }
    }
    let (report, engine) = svc.shutdown();
    assert_eq!(report.update_stats.skipped, 0);
    assert_eq!(engine.graph().num_edges(), 0, "window fully expired");
    assert!(engine.cores().iter().all(|&c| c == 0));
}

#[test]
fn durable_roundtrip_recovers_graceful_shutdown_state() {
    let dir = tmpdir("graceful");
    let d = DurabilityConfig::in_dir(&dir).snapshot_every(2);
    let base = barabasi_albert(60, 3, 3);
    let svc = IngestService::spawn_planned(
        base.clone(),
        17,
        IngestConfig::scripted().max_batch(16).durable(d.clone()),
    )
    .unwrap();
    let mut events = Vec::new();
    for b in churn_stream(&base, 6, 10, 6, 5) {
        for e in churn_events(&b) {
            events.push(e);
            svc.submit(e).unwrap();
        }
        svc.flush().unwrap();
    }
    let (report, engine) = svc.shutdown();
    assert!(report.snapshots_persisted >= 3, "periodic + final persists");
    assert_eq!(report.entries_shipped, events.len() as u64);

    let rec = recover(&d, 99, PlannerConfig::default(), 64).unwrap();
    assert_eq!(rec.report.snapshot_generation, Some(0));
    assert!(rec.report.journal_damage.is_none());
    assert_eq!(rec.report.durable_ops, events.len() as u64);
    assert_eq!(rec.engine.cores(), engine.cores());
    // The final persist covers everything: zero tail replay needed.
    assert_eq!(rec.report.replayed, 0);

    // A *fresh* spawn over the populated durability dir must be refused:
    // its seqs would restart at 0 and corrupt the journal's gap-free
    // invariant (resume goes through recover() + spawn_recovered).
    assert!(IngestService::spawn_planned(
        base.clone(),
        17,
        IngestConfig::scripted().durable(d.clone()),
    )
    .is_err());
    let rec = recover(&d, 99, PlannerConfig::default(), 64).unwrap();
    let resumed =
        IngestService::spawn_recovered(rec, IngestConfig::scripted().durable(d.clone())).unwrap();
    resumed.submit(GraphEvent::EdgeInserted(0, 59)).unwrap();
    let snap = resumed.flush().unwrap();
    assert_eq!(snap.ops, events.len() as u64 + 1, "seq resumed, not reset");
}

#[test]
fn crash_recovery_matches_never_crashed_run() {
    let dir = tmpdir("crash");
    let d = DurabilityConfig::in_dir(&dir); // snapshots only on demand
    let base = barabasi_albert(70, 3, 29);

    // Build the full stream up front; split into a flushed prefix A and
    // an in-flight suffix B that never reaches the journal.
    let mut stream: Vec<GraphEvent> = Vec::new();
    for b in churn_stream(&base, 8, 9, 7, 41) {
        stream.extend(churn_events(&b));
    }
    let cut = stream.len() * 2 / 3;
    let (part_a, part_b) = stream.split_at(cut);

    let svc = IngestService::spawn_planned(
        base.clone(),
        31,
        IngestConfig::scripted().max_batch(24).durable(d.clone()),
    )
    .unwrap();
    for &e in part_a {
        svc.submit(e).unwrap();
    }
    svc.flush().unwrap(); // A is applied AND journaled
    for &e in part_b {
        svc.submit(e).unwrap(); // B stays buffered (|B| < max_batch won't
                                // hold in general — but no tick and no
                                // flush means only size-flushes fire)
    }
    svc.abort(); // crash: pending + queued B lost, journal keeps A's prefix

    // Recovery must reproduce a never-crashed run over the journaled
    // prefix: checkpoint zero (the writer's first checkpoint, covering
    // the base graph and nothing else) + the whole journaled tail replayed
    // through the planner.
    let rec = recover(&d, 57, PlannerConfig::default(), 32).unwrap();
    assert!(
        rec.report.snapshot_generation.is_some(),
        "checkpoint zero must exist"
    );
    let journaled = rec.report.durable_ops as usize;
    assert!(journaled >= part_a.len(), "flushed prefix must be durable");
    let clean = {
        let svc =
            IngestService::spawn_planned(base.clone(), 77, IngestConfig::scripted().max_batch(24))
                .unwrap();
        for &e in &stream[..journaled] {
            svc.submit(e).unwrap();
        }
        svc.shutdown().1
    };
    assert_eq!(rec.engine.cores(), clean.cores());
    assert_eq!(
        rec.engine.cores(),
        &core_decomposition(&apply_events(&base, &stream[..journaled]))[..]
    );

    // Resume the recovered service, feed the lost suffix again, and the
    // final state matches a run that never crashed at all.
    let resumed = IngestService::spawn_recovered(
        rec,
        IngestConfig::scripted().max_batch(24).durable(d.clone()),
    )
    .unwrap();
    for &e in &stream[journaled..] {
        resumed.submit(e).unwrap();
    }
    let (_, engine) = resumed.shutdown();
    assert_eq!(
        engine.cores(),
        &core_decomposition(&apply_events(&base, &stream))[..]
    );

    // And the re-opened journal is gap-free: a final recovery replays
    // the whole stream.
    let rec2 = recover(&d, 5, PlannerConfig::default(), 64).unwrap();
    assert_eq!(rec2.report.durable_ops, stream.len() as u64);
    assert_eq!(rec2.engine.cores(), engine.cores());
}

#[test]
fn publication_shares_untouched_chunks_across_epochs() {
    // COW publication: a flush whose changes all land in one chunk must
    // republish every *other* chunk as the same allocation (pointer
    // equality), and the report must witness the O(changed) cost.
    use crate::chunked::CHUNK;
    let n = 3 * CHUNK; // 3 chunks of core numbers
    let svc = IngestService::spawn_planned(
        DynamicGraph::with_vertices(n),
        7,
        IngestConfig::scripted().max_batch(1000),
    )
    .unwrap();

    // Epoch 1: a triangle among vertices 0..3 (chunk 0 only).
    svc.submit(GraphEvent::EdgeInserted(0, 1)).unwrap();
    svc.submit(GraphEvent::EdgeInserted(1, 2)).unwrap();
    svc.submit(GraphEvent::EdgeInserted(0, 2)).unwrap();
    let s1 = svc.flush().unwrap();
    assert_eq!(s1.cores.num_chunks(), 3);
    assert_eq!(s1.core(0), 2);

    // Epoch 2: a single edge inside chunk 2.
    let far = (2 * CHUNK) as u32;
    svc.submit(GraphEvent::EdgeInserted(far, far + 1)).unwrap();
    let s2 = svc.flush().unwrap();
    assert_eq!(s2.core(far), 1);

    // Chunks 0 and 1 were untouched by the second flush: pointer-equal
    // across the two epochs. Chunk 2 was dirtied: a fresh allocation.
    assert!(
        s1.cores.chunk_ptr_eq(&s2.cores, 0),
        "chunk 0 must be shared"
    );
    assert!(
        s1.cores.chunk_ptr_eq(&s2.cores, 1),
        "chunk 1 must be shared"
    );
    assert!(
        !s1.cores.chunk_ptr_eq(&s2.cores, 2),
        "chunk 2 was rewritten"
    );
    assert_eq!(s1.cores.shared_chunks(&s2.cores), 2);

    // Old epochs stay immutable and self-consistent.
    assert_eq!(s1.core(far), 0);
    assert_eq!(s1.histogram, vec![n - 3, 0, 3]);
    assert_eq!(s2.histogram, vec![n - 5, 2, 3]);

    let metrics = svc.metrics().expect("the registry always exists");
    let (report, _) = svc.shutdown();
    assert_eq!(report.mirror_chunks, 3);
    assert!(
        report.tracked_drains >= 2,
        "planner engine serves tracked drains"
    );
    assert_eq!(report.full_syncs, 0);
    // Two flushes, each dirtying one shared chunk => exactly one COW
    // copy per flush (the flush()-barrier publish clones every chunk
    // into the snapshot, forcing the next write to copy).
    assert_eq!(report.chunks_copied, 2);
    let m = metrics.snapshot();
    let publishes = m.histogram("ingest_flush_publish_ns").unwrap();
    assert_eq!(publishes.count, report.batches);
}

/// Publish cost does not depend on the vertex count: the same churn
/// over the same active region, inside universes of `n` and `16·n`
/// vertices, leaves exactly the same chunks unshared between every two
/// consecutive epochs — the chunks holding a changed core, never more
/// than the vertices whose core changed. The rest of each universe is a
/// ring of core-2 vertices, so a publish that rebuilt its chunks would
/// unshare all of them.
#[test]
fn publish_unshares_the_same_chunks_at_every_universe_size() {
    use crate::chunked::CHUNK;
    let active_n = 2 * CHUNK;
    let active = barabasi_albert(active_n, 4, 11);
    let events: Vec<GraphEvent> = churn_stream(&active, 12, 48, 32, 12)
        .iter()
        .flat_map(churn_events)
        .collect();
    let unshared_per_epoch = |n: usize| {
        let mut base = DynamicGraph::with_vertices(n);
        for (u, v) in active.edge_vec() {
            base.insert_edge_unchecked(u, v);
        }
        for v in active_n..n {
            let next = if v + 1 == n { active_n } else { v + 1 };
            base.insert_edge_unchecked(v as u32, next as u32);
        }
        let cfg = IngestConfig::scripted().max_batch(96);
        let svc = IngestService::spawn_planned(base, 5, cfg).unwrap();
        let mut prev = svc.snapshots().load();
        let epochs = svc.subscribe().unwrap();
        svc.submit_all(events.iter().copied()).unwrap();
        svc.flush().unwrap();
        let (report, _) = svc.shutdown();
        let mut unshared = Vec::new();
        for snap in epochs.try_iter() {
            let chunks = snap.cores.num_chunks() - snap.cores.shared_chunks(&prev.cores);
            let changed: Vec<usize> = (0..n)
                .filter(|&v| snap.cores.get(v) != prev.cores.get(v))
                .collect();
            let mut dirty: Vec<usize> = changed.iter().map(|v| v / CHUNK).collect();
            dirty.dedup();
            let epoch = snap.epoch;
            assert_eq!(
                chunks,
                dirty.len(),
                "n = {n}, epoch {epoch}: unshared chunks"
            );
            assert!(chunks <= changed.len(), "n = {n}, epoch {epoch}");
            unshared.push(chunks);
            prev = snap;
        }
        assert_eq!(unshared.len() as u64, report.epochs_published);
        unshared
    };
    let small = unshared_per_epoch(2 * active_n);
    assert!(small.iter().sum::<usize>() > 0, "the churn changed no core");
    assert_eq!(small, unshared_per_epoch(32 * active_n));
}

#[test]
fn wall_clock_mode_flushes_when_the_queue_runs_dry() {
    // The one wall-clock test: a real-time service flushes a
    // sub-batch-size buffer as soon as its queue is empty, with no
    // explicit flush and no interval (the interval is scripted-only, so
    // `u64::MAX` must not hold the event back). The 30 s timeout only
    // guards a hung writer on a loaded host; determinism-sensitive
    // properties live in the scripted tests.
    let cfg = IngestConfig {
        clock: ClockMode::Wall,
        flush_interval_ns: u64::MAX,
        max_batch: 1000,
        ..IngestConfig::default()
    };
    let svc = IngestService::spawn_planned(path_graph(4), 3, cfg).unwrap();
    let snaps = svc.subscribe().unwrap();
    svc.submit(GraphEvent::EdgeInserted(0, 2)).unwrap();
    let snap = snaps
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("an empty queue must flush the buffered event");
    assert_eq!(snap.ops, 1);
    svc.shutdown();
}

#[test]
fn scripted_flush_trace_is_bit_exact_across_runs() {
    // Two identical scripted runs must produce byte-identical span
    // rings: writer-clock timestamps, deterministic item counts, stable
    // stage order. This is the determinism contract of the tracing
    // layer — a wall-clock leak into any span breaks it.
    let run = || {
        let cfg = IngestConfig::scripted().max_batch(2);
        let svc = IngestService::spawn_planned(path_graph(6), 3, cfg).unwrap();
        let spans = svc.spans();
        svc.submit(GraphEvent::EdgeInserted(0, 2)).unwrap();
        svc.submit(GraphEvent::EdgeInserted(0, 3)).unwrap(); // flush 1
        svc.tick(500).unwrap();
        svc.submit(GraphEvent::EdgeInserted(1, 4)).unwrap();
        svc.submit(GraphEvent::EdgeRemoved(2, 3)).unwrap(); // flush 2
        svc.flush().unwrap();
        svc.shutdown();
        spans.spans()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "scripted traces must be bit-exact across runs");

    // Pin the full per-stage breakdown of flush 2 (trace id 2): the
    // batch opened at t=500 and flushed at t=500, so every duration is
    // zero under the scripted clock while item counts stay real.
    let t2: Vec<_> = a.iter().filter(|s| s.trace == 2).collect();
    let stages: Vec<&str> = t2.iter().map(|s| s.stage).collect();
    assert_eq!(
        stages,
        [
            "batch_wait",
            "apply",
            "core_drain",
            "journal_ship",
            "mirror_sync",
            "publish"
        ],
        "canonical stage order"
    );
    for s in &t2 {
        assert_eq!(s.start_ns, 500, "writer-clock start of {}", s.stage);
        assert_eq!(s.dur_ns, 0, "scripted durations are zero ({})", s.stage);
    }
    assert_eq!(t2[0].items, 2, "batch_wait saw the 2-event batch");
    assert_eq!(t2[1].items, 2, "apply saw the 2-event batch");
    assert_eq!(t2[3].items, 2, "journal_ship moved 2 entries");
    assert_eq!(t2[5].items, 2, "publish advanced ops by 2");

    // Flush 1 ran the same pipeline at t=0.
    let t1: Vec<_> = a.iter().filter(|s| s.trace == 1).collect();
    assert_eq!(t1.len(), 6);
    assert!(t1.iter().all(|s| s.start_ns == 0 && s.dur_ns == 0));
}

#[test]
fn metrics_registry_exposes_flush_pipeline_counters() {
    // Counter/histogram surfaces agree with the report, and both
    // renderings (Prometheus text, JSON) carry the same numbers.
    let svc = IngestService::spawn_planned(path_graph(5), 1, IngestConfig::scripted().max_batch(2))
        .unwrap();
    let metrics = svc.metrics().expect("the registry always exists");
    svc.submit(GraphEvent::EdgeInserted(0, 2)).unwrap();
    svc.submit(GraphEvent::EdgeInserted(0, 3)).unwrap();
    svc.flush().unwrap();
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("ingest_events_total"), Some(2));
    assert_eq!(snap.counter("ingest_batches_total"), Some(1));
    assert_eq!(snap.counter("ingest_epochs_published_total"), Some(1));
    assert_eq!(snap.counter("ingest_events_lost_total"), Some(0));
    // One registry cell per flush stage: the report's `batch_apply` is
    // the apply stage's histogram, recorded once per flush.
    assert!(snap.histogram("ingest_batch_apply_ns").is_none());
    for stage in [
        "ingest_flush_batch_wait_ns",
        "ingest_flush_apply_ns",
        "ingest_flush_core_drain_ns",
        "ingest_flush_journal_ship_ns",
        "ingest_flush_mirror_sync_ns",
        "ingest_flush_publish_ns",
    ] {
        assert_eq!(snap.histogram(stage).unwrap().count, 1, "{stage}");
    }
    // No durability, no checkpoints: registered, never recorded.
    for checkpoint in [
        "ingest_checkpoint_serialize_ns",
        "ingest_checkpoint_write_ns",
    ] {
        assert_eq!(snap.histogram(checkpoint).unwrap().count, 0, "{checkpoint}");
    }
    // Planner observables rode along from the engine.
    assert!(snap.counter("planner_batched_total").is_some());
    let text = snap.render_text();
    assert!(text.contains("ingest_events_total 2"));
    assert!(text.contains("# TYPE ingest_flush_apply_ns histogram"));
    let json = snap.to_json();
    assert!(json.contains("\"ingest_events_total\":2"));

    let (report, _) = svc.shutdown();
    assert_eq!(report.batches, 1);
    assert_eq!(report.batch_apply.count(), 1);
}

/// Checks a Prometheus text exposition line by line. Every non-empty
/// line is a `# TYPE <name> <counter|gauge|histogram>` comment or a
/// `<series> <value>` sample with a legal metric name and a finite (or
/// `+Inf`) value, and each sample belongs to the family declared just
/// above it: a counter or gauge renders one unlabelled `<name>` sample,
/// a histogram `<name>_bucket{le="<bound>"}` samples plus `<name>_sum`
/// and `<name>_count`. Returns the families seen per kind, in the order
/// counter, gauge, histogram.
fn validate_exposition(text: &str) -> [usize; 3] {
    const KINDS: [&str; 3] = ["counter", "gauge", "histogram"];
    let name_ok = |name: &str| {
        name.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    let number_ok = |v: &str| v == "+Inf" || v.parse::<f64>().is_ok_and(f64::is_finite);
    let mut families = [0usize; 3];
    let mut family: Option<(&str, usize)> = None;
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# ") {
            let parts: Vec<&str> = rest.split(' ').collect();
            let [tag, name, kind] = parts[..] else {
                panic!("malformed comment: {line:?}");
            };
            assert_eq!(tag, "TYPE", "malformed comment: {line:?}");
            assert!(name_ok(name), "bad metric name: {line:?}");
            let kind = KINDS.iter().position(|&k| k == kind);
            let kind = kind.unwrap_or_else(|| panic!("bad metric type: {line:?}"));
            families[kind] += 1;
            family = Some((name, kind));
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample without a value: {line:?}"));
        assert!(number_ok(value), "bad sample value: {line:?}");
        let (name, kind) = family.unwrap_or_else(|| panic!("sample before any TYPE: {line:?}"));
        let in_family = match (KINDS[kind], series.split_once('{')) {
            ("histogram", Some((bucket, labels))) => {
                let le = labels
                    .strip_prefix("le=\"")
                    .and_then(|l| l.strip_suffix("\"}"))
                    .unwrap_or_else(|| panic!("expected one le label: {line:?}"));
                assert!(number_ok(le), "bad le bound: {line:?}");
                bucket.strip_suffix("_bucket") == Some(name)
            }
            ("histogram", None) => series
                .strip_prefix(name)
                .is_some_and(|suffix| suffix == "_sum" || suffix == "_count"),
            (_, labels) => labels.is_none() && series == name,
        };
        assert!(in_family, "sample outside its {name} family: {line:?}");
    }
    families
}

/// The live registry of a durable writer that took a checkpoint, an
/// engine panic and a recovery renders a well-formed Prometheus
/// exposition holding every metric kind.
#[test]
fn prometheus_exposition_is_well_formed_after_a_recovery() {
    use crate::faults::FaultPlan;
    let dir = tmpdir("exposition");
    let d = DurabilityConfig::in_dir(&dir)
        .snapshot_every(2)
        .with_faults(FaultPlan::new().panic_at_flush(3));
    let cfg = IngestConfig::scripted()
        .max_batch(4)
        .durable(d)
        .self_healing(RecoveryPolicy::default());
    let svc = IngestService::spawn_planned(path_graph(12), 3, cfg).unwrap();
    let metrics = svc.metrics().expect("the registry always exists");
    // 24 chords of the 12-path, never a self loop (4i + 2 is not 0 mod 12).
    svc.submit_all((0u32..24).map(|i| GraphEvent::EdgeInserted(i % 12, (i * 5 + 2) % 12)))
        .unwrap();
    svc.flush().unwrap();
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("ingest_engine_panics_total"), Some(1));
    assert_eq!(snap.counter("ingest_recoveries_total"), Some(1));
    assert!(snap.counter("ingest_snapshots_persisted_total") > Some(0));
    let text = snap.render_text();
    let [counters, gauges, histograms] = validate_exposition(&text);
    assert_eq!(counters + gauges + histograms, snap.len());
    assert!(counters > 0 && gauges > 0 && histograms > 0);
    // The recovery's timing sample renders finite buckets too.
    assert!(text.contains("ingest_recovery_ns_count 1"));
    assert!(text
        .lines()
        .any(|l| l.starts_with("ingest_recovery_ns_bucket{le=\"") && !l.contains("+Inf")));
    svc.shutdown();
}

#[test]
fn registry_counts_the_engines_korder_relabels() {
    // Small batches keep the planner on order-based passes, whose
    // promotions and demotions relabel `A_k` now and then. The registry
    // counter, pushed per flush as a delta, must end at the engine's own
    // count.
    let base = barabasi_albert(1000, 4, 17);
    let cfg = IngestConfig::scripted().max_batch(8);
    let svc = IngestService::spawn_planned(base.clone(), 5, cfg).unwrap();
    let metrics = svc.metrics().expect("the registry always exists");
    for b in churn_stream(&base, 1000, 4, 4, 31) {
        for e in churn_events(&b) {
            svc.submit(e).unwrap();
        }
    }
    let (_, engine) = svc.shutdown();
    let relabels = engine.korder_relabels();
    assert!(relabels > 0, "the stream must relabel");
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("engine_korder_relabels_total"), Some(relabels));
    assert!(snap.counter("planner_batched_total").unwrap() > 0);
    // No strategy feeds these three counters; they stay registered for
    // perfbench's `drive.rs`, which panics on a missing counter.
    for dead in [
        "planner_split_total",
        "planner_par_split_total",
        "planner_par_recompute_total",
    ] {
        assert_eq!(snap.counter(dead), Some(0), "{dead}");
    }
}

#[test]
fn fresh_registry_holds_every_planner_counter_perfbench_reads() {
    // perfbench's `drive.rs` reads these five names into its planner mix
    // and panics on a missing one, so they must be registered before the
    // first flush, whichever strategies run.
    let svc = IngestService::spawn_planned(path_graph(4), 1, IngestConfig::scripted()).unwrap();
    let snap = svc
        .metrics()
        .expect("the registry always exists")
        .snapshot();
    for name in [
        "planner_batched_total",
        "planner_split_total",
        "planner_par_split_total",
        "planner_recompute_total",
        "planner_par_recompute_total",
    ] {
        assert_eq!(snap.counter(name), Some(0), "{name}");
    }
    svc.shutdown();
}

#[test]
fn journal_file_is_the_header_plus_one_frame_per_flush() {
    // The writer journals each applied batch straight from its pending
    // events: the KJRN file must be exactly the header followed by one
    // `encode_frame` per flush, cut at the flush boundaries, with seqs
    // counting every submitted event (skipped ones included).
    use crate::durability::{encode_frame, encode_journal_header};
    use kcore_maint::journal::JournalEntry;
    let dir = tmpdir("journal_golden");
    let d = DurabilityConfig::in_dir(&dir);
    let n = 12;
    let events = [
        GraphEvent::EdgeInserted(0, 1),
        GraphEvent::EdgeInserted(1, 6),
        GraphEvent::EdgeInserted(2, 11),
        GraphEvent::EdgeRemoved(0, 1),
        GraphEvent::EdgeInserted(9, 4),
        GraphEvent::EdgeInserted(1, 6), // duplicate: skipped, still journaled
        GraphEvent::EdgeRemoved(4, 5),  // absent: skipped, still journaled
        GraphEvent::EdgeInserted(6, 7),
        GraphEvent::EdgeInserted(8, 5),
        GraphEvent::EdgeRemoved(2, 11),
        GraphEvent::EdgeInserted(10, 3),
    ];
    let cfg = IngestConfig::scripted()
        .max_batch(4)
        .flush_interval_ns(100)
        .durable(d.clone());
    let svc = IngestService::spawn_planned(DynamicGraph::with_vertices(n), 5, cfg).unwrap();
    // Two size flushes, an interval flush, a barrier flush.
    for &e in &events[..10] {
        svc.submit(e).unwrap();
    }
    svc.tick(150).unwrap();
    svc.submit(events[10]).unwrap();
    let snap = svc.flush().unwrap();
    assert_eq!(snap.ops, events.len() as u64);
    let (report, _) = svc.shutdown();
    assert_eq!(report.batches, 4);
    assert_eq!(report.entries_shipped, events.len() as u64);

    let mut expect = encode_journal_header(n, 0);
    for cut in [0usize, 4, 8, 10, 11].windows(2) {
        let entries: Vec<JournalEntry> = (cut[0]..cut[1])
            .map(|i| JournalEntry {
                seq: i as u64,
                event: events[i],
                transitions: Vec::new(),
            })
            .collect();
        expect.extend_from_slice(&encode_frame(&entries));
    }
    assert_eq!(std::fs::read(&d.journal_path).unwrap(), expect);
}

#[test]
fn kjrn_v3_frames_of_a_churn_stream_are_pinned() {
    // Exact bytes of the v3 delta encoding: a change to the frame layout,
    // the zigzag-LEB128 payload or the CRC shows up here, not only as a
    // drift in the bench's bytes-per-event figure.
    use crate::durability::{crc32, encode_frame};
    use kcore_maint::journal::JournalEntry;
    let base = barabasi_albert(2000, 4, 17);
    let entries: Vec<JournalEntry> = churn_stream(&base, 24, 96, 96, 31)
        .iter()
        .flat_map(churn_events)
        .enumerate()
        .map(|(seq, event)| JournalEntry {
            seq: seq as u64,
            event,
            transitions: Vec::new(),
        })
        .collect();
    assert_eq!(entries.len(), 4608);
    let bytes: Vec<u8> = entries.chunks(256).flat_map(encode_frame).collect();
    assert_eq!(bytes.len(), 22_433);
    assert_eq!(crc32(&bytes), 0x1cb4_57d0);
}

/// CRC-32 one byte per step, each byte shifted through bit by bit: the
/// reference `Crc32` is held to, sharing none of its tables.
fn bytewise_crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c ^ 0xFFFF_FFFF
}

/// `len` seeded pseudo-random bytes (splitmix64).
fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

#[test]
fn slice_by_8_crc_matches_the_bytewise_reference() {
    use crate::durability::{crc32, Crc32};
    assert_eq!(
        bytewise_crc32(b"123456789"),
        0xCBF4_3926,
        "the IEEE check value"
    );
    // Every length around the 8-byte step and its tail.
    let buf = seeded_bytes(1, 64);
    for len in 0..=64 {
        assert_eq!(crc32(&buf[..len]), bytewise_crc32(&buf[..len]), "len {len}");
    }
    // Seeded buffers up to 64 KiB, odd lengths included.
    for (seed, len) in [(2, 65_536), (3, 65_535), (4, 4_097), (5, 1_000), (6, 9)] {
        let buf = seeded_bytes(seed, len);
        assert_eq!(crc32(&buf), bytewise_crc32(&buf), "seed {seed} len {len}");
    }
    // Incremental equals one-shot wherever the first slice ends.
    let buf = seeded_bytes(7, 203);
    for split in 0..=16 {
        let mut c = Crc32::new();
        c.update(&buf[..split]).update(&buf[split..]);
        assert_eq!(c.finish(), bytewise_crc32(&buf), "split at {split}");
    }
}

#[test]
fn failed_background_checkpoint_degrades_at_the_next_flush_barrier() {
    use crate::durability::load_index_snapshot;
    use crate::faults::{FaultKind, FaultPlan, OpClass};
    let dir = tmpdir("checkpoint_fail");
    // FileSync op 0 is checkpoint zero's snapshot and op 1 the journal
    // its job then creates; op 2 is the first periodic checkpoint. All
    // three run on checkpoint threads.
    let d = DurabilityConfig::in_dir(&dir)
        .snapshot_every(2)
        .with_faults(FaultPlan::new().fault(OpClass::FileSync, 2, FaultKind::IoError));
    let base = barabasi_albert(40, 3, 13);
    let events: Vec<GraphEvent> = churn_stream(&base, 2, 6, 2, 3)
        .iter()
        .flat_map(churn_events)
        .collect();
    assert_eq!(events.len(), 16);
    let svc = IngestService::spawn_planned(
        base.clone(),
        21,
        IngestConfig::scripted().max_batch(4).durable(d.clone()),
    )
    .unwrap();
    let metrics = svc.metrics().unwrap();

    // Flush 2 starts the checkpoint whose fsync fails; the barrier joins
    // it and only then does the failure show. Checkpoint zero is timed
    // like any checkpoint.
    for &e in &events[..8] {
        svc.submit(e).unwrap();
    }
    svc.flush().unwrap();
    assert_eq!(svc.health(), ServiceHealth::Degraded);
    let snap = metrics.snapshot();
    assert_eq!(
        snap.histogram("ingest_checkpoint_serialize_ns")
            .unwrap()
            .count,
        2
    );
    assert_eq!(
        snap.histogram("ingest_checkpoint_write_ns").unwrap().count,
        2
    );
    assert_eq!(snap.counter("ingest_snapshots_persisted_total"), Some(1));
    // The failed write published nothing: checkpoint zero is still the
    // newest generation.
    assert_eq!(load_index_snapshot(&d.snapshot_path, 1).unwrap().0, 0);

    // Two clean flushes (the second checkpoints successfully) heal it.
    for &e in &events[8..] {
        svc.submit(e).unwrap();
    }
    svc.flush().unwrap();
    assert_eq!(svc.health(), ServiceHealth::Healthy);
    let (report, engine) = svc.shutdown();
    assert_eq!(report.checkpoint_failures, 1);
    assert_eq!(
        report.snapshots_persisted, 3,
        "checkpoint zero, flush 4 and the final persist"
    );
    assert_eq!(report.final_health, ServiceHealth::Healthy);
    // The registry counts the same outcomes as the report.
    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter("ingest_checkpoint_failures_total"),
        Some(report.checkpoint_failures)
    );
    assert_eq!(
        snap.counter("ingest_snapshots_persisted_total"),
        Some(report.snapshots_persisted)
    );

    let rec = recover(
        &DurabilityConfig::in_dir(&dir),
        21,
        PlannerConfig::default(),
        8,
    )
    .unwrap();
    let durable = rec.report.durable_ops as usize;
    assert_eq!(durable, events.len());
    assert_eq!(
        rec.engine.cores(),
        &core_decomposition(&apply_events(&base, &events[..durable]))[..]
    );
    assert_eq!(rec.engine.cores(), engine.cores());
}

#[test]
fn checkpoint_cadence_counts_events_not_flushes() {
    // `snapshot_every(2)` at `max_batch(4)` means a checkpoint every 8
    // applied events, however the flushes cut them: eight 1-event
    // barrier flushes take exactly one periodic checkpoint, not four.
    use crate::durability::load_index_snapshot;
    let dir = tmpdir("checkpoint_cadence");
    let d = DurabilityConfig::in_dir(&dir).snapshot_every(2);
    let svc = IngestService::spawn_planned(
        path_graph(12),
        4,
        IngestConfig::scripted().max_batch(4).durable(d.clone()),
    )
    .unwrap();
    let metrics = svc.metrics().unwrap();
    for v in 0..8u32 {
        svc.submit(GraphEvent::EdgeInserted(v, v + 3)).unwrap();
        svc.flush().unwrap();
    }
    let snap = metrics.snapshot();
    // Checkpoint zero plus one periodic checkpoint.
    assert_eq!(snap.counter("ingest_batches_total"), Some(8));
    assert_eq!(snap.counter("ingest_snapshots_persisted_total"), Some(2));
    assert_eq!(
        snap.histogram("ingest_checkpoint_serialize_ns")
            .unwrap()
            .count,
        2
    );
    assert_eq!(
        load_index_snapshot(&d.snapshot_path, 12).unwrap().0,
        8,
        "the periodic checkpoint covers the 8th event"
    );
    let (report, _) = svc.shutdown();
    assert_eq!(
        report.snapshots_persisted, 3,
        "checkpoint zero, the periodic one and the final persist"
    );
}
