//! Streaming-ingest scenario: a writer thread maintains core numbers
//! under a live churn stream while reader threads answer "who is in the
//! engaged community right now?" from epoch snapshots — never waiting
//! on the writer's batch work, never seeing a half-applied batch. A journal + checkpoint
//! make the stream survive a crash.
//!
//! Run with: `cargo run --release --example streaming_ingest`

use kcore::gen::{barabasi_albert, churn_stream};
use kcore::ingest::durability::DurabilityConfig;
use kcore::ingest::recover;
use kcore::ingest::sources::churn_events;
use kcore::{IngestConfig, IngestService, PlannerConfig};

fn main() {
    let base = barabasi_albert(20_000, 5, 42);
    println!(
        "base graph: {} vertices, {} edges",
        base.num_vertices(),
        base.num_edges()
    );

    let dir = std::env::temp_dir().join("kcore_streaming_ingest_example");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let durability = DurabilityConfig::in_dir(&dir).snapshot_every(64);

    let svc = IngestService::spawn_planned(
        base.clone(),
        7,
        IngestConfig::default()
            .max_batch(512)
            .queue_capacity(4096)
            .durable(durability.clone()),
    )
    .expect("spawn ingest service");

    // A reader thread polls snapshots while the stream flows: it holds a
    // consistent epoch for as long as it likes and is never blocked by
    // the writer's batch work.
    let handle = svc.snapshots();
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let done_reader = done.clone();
    let reader = std::thread::spawn(move || {
        let mut last_epoch = 0;
        let mut epochs_seen = 0usize;
        loop {
            let snap = handle.load();
            if snap.epoch > last_epoch {
                last_epoch = snap.epoch;
                epochs_seen += 1;
                if epochs_seen.is_multiple_of(10) {
                    println!(
                        "  reader: epoch {:>4} covers {:>6} events — degeneracy {}, |{}-core| = {}",
                        snap.epoch,
                        snap.ops,
                        snap.degeneracy,
                        snap.degeneracy,
                        snap.kcore_members(snap.degeneracy).len()
                    );
                }
            } else if done_reader.load(std::sync::atomic::Ordering::Acquire) {
                break epochs_seen;
            }
            std::thread::yield_now();
        }
    });

    // The producer: 200 churn micro-batches of mixed inserts/removals,
    // with blocking submission as the backpressure valve.
    let mut submitted = 0usize;
    for batch in churn_stream(&base, 200, 96, 64, 99) {
        for e in churn_events(&batch) {
            svc.submit(e).expect("writer alive");
            submitted += 1;
        }
    }
    let final_snap = svc.flush().expect("flush barrier");
    println!(
        "submitted {submitted} events; final epoch {} covers {} events",
        final_snap.epoch, final_snap.ops
    );
    // The writer's live metrics registry: counters, gauges, and the
    // per-flush stage-latency histograms, readable from any thread and
    // renderable as a Prometheus text exposition.
    let metrics = svc.metrics().expect("observability is on by default");
    let obs = metrics.snapshot();
    println!(
        "live metrics: {} events, {} batches, {} epochs | flush stages p99: \
         apply {:.1}us, journal {:.1}us, mirror {:.1}us, publish {:.1}us",
        obs.counter("ingest_events_total").unwrap_or(0),
        obs.counter("ingest_batches_total").unwrap_or(0),
        obs.counter("ingest_epochs_published_total").unwrap_or(0),
        obs.histogram("ingest_flush_apply_ns")
            .map_or(0.0, |h| h.p99 as f64 / 1e3),
        obs.histogram("ingest_flush_journal_ship_ns")
            .map_or(0.0, |h| h.p99 as f64 / 1e3),
        obs.histogram("ingest_flush_mirror_sync_ns")
            .map_or(0.0, |h| h.p99 as f64 / 1e3),
        obs.histogram("ingest_flush_publish_ns")
            .map_or(0.0, |h| h.p99 as f64 / 1e3),
    );
    let exposition = obs.render_text();
    println!(
        "Prometheus exposition sample ({} lines total):",
        exposition.lines().count()
    );
    for line in exposition
        .lines()
        .filter(|l| l.starts_with("ingest_health") || l.starts_with("planner_ewma_batched"))
        .take(3)
    {
        println!("  {line}");
    }
    let (report, engine) = svc.shutdown();
    done.store(true, std::sync::atomic::Ordering::Release);
    println!(
        "writer: {} batches, {} journal entries shipped, {} checkpoints",
        report.batches, report.entries_shipped, report.snapshots_persisted
    );
    // Publish-cost stats: snapshots are published copy-on-write, so each
    // epoch costs the chunks the flush dirtied — not an O(n) rebuild.
    println!(
        "publish cost: p50 {:.1}us per epoch, {} of {} x {} chunks copy-on-written \
         ({} tracked drains, {} full syncs)",
        report.publish.p50() as f64 / 1_000.0,
        report.chunks_copied,
        report.batches,
        report.mirror_chunks,
        report.tracked_drains,
        report.full_syncs,
    );
    // The planner's own story of the run: which strategies it chose and
    // the EWMA cost model it priced them with.
    println!("planner: {}", engine.planner_stats());
    let epochs_seen = reader.join().unwrap();
    println!("reader observed {epochs_seen} distinct epochs");

    // Crash-free restart proof: recover from journal + checkpoint and
    // compare against the live engine we just shut down. The report says
    // which ladder rung restored the state and exactly what was lost.
    let rec = recover(&durability, 1, PlannerConfig::default(), 512).expect("recover");
    assert_eq!(rec.engine.cores(), engine.cores());
    println!(
        "recovered {} events from {} — state identical",
        rec.next_seq,
        dir.display(),
    );
    println!("  recovery report: {}", rec.report);

    // Escalation proof: flip one byte of the newest checkpoint's payload
    // and recover again. Its CRC rejects it, the ladder falls back to
    // the older retained generation, and the journal replays the
    // difference — same state, one rung down.
    let mut bytes = std::fs::read(&durability.snapshot_path).unwrap();
    let at = bytes.len() - 1;
    bytes[at] ^= 0xFF;
    std::fs::write(&durability.snapshot_path, bytes).unwrap();
    let rec2 =
        recover(&durability, 1, PlannerConfig::default(), 512).expect("recover past corruption");
    assert_eq!(rec2.engine.cores(), engine.cores());
    println!("after corrupting the newest checkpoint — state identical");
    println!("  recovery report: {}", rec2.report);
    std::fs::remove_dir_all(&dir).ok();
}
