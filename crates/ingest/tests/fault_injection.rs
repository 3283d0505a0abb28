//! Fault-injection integration tests: the kill-at-every-failpoint sweep
//! and the supervised self-healing writer, all under the scripted clock
//! and the scripted [`StorageHandle`] — zero wall-clock sleeps, zero
//! nondeterminism, including on the 1-CPU CI container. The one
//! exception is the idle-`Failed`-writer test, which needs the wall
//! clock to show that the writer does not spin.
//!
//! The sweep is profile-then-kill: one clean run over instrumented
//! storage records how many operations of each class the workload
//! performs, then one run per (class, nth) crashes storage at exactly
//! that operation and asserts recovery is bit-identical to the
//! decomposition oracle on the prefix the [`RecoveryReport`] claims
//! durable — never a silently wrong state.

use kcore_decomp::core_decomposition;
use kcore_graph::DynamicGraph;
use kcore_ingest::sources::{apply_events, churn_events};
use kcore_ingest::{
    recover, DurabilityConfig, FaultKind, FaultPlan, FlakyEngine, GraphEvent, IngestConfig,
    IngestService, OpClass, RecoveryPolicy, RetryBudget, ServiceHealth, StorageHandle,
};
use kcore_maint::{PlannedCore, PlannerConfig};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;

const N: usize = 16;
const SEED: u64 = 7;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("kcore_ingest_faults_it")
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 40 deterministic mixed events over an empty 16-vertex graph
/// (duplicates and no-op removals included — both sides use the shared
/// skip-semantics model).
fn sweep_events() -> Vec<GraphEvent> {
    let mut ev = Vec::new();
    for i in 0u32..40 {
        if i % 7 == 6 {
            let u = (i * 3) % N as u32;
            ev.push(GraphEvent::EdgeRemoved(u, (u + 1) % N as u32));
        } else {
            let u = (i * 7 + 3) % N as u32;
            let v = (i * 5 + 1) % N as u32;
            let v = if u == v { (v + 1) % N as u32 } else { v };
            ev.push(GraphEvent::EdgeInserted(u, v));
        }
    }
    ev
}

fn oracle(prefix: &[GraphEvent]) -> Vec<u32> {
    core_decomposition(&apply_events(&DynamicGraph::with_vertices(N), prefix))
}

/// Runs the sweep workload over `storage`: durable scripted service,
/// fsync on, periodic snapshots, 10 size-flushes, then an *unclean*
/// abort (the storage crash is the kill; aborting skips the graceful
/// final persist a real kill would also lose).
fn run_sweep_workload(dir: &std::path::Path, storage: StorageHandle) {
    let mut d = DurabilityConfig::in_dir(dir)
        .snapshot_every(3)
        .generations(2)
        .with_storage(storage);
    d.fsync = true;
    let cfg = IngestConfig::scripted().max_batch(4).durable(d);
    let svc = match IngestService::spawn_planned(DynamicGraph::with_vertices(N), SEED, cfg) {
        Ok(svc) => svc,
        // The crash fired during sink open or checkpoint zero: the
        // "service never started" outcome, also covered by the sweep.
        Err(_) => return,
    };
    for e in sweep_events() {
        svc.submit(e).unwrap();
    }
    svc.flush().unwrap();
    svc.abort();
}

#[test]
fn fault_kill_at_every_failpoint_recovers_reported_prefix() {
    // Profile pass: no faults, but instrumented storage counts every
    // operation the deterministic workload performs, per class.
    let profile = StorageHandle::faulty(FaultPlan::new());
    run_sweep_workload(&tmpdir("sweep_profile"), profile.clone());
    let counts = profile.op_counts();
    let total: u64 = counts.iter().map(|&(_, c)| c).sum();
    assert!(total >= 30, "workload too small to be a meaningful sweep");
    assert!(
        counts.iter().all(|&(c, n)| n > 0 || c == OpClass::Truncate),
        "profile left an op class unexercised: {counts:?}"
    );

    let events = sweep_events();
    for &(class, count) in &counts {
        // Fault indices are 0-based: `nth` is the value of the class
        // counter when the operation is attempted.
        for nth in 0..count {
            let dir = tmpdir(&format!("sweep_{class:?}_{nth}"));
            let storage = StorageHandle::faulty(FaultPlan::new().crash(class, nth));
            run_sweep_workload(&dir, storage.clone());
            assert!(
                storage.crashed(),
                "crash at ({class:?}, {nth}) never fired — profile out of sync"
            );
            // Recover with plain storage, exactly as a restarted
            // process would.
            let rd = DurabilityConfig::in_dir(&dir).generations(2);
            match recover(&rd, SEED, PlannerConfig::default(), 8) {
                Ok(rec) => {
                    let durable = rec.report.durable_ops as usize;
                    assert_eq!(
                        rec.next_seq, rec.report.durable_ops,
                        "({class:?}, {nth}): report and resume seq disagree"
                    );
                    assert!(durable <= events.len());
                    assert_eq!(
                        rec.engine.cores(),
                        &oracle(&events[..durable])[..],
                        "({class:?}, {nth}): recovered state is not the oracle on the \
                         reported durable prefix (rung {})",
                        rec.report.rung
                    );
                }
                Err(e) => {
                    // Only legitimate when the kill predates any
                    // durable journal bytes at all.
                    let len = std::fs::metadata(&rd.journal_path).map(|m| m.len()).ok();
                    assert!(
                        len.is_none() || len == Some(0),
                        "({class:?}, {nth}): recovery failed ({e}) despite a journal \
                         of {len:?} bytes on disk"
                    );
                }
            }
        }
    }
}

/// 16 inserts over an empty 12-vertex graph, flushed 4 at a time.
fn heal_events() -> Vec<GraphEvent> {
    (0u32..16)
        .map(|i| {
            let u = i % 11;
            GraphEvent::EdgeInserted(u, (u + 1 + (i / 11)) % 12)
        })
        .collect()
}

fn heal_oracle(events: &[GraphEvent], skip: std::ops::Range<usize>) -> Vec<u32> {
    let kept: Vec<GraphEvent> = events[..skip.start]
        .iter()
        .chain(&events[skip.end..])
        .copied()
        .collect();
    core_decomposition(&apply_events(&DynamicGraph::with_vertices(12), &kept))
}

#[test]
fn fault_supervised_writer_self_heals_after_engine_panic() {
    let dir = tmpdir("self_heal");
    let events = heal_events();
    let inner =
        PlannedCore::with_config(DynamicGraph::with_vertices(12), 9, PlannerConfig::default());
    // Third batch entry point (0-based index 2) panics mid-batch.
    let engine = FlakyEngine::new(inner, &[2]);
    let probe = engine.probe();
    let cfg = IngestConfig::scripted()
        .max_batch(4)
        .durable(DurabilityConfig::in_dir(&dir))
        .self_healing(RecoveryPolicy {
            max_attempts: 3,
            backoff_base_ns: 100,
            backoff_factor: 2,
            seed: 9,
            replay_batch: 4,
            healthy_after: 1,
        });
    let svc = IngestService::spawn_with_engine(engine, 0, cfg).unwrap();
    let snaps = svc.subscribe().unwrap();

    // Two clean flushes, then the poisoned one: the panic is caught, the
    // supervisor rebuilds from journal + checkpoint, and readers never
    // see a torn epoch.
    for e in &events[..12] {
        svc.submit(*e).unwrap();
    }
    let s1 = snaps.recv().unwrap();
    let s2 = snaps.recv().unwrap();
    assert_eq!((s1.epoch, s1.ops), (1, 4));
    assert_eq!((s2.epoch, s2.ops), (2, 8));
    // Recovery publishes its own epoch: monotone epoch, regressed ops —
    // the lost batch is visible in `ops`, never as corrupt state.
    let s3 = snaps.recv().unwrap();
    assert_eq!((s3.epoch, s3.ops), (3, 8));
    assert_eq!(
        s3.cores.to_vec(),
        heal_oracle(&events, 8..16),
        "recovered snapshot must equal the oracle on the surviving prefix"
    );

    // The healed service keeps ingesting on the same journal.
    for e in &events[12..] {
        svc.submit(*e).unwrap();
    }
    let s4 = snaps.recv().unwrap();
    assert_eq!((s4.epoch, s4.ops), (4, 12));
    svc.flush().unwrap();
    assert_eq!(
        svc.health(),
        ServiceHealth::Healthy,
        "one clean flush heals"
    );

    // The registry's recovery-rung counters must tell the same story as
    // the report: one panic, one recovery, taken on the primary rung
    // (clean journal — no tail damage, no generation fallback).
    let metrics = svc.metrics().expect("observability is on by default");
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("ingest_engine_panics_total"), Some(1));
    assert_eq!(snap.counter("ingest_recoveries_total"), Some(1));
    assert_eq!(snap.counter("ingest_recovery_retries_total"), Some(0));
    assert_eq!(snap.counter("ingest_recovery_failures_total"), Some(0));
    assert_eq!(snap.counter("ingest_recovery_rung_primary_total"), Some(1));
    for rung in [
        "ingest_recovery_rung_truncated_tail_total",
        "ingest_recovery_rung_older_generation_total",
        "ingest_recovery_rung_snapshot_only_total",
        "ingest_recovery_rung_genesis_replay_total",
    ] {
        assert_eq!(snap.counter(rung), Some(0), "rung {rung} must stay 0");
    }
    let rec_hist = snap.histogram("ingest_recovery_ns").unwrap();
    assert_eq!(rec_hist.count, 1, "one recovery timing sample");
    assert_eq!(snap.counter("ingest_events_lost_total"), Some(4));
    assert_eq!(snap.counter("ingest_events_total"), Some(16));
    assert_eq!(
        snap.gauge("ingest_health"),
        Some(ServiceHealth::Healthy as u8 as f64)
    );

    let (report, engine) = svc.shutdown();
    assert_eq!(report.engine_panics, 1);
    assert_eq!(report.recoveries, 1);
    assert_eq!(report.recovery_retries, 0);
    assert_eq!(report.recovery_failures, 0);
    assert_eq!(report.events_lost, 4);
    assert_eq!(report.events, 16);
    assert_eq!(report.final_health, ServiceHealth::Healthy);
    assert_eq!(probe.batches(), 4);
    assert_eq!(probe.panics_left(), 0);
    assert_eq!(engine.inner().cores(), &heal_oracle(&events, 8..12)[..]);

    // And the journal survives a *subsequent* plain recovery: the
    // self-heal left durable state consistent, not just in-memory state.
    let rec = recover(
        &DurabilityConfig::in_dir(&dir),
        9,
        PlannerConfig::default(),
        8,
    )
    .unwrap();
    assert_eq!(rec.engine.cores(), &heal_oracle(&events, 8..12)[..]);
    assert_eq!(rec.report.durable_ops, 12);
    // Same ladder, same rung: the counter the writer bumped corresponds
    // to the rung a plain recovery reports for this journal.
    assert_eq!(rec.report.rung_metric(), "primary");
}

#[test]
fn fault_recovery_backoff_is_scripted_and_bounded() {
    let dir = tmpdir("backoff");
    let events = heal_events();
    // Read op 0 is the spawn-time sink open; ops 1 and 2 are the journal
    // reads of recovery attempts 1 and 2 — both fail, attempt 3 is clean.
    let storage = StorageHandle::faulty(
        FaultPlan::new()
            .fault(OpClass::Read, 1, FaultKind::IoError)
            .fault(OpClass::Read, 2, FaultKind::IoError),
    );
    let inner =
        PlannedCore::with_config(DynamicGraph::with_vertices(12), 9, PlannerConfig::default());
    let engine = FlakyEngine::new(inner, &[1]); // second batch panics
    let cfg = IngestConfig::scripted()
        .max_batch(4)
        .durable(DurabilityConfig::in_dir(&dir).with_storage(storage.clone()))
        .self_healing(RecoveryPolicy {
            max_attempts: 3,
            backoff_base_ns: 1_000,
            backoff_factor: 2,
            seed: 9,
            replay_batch: 4,
            healthy_after: 1,
        });
    let svc = IngestService::spawn_with_engine(engine, 0, cfg).unwrap();

    // Flush 1 clean; flush 2 panics at scripted t=0. Attempt 1 fires
    // immediately and fails (faulted read) → next attempt due at t=1000.
    for e in &events[..8] {
        svc.submit(*e).unwrap();
    }
    svc.flush().unwrap();
    assert_eq!(svc.health(), ServiceHealth::Recovering);

    // One tick *below* the backoff deadline must not retry…
    svc.tick(999).unwrap();
    svc.flush().unwrap();
    assert_eq!(svc.health(), ServiceHealth::Recovering);
    assert_eq!(storage.fired_faults().len(), 1);

    // …the deadline tick retries (and fails again: due moves to t=3000
    // under the doubled delay)…
    svc.tick(1_000).unwrap();
    svc.flush().unwrap();
    assert_eq!(svc.health(), ServiceHealth::Recovering);
    assert_eq!(storage.fired_faults().len(), 2);
    svc.tick(2_999).unwrap();
    svc.flush().unwrap();
    assert_eq!(svc.health(), ServiceHealth::Recovering);

    // …and the third attempt (clean storage from here) succeeds.
    svc.tick(3_000).unwrap();
    svc.flush().unwrap();
    assert_ne!(svc.health(), ServiceHealth::Recovering);
    assert_ne!(svc.health(), ServiceHealth::Failed);

    for e in &events[8..12] {
        svc.submit(*e).unwrap();
    }
    svc.flush().unwrap();
    assert_eq!(svc.health(), ServiceHealth::Healthy);

    let (report, engine) = svc.shutdown();
    assert_eq!(report.engine_panics, 1);
    assert_eq!(report.recovery_retries, 2);
    assert_eq!(report.recoveries, 1);
    assert_eq!(report.recovery_failures, 0);
    assert_eq!(report.events_lost, 4);
    assert_eq!(report.final_health, ServiceHealth::Healthy);
    assert_eq!(
        engine.inner().cores(),
        &heal_oracle(&events[..12], 4..8)[..]
    );
}

#[test]
fn fault_submit_with_retry_backs_off_deterministically() {
    let svc = IngestService::spawn_planned(
        DynamicGraph::with_vertices(8),
        3,
        IngestConfig::scripted().queue_capacity(2).max_batch(64),
    )
    .unwrap();
    // Park the writer so the bounded queue genuinely fills.
    let pause = svc.pause().unwrap();
    svc.submit(GraphEvent::EdgeInserted(0, 1)).unwrap();
    svc.submit(GraphEvent::EdgeInserted(1, 2)).unwrap();

    // Budget exhausted while parked: the full backoff schedule runs
    // (base 100, doubling, capped at 350) and the submit still reports
    // honest backpressure.
    let mut delays = Vec::new();
    let budget = RetryBudget {
        attempts: 5,
        base_delay_ns: 100,
        factor: 2,
        max_delay_ns: 350,
    };
    let err = svc.submit_with_retry_by(GraphEvent::EdgeInserted(2, 3), budget, |ns| {
        delays.push(ns);
    });
    assert!(matches!(err, Err(kcore_ingest::IngestError::QueueFull)));
    assert_eq!(delays, vec![100, 200, 350, 350, 350]);

    // Resume and drain; with room available the helper succeeds without
    // a single wait.
    drop(pause);
    svc.flush().unwrap();
    let retries = svc
        .submit_with_retry_by(GraphEvent::EdgeInserted(2, 3), budget, |_| {
            panic!("no wait expected with a drained queue")
        })
        .unwrap();
    assert_eq!(retries, 0);

    let (report, _) = svc.shutdown();
    assert_eq!(report.events, 3);
    assert_eq!(report.final_health, ServiceHealth::Healthy);
}

/// Thread ids of this process's ingest writers (`comm` is the thread
/// name cut to 15 bytes).
fn writer_tids() -> BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|t| {
            let tid = t.ok()?.file_name().into_string().ok()?;
            let comm = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
            comm.starts_with("kcore-ingest-wr").then_some(tid)
        })
        .collect()
}

/// User + system CPU time of thread `tid` in ms, from `utime` and
/// `stime` (fields 14 and 15 of `/proc/self/task/<tid>/stat`, counted in
/// 100 Hz clock ticks).
fn thread_cpu_ms(tid: &str) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).unwrap();
    // Fields after the parenthesised `comm` start at field 3.
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 2..].split(' ').collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    ticks * 10
}

#[test]
fn fault_failed_writer_drops_buffered_events_and_sleeps() {
    // JournalAppend 0 writes the journal header at spawn; the crash at
    // append 1 fails the first batch and every append after it, so the
    // writer exhausts its journal retries and parks in `Failed`.
    let base = kcore_gen::barabasi_albert(2000, 4, 3);
    let events: Vec<GraphEvent> = kcore_gen::churn_stream(&base, 40, 6, 2, 5)
        .iter()
        .flat_map(churn_events)
        .collect();
    let (svc, tid) = (0..50)
        .find_map(|attempt| {
            let dir = tmpdir(&format!("failed_idle_{attempt}"));
            let storage = StorageHandle::faulty(FaultPlan::new().crash(OpClass::JournalAppend, 1));
            let cfg = IngestConfig::default()
                .durable(DurabilityConfig::in_dir(&dir).with_storage(storage));
            // Other tests spawn writers concurrently: keep this one only
            // if it is the sole writer born around its spawn. The empty
            // barrier returns once the writer runs under its name.
            let before = writer_tids();
            let svc = IngestService::spawn_planned(base.clone(), SEED, cfg).unwrap();
            svc.flush().unwrap();
            let born: Vec<String> = writer_tids().difference(&before).cloned().collect();
            match &born[..] {
                [tid] => Some((svc, tid.clone())),
                _ => None,
            }
        })
        .expect("could not tell this test's writer thread apart");

    for &e in &events[..300] {
        svc.submit(e).unwrap();
    }
    // A failed ship is retried once per message, never in a loop: each
    // round leaves one more event buffered behind the journal debt.
    let mut sent = 300;
    while svc.health() != ServiceHealth::Failed {
        assert!(sent < 320, "journal retries never escalated to Failed");
        svc.submit(events[sent]).unwrap();
        sent += 1;
        svc.flush().unwrap();
    }

    // Idle in `Failed`: the writer must sleep, not poll.
    let cpu0 = thread_cpu_ms(&tid);
    std::thread::sleep(Duration::from_millis(500));
    let cpu = thread_cpu_ms(&tid) - cpu0;
    assert!(
        cpu < 50,
        "Failed writer burned {cpu} ms of CPU in 500 ms idle"
    );

    // Every received event is either applied (and published) or counted
    // lost — the buffered ones at the moment of failure included.
    let snap = svc.metrics().unwrap().snapshot();
    let lost = snap.counter("ingest_events_lost_total").unwrap();
    assert_eq!(snap.counter("ingest_events_total"), Some(sent as u64));
    assert!(lost > 0, "the events behind the journal debt are lost");
    assert_eq!(svc.snapshots().load().ops + lost, sent as u64);

    let (report, _) = svc.shutdown();
    assert_eq!(report.final_health, ServiceHealth::Failed);
    assert_eq!(
        report.events_lost, lost,
        "nothing was left to lose at shutdown"
    );
}
