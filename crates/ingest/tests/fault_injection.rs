//! Fault-injection integration tests: the kill-at-every-failpoint sweep,
//! every recovery rung from one damaged durable directory, and the
//! supervised self-healing writer, all under the scripted clock
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
    recover, snapshot_generation_path, DurabilityConfig, FaultKind, FaultPlan, GraphEvent,
    IngestConfig, IngestService, OpClass, RecoveryPolicy, RecoveryRung, RetryBudget, ServiceHealth,
    StorageHandle,
};
use kcore_maint::{PlanPolicy, PlannerConfig, UpdateStats};
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

/// Copies every file of a durable directory (journal + snapshot
/// generations) into a fresh directory.
fn copy_durable_dir(src: &std::path::Path, dst: &std::path::Path) {
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn flip_byte(path: &std::path::Path, at: impl FnOnce(usize) -> usize) {
    let mut bytes = std::fs::read(path).unwrap();
    let i = at(bytes.len());
    bytes[i] ^= 0xFF;
    std::fs::write(path, bytes).unwrap();
}

/// One scripted durable run, damaged once per scenario, reaches every
/// rung of the recovery ladder, and each rung restores exactly the
/// oracle state of the prefix it reports durable. `recover()` repairs
/// before it returns, so a second call over the same directory restores
/// the same prefix from the same snapshot generation and finds no
/// journal damage.
#[test]
fn fault_every_recovery_rung_from_one_durable_directory() {
    // The run starts from the empty universe, so the journal alone
    // holds every edge and genesis replay can rebuild the final state.
    // No periodic snapshots: gen 0 is the shutdown checkpoint (all 40
    // ops) and gen 1 the spawn-time one (0 ops). Every flush ships one
    // 4-event frame.
    let src = tmpdir("rungs_src");
    let events = sweep_events();
    let cfg = IngestConfig::scripted()
        .max_batch(4)
        .durable(DurabilityConfig::in_dir(&src));
    let svc = IngestService::spawn_planned(DynamicGraph::with_vertices(N), SEED, cfg).unwrap();
    svc.submit_all(events.iter().copied()).unwrap();
    let (report, _) = svc.shutdown();
    assert_eq!((report.batches, report.snapshots_persisted), (10, 1));

    fn journal(d: &std::path::Path) -> PathBuf {
        d.join("ingest.kjrn")
    }
    type Damage = fn(&std::path::Path);
    // (name, damage, rung, durable prefix, rung of a second recover()).
    let scenarios: [(&str, Damage, RecoveryRung, u64, RecoveryRung); 5] = [
        (
            "clean",
            |_| {},
            RecoveryRung::Primary,
            40,
            RecoveryRung::Primary,
        ),
        (
            // Tear the last frame; gen 0 is demoted to the 0-ops
            // checkpoint, or it would be ahead of the torn journal and
            // the snapshot-only rung would fire instead.
            "torn_tail",
            |d| {
                std::fs::copy(gen(d, 1), gen(d, 0)).unwrap();
                let len = std::fs::metadata(journal(d)).unwrap().len();
                let f = std::fs::OpenOptions::new().write(true).open(journal(d));
                f.unwrap().set_len(len - 7).unwrap();
            },
            RecoveryRung::TruncatedTail,
            36,
            RecoveryRung::Primary,
        ),
        (
            // The newest snapshot's CRC rejects it; gen 1 plus the whole
            // journal recovers.
            "corrupt_newest_snapshot",
            |d| flip_byte(&gen(d, 0), |len| len - 1),
            RecoveryRung::OlderGeneration,
            40,
            RecoveryRung::OlderGeneration,
        ),
        (
            // A broken magic makes the journal unparseable; the newest
            // snapshot alone recovers.
            "unparseable_journal",
            |d| flip_byte(&journal(d), |_| 0),
            RecoveryRung::SnapshotOnly,
            40,
            RecoveryRung::Primary,
        ),
        (
            "no_snapshots",
            |d| {
                std::fs::remove_file(gen(d, 0)).unwrap();
                std::fs::remove_file(gen(d, 1)).unwrap();
            },
            RecoveryRung::GenesisReplay,
            40,
            RecoveryRung::GenesisReplay,
        ),
    ];
    for (name, damage, rung, durable, repeat_rung) in scenarios {
        let dir = tmpdir(&format!("rung_{name}"));
        copy_durable_dir(&src, &dir);
        damage(&dir);
        let run = || {
            let d = DurabilityConfig::in_dir(&dir);
            recover(&d, SEED, PlannerConfig::default(), 8)
                .unwrap_or_else(|e| panic!("{name}: recover failed: {e:?}"))
        };
        let rec = run();
        assert_eq!(rec.report.rung, rung, "{name}: wrong rung");
        assert_eq!(rec.report.durable_ops, durable, "{name}: durable prefix");
        assert_eq!(
            rec.engine.cores(),
            &oracle(&events[..durable as usize])[..],
            "{name}: recovered state is not the oracle on its durable prefix"
        );

        let again = run();
        assert_eq!(again.report.rung, repeat_rung, "{name}: repeat rung");
        assert_eq!(
            again.report.durable_ops, durable,
            "{name}: repeat durable prefix"
        );
        assert_eq!(
            again.report.snapshot_generation, rec.report.snapshot_generation,
            "{name}: repeat snapshot generation"
        );
        assert_eq!(
            again.report.journal_damage, None,
            "{name}: recover() left journal damage behind"
        );
        assert_eq!(
            again.engine.cores(),
            rec.engine.cores(),
            "{name}: repeat cores"
        );
    }
}

/// Existence checks go through the storage seam, and a failed one is
/// handled like a failure of the operation it guards: at recovery, a
/// failed check of the newest snapshot generation rejects it exactly as
/// a failed read of it does; at spawn, a failed checkpoint-zero check
/// fails the spawn exactly as a failed checkpoint write does.
#[test]
fn fault_at_an_exists_check_matches_one_at_the_guarded_operation() {
    // gen 0 is the shutdown checkpoint (40 ops), gen 1 the spawn-time
    // one (0 ops).
    let src = tmpdir("exists_src");
    let events = sweep_events();
    let cfg = IngestConfig::scripted()
        .max_batch(4)
        .durable(DurabilityConfig::in_dir(&src));
    let svc = IngestService::spawn_planned(DynamicGraph::with_vertices(N), SEED, cfg).unwrap();
    svc.submit_all(events.iter().copied()).unwrap();
    drop(svc.shutdown());

    // Read 0 is the journal; Read 1 is gen 0, the read Exists 0 guards.
    let recovered: Vec<_> = [(OpClass::Exists, 0), (OpClass::Read, 1)]
        .into_iter()
        .map(|(class, nth)| {
            let dir = tmpdir(&format!("exists_recover_{class:?}"));
            copy_durable_dir(&src, &dir);
            let storage =
                StorageHandle::faulty(FaultPlan::new().fault(class, nth, FaultKind::IoError));
            let d = DurabilityConfig::in_dir(&dir).with_storage(storage.clone());
            let rec = recover(&d, SEED, PlannerConfig::default(), 8).unwrap();
            assert_eq!(
                storage.fired_faults(),
                vec![(class, nth, FaultKind::IoError)]
            );
            rec
        })
        .collect();
    for rec in &recovered {
        assert_eq!(rec.report.rung, RecoveryRung::OlderGeneration);
        assert_eq!(rec.report.snapshot_generation, Some(1));
        assert_eq!(rec.report.snapshots_rejected, 1);
        assert_eq!(rec.report.durable_ops, 40);
        assert_eq!(rec.engine.cores(), &oracle(&events)[..]);
    }

    // The spawn's first existence check is checkpoint zero's; FileWrite
    // 0 is that checkpoint's temp file.
    for (class, nth) in [(OpClass::Exists, 0), (OpClass::FileWrite, 0)] {
        let dir = tmpdir(&format!("exists_spawn_{class:?}"));
        let storage = StorageHandle::faulty(FaultPlan::new().fault(class, nth, FaultKind::IoError));
        let cfg = IngestConfig::scripted()
            .durable(DurabilityConfig::in_dir(&dir).with_storage(storage.clone()));
        let spawned = IngestService::spawn_planned(kcore_graph::fixtures::path(N), SEED, cfg);
        assert!(spawned.is_err(), "{class:?}: spawn must fail");
        assert_eq!(
            storage.fired_faults(),
            vec![(class, nth, FaultKind::IoError)]
        );
        assert!(!gen(&dir, 0).exists(), "{class:?}: no checkpoint zero");
    }
}

fn gen(d: &std::path::Path, g: usize) -> PathBuf {
    snapshot_generation_path(&d.join("ingest.ksnp"), g)
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
    // The third flush (0-based index 2) panics mid-batch.
    let cfg = IngestConfig::scripted()
        .max_batch(4)
        .durable(DurabilityConfig::in_dir(&dir).with_faults(FaultPlan::new().panic_at_flush(2)))
        .self_healing(RecoveryPolicy {
            max_attempts: 3,
            backoff_base_ns: 100,
            backoff_factor: 2,
            healthy_after: 1,
        });
    let svc = IngestService::spawn_planned(DynamicGraph::with_vertices(12), 9, cfg).unwrap();
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
    let last = svc.flush().unwrap();
    assert_eq!(last.cores.to_vec(), heal_oracle(&events, 8..12));
    assert_eq!(
        svc.health(),
        ServiceHealth::Healthy,
        "one clean flush heals"
    );

    // The registry's recovery-rung counters must tell the same story as
    // the report: one panic, one recovery, taken on the primary rung
    // (clean journal — no tail damage, no generation fallback).
    let metrics = svc.metrics().expect("the registry always exists");
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
    // Four flushes reached the engine: three applied, one panicked.
    assert_eq!(report.batches, 3);
    // The mirror resynced against the rebuilt engine by chunk compare.
    assert!(
        report.full_syncs >= 1,
        "recovery must resync the mirror in full"
    );
    assert_eq!(engine.cores(), &heal_oracle(&events, 8..12)[..]);

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
    // The second flush panics.
    let storage = StorageHandle::faulty(
        FaultPlan::new()
            .fault(OpClass::Read, 1, FaultKind::IoError)
            .fault(OpClass::Read, 2, FaultKind::IoError)
            .panic_at_flush(1),
    );
    let cfg = IngestConfig::scripted()
        .max_batch(4)
        .durable(DurabilityConfig::in_dir(&dir).with_storage(storage.clone()))
        .self_healing(RecoveryPolicy {
            max_attempts: 3,
            backoff_base_ns: 1_000,
            backoff_factor: 2,
            healthy_after: 1,
        });
    let svc = IngestService::spawn_planned(DynamicGraph::with_vertices(12), 9, cfg).unwrap();

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
    assert_eq!(engine.cores(), &heal_oracle(&events[..12], 4..8)[..]);
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

/// The registry is the writer's only ledger: after a durable stream with
/// a failed checkpoint, an engine panic, its recovery, a failed journal
/// append and lost events, every counter of the report equals its
/// registry counter, and `update_stats` equals the `engine_*_total`
/// counters.
#[test]
fn fault_report_is_read_from_the_registry() {
    let dir = tmpdir("one_ledger");
    // FileSync op 1 is the first periodic checkpoint; JournalAppend op 0
    // is the header, op n the n-th shipped flush.
    let plan = FaultPlan::new()
        .fault(OpClass::FileSync, 1, FaultKind::IoError)
        .fault(OpClass::JournalAppend, 6, FaultKind::IoError)
        .panic_at_flush(3);
    let d = DurabilityConfig::in_dir(&dir)
        .snapshot_every(2)
        .with_faults(plan);
    let mut cfg = IngestConfig::scripted()
        .max_batch(4)
        .durable(d)
        .self_healing(RecoveryPolicy::default());
    // The passes, so every `UpdateStats` field moves.
    cfg.planner = PlannerConfig::with_policy(PlanPolicy::ForceBatch);
    let svc = IngestService::spawn_planned(DynamicGraph::with_vertices(N), SEED, cfg).unwrap();
    let metrics = svc.metrics().expect("the registry always exists");
    svc.submit_all(sweep_events()).unwrap();
    svc.flush().unwrap();
    let (r, _) = svc.shutdown();
    let snap = metrics.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or_else(|| panic!("{name}"));
    assert_eq!(
        (r.events, r.engine_panics, r.recoveries, r.events_lost),
        (40, 1, 1, 4)
    );
    assert_eq!((r.checkpoint_failures, r.journal_ship_failures), (1, 1));
    for (field, name) in [
        (r.events, "events"),
        (r.batches, "batches"),
        (r.epochs_published, "epochs_published"),
        (r.entries_shipped, "entries_shipped"),
        (r.snapshots_persisted, "snapshots_persisted"),
        (r.chunks_copied, "chunks_copied"),
        (r.tracked_drains, "tracked_drains"),
        (r.full_syncs, "full_syncs"),
        (r.engine_panics, "engine_panics"),
        (r.recoveries, "recoveries"),
        (r.recovery_retries, "recovery_retries"),
        (r.recovery_failures, "recovery_failures"),
        (r.journal_ship_failures, "journal_ship_failures"),
        (r.checkpoint_failures, "checkpoint_failures"),
        (r.events_lost, "events_lost"),
    ] {
        assert_eq!(field, counter(&format!("ingest_{name}_total")), "{name}");
    }
    let u = r.update_stats;
    assert!(u.visited > 0 && u.changed > 0 && u.skipped > 0 && u.passes > 0);
    for (name, field) in UpdateStats::FIELDS.into_iter().zip(u.values()) {
        assert_eq!(
            field as u64,
            counter(&format!("engine_{name}_total")),
            "{name}"
        );
    }
    let hist = |name: &str| snap.histogram(name).unwrap().count;
    assert_eq!(r.batch_apply.count(), hist("ingest_flush_apply_ns"));
    assert_eq!(hist("ingest_flush_publish_ns"), r.batches);
}
