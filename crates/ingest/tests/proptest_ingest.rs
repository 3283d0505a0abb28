//! Property tests for the ingest service: an arbitrary event soup
//! (inserts + removals + duplicates + out-of-range ids), driven through
//! the scripted-clock service with arbitrary flush boundaries, must
//! (a) publish only snapshots that are bit-identical to the
//! decomposition oracle on the exact event prefix they claim to cover
//! (snapshot isolation: no torn reads at any epoch), and
//! (b) end bit-identical to the oracle over the whole soup.

use kcore_decomp::core_decomposition;
use kcore_graph::DynamicGraph;
use kcore_ingest::sources::apply_events;
use kcore_ingest::{GraphEvent, IngestConfig, IngestService};
use proptest::prelude::*;

/// Oracle: the soup applied through the shared skip-semantics model
/// (`sources::apply_events`), then decomposed from scratch.
fn oracle_cores(base: &DynamicGraph, events: &[GraphEvent]) -> Vec<u32> {
    core_decomposition(&apply_events(base, events))
}

fn arb_base(n: u32, max_edges: usize) -> impl Strategy<Value = DynamicGraph> {
    prop::collection::vec((0..n, 0..n), 0..max_edges).prop_map(move |pairs| {
        let mut g = DynamicGraph::with_vertices(n as usize);
        for (a, b) in pairs {
            if a != b && !g.has_edge(a, b) {
                g.insert_edge_unchecked(a, b);
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite: every published snapshot equals the oracle on the
    /// prefix of ops it covers, and the final state equals the oracle on
    /// the full soup — under size flushes, tick flushes, and explicit
    /// barriers mixed arbitrarily.
    #[test]
    fn event_soup_snapshots_equal_oracle_prefixes(
        base in arb_base(18, 40),
        // ids range past n: out-of-range events must be skipped
        // identically by service and oracle.
        raw in prop::collection::vec((any::<bool>(), 0u32..22, 0u32..22), 1..70),
        max_batch in 1usize..9,
        flush_every in 2usize..11,
        tick_every in 3usize..9,
        seed in any::<u64>(),
    ) {
        let events: Vec<GraphEvent> = raw
            .iter()
            .map(|&(ins, u, v)| if ins {
                GraphEvent::EdgeInserted(u, v)
            } else {
                GraphEvent::EdgeRemoved(u, v)
            })
            .collect();

        let cfg = IngestConfig::scripted()
            .max_batch(max_batch)
            // Interval short enough that ticks (strictly increasing
            // scripted time) genuinely flush stale sub-size batches.
            .flush_interval_ns(1);
        let svc = IngestService::spawn_planned(base.clone(), seed, cfg).unwrap();
        let snaps = svc.subscribe().unwrap();

        let mut clock = 0u64;
        for (i, &e) in events.iter().enumerate() {
            svc.submit(e).unwrap();
            if i % tick_every == tick_every - 1 {
                clock += 10;
                svc.tick(clock).unwrap();
            }
            if i % flush_every == flush_every - 1 {
                svc.flush().unwrap();
            }
        }
        let (report, engine) = svc.shutdown();
        prop_assert_eq!(report.events, events.len() as u64);

        // Final state: bit-identical to the oracle on the whole soup.
        let final_oracle = oracle_cores(&base, &events);
        prop_assert_eq!(engine.cores(), &final_oracle[..]);

        // Every published epoch: consistent with the prefix it covers.
        let mut last_epoch = 0u64;
        let mut last_ops = 0u64;
        let mut published = 0usize;
        while let Ok(snap) = snaps.try_recv() {
            prop_assert!(snap.epoch > last_epoch, "epochs strictly increase");
            prop_assert!(snap.ops >= last_ops, "coverage never regresses");
            last_epoch = snap.epoch;
            last_ops = snap.ops;
            published += 1;
            let prefix = oracle_cores(&base, &events[..snap.ops as usize]);
            // The published cores must be bit-identical to a full
            // rebuild on the covered prefix — a recycled snapshot buffer
            // never leaks a stale or future value.
            prop_assert_eq!(
                snap.cores.to_vec(),
                prefix.clone(),
                "torn read at epoch {}",
                snap.epoch
            );
            // The derived fields ship consistently with the cores: the
            // incrementally maintained histogram equals the one a full
            // rescan would produce.
            prop_assert_eq!(
                snap.degeneracy,
                prefix.iter().copied().max().unwrap_or(0)
            );
            let mut expect_hist = vec![0usize; snap.degeneracy as usize + 1];
            for &c in &prefix {
                expect_hist[c as usize] += 1;
            }
            prop_assert_eq!(&snap.histogram, &expect_hist, "histogram drifted");
            prop_assert_eq!(snap.histogram.iter().sum::<usize>(), snap.num_vertices);
            let members = snap.kcore_members(snap.degeneracy);
            prop_assert!(!members.is_empty() || snap.degeneracy == 0);
        }
        prop_assert!(published > 0, "at least the final epoch is published");
        prop_assert_eq!(last_ops, events.len() as u64, "final epoch covers everything");
    }

    /// Backpressure safety: a producer that sheds on `QueueFull` and
    /// retries after a flush barrier neither loses nor duplicates events.
    #[test]
    fn try_submit_with_retry_is_lossless(
        base in arb_base(12, 20),
        raw in prop::collection::vec((any::<bool>(), 0u32..12, 0u32..12), 1..40),
        cap in 1usize..5,
        seed in any::<u64>(),
    ) {
        let events: Vec<GraphEvent> = raw
            .iter()
            .map(|&(ins, u, v)| if ins {
                GraphEvent::EdgeInserted(u, v)
            } else {
                GraphEvent::EdgeRemoved(u, v)
            })
            .collect();
        let svc = IngestService::spawn_planned(
            base.clone(),
            seed,
            IngestConfig::scripted().queue_capacity(cap).max_batch(3),
        )
        .unwrap();
        for &e in &events {
            loop {
                match svc.try_submit(e) {
                    Ok(()) => break,
                    Err(_) => {
                        // Barrier drains the queue, then retry the same
                        // event exactly once more per round.
                        svc.flush().unwrap();
                    }
                }
            }
        }
        let snap = svc.flush().unwrap();
        prop_assert_eq!(snap.ops, events.len() as u64);
        let (_, engine) = svc.shutdown();
        prop_assert_eq!(engine.cores(), &oracle_cores(&base, &events)[..]);
    }

    /// Corruption safety: flip any single byte of — or truncate at any
    /// point — either file of a journal + snapshot pair, and recovery
    /// must never produce a silently wrong state. Every outcome is
    /// either an explicit error or an engine bit-identical to the
    /// oracle on exactly the prefix the [`RecoveryReport`] claims
    /// durable.
    #[test]
    fn fault_corruption_recovers_reported_prefix_or_errors(
        raw in prop::collection::vec((any::<bool>(), 0u32..14, 0u32..14), 4..48),
        max_batch in 1usize..6,
        seed in any::<u64>(),
        target_journal in any::<bool>(),
        truncate in any::<bool>(),
        pos in any::<usize>(),
        mask in 1u8..=255,
    ) {
        use kcore_ingest::{recover, DurabilityConfig};
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir()
            .join("kcore_ingest_proptest_corrupt")
            .join(format!("case_{}", CASE.fetch_add(1, Ordering::Relaxed)));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        let events: Vec<GraphEvent> = raw
            .iter()
            .map(|&(ins, u, v)| if ins {
                GraphEvent::EdgeInserted(u, v)
            } else {
                GraphEvent::EdgeRemoved(u, v)
            })
            .collect();
        let base = DynamicGraph::with_vertices(14);
        let d = DurabilityConfig::in_dir(&dir).snapshot_every(2);
        let svc = IngestService::spawn_planned(
            base.clone(),
            seed,
            IngestConfig::scripted().max_batch(max_batch).durable(d),
        )
        .unwrap();
        for &e in &events {
            svc.submit(e).unwrap();
        }
        svc.flush().unwrap();
        let (_, clean_engine) = svc.shutdown();

        // Corrupt exactly one file of the pair.
        let rd = DurabilityConfig::in_dir(&dir);
        let victim = if target_journal {
            rd.journal_path.clone()
        } else {
            rd.snapshot_path.clone()
        };
        let bytes = std::fs::read(&victim).unwrap();
        prop_assert!(!bytes.is_empty());
        if truncate {
            let keep = pos % (bytes.len() + 1);
            std::fs::write(&victim, &bytes[..keep]).unwrap();
        } else {
            let mut b = bytes;
            let at = pos % b.len();
            b[at] ^= mask;
            std::fs::write(&victim, &b).unwrap();
        }

        // An explicit refusal (`Err`) is always acceptable — the
        // property forbids only *silently* wrong states.
        if let Ok(rec) = recover(&rd, seed, kcore_maint::PlannerConfig::default(), 8) {
            let durable = rec.report.durable_ops as usize;
            prop_assert!(durable <= events.len());
            prop_assert_eq!(
                rec.engine.cores(),
                &oracle_cores(&base, &events[..durable])[..],
                "rung {} recovered state diverges from the oracle on its own \
                 reported prefix",
                rec.report.rung
            );
            if durable == events.len() {
                prop_assert_eq!(rec.engine.cores(), clean_engine.cores());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
