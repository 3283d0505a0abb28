//! Dataset-wide stress: every registry dataset is driven through a full
//! insert-then-remove cycle with deep validation checkpoints, a windowed
//! replay, and journaled deltas — the "does the whole system hold
//! together" test.

use kcore::gen::temporal::{SlidingWindow, WindowOp};
use kcore::gen::{load_dataset, timestamp_edges, Scale, DATASETS};
use kcore::maint::journal::Journaled;
use kcore::{CoreMaintainer, OrderCore};

/// Full cycle on all eleven datasets (tiny scale): insert the stream,
/// validate, remove it, validate, and check the engine returned exactly
/// to its baseline.
#[test]
fn all_datasets_full_cycle() {
    for d in &DATASETS {
        let ds = load_dataset(d.name, Scale::Tiny, 400);
        let mut engine = OrderCore::new(ds.base.clone(), 1);
        let baseline = engine.cores().to_vec();
        for &(u, v) in &ds.stream {
            engine.insert_edge(u, v).unwrap();
        }
        engine.validate();
        for &(u, v) in ds.stream.iter().rev() {
            engine.remove_edge(u, v).unwrap();
        }
        engine.validate();
        assert_eq!(engine.cores(), &baseline[..], "{} did not revert", d.name);
    }
}

/// Sliding-window replay over a temporal dataset: the maintained cores
/// must equal a from-scratch decomposition of the live window at several
/// checkpoints.
#[test]
fn sliding_window_replay_stays_exact() {
    let ds = load_dataset("youtube", Scale::Tiny, 10);
    let full = ds.full_graph();
    let stamped = timestamp_edges(&full, 4, 7);
    let horizon = stamped.last().unwrap().t / 3;
    let mut window = SlidingWindow::new(stamped, horizon);
    let n = full.num_vertices();
    let mut engine = OrderCore::new(kcore::DynamicGraph::with_vertices(n), 3);
    let mut steps = 0usize;
    while let Some(op) = window.step() {
        match op {
            WindowOp::Admit(u, v) => {
                engine.insert_edge(u, v).unwrap();
            }
            WindowOp::Expire(u, v) => {
                engine.remove_edge(u, v).unwrap();
            }
        }
        steps += 1;
        if steps.is_multiple_of(5000) {
            engine.validate();
        }
    }
    assert_eq!(engine.graph().num_edges(), 0);
    engine.validate();
}

/// Journal ledger property at dataset scale: summing all recorded
/// transitions reconstructs the final core array from the initial one.
#[test]
fn journal_ledger_reconstructs_cores() {
    let ds = load_dataset("gowalla", Scale::Tiny, 600);
    let engine = OrderCore::new(ds.base.clone(), 11);
    let initial = engine.core_slice().to_vec();
    let mut j = Journaled::new(engine);
    for &(u, v) in &ds.stream {
        j.insert_edge(u, v).unwrap();
    }
    for &(u, v) in ds.stream.iter().take(200) {
        j.remove_edge(u, v).unwrap();
    }
    let mut replayed = initial;
    for entry in j.entries() {
        for &(v, old, new) in &entry.transitions {
            assert_eq!(replayed[v as usize], old, "stale old value at {v}");
            replayed[v as usize] = new;
        }
    }
    assert_eq!(&replayed[..], j.engine().core_slice());
}

/// Persistence under load: snapshot mid-stream, reload, continue on both
/// and stay identical.
#[test]
fn persist_mid_stream_and_diverge_nowhere() {
    let ds = load_dataset("google", Scale::Tiny, 400);
    let mut engine = OrderCore::new(ds.base.clone(), 3);
    let (first, second) = ds.stream.split_at(ds.stream.len() / 2);
    for &(u, v) in first {
        engine.insert_edge(u, v).unwrap();
    }
    let mut buf = Vec::new();
    engine.save(&mut buf).unwrap();
    let mut reloaded = OrderCore::load(&buf[..], 99).unwrap();
    for &(u, v) in second {
        engine.insert_edge(u, v).unwrap();
        reloaded.insert_edge(u, v).unwrap();
    }
    assert_eq!(engine.cores(), reloaded.cores());
    reloaded.validate();
}

/// Batch paths at dataset scale: one big batch through the planner's
/// recompute, and through its merged passes, equals incremental
/// application.
#[test]
fn batch_rebuild_equals_incremental() {
    use kcore::{PlanPolicy, PlannedCore};
    let ds = load_dataset("facebook", Scale::Tiny, 500);
    let mut incr = OrderCore::new(ds.base.clone(), 5);
    for &(u, v) in &ds.stream {
        incr.insert_edge(u, v).unwrap();
    }
    for policy in [PlanPolicy::ForceRecompute, PlanPolicy::ForceBatch] {
        let mut bulk = PlannedCore::with_policy(ds.base.clone(), 5, policy);
        bulk.insert_edges(&ds.stream);
        assert_eq!(bulk.cores(), incr.cores(), "{policy:?}");
        bulk.validate();
    }
}
