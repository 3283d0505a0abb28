//! The traced run's layer phases: each layer's public functions driven
//! directly on the workload's input, with a span around every call the
//! benchmark makes into the layer.

use std::hint::black_box;
use std::path::Path;

use kcore_decomp::{core_decomposition, korder_decomposition, Heuristic};
use kcore_ingest::durability::encode_frame;
use kcore_ingest::{
    persist_index_snapshot, recover, CoreMirror, DurabilityConfig, GraphEvent, Histogram,
    JournalSink, StorageHandle,
};
use kcore_maint::journal::{replay_batched, JournalEntry, Journaled};
use kcore_maint::{PlannedTreapCore, PlannerConfig, UpdateStats};

use crate::drive::{now_ns, Tracer};
use crate::workload::Input;

const DECOMP_TRACE: u64 = 10;
const ORDER_TRACE: u64 = 11;
const MAINT_TRACE: u64 = 12;
const GRAPH_TRACE: u64 = 13;
const DURABILITY_TRACE: u64 = 14;
const OBS_TRACE: u64 = 15;

/// Endpoint pairs timed per `order.precedes` span.
const PRECEDES_CHUNK: usize = 1024;
/// Same-core neighbours paired with each event endpoint, and the cap on
/// pairs overall.
const PRECEDES_FANOUT: usize = 64;
const PRECEDES_PAIRS: usize = 1 << 18;
/// `Planner::plan` calls per span (one call is a few nanoseconds).
const PLAN_CALLS: u64 = 64;
/// Histogram records timed in total.
const OBS_RECORDS: usize = 1 << 21;

/// Per-layer metrics of the phases, in `PER_LAYER` order where they
/// apply, and whether every engine the phases built ended on the
/// oracle's cores.
pub struct LayerOut {
    pub metrics: Vec<(&'static str, f64)>,
    pub oracle_ok: bool,
}

fn sum(spans: &[u64]) -> f64 {
    spans.iter().sum::<u64>() as f64
}

/// Runs every layer phase on the first `upto` events of the stream
/// (the warm-up, then the window the phases time); `oracle` holds the
/// cores after them. `batch` is the service's mean events per flush,
/// the frame and replay size; `latencies` feed the histogram probe;
/// `scratch` holds the durability phase's files.
#[allow(clippy::too_many_arguments)]
pub fn run(
    input: &Input,
    upto: usize,
    oracle: &[u32],
    seed: u64,
    batch: usize,
    latencies: &[u64],
    scratch: &Path,
    t: &Tracer,
) -> LayerOut {
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut oracle_ok = true;
    let base = &input.base;
    let events = &input.events[..upto];
    let (warm, window) = events.split_at(input.warmup);
    let window_n = window.len() as f64;

    // decomp: the static decomposition and k-order behind set-up.
    let s = now_ns();
    black_box(core_decomposition(base));
    let core_ns = t.close(DECOMP_TRACE, "decomp.core", s, base.num_vertices() as u64);
    let s = now_ns();
    black_box(korder_decomposition(base, Heuristic::SmallDegFirst, seed));
    let korder_ns = t.close(DECOMP_TRACE, "decomp.korder", s, base.num_vertices() as u64);
    metrics.push(("decomp.core_s", core_ns as f64 / 1e9));
    metrics.push(("decomp.korder_s", korder_ns as f64 / 1e9));

    // The engine-only replay runs two engines side by side: bare, and
    // wrapped in `Journaled` as the writer wraps it.
    let mut bare = PlannedTreapCore::new(base.clone(), seed);
    let mut journaled = Journaled::new(PlannedTreapCore::new(base.clone(), seed));
    bare.enable_core_change_tracking();
    for chunk in warm.chunks(batch) {
        replay_batched(&mut bare, chunk.iter().copied(), batch);
        replay_batched(&mut journaled, chunk.iter().copied(), batch);
        journaled.drain();
    }
    // The index at the window start, checkpointed by the durability
    // phase: recovery then loads it and replays the window.
    let mut checkpoint = Vec::new();
    bare.order()
        .save(&mut checkpoint)
        .expect("serialise the index");
    let mut changed = Vec::new();
    bare.drain_core_changes(&mut changed);

    // order: the A_k test on same-core neighbour pairs of the window's
    // event endpoints, at the window's starting state.
    let order = bare.order();
    let graph = order.graph();
    let mut pairs = Vec::new();
    'collect: for e in window {
        let (GraphEvent::EdgeInserted(a, b) | GraphEvent::EdgeRemoved(a, b)) = *e;
        for u in [a, b] {
            let cu = order.core(u);
            for &w in graph
                .neighbors(u)
                .iter()
                .filter(|&&w| order.core(w) == cu)
                .take(PRECEDES_FANOUT)
            {
                pairs.push((u, w));
                if pairs.len() == PRECEDES_PAIRS {
                    break 'collect;
                }
            }
        }
    }
    let mut precedes = Vec::new();
    for chunk in pairs.chunks(PRECEDES_CHUNK) {
        let s = now_ns();
        let hits = chunk.iter().filter(|&&(u, w)| order.precedes(u, w)).count();
        black_box(hits);
        precedes.push(t.close(ORDER_TRACE, "order.precedes", s, chunk.len() as u64));
    }
    metrics.push((
        "order.precedes_ns",
        sum(&precedes) / pairs.len().max(1) as f64,
    ));

    // maint, planner, chunked: the window replayed at the service's
    // batch size, the two engines alternating which goes first.
    let mut mirror = CoreMirror::from_slice(bare.cores());
    let mut stats = UpdateStats::default();
    let (mut maint, mut journal, mut plan, mut mirror_ns, mut snap_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut applied = 0u64;
    for (i, chunk) in window.chunks(batch).enumerate() {
        let inserts = chunk
            .iter()
            .filter(|e| matches!(e, GraphEvent::EdgeInserted(..)))
            .count();
        let (n, m) = (bare.graph().num_vertices(), bare.graph().num_edges());
        let s = now_ns();
        for _ in 0..PLAN_CALLS {
            black_box(bare.planner().plan(
                inserts,
                chunk.len() - inserts,
                n,
                m,
                bare.is_order_fresh(),
            ));
        }
        plan.push(t.close(MAINT_TRACE, "planner.plan", s, PLAN_CALLS));
        let mut run_journaled = || {
            let s = now_ns();
            replay_batched(&mut journaled, chunk.iter().copied(), batch);
            let d = t.close(MAINT_TRACE, "maint.journaled_batch", s, chunk.len() as u64);
            journaled.drain();
            d
        };
        if i % 2 == 1 {
            journal.push(run_journaled());
        }
        let s = now_ns();
        stats.absorb(replay_batched(&mut bare, chunk.iter().copied(), batch));
        maint.push(t.close(MAINT_TRACE, "maint.batch", s, chunk.len() as u64));
        if i % 2 == 0 {
            journal.push(run_journaled());
        }
        changed.clear();
        if !bare.drain_core_changes(&mut changed) {
            changed = (0..bare.cores().len() as u32).collect();
        }
        let cores = bare.cores();
        let s = now_ns();
        for &v in &changed {
            mirror.apply(v, cores[v as usize]);
        }
        mirror_ns.push(t.close(MAINT_TRACE, "chunked.mirror_apply", s, changed.len() as u64));
        applied += changed.len() as u64;
        let s = now_ns();
        black_box((mirror.snapshot_cores(), mirror.histogram()));
        snap_ns.push(t.close(MAINT_TRACE, "chunked.snapshot", s, 1));
    }
    oracle_ok &= bare.cores() == oracle;
    oracle_ok &= journaled.engine().cores() == oracle;
    oracle_ok &= mirror.snapshot_cores().to_vec() == oracle;
    drop((bare, journaled, mirror));
    let maint_ns = sum(&maint);
    metrics.push(("maint.us_per_event", maint_ns / window_n / 1e3));
    metrics.push(("maint.visited_per_event", stats.visited as f64 / window_n));
    metrics.push(("maint.changed_per_event", stats.changed as f64 / window_n));
    metrics.push((
        "maint.ns_per_visited",
        maint_ns / stats.visited.max(1) as f64,
    ));
    metrics.push(("maint.noop_share", stats.noop as f64 / window_n));
    metrics.push((
        "maint.seeds_per_pass",
        stats.merged_seeds as f64 / stats.passes.max(1) as f64,
    ));
    metrics.push(("maint.journaled_overhead", sum(&journal) / maint_ns));
    metrics.push((
        "planner.plan_ns",
        sum(&plan) / (plan.len() as u64 * PLAN_CALLS) as f64,
    ));

    // graph: the same events through DynamicGraph alone.
    let mut g = base.clone();
    let apply = |g: &mut kcore_graph::DynamicGraph, e: &GraphEvent| match *e {
        GraphEvent::EdgeInserted(u, v) => g.insert_edge(u, v).is_ok(),
        GraphEvent::EdgeRemoved(u, v) => g.remove_edge(u, v).is_ok(),
    };
    let all_ok = warm.iter().all(|e| apply(&mut g, e));
    let mut graph_ns = Vec::new();
    let mut graph_ok = all_ok;
    for chunk in window.chunks(batch) {
        let s = now_ns();
        graph_ok &= chunk.iter().all(|e| apply(&mut g, e));
        graph_ns.push(t.close(GRAPH_TRACE, "graph.apply", s, chunk.len() as u64));
    }
    oracle_ok &= graph_ok && core_decomposition(&g) == oracle;
    drop(g);
    metrics.push(("graph.apply_ns_per_event", sum(&graph_ns) / window_n));

    // durability: frames at the service's batch size, appended and
    // fsynced; the index checkpointed at the window start; recover() on
    // the result, which loads the checkpoint and replays the window.
    let dir = scratch.join(format!("layers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the durability directory");
    let d = DurabilityConfig {
        fsync: true,
        ..DurabilityConfig::in_dir(&dir)
    };
    let s = now_ns();
    persist_index_snapshot(&d, warm.len() as u64, &checkpoint).expect("persist the checkpoint");
    let checkpoint_ns = t.close(
        DURABILITY_TRACE,
        "durability.checkpoint",
        s,
        checkpoint.len() as u64,
    );
    drop(checkpoint);
    let entries: Vec<JournalEntry> = events
        .iter()
        .enumerate()
        .map(|(seq, &event)| JournalEntry {
            seq: seq as u64,
            event,
            transitions: Vec::new(),
        })
        .collect();
    let (warm_entries, window_entries) = entries.split_at(input.warmup);
    let mut sink = JournalSink::open(
        &d.journal_path,
        base.num_vertices(),
        true,
        &StorageHandle::real(),
    )
    .expect("open the journal");
    for frame in warm_entries.chunks(batch) {
        sink.append(frame).expect("append a warm-up frame");
    }
    let (mut encode, mut append, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    for frame in window_entries.chunks(batch) {
        let s = now_ns();
        let encoded = encode_frame(frame);
        encode.push(t.close(DURABILITY_TRACE, "durability.encode", s, frame.len() as u64));
        bytes += encoded.len();
        let s = now_ns();
        sink.append(frame).expect("append a frame");
        append.push(t.close(
            DURABILITY_TRACE,
            "durability.append_sync",
            s,
            frame.len() as u64,
        ));
    }
    drop(sink);
    let s = now_ns();
    let rec = recover(&d, seed, PlannerConfig::default(), batch).expect("recover the journal");
    let recover_ns = t.close(
        DURABILITY_TRACE,
        "durability.recover",
        s,
        rec.report.replayed as u64,
    );
    oracle_ok &= rec.report.durable_ops == entries.len() as u64;
    oracle_ok &= rec.engine.cores() == oracle;
    drop(rec);
    let _ = std::fs::remove_dir_all(&dir);
    metrics.push(("durability.encode_ns_per_event", sum(&encode) / window_n));
    metrics.push((
        "durability.append_sync_us",
        sum(&append) / append.len() as f64 / 1e3,
    ));
    metrics.push(("durability.bytes_per_event", bytes as f64 / window_n));
    metrics.push(("durability.checkpoint_ms", checkpoint_ns as f64 / 1e6));
    metrics.push(("durability.recover_s", recover_ns as f64 / 1e9));

    metrics.push((
        "chunked.mirror_apply_ns",
        sum(&mirror_ns) / applied.max(1) as f64,
    ));
    metrics.push(("chunked.snapshot_ns", sum(&snap_ns) / snap_ns.len() as f64));

    // obs: histogram records of the run's own visible latencies.
    let h = Histogram::new();
    let mut record_ns = Vec::new();
    let mut recorded = 0usize;
    let source: &[u64] = if latencies.is_empty() {
        &[1]
    } else {
        latencies
    };
    while recorded < OBS_RECORDS {
        for chunk in source.chunks(4096) {
            let s = now_ns();
            for &v in chunk {
                h.record(v);
            }
            record_ns.push(t.close(OBS_TRACE, "obs.record", s, chunk.len() as u64));
            recorded += chunk.len();
        }
    }
    black_box(h.count());
    metrics.push(("obs.record_ns", sum(&record_ns) / recorded as f64));

    LayerOut { metrics, oracle_ok }
}
