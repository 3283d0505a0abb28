//! One repetition of a workload through the deployed service: spawn
//! (timed as set-up), drive the warm-up and the timed segments as one
//! stream from a single generator thread, barrier, check the cores
//! against the oracle, and — on the durable workload — crash the writer
//! and time `recover()`.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use kcore_ingest::{
    recover, CoreSnapshot, DurabilityConfig, GraphEvent, IngestService, MetricsSnapshot,
    SnapshotHandle, SpanRecorder,
};
use kcore_maint::PlannerConfig;
use perfbench::Visibility;

use crate::workload::{Input, Load, Workload};

/// Nanoseconds since the first call: the one clock of every timestamp
/// and span in a run.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Records spans from the benchmark's side of each layer call.
pub struct Tracer {
    pub rec: SpanRecorder,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            rec: SpanRecorder::with_capacity(1 << 21),
        }
    }

    /// Records `stage` from `start_ns` until now; returns the duration.
    pub fn close(&self, trace: u64, stage: &'static str, start_ns: u64, items: u64) -> u64 {
        let dur = now_ns().saturating_sub(start_ns);
        self.rec.record(trace, stage, start_ns, dur, items);
        dur
    }
}

/// Trace id of the service repetition's spans.
pub const SERVICE_TRACE: u64 = 1;

/// Poll period of the open-loop generator while it waits for the next
/// due time.
const POLL_NS: u64 = 5_000;
/// After the last send, how long to wait for every event to show up in
/// a published snapshot before the barrier forces it.
const DRAIN_WAIT_NS: u64 = 10_000_000_000;
/// Cores read per snapshot read.
const READ_CORES: u32 = 64;

/// What the generator measured over one segment of the timed window.
#[derive(Default)]
pub struct Drive {
    /// From the previous segment's last event becoming visible to this
    /// segment's last event becoming visible.
    pub secs: f64,
    pub events: usize,
    /// Due time → first published snapshot covering the event (ns).
    pub visible_ns: Vec<u64>,
    /// `load()` plus the 64-core query (ns).
    pub read_ns: Vec<u64>,
    /// The `load()` part of each read (ns; traced segments only).
    pub load_ns: Vec<u64>,
    /// Send time minus due time (ns).
    pub late_ns: Vec<u64>,
    /// Events sent more than one period after their segment's schedule
    /// ended.
    pub backlog_end: u64,
    /// Time blocked in `submit` (ns), and the segment's send side: first
    /// send to the end of its last send and read (ns).
    pub submit_wait_ns: u64,
    pub send_ns: u64,
    pub refused: u64,
    /// Whether the segment's calls were traced.
    pub traced: bool,
}

impl Drive {
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.secs
    }
}

/// One drive of the stream: the warm-up and the timed segments.
pub struct Run {
    /// First send → the last warm-up event visible.
    pub warmup_s: f64,
    pub warmup_refused: u64,
    pub segments: Vec<Drive>,
    /// The snapshot the closing barrier returned.
    pub last: Arc<CoreSnapshot>,
}

/// One timed read: `load()` and the cores of 64 fixed vertices, one in
/// each 64th of the id space — the same dashboard-style query every
/// time, whose cost is the snapshot handle plus whatever chunks recent
/// publications copied. Returns the load time (when `split`), the whole
/// read time, and the snapshot.
fn read(handle: &SnapshotHandle, n: u32, split: bool) -> (u64, u64, Arc<CoreSnapshot>) {
    let stride = (n / READ_CORES).max(1);
    let r0 = now_ns();
    let snap = handle.load();
    let load = if split { now_ns() - r0 } else { 0 };
    let mut acc = 0u64;
    for j in 0..READ_CORES {
        acc += snap.core((j * stride + stride / 2) % n) as u64;
    }
    black_box(acc);
    (load, now_ns() - r0, snap)
}

/// Drives `events` through `svc` from this thread as one continuous
/// stream: the first `warmup` events, then segments of `segment`
/// events. After the last send it polls until every event is visible,
/// then closes with a flush barrier. With a tracer, half the segments
/// record spans around their calls.
pub fn drive(
    svc: &IngestService,
    events: &[GraphEvent],
    warmup: usize,
    segment: usize,
    load: Load,
    tracer: Option<&Tracer>,
) -> Run {
    let handle = svc.snapshots();
    let first = handle.load();
    let n = first.num_vertices as u32;
    let mut vis = Visibility::new(first.ops);
    let total = events.len();
    let seg_of = |i: usize| (i - warmup) / segment;
    let segments = (total - warmup).div_ceil(segment);
    let mut segs: Vec<Drive> = (0..segments)
        .map(|k| Drive {
            events: segment.min(total - warmup - k * segment),
            // Untraced, traced, traced, untraced, …: the two halves sit
            // at the same mean position of a stream whose cost drifts.
            traced: tracer.is_some() && matches!(k % 4, 1 | 2),
            ..Drive::default()
        })
        .collect();
    let mut warmup_refused = 0;
    let mut bounds = vec![(u64::MAX, 0u64); segments];
    let (period_ns, read_every) = match load {
        Load::Closed { read_every } => (0.0, read_every.max(1)),
        Load::Open { rate_per_s } => (1e9 / rate_per_s, 1),
    };
    let open = matches!(load, Load::Open { .. });
    let t0 = now_ns() + 1_000_000;
    let due_of = |i: usize| t0 + (i as f64 * period_ns) as u64;
    let mut ready = now_ns();
    let start = ready;
    for (i, &e) in events.iter().enumerate() {
        let timed = i >= warmup;
        let tr = if timed && segs[seg_of(i)].traced {
            tracer
        } else {
            None
        };
        let due = if open {
            let due = due_of(i);
            // Wait for the due time, polling visibility every POLL_NS and
            // yielding in between: a generator that spins without
            // yielding holds its core whenever the scheduler stacks the
            // writer onto it, and the writer's flush then waits.
            let mut next_poll = 0;
            loop {
                let now = now_ns();
                if now >= due {
                    break;
                }
                if now >= next_poll {
                    vis.observe(handle.load().ops, now_ns());
                    next_poll = now + POLL_NS;
                }
                std::thread::yield_now();
            }
            due
        } else {
            ready
        };
        vis.push_due(due);
        let s0 = now_ns();
        let sent = svc.submit(e);
        let s1 = match tr {
            Some(t) => s0 + t.close(SERVICE_TRACE, "service.submit", s0, 1),
            None => now_ns(),
        };
        ready = s1;
        let mut read_sample = None;
        if (i + 1) % read_every == 0 {
            let (load_ns, read_ns, snap) = read(&handle, n, tr.is_some());
            if let Some(t) = tr {
                t.rec.record(SERVICE_TRACE, "snapshot.read", s1, read_ns, 1);
            }
            vis.observe(snap.ops, s1 + read_ns);
            read_sample = Some((load_ns, read_ns));
        }
        if !timed {
            warmup_refused += sent.is_err() as u64;
            continue;
        }
        let k = seg_of(i);
        let d = &mut segs[k];
        d.refused += sent.is_err() as u64;
        d.late_ns.push(s0.saturating_sub(due));
        d.submit_wait_ns += s1 - s0;
        let seg_end = warmup + (k + 1) * segment - 1;
        if open && s0 > due_of(seg_end.min(total - 1)) + period_ns as u64 {
            d.backlog_end += 1;
        }
        let mut done = s1;
        if let Some((load_ns, read_ns)) = read_sample {
            d.read_ns.push(read_ns);
            if tr.is_some() {
                d.load_ns.push(load_ns);
            }
            done += read_ns;
        }
        bounds[k] = (bounds[k].0.min(s0), done);
    }
    let give_up = now_ns() + DRAIN_WAIT_NS;
    while vis.pending() > 0 && now_ns() < give_up {
        vis.observe(handle.load().ops, now_ns());
        std::thread::yield_now();
    }
    let f0 = now_ns();
    let last = svc.flush().expect("writer alive at the barrier");
    vis.observe(last.ops, now_ns());
    if let Some(t) = tracer {
        t.close(SERVICE_TRACE, "service.flush", f0, 1);
    }
    let lat = vis.latencies();
    let seen = |j: usize| vis.due(j) + lat[j];
    let warm_end = if warmup > 0 { seen(warmup - 1) } else { start };
    if let Some(t) = tracer {
        t.rec.record(
            SERVICE_TRACE,
            "service.warmup",
            start,
            warm_end - start,
            warmup as u64,
        );
    }
    let mut prev = warm_end;
    for (k, d) in segs.iter_mut().enumerate() {
        let from = warmup + k * segment;
        let to = from + d.events;
        let end = seen(to - 1).max(prev + 1);
        d.secs = (end - prev) as f64 / 1e9;
        d.send_ns = bounds[k].1.saturating_sub(bounds[k].0);
        d.visible_ns = lat[from..to].to_vec();
        if let (Some(t), true) = (tracer, d.traced) {
            let (a, b) = bounds[k];
            t.rec
                .record(SERVICE_TRACE, "service.window", a, b - a, d.events as u64);
        }
        prev = end;
    }
    Run {
        warmup_s: (warm_end - start) as f64 / 1e9,
        warmup_refused,
        segments: segs,
        last,
    }
}

/// The writer's registry counters at a point of the run.
#[derive(Debug, Default)]
pub struct Counters {
    pub events: u64,
    pub batches: u64,
    pub lost: u64,
    /// batched, split, par-split, recompute, par-recompute decisions.
    pub planner_mix: [u64; 5],
}

impl Counters {
    pub fn absorb(&mut self, other: &Counters) {
        self.events += other.events;
        self.batches += other.batches;
        self.lost += other.lost;
        for (a, b) in self.planner_mix.iter_mut().zip(other.planner_mix) {
            *a += b;
        }
    }

    pub fn events_per_flush(&self) -> f64 {
        self.events as f64 / self.batches.max(1) as f64
    }

    pub fn recompute_share(&self) -> f64 {
        let total: u64 = self.planner_mix.iter().sum();
        (self.planner_mix[3] + self.planner_mix[4]) as f64 / total.max(1) as f64
    }
}

fn counter(m: &MetricsSnapshot, name: &str) -> u64 {
    m.counter(name)
        .unwrap_or_else(|| panic!("registry has no counter {name}"))
}

/// An empty directory for one durable service, inside `scratch`.
fn fresh_dir(scratch: &Path) -> PathBuf {
    let dir = scratch.join(format!("durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the durable directory");
    dir
}

/// Spawns the service once and only times its set-up, then shuts it
/// down: extra set-up samples for the median.
pub fn setup_probe(w: &Workload, input: &Input, seed: u64, scratch: &Path) -> f64 {
    let dir = w.durable.then(|| fresh_dir(scratch));
    let graph = input.base.clone();
    let s0 = now_ns();
    let svc = IngestService::spawn_planned(graph, seed, w.config(dir.as_deref()))
        .expect("spawn the service");
    let secs = (now_ns() - s0) as f64 / 1e9;
    drop(svc);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    secs
}

/// A running service under test.
pub struct Service {
    pub svc: IngestService,
    pub setup_s: f64,
    dir: Option<PathBuf>,
    durability: Option<DurabilityConfig>,
    max_batch: usize,
}

/// How a run checks its final state and what it found.
pub struct Finish {
    pub oracle_ok: bool,
    /// Events lost: reported by the writer, or missing from the durable
    /// prefix after the crash.
    pub lost: u64,
    pub recover_s: Option<f64>,
    /// Chunks copied into the snapshot mirror (graceful shutdown only).
    pub chunks_copied: Option<u64>,
}

/// How a run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// `abort()` the writer on a durable workload and time `recover()`;
    /// a graceful shutdown otherwise.
    CrashIfDurable,
    /// Always a graceful shutdown.
    Shutdown,
}

impl Service {
    /// Spawns the deployed service over a clone of the base graph,
    /// timing the spawn as set-up.
    pub fn spawn(
        w: &Workload,
        input: &Input,
        seed: u64,
        scratch: &Path,
        tracer: Option<&Tracer>,
    ) -> Self {
        let dir = w.durable.then(|| fresh_dir(scratch));
        let cfg = w.config(dir.as_deref());
        let (durability, max_batch) = (cfg.durability.clone(), cfg.max_batch);
        let graph = input.base.clone();
        let s0 = now_ns();
        let svc = IngestService::spawn_planned(graph, seed, cfg).expect("spawn the service");
        let setup_ns = match tracer {
            Some(t) => t.close(SERVICE_TRACE, "service.setup", s0, 1),
            None => now_ns() - s0,
        };
        Service {
            svc,
            setup_s: setup_ns as f64 / 1e9,
            dir,
            durability,
            max_batch,
        }
    }

    pub fn counters(&self) -> Counters {
        let m = self
            .svc
            .metrics()
            .expect("observability is on by default")
            .snapshot();
        Counters {
            events: counter(&m, "ingest_events_total"),
            batches: counter(&m, "ingest_batches_total"),
            lost: counter(&m, "ingest_events_lost_total"),
            planner_mix: [
                "planner_batched_total",
                "planner_split_total",
                "planner_par_split_total",
                "planner_recompute_total",
                "planner_par_recompute_total",
            ]
            .map(|name| counter(&m, name)),
        }
    }

    /// Round trips of `flush()` and `load()` against the idle writer.
    pub fn probe_idle(&self) -> (Vec<u64>, Vec<u64>) {
        let handle = self.svc.snapshots();
        let flushes = (0..256)
            .map(|_| {
                let f0 = now_ns();
                black_box(self.svc.flush().expect("writer alive"));
                now_ns() - f0
            })
            .collect();
        let loads = (0..8192)
            .map(|_| {
                let l0 = now_ns();
                black_box(handle.load());
                now_ns() - l0
            })
            .collect();
        (flushes, loads)
    }

    /// Ends the run after `sent` events and checks the published
    /// snapshot `last`, and the engine the shutdown returns or the state
    /// `recover()` rebuilds, against the oracle.
    pub fn finish(
        self,
        end: End,
        input: &Input,
        sent: usize,
        last: &CoreSnapshot,
        seed: u64,
    ) -> Finish {
        let oracle = input.oracle_after(sent);
        let mut out = Finish {
            oracle_ok: last.ops == sent as u64 && last.cores.to_vec() == oracle,
            lost: self.counters().lost,
            recover_s: None,
            chunks_copied: None,
        };
        let Service {
            svc,
            dir,
            durability,
            max_batch,
            ..
        } = self;
        match (end, durability) {
            (End::CrashIfDurable, Some(d)) => {
                svc.abort();
                let r0 = now_ns();
                let rec = recover(&d, seed, PlannerConfig::default(), max_batch)
                    .expect("recover the durable directory");
                out.recover_s = Some((now_ns() - r0) as f64 / 1e9);
                let durable = (rec.report.durable_ops as usize).min(sent);
                // The barrier shipped and synced every event before the
                // crash; anything short of that was lost.
                out.lost += (sent - durable) as u64;
                let want = if durable == sent {
                    oracle
                } else {
                    input.oracle_after(durable)
                };
                out.oracle_ok &= rec.engine.cores() == &want[..];
            }
            _ => {
                let (report, engine) = svc.shutdown();
                out.lost = out.lost.max(report.events_lost);
                out.chunks_copied = Some(report.chunks_copied);
                out.oracle_ok &= engine.cores() == &oracle[..];
            }
        }
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        out
    }
}
