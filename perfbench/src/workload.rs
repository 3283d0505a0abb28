//! The three workloads and the inputs they generate from a seed.
//!
//! Every workload is a Barabási–Albert base graph (attach 4) followed by
//! a `churn_stream` of 96 inserts and 64 removes per batch, cut into a
//! discarded warm-up and timed segments. What differs is the graph
//! size, the durability setting and the load shape — chosen so each
//! workload is bound by a different part of the writer:
//!
//! * `scale_churn` — 2M vertices, closed loop: the engine's order test
//!   and promotion/dismissal passes dominate once the index outgrows
//!   the caches. Its figures follow the host's memory traffic (ten-seed
//!   spreads of 0.2–0.4 on a shared 2-core VM), so `BENCHMARK.json`
//!   does not list it; run it by name for measurements at scale.
//! * `hot_durable` — 20k vertices (cache-resident), closed loop with the
//!   journal and periodic checkpoints on: the engine is cheap, so
//!   journal, checkpoint, publish and queue handoff carry the cost.
//! * `paced_reads` — 200k vertices, open loop at a fixed rate with
//!   snapshot reads between sends: timer-driven small flushes, so
//!   publication and the snapshot handle set the latencies.

use std::path::Path;

use kcore_decomp::core_decomposition;
use kcore_gen::{barabasi_albert, churn_stream};
use kcore_graph::DynamicGraph;
use kcore_ingest::sources::{apply_events, churn_events};
use kcore_ingest::{DurabilityConfig, GraphEvent, IngestConfig};

/// Barabási–Albert attachment count of every base graph.
pub const ATTACH: usize = 4;
/// Churn batch shape: fresh degree-weighted inserts, then uniform removes.
pub const INSERTS: usize = 96;
pub const REMOVES: usize = 64;
/// Periodic checkpoint cadence of the durable workload, in flushes.
pub const CHECKPOINT_EVERY: usize = 64;

/// How the generator offers events to the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Blocking `submit`, the next event as soon as the last returns; a
    /// timed read every `read_every` events.
    Closed { read_every: usize },
    /// Events due on a fixed schedule; one timed read after every send.
    Open { rate_per_s: f64 },
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub vertices: usize,
    pub warmup_events: usize,
    /// Events per timed segment, sized to take about a second here; a
    /// run measures a fixed number of segments, each ended by a flush
    /// barrier.
    pub segment_events: usize,
    pub load: Load,
    pub durable: bool,
    /// Fresh services per run, each driving the same input: more of
    /// them where set-up is cheap and the writer's own state (planner
    /// calibration, checkpoint phase) varies from service to service.
    pub reps: usize,
}

/// The base graph is the same for every seed, so runs with different
/// seeds do the same set-up work and differ only in the stream they
/// replay.
const GRAPH_SEED: u64 = 0x6B_636F_7265;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "scale_churn",
        vertices: 2_000_000,
        warmup_events: 3 * (INSERTS + REMOVES),
        segment_events: 8 * (INSERTS + REMOVES),
        load: Load::Closed { read_every: 1 },
        durable: false,
        reps: 1,
    },
    Workload {
        name: "hot_durable",
        vertices: 20_000,
        warmup_events: 40_000,
        segment_events: 100_000,
        load: Load::Closed { read_every: 8 },
        durable: true,
        reps: 5,
    },
    Workload {
        name: "paced_reads",
        vertices: 200_000,
        warmup_events: 8_000,
        segment_events: 8_000,
        load: Load::Open {
            rate_per_s: 8_000.0,
        },
        durable: false,
        reps: 2,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A workload's generated input: the base graph, the event stream
/// (warm-up first), and the oracle cores after the whole stream.
pub struct Input {
    pub base: DynamicGraph,
    pub events: Vec<GraphEvent>,
    pub warmup: usize,
    pub oracle: Vec<u32>,
}

impl Input {
    /// Oracle cores after the first `k` events of the stream.
    pub fn oracle_after(&self, k: usize) -> Vec<u32> {
        if k == self.events.len() {
            self.oracle.clone()
        } else {
            core_decomposition(&apply_events(&self.base, &self.events[..k]))
        }
    }
}

impl Workload {
    /// Generates the input for `segments` timed segments; the same seed
    /// gives the same stream.
    pub fn input(&self, seed: u64, segments: usize) -> Input {
        let base = barabasi_albert(self.vertices, ATTACH, GRAPH_SEED);
        let total = self.warmup_events + segments * self.segment_events;
        let batches = total.div_ceil(INSERTS + REMOVES);
        let events: Vec<GraphEvent> = churn_stream(&base, batches, INSERTS, REMOVES, seed)
            .iter()
            .flat_map(churn_events)
            .take(total)
            .collect();
        assert_eq!(events.len(), total, "churn stream came up short");
        let oracle = core_decomposition(&apply_events(&base, &events));
        Input {
            base,
            events,
            warmup: self.warmup_events,
            oracle,
        }
    }

    /// The deployed configuration: defaults (serial writer, 256-event
    /// batches, 5 ms flush interval), plus, when durable, a journal and
    /// periodic checkpoints under `dir`. The journal keeps its default of
    /// no fsync per shipped batch: on a shared disk that fsync's latency
    /// swings several-fold from run to run and would drown the writer's
    /// own costs; the traced run prices it as `durability.append_sync_us`.
    /// Checkpoints always fsync.
    pub fn config(&self, dir: Option<&Path>) -> IngestConfig {
        let cfg = IngestConfig::default();
        match dir {
            Some(dir) => {
                cfg.durable(DurabilityConfig::in_dir(dir).snapshot_every(CHECKPOINT_EVERY))
            }
            None => cfg,
        }
    }
}
