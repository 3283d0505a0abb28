//! # kcore-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! `DESIGN.md` §5 for the index), plus Criterion micro-benchmarks.
//!
//! Shared here: a tiny CLI-flag parser (no external dependency), engine
//! construction, the insert/remove timing protocol of Section VII, and
//! fixed-width table printing.

use kcore_gen::{load_dataset, Dataset, Scale, DATASETS};
use kcore_graph::{edge_key, DynamicGraph, FxHashSet, VertexId};
use kcore_maint::{CoreMaintainer, OrderCore};
use kcore_traversal::{TraversalCore, UpdateStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Parsed command-line options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Dataset scale (default `small`; `medium` reproduces DESIGN.md
    /// sizes, `tiny` smoke-tests).
    pub scale: Scale,
    /// Number of stream edges per dataset (the paper's 100,000; default
    /// here 5,000 at `small`).
    pub updates: usize,
    /// Restrict to these dataset names (default: all eleven).
    pub datasets: Vec<String>,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            scale: Scale::Small,
            updates: 5000,
            datasets: DATASETS.iter().map(|d| d.name.to_string()).collect(),
            seed: 42,
        }
    }
}

impl Cli {
    /// Parses `--scale tiny|small|medium`, `--updates N`,
    /// `--datasets a,b,c`, `--seed N`. Unknown flags abort with usage.
    pub fn parse() -> Cli {
        let mut cli = Cli::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let need_value = |i: usize| {
                args.get(i + 1)
                    .unwrap_or_else(|| panic!("flag {} needs a value", args[i]))
            };
            match args[i].as_str() {
                "--scale" => {
                    cli.scale = Scale::parse(need_value(i))
                        .unwrap_or_else(|| panic!("bad --scale {:?}", args[i + 1]));
                    i += 2;
                }
                "--updates" => {
                    cli.updates = need_value(i).parse().expect("bad --updates");
                    i += 2;
                }
                "--datasets" => {
                    cli.datasets = need_value(i).split(',').map(|s| s.to_string()).collect();
                    i += 2;
                }
                "--seed" => {
                    cli.seed = need_value(i).parse().expect("bad --seed");
                    i += 2;
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --scale tiny|small|medium  --updates N  --datasets a,b,c  --seed N"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other:?} (try --help)"),
            }
        }
        cli
    }

    /// Loads one dataset under these options.
    pub fn load(&self, name: &str) -> Dataset {
        load_dataset(name, self.scale, self.updates)
    }

    /// Iterates the selected dataset names.
    pub fn dataset_names(&self) -> impl Iterator<Item = &str> {
        self.datasets.iter().map(|s| s.as_str())
    }
}

/// Accumulated timing + instrumentation over a stream of updates.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunResult {
    /// Total wall time.
    pub elapsed: Duration,
    /// Summed per-update statistics.
    pub stats: UpdateStats,
    /// Number of updates applied.
    pub ops: usize,
}

impl RunResult {
    /// Seconds as f64.
    pub fn secs(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }
}

/// Inserts every stream edge one by one, accumulating time and stats.
pub fn time_insertions<M: CoreMaintainer>(
    engine: &mut M,
    stream: &[(VertexId, VertexId)],
) -> RunResult {
    let mut result = RunResult::default();
    let start = Instant::now();
    for &(u, v) in stream {
        let s = engine.insert(u, v).expect("stream insert failed");
        result.stats.absorb(s);
        result.ops += 1;
    }
    result.elapsed = start.elapsed();
    result
}

/// Removes every stream edge one by one (reverse order, matching the
/// paper's "then remove these edges"), accumulating time and stats.
pub fn time_removals<M: CoreMaintainer>(
    engine: &mut M,
    stream: &[(VertexId, VertexId)],
) -> RunResult {
    let mut result = RunResult::default();
    let start = Instant::now();
    for &(u, v) in stream.iter().rev() {
        let s = engine.remove(u, v).expect("stream remove failed");
        result.stats.absorb(s);
        result.ops += 1;
    }
    result.elapsed = start.elapsed();
    result
}

/// Collects the per-update visited counts (for the Fig 1 histogram).
pub fn per_update_visited<M: CoreMaintainer>(
    engine: &mut M,
    stream: &[(VertexId, VertexId)],
) -> Vec<usize> {
    stream
        .iter()
        .map(|&(u, v)| engine.insert(u, v).expect("insert failed").visited)
        .collect()
}

/// Builds the order-based engine over a dataset's base graph.
pub fn order_engine(ds: &Dataset, seed: u64) -> OrderCore {
    OrderCore::new(ds.base.clone(), seed)
}

/// Builds a `Trav-h` engine over a dataset's base graph.
pub fn trav_engine(ds: &Dataset, h: usize) -> TraversalCore {
    TraversalCore::new(ds.base.clone(), h)
}

/// `count` fresh edges absent from `g` (and distinct from each other),
/// with **degree-weighted** endpoints: each endpoint is drawn as a random
/// half-edge target, i.e. with probability proportional to its degree —
/// the preferential-attachment arrival model real power-law streams
/// follow (new links overwhelmingly touch hubs). Shared by the batch
/// experiment binary and the batching micro-bench.
pub fn degree_weighted_fresh_edges(
    g: &DynamicGraph,
    count: usize,
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    let edges = g.edge_vec();
    assert!(!edges.is_empty(), "base graph has no edges to weight by");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    let mut out = Vec::with_capacity(count);
    let pick = |rng: &mut SmallRng| {
        let (a, b) = edges[rng.gen_range(0..edges.len())];
        if rng.gen_bool(0.5) {
            a
        } else {
            b
        }
    };
    while out.len() < count {
        let u = pick(&mut rng);
        let v = pick(&mut rng);
        if u == v || g.has_edge(u, v) || !seen.insert(edge_key(u, v)) {
            continue;
        }
        out.push((u, v));
    }
    out
}

/// Prints a fixed-width row: first cell `w0` wide, rest `w` wide.
pub fn row(cells: &[String], w0: usize, w: usize) {
    let mut line = String::new();
    for (i, c) in cells.iter().enumerate() {
        let width = if i == 0 { w0 } else { w };
        line.push_str(&format!("{c:>width$}"));
        line.push(' ');
    }
    println!("{}", line.trim_end());
}

/// Formats a duration in seconds with 3 decimals.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a ratio with 2 decimals, guarding division by zero.
pub fn fmt_ratio(num: f64, den: f64) -> String {
    if den == 0.0 {
        "-".to_string()
    } else {
        format!("{:.2}", num / den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_protocol_roundtrips() {
        let ds = load_dataset("gowalla", Scale::Tiny, 200);
        let mut engine = order_engine(&ds, 1);
        let baseline_cores = engine.core_slice().to_vec();
        let ins = time_insertions(&mut engine, &ds.stream);
        assert_eq!(ins.ops, ds.stream.len());
        let rem = time_removals(&mut engine, &ds.stream);
        assert_eq!(rem.ops, ds.stream.len());
        // After insert-then-remove, the cores are back to the base state.
        assert_eq!(engine.core_slice(), &baseline_cores[..]);
    }

    #[test]
    fn engines_agree_on_a_dataset_stream() {
        let ds = load_dataset("google", Scale::Tiny, 150);
        let mut order = order_engine(&ds, 1);
        let mut trav = trav_engine(&ds, 2);
        time_insertions(&mut order, &ds.stream);
        time_insertions(&mut trav, &ds.stream);
        assert_eq!(order.core_slice(), trav.core_slice());
        time_removals(&mut order, &ds.stream);
        time_removals(&mut trav, &ds.stream);
        assert_eq!(order.core_slice(), trav.core_slice());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ratio(3.0, 2.0), "1.50");
        assert_eq!(fmt_ratio(1.0, 0.0), "-");
        assert_eq!(fmt_secs(Duration::from_millis(1500)), "1.500");
    }
}
