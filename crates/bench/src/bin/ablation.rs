//! Ablation study (extension beyond the paper): the cost of the design
//! choices DESIGN.md calls out.
//!
//! 1. `A_k` representation — the paper's treap (rank keys, `O(log n)`
//!    order tests) vs the engine's label list (`O(1)` order tests,
//!    occasional relabels), one edge at a time on the datasets;
//! 2. k-order generation heuristic — how much wall-clock the *small
//!    deg⁺ first* rule actually buys (time companion to Fig 9's counts);
//! 3. the `A_k` scale sweep — the same BA(attach 4) churn through
//!    `PlannedCore` with each `A_k` at 20k, 200k and 2M vertices, where
//!    the treap's parent-pointer walks outgrow the caches.
//!
//! `cargo run --release -p kcore-bench --bin ablation`

use std::time::Instant;

use kcore_bench::{fmt_ratio, fmt_secs, row, time_insertions, time_removals, Cli};
use kcore_decomp::Heuristic;
use kcore_gen::{barabasi_albert, churn_stream, ChurnBatch};
use kcore_graph::DynamicGraph;
use kcore_maint::{OrderCore, PlannedCore, TreapOrderCore};
use kcore_order::{OrderSeq, OrderTreap, TagList};

/// Scale sweep: graph sizes, churn micro-batch (half inserts, half
/// removes) and events replayed per size.
const SWEEP_SIZES: [usize; 3] = [20_000, 200_000, 2_000_000];
const SWEEP_BATCH: usize = 256;
const SWEEP_EVENTS: usize = 16_384;

fn main() {
    let mut cli = Cli::parse();
    if cli.datasets.len() == 11 {
        cli.datasets = vec!["orkut".into(), "patents".into(), "ca".into()];
    }
    println!(
        "== Ablation 1: A_k = treap vs label list ({} updates, scale {:?}) ==",
        cli.updates, cli.scale
    );
    row(
        &[
            "dataset".into(),
            "treap-ins".into(),
            "label-ins".into(),
            "treap-rem".into(),
            "label-rem".into(),
        ],
        12,
        12,
    );
    for name in cli.dataset_names() {
        let ds = cli.load(name);
        let mut treap = TreapOrderCore::new(ds.base.clone(), cli.seed);
        let ti = time_insertions(&mut treap, &ds.stream);
        let tr = time_removals(&mut treap, &ds.stream);
        let mut label: OrderCore = OrderCore::new(ds.base.clone(), cli.seed);
        let li = time_insertions(&mut label, &ds.stream);
        let lr = time_removals(&mut label, &ds.stream);
        assert_eq!(treap.cores(), label.cores(), "variants diverged on {name}");
        row(
            &[
                name.into(),
                fmt_secs(ti.elapsed),
                fmt_secs(li.elapsed),
                fmt_secs(tr.elapsed),
                fmt_secs(lr.elapsed),
            ],
            12,
            12,
        );
    }

    println!();
    println!(
        "== Ablation 2: wall-clock by generation heuristic ({} insertions) ==",
        cli.updates
    );
    row(
        &[
            "dataset".into(),
            "small".into(),
            "large".into(),
            "random".into(),
        ],
        12,
        12,
    );
    for name in cli.dataset_names() {
        let ds = cli.load(name);
        let mut cells = vec![name.to_string()];
        for h in Heuristic::ALL {
            let mut engine: OrderCore = OrderCore::with_heuristic(ds.base.clone(), h, cli.seed);
            let r = time_insertions(&mut engine, &ds.stream);
            cells.push(fmt_secs(r.elapsed));
        }
        row(&cells, 12, 12);
    }

    println!();
    println!(
        "== Ablation 3: A_k scale sweep, BA(attach 4) churn through PlannedCore \
         ({SWEEP_EVENTS} events, batch {SWEEP_BATCH}) =="
    );
    row(
        &[
            "vertices".into(),
            "treap-us/ev".into(),
            "label-us/ev".into(),
            "speedup".into(),
        ],
        12,
        12,
    );
    for n in SWEEP_SIZES {
        let base = barabasi_albert(n, 4, cli.seed);
        let stream = churn_stream(
            &base,
            SWEEP_EVENTS / SWEEP_BATCH,
            SWEEP_BATCH / 2,
            SWEEP_BATCH / 2,
            cli.seed,
        );
        let (treap_us, treap_cores) = sweep_replay::<OrderTreap>(&base, &stream, cli.seed);
        let (label_us, label_cores) = sweep_replay::<TagList>(&base, &stream, cli.seed);
        // Not assert_eq!: a mismatch would print millions of cores.
        assert!(
            treap_cores == label_cores,
            "A_k variants diverged at {n} vertices"
        );
        row(
            &[
                n.to_string(),
                format!("{treap_us:.2}"),
                format!("{label_us:.2}"),
                fmt_ratio(treap_us, label_us),
            ],
            12,
            12,
        );
    }
}

/// Replays `stream` through a fresh `PlannedCore<S>` over `base`;
/// returns µs per event (index build excluded) and the final cores.
fn sweep_replay<S: OrderSeq>(
    base: &DynamicGraph,
    stream: &[ChurnBatch],
    seed: u64,
) -> (f64, Vec<u32>) {
    let mut engine = PlannedCore::<S>::new(base.clone(), seed);
    let mut events = 0;
    let start = Instant::now();
    for b in stream {
        engine.apply_churn(&b.inserts, &b.removes);
        events += b.ops();
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / events as f64;
    (us, engine.cores().to_vec())
}
