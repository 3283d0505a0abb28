//! Fig 11: scalability of `OrderInsert` on the three largest datasets —
//! total time to insert the sampled stream while the graph is vertex-
//! sampled (a, b) or edge-sampled (c, d) at 20%…100%.
//!
//! `cargo run --release -p kcore-bench --bin fig11`

use kcore_bench::{time_insertions, Cli};
use kcore_gen::sample::{induced_vertex_sample, sample_edge_subgraph, sample_edges};
use kcore_graph::DynamicGraph;
use kcore_maint::OrderCore;

const RATIOS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];

fn main() {
    let mut cli = Cli::parse();
    if cli.datasets.len() == 11 {
        cli.datasets = vec!["patents".into(), "orkut".into(), "livejournal".into()];
    }
    println!(
        "== Fig 11: OrderInsert scalability ({} insertions per point, scale {:?}) ==",
        cli.updates, cli.scale
    );
    for name in cli.dataset_names() {
        let full = cli.load(name).full_graph();
        println!(
            "\n-- {name} (n = {}, m = {}) --",
            full.num_vertices(),
            full.num_edges()
        );
        println!(
            "{:>8} {:>14} {:>12} {:>14} {:>12}",
            "sample", "V-time(ms)", "edge-ratio", "E-time(ms)", "vert-ratio"
        );
        let full_m = full.num_edges() as f64;
        let full_nz = non_isolated(&full) as f64;
        for ratio in RATIOS {
            // Fig 11a/11b: vertex sampling — induced subgraph, report the
            // surviving edge fraction.
            let vs = induced_vertex_sample(&full, ratio, cli.seed);
            let v_ms = run_point(&vs, cli.updates, cli.seed);
            let edge_ratio = vs.num_edges() as f64 / full_m;
            // Fig 11c/11d: edge sampling — incident vertices kept, report
            // the surviving (non-isolated) vertex fraction.
            let es = sample_edge_subgraph(&full, ratio, cli.seed);
            let e_ms = run_point(&es, cli.updates, cli.seed);
            let vert_ratio = non_isolated(&es) as f64 / full_nz;
            println!(
                "{:>7.0}% {:>14.1} {:>12.3} {:>14.1} {:>12.3}",
                ratio * 100.0,
                v_ms,
                edge_ratio,
                e_ms,
                vert_ratio
            );
        }
    }
    println!();
    println!("expected shape: time grows smoothly while edges/vertices grow");
    println!("rapidly (paper Fig 11).");
}

/// Times the insertion stream on a sampled graph; returns milliseconds.
fn run_point(g: &DynamicGraph, updates: usize, seed: u64) -> f64 {
    let stream = sample_edges(g, updates.min(g.num_edges() / 5), seed ^ 0xF19);
    let mut base = g.clone();
    for &(u, v) in &stream {
        base.remove_edge(u, v).unwrap();
    }
    let mut engine: OrderCore = OrderCore::new(base, seed);
    let r = time_insertions(&mut engine, &stream);
    r.secs() * 1000.0
}

fn non_isolated(g: &DynamicGraph) -> usize {
    g.vertices().filter(|&v| g.degree(v) > 0).count()
}
