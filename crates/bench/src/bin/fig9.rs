//! Fig 9: comparison of the k-order generation heuristics — *small*,
//! *large* and *random deg⁺ first* — by the `Σ|V+| / Σ|V*|` ratio over the
//! insertion stream.
//!
//! `cargo run --release -p kcore-bench --bin fig9`

use kcore_bench::{fmt_ratio, row, time_insertions, Cli};
use kcore_decomp::Heuristic;
use kcore_maint::OrderCore;

fn main() {
    let cli = Cli::parse();
    println!(
        "== Fig 9: |V+|/|V*| by k-order generation heuristic ({} insertions, scale {:?}) ==",
        cli.updates, cli.scale
    );
    row(
        &[
            "dataset".into(),
            "small-deg+".into(),
            "large-deg+".into(),
            "random-deg+".into(),
        ],
        12,
        14,
    );
    for name in cli.dataset_names() {
        let ds = cli.load(name);
        let mut cells = vec![name.to_string()];
        for h in Heuristic::ALL {
            let mut engine: OrderCore = OrderCore::with_heuristic(ds.base.clone(), h, cli.seed);
            let r = time_insertions(&mut engine, &ds.stream);
            cells.push(fmt_ratio(r.stats.visited as f64, r.stats.changed as f64));
        }
        row(&cells, 12, 14);
    }
    println!();
    println!("expected shape: small-deg+-first consistently smallest (paper Fig 9).");
}
