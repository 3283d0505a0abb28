//! Table III: index construction time (seconds) — the order-based index
//! (core decomposition + k-order + `A_k` lists + mcd) vs `Trav-h` (core
//! decomposition + `cd_1..cd_h`).
//!
//! `cargo run --release -p kcore-bench --bin table3`

use kcore_bench::{fmt_secs, row, Cli};
use kcore_maint::OrderCore;
use kcore_traversal::TraversalCore;
use std::time::Instant;

const HOPS: [usize; 5] = [2, 3, 4, 5, 6];

fn main() {
    let cli = Cli::parse();
    println!(
        "== Table III: index creation time in seconds (scale {:?}) ==",
        cli.scale
    );
    let mut header = vec!["dataset".to_string(), "Order".to_string()];
    header.extend(HOPS.iter().map(|h| format!("Trav-{h}")));
    row(&header, 12, 10);
    for name in cli.dataset_names() {
        let g = cli.load(name).full_graph();
        let start = Instant::now();
        let oc: OrderCore = OrderCore::new(g.clone(), cli.seed);
        let order_time = start.elapsed();
        std::hint::black_box(&oc);
        let mut cells = vec![name.to_string(), fmt_secs(order_time)];
        for &h in &HOPS {
            let start = Instant::now();
            let tc = TraversalCore::new(g.clone(), h);
            cells.push(fmt_secs(start.elapsed()));
            std::hint::black_box(&tc);
        }
        row(&cells, 12, 10);
    }
    println!();
    println!("expected shape (paper Table III): order-based creation within ~2x");
    println!("of Trav-2; Trav-h creation grows with h.");
}
