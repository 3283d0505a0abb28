//! Renders the span dumps of traced runs as per-workload, per-layer
//! tables: self time (span minus child spans), span counts, items, the
//! layer → end-to-end mapping, and the tracing overhead.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin render \
//!     [perfbench/out/trace-<workload>.tsv ...]
//! ```
//!
//! With no arguments it renders every `trace-*.tsv` under
//! `perfbench/out/`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{stage_table, Dump, OFF_PATH_IN_MEMORY, PER_LAYER};

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn render(dump: &Dump) -> String {
    let workload = dump.meta("workload").unwrap_or("?");
    let durable = dump.meta("durable") == Some("true");
    let on_path = |layer: &str| durable || !OFF_PATH_IN_MEMORY.contains(&layer);
    let mut out = format!(
        "== {workload} (seed {}, host_parallelism {}, replay batch {}) ==\n\
         tracing overhead: traced ÷ untraced events_per_s = {} ({} / {})\n\n",
        dump.meta("seed").unwrap_or("?"),
        dump.meta("host_parallelism").unwrap_or("?"),
        dump.meta("batch").unwrap_or("?"),
        dump.meta("tracing_overhead").unwrap_or("?"),
        dump.meta("events_per_s_traced").unwrap_or("?"),
        dump.meta("events_per_s_untraced").unwrap_or("?"),
    );

    let stages = stage_table(&dump.spans);
    let mut layers: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for row in &stages {
        let l = layers.entry(layer_of(&row.stage)).or_default();
        l.0 += row.count;
        l.1 += row.self_ns;
        l.2 += row.items;
    }
    let path_self: u64 = layers
        .iter()
        .filter(|(l, _)| on_path(l))
        .map(|(_, v)| v.1)
        .sum();
    out.push_str(&format!(
        "{:<11} {:>8} {:>12} {:>7} {:>12}  {}\n",
        "layer", "spans", "self ms", "share", "items", "moves"
    ));
    for (layer, (count, self_ns, items)) in &layers {
        let moves: Vec<&str> = PER_LAYER
            .iter()
            .filter(|(n, _, _)| layer_of(n) == *layer)
            .map(|&(_, _, m)| m)
            .fold(Vec::new(), |mut acc, m| {
                if !acc.contains(&m) {
                    acc.push(m);
                }
                acc
            });
        let share = if on_path(layer) {
            format!("{:.1}%", 100.0 * *self_ns as f64 / path_self.max(1) as f64)
        } else {
            "off".to_string()
        };
        out.push_str(&format!(
            "{layer:<11} {count:>8} {:>12.3} {share:>7} {items:>12}  {}\n",
            *self_ns as f64 / 1e6,
            moves.join("; ")
        ));
    }

    out.push_str(&format!(
        "\n{:<32} {:>8} {:>12} {:>12} {:>12}\n",
        "stage", "spans", "total ms", "self ms", "items"
    ));
    for row in &stages {
        out.push_str(&format!(
            "{:<32} {:>8} {:>12.3} {:>12.3} {:>12}\n",
            row.stage,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            row.items
        ));
    }

    out.push_str(&format!(
        "\n{:<32} {:>14} {:>14} {:<6} {}\n",
        "metric", "on path", "measured", "unit", "moves"
    ));
    for &(name, unit, moves) in &PER_LAYER {
        let Some(v) = dump.metric(name) else {
            out.push_str(&format!("{name:<32} {:>14}\n", "missing"));
            continue;
        };
        let path_value = if on_path(layer_of(name)) { v } else { 0.0 };
        out.push_str(&format!(
            "{name:<32} {path_value:>14.4} {v:>14.4} {unit:<6} {moves}\n"
        ));
    }
    out
}

fn main() -> ExitCode {
    let mut paths: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    if paths.is_empty() {
        let dir = PathBuf::from("perfbench").join("out");
        if let Ok(entries) = std::fs::read_dir(&dir) {
            paths = entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("trace-") && n.ends_with(".tsv"))
                })
                .collect();
            paths.sort();
        }
    }
    if paths.is_empty() {
        eprintln!("render: no span dumps given and none under perfbench/out/");
        return ExitCode::FAILURE;
    }
    for path in &paths {
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Dump::parse(&text));
        match parsed {
            Ok(dump) => println!("{}", render(&dump)),
            Err(e) => {
                eprintln!("render: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
