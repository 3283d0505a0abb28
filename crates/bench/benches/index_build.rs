//! Criterion micro-benchmarks: index construction (Table III at
//! microbenchmark granularity) — core decomposition alone, the order
//! index, and Trav-h indices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kcore_decomp::{core_decomposition, core_decomposition_csr, korder_decomposition, Heuristic};
use kcore_gen::{load_dataset, Scale};
use kcore_graph::CsrGraph;
use kcore_maint::OrderCore;
use kcore_traversal::TraversalCore;
use std::hint::black_box;

fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    for name in ["facebook", "google"] {
        let g = load_dataset(name, Scale::Tiny, 16).full_graph();

        group.bench_with_input(BenchmarkId::new("decomp_only", name), &g, |b, g| {
            b.iter(|| black_box(core_decomposition(g)));
        });
        let csr = CsrGraph::from(&g);
        group.bench_with_input(BenchmarkId::new("decomp_csr", name), &csr, |b, csr| {
            b.iter(|| black_box(core_decomposition_csr(csr)));
        });
        group.bench_with_input(BenchmarkId::new("korder_small", name), &g, |b, g| {
            b.iter(|| black_box(korder_decomposition(g, Heuristic::SmallDegFirst, 1)));
        });
        group.bench_with_input(BenchmarkId::new("order_index", name), &g, |b, g| {
            b.iter(|| black_box(<OrderCore>::new(g.clone(), 1)));
        });
        for h in [2usize, 4, 6] {
            group.bench_with_input(
                BenchmarkId::new(format!("trav{h}_index"), name),
                &g,
                |b, g| {
                    b.iter(|| black_box(TraversalCore::new(g.clone(), h)));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_index_build);
criterion_main!(benches);
