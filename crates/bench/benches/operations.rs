//! Criterion micro-benchmarks: per-operation maintenance latency of the
//! order-based engine vs the traversal baseline (Table II at
//! microbenchmark granularity). Each iteration performs one insert and
//! the matching remove, so engine state is unchanged across iterations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kcore_gen::{load_dataset, Scale};
use kcore_maint::{CoreMaintainer, OrderCore};
use kcore_traversal::TraversalCore;

fn bench_update_pair(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert_remove_pair");
    group.sample_size(20);
    for name in ["facebook", "patents", "ca"] {
        let ds = load_dataset(name, Scale::Tiny, 64);
        let stream = ds.stream.clone();

        let mut order: OrderCore = OrderCore::new(ds.base.clone(), 1);
        group.bench_with_input(BenchmarkId::new("order", name), &stream, |b, stream| {
            let mut i = 0usize;
            b.iter(|| {
                let (u, v) = stream[i % stream.len()];
                i += 1;
                order.insert(u, v).unwrap();
                order.remove(u, v).unwrap();
            });
        });

        let mut trav = TraversalCore::new(ds.base.clone(), 2);
        group.bench_with_input(BenchmarkId::new("trav2", name), &stream, |b, stream| {
            let mut i = 0usize;
            b.iter(|| {
                let (u, v) = stream[i % stream.len()];
                i += 1;
                trav.insert(u, v).unwrap();
                trav.remove(u, v).unwrap();
            });
        });

        let mut trav5 = TraversalCore::new(ds.base.clone(), 5);
        group.bench_with_input(BenchmarkId::new("trav5", name), &stream, |b, stream| {
            let mut i = 0usize;
            b.iter(|| {
                let (u, v) = stream[i % stream.len()];
                i += 1;
                trav5.insert(u, v).unwrap();
                trav5.remove(u, v).unwrap();
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_update_pair);
criterion_main!(benches);
