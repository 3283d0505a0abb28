//! Criterion micro-benchmarks of the batched update engine: batched vs
//! one-at-a-time update throughput at several batch sizes, on a
//! power-law base graph with degree-weighted (preferential-attachment)
//! update endpoints. Each iteration inserts the whole stream and then
//! removes it again — and the churn group replays its micro-batches and
//! then their exact inverse — so engine state is unchanged across
//! iterations and no index rebuild pollutes the measurement. The `batch`
//! binary is the full experiment; this is the quick regression guard.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kcore_bench::degree_weighted_fresh_edges;
use kcore_gen::{barabasi_albert, churn_stream};
use kcore_maint::OrderCore;
use std::hint::black_box;

fn bench_batching(c: &mut Criterion) {
    let g = barabasi_albert(10_000, 4, 7);
    let stream = degree_weighted_fresh_edges(&g, 2_000, 99);
    let mut group = c.benchmark_group("insert_remove_stream");
    group.sample_size(10);

    let mut single: OrderCore = OrderCore::new(g.clone(), 7);
    group.bench_with_input(BenchmarkId::new("single", "2k"), &stream, |b, stream| {
        b.iter(|| {
            for &(u, v) in stream {
                single.insert_edge(u, v).unwrap();
            }
            for &(u, v) in stream.iter().rev() {
                single.remove_edge(u, v).unwrap();
            }
            black_box(single.core(0))
        });
    });

    for bs in [100usize, 1_000, 2_000] {
        let mut batched: OrderCore = OrderCore::new(g.clone(), 7);
        group.bench_with_input(BenchmarkId::new("batched", bs), &stream, |b, stream| {
            b.iter(|| {
                for chunk in stream.chunks(bs) {
                    let s = batched.insert_edges(chunk);
                    assert_eq!(s.skipped, 0);
                }
                for chunk in stream.rchunks(bs) {
                    let s = batched.remove_edges(chunk);
                    assert_eq!(s.skipped, 0);
                }
                black_box(batched.core(0))
            });
        });
    }
    group.finish();
}

fn bench_churn(c: &mut Criterion) {
    let g = barabasi_albert(10_000, 4, 7);
    // 20 micro-batches of 50 inserts + 50 removals each.
    let stream = churn_stream(&g, 20, 50, 50, 13);
    let mut group = c.benchmark_group("churn_stream");
    group.sample_size(10);

    let mut single: OrderCore = OrderCore::new(g.clone(), 7);
    group.bench_with_input(BenchmarkId::new("single", "2k"), &stream, |b, stream| {
        b.iter(|| {
            for batch in stream {
                for &(u, v) in &batch.inserts {
                    single.insert_edge(u, v).unwrap();
                }
                for &(u, v) in &batch.removes {
                    single.remove_edge(u, v).unwrap();
                }
            }
            // Inverse replay restores the starting graph exactly.
            for batch in stream.iter().rev() {
                for &(u, v) in &batch.removes {
                    single.insert_edge(u, v).unwrap();
                }
                for &(u, v) in &batch.inserts {
                    single.remove_edge(u, v).unwrap();
                }
            }
            black_box(single.core(0))
        });
    });

    let mut batched: OrderCore = OrderCore::new(g.clone(), 7);
    group.bench_with_input(BenchmarkId::new("batched", "2k"), &stream, |b, stream| {
        b.iter(|| {
            for batch in stream {
                let s = batched.insert_edges(&batch.inserts);
                assert_eq!(s.skipped, 0);
                let s = batched.remove_edges(&batch.removes);
                assert_eq!(s.skipped, 0);
            }
            for batch in stream.iter().rev() {
                let s = batched.insert_edges(&batch.removes);
                assert_eq!(s.skipped, 0);
                let s = batched.remove_edges(&batch.inserts);
                assert_eq!(s.skipped, 0);
            }
            black_box(batched.core(0))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_batching, bench_churn);
criterion_main!(benches);
