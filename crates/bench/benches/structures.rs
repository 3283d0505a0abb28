//! Criterion micro-benchmarks of the order-maintenance substrates at one
//! level: the vertex-indexed label list `A_k` vs the paper's treap (the
//! ablation's data-structure level, through its per-level adapter), and
//! the jump heap.

use criterion::{criterion_group, criterion_main, Criterion};
use kcore_order::{MinRankHeap, OrderSeq, TagList, TreapLevels};
use std::hint::black_box;

const N: u32 = 10_000;

/// A one-level k-order holding vertices `0..N` in id order.
fn level_of<S: OrderSeq>(seed: u64) -> S {
    let mut s = S::with_seed(seed);
    s.push_level();
    for v in 0..N {
        s.insert_last(0, v);
    }
    s
}

fn bench_seq<S: OrderSeq>(c: &mut Criterion, label: &str) {
    c.bench_function(&format!("{label}/append_{N}"), |b| {
        b.iter(|| black_box(level_of::<S>(7)));
    });

    // order queries on a prebuilt level
    let s = level_of::<S>(7);
    c.bench_function(&format!("{label}/precedes"), |b| {
        let mut i = 0u32;
        b.iter(|| {
            let (a, z) = (i % N, i.wrapping_mul(7).wrapping_add(13) % N);
            i = i.wrapping_add(1);
            black_box(s.key(a) < s.key(z))
        });
    });
    c.bench_function(&format!("{label}/order_key"), |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(s.key(i % N))
        });
    });

    // churn at a hot spot: repeated insert_after/remove at one position
    c.bench_function(&format!("{label}/hot_spot_churn"), |b| {
        let mut s = S::with_seed(11);
        s.push_level();
        s.insert_last(0, 0);
        s.insert_last(0, 1);
        b.iter(|| {
            s.insert_after(0, 0, 2);
            s.remove(0, 2);
            black_box(s.key(0))
        });
    });
}

fn bench_structures(c: &mut Criterion) {
    bench_seq::<TreapLevels>(c, "treap");
    bench_seq::<TagList>(c, "taglist");

    c.bench_function("jump_heap/push_pop_1k", |b| {
        b.iter(|| {
            let mut h = MinRankHeap::new();
            for i in 0..1000u64 {
                h.push((i * 2654435761) % 4096, i as u32);
            }
            let mut out = 0u64;
            while let Some((k, _)) = h.pop_valid(|_| true) {
                out = out.wrapping_add(k);
            }
            black_box(out)
        });
    });
}

criterion_group!(benches, bench_structures);
criterion_main!(benches);
