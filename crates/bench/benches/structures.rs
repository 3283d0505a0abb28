//! Criterion micro-benchmarks of the order-maintenance substrates: the
//! label-list `A_k` vs the paper's treap (the ablation's data-structure
//! level), and the jump heap.

use criterion::{criterion_group, criterion_main, Criterion};
use kcore_order::{MinRankHeap, OrderSeq, OrderTreap, TagList};
use std::hint::black_box;

const N: usize = 10_000;

fn bench_seq<S: OrderSeq>(c: &mut Criterion, label: &str) {
    c.bench_function(&format!("{label}/append_{N}"), |b| {
        b.iter(|| {
            let mut s = S::with_seed(7);
            for i in 0..N as u32 {
                s.insert_last(i);
            }
            black_box(s.len())
        });
    });

    // order queries on a prebuilt sequence
    let mut s = S::with_seed(7);
    let handles: Vec<u32> = (0..N as u32).map(|i| s.insert_last(i)).collect();
    c.bench_function(&format!("{label}/precedes"), |b| {
        let mut i = 0usize;
        b.iter(|| {
            let a = handles[i % N];
            let z = handles[(i * 7 + 13) % N];
            i += 1;
            black_box(s.precedes(a, z))
        });
    });
    c.bench_function(&format!("{label}/order_key"), |b| {
        let mut i = 0usize;
        b.iter(|| {
            let a = handles[i % N];
            i += 1;
            black_box(s.order_key(a))
        });
    });

    // churn at a hot spot: repeated insert_after/remove at one position
    c.bench_function(&format!("{label}/hot_spot_churn"), |b| {
        let mut s = S::with_seed(11);
        let anchor = s.insert_last(0);
        s.insert_last(1);
        b.iter(|| {
            let h = s.insert_after(anchor, 2);
            black_box(s.remove(h))
        });
    });
}

fn bench_structures(c: &mut Criterion) {
    bench_seq::<OrderTreap>(c, "treap");
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
