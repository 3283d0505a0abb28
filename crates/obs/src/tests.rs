use crate::hist::{bucket_bounds, index_of};
use crate::{Counter, Gauge, Histogram, MetricsRegistry, SpanRecorder, HISTOGRAM_BUCKETS};
use proptest::prelude::*;

/// Exact percentile with the same rank convention the histogram uses:
/// the value at rank `ceil(q * n)` (1-based) of the sorted samples.
fn exact_quantile(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    let n = samples.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    samples[(rank - 1) as usize]
}

#[test]
fn bucket_index_and_bounds_roundtrip() {
    // Every bucket's own bounds map back to that bucket, buckets tile
    // the u64 range contiguously, and small values are exact.
    let mut prev_hi = None;
    for idx in 0..HISTOGRAM_BUCKETS {
        let (lo, hi) = bucket_bounds(idx);
        assert!(lo <= hi);
        assert_eq!(index_of(lo), idx, "lo of bucket {idx}");
        assert_eq!(index_of(hi), idx, "hi of bucket {idx}");
        if let Some(p) = prev_hi {
            assert_eq!(lo, p + 1u64, "gap before bucket {idx}");
        }
        prev_hi = Some(hi);
    }
    assert_eq!(prev_hi, Some(u64::MAX));
    for v in 0..8u64 {
        assert_eq!(bucket_bounds(index_of(v)), (v, v), "unit buckets exact");
    }
    assert_eq!(index_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
}

#[test]
fn histogram_basic_stats() {
    let h = Histogram::new();
    assert!(h.is_empty());
    assert_eq!((h.p50(), h.p99(), h.max(), h.min()), (0, 0, 0, 0));
    for v in [5u64, 5, 5, 7, 1000] {
        h.record(v);
    }
    assert_eq!(h.count(), 5);
    assert_eq!(h.sum(), 5 + 5 + 5 + 7 + 1000);
    assert_eq!(h.min(), 5);
    assert_eq!(h.max(), 1000);
    assert_eq!(h.p50(), 5, "small values are bucket-exact");
    // p99 rank 5 → the 1000 sample's bucket; clamped to observed max.
    assert_eq!(h.p99(), 1000);
}

#[test]
fn histogram_clone_shares_cells_and_eq_compares_contents() {
    let a = Histogram::new();
    let handle = a.clone();
    a.record(42);
    assert_eq!(handle.count(), 1, "clones share cells");
    let b = Histogram::new();
    b.record(42);
    assert_eq!(a, b, "equality is by contents");
    b.record(43);
    assert_ne!(a, b);
    // Absorbing self is a no-op, not a double-count.
    a.absorb(&handle);
    assert_eq!(a.count(), 1);
}

#[test]
fn registry_snapshot_render_and_json() {
    let reg = MetricsRegistry::new();
    let c = reg.counter("ingest_events_total");
    let g = reg.gauge("planner/ewma ns-per-edge"); // sanitized
    let h = reg.histogram("flush_apply_ns");
    c.add(3);
    g.set(12.5);
    h.record(100);
    h.record(200);

    let snap = reg.snapshot();
    assert_eq!(snap.counter("ingest_events_total"), Some(3));
    assert_eq!(snap.gauge("planner_ewma_ns_per_edge"), Some(12.5));
    assert_eq!(snap.histogram("flush_apply_ns").unwrap().count, 2);

    let text = snap.render_text();
    assert!(text.contains("# TYPE ingest_events_total counter"));
    assert!(text.contains("ingest_events_total 3"));
    assert!(text.contains("planner_ewma_ns_per_edge 12.5"));
    assert!(text.contains("flush_apply_ns_bucket{le=\"+Inf\"} 2"));
    assert!(text.contains("flush_apply_ns_count 2"));
    for line in text.lines() {
        assert!(
            line.starts_with("# TYPE ") || line.split(' ').count() == 2,
            "malformed exposition line: {line:?}"
        );
    }

    let json = snap.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"ingest_events_total\":3"));
    assert!(json.contains("\"count\":2"));

    // Same-name re-lookup returns the same cells.
    reg.counter("ingest_events_total").inc();
    assert_eq!(c.get(), 4);
}

#[test]
fn registry_snapshot_under_concurrent_writes() {
    // Writers hammer a counter + histogram while a reader snapshots:
    // every snapshot must be internally sane (monotone counts, p99 ≥
    // p50) and the final totals exact. Recording is lock-free, so no
    // writer can be blocked by the reader.
    const WRITERS: usize = 4;
    const PER: u64 = 20_000;
    let reg = MetricsRegistry::new();
    let c = reg.counter("events");
    let h = reg.histogram("lat");
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (c, h) = (c.clone(), h.clone());
            std::thread::spawn(move || {
                for i in 0..PER {
                    c.inc();
                    h.record((w as u64 + 1) * 1000 + i % 7);
                }
            })
        })
        .collect();
    let mut last = 0u64;
    for _ in 0..200 {
        let snap = reg.snapshot();
        let seen = snap.counter("events").unwrap();
        assert!(seen >= last, "counter went backwards");
        last = seen;
        let hs = snap.histogram("lat").unwrap();
        assert!(hs.p99 >= hs.p50);
        assert!(hs.count <= WRITERS as u64 * PER);
    }
    for t in handles {
        t.join().unwrap();
    }
    let snap = reg.snapshot();
    assert_eq!(snap.counter("events"), Some(WRITERS as u64 * PER));
    assert_eq!(snap.histogram("lat").unwrap().count, WRITERS as u64 * PER);
}

#[test]
fn span_ring_bounds_retention_fifo() {
    let rec = SpanRecorder::with_capacity(3);
    for i in 0..5u64 {
        rec.record(i / 2, "apply", i * 10, 1, i);
    }
    assert_eq!(rec.recorded(), 5);
    let spans = rec.spans();
    assert_eq!(spans.len(), 3, "ring keeps the newest `capacity` spans");
    assert_eq!(
        spans.iter().map(|s| s.seq).collect::<Vec<_>>(),
        vec![2, 3, 4]
    );
    assert_eq!(rec.trace(1).len(), 2); // seqs 2 and 3
    rec.clear();
    assert!(rec.spans().is_empty());
    assert_eq!(rec.recorded(), 5, "seq survives clear");
}

#[test]
fn counter_and_gauge_share_on_clone() {
    let c = Counter::new();
    c.clone().add(7);
    assert_eq!(c.get(), 7);
    let g = Gauge::new();
    g.clone().set(-1.25);
    assert_eq!(g.get(), -1.25);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bucket-boundary property: for an arbitrary sample soup, the
    /// histogram's p50/p99 land in exactly the bucket holding the true
    /// rank-percentile — i.e. within one log-bucket of exact.
    #[test]
    fn quantiles_within_one_bucket_of_exact(
        mut samples in prop::collection::vec(0u64..5_000_000, 1..400),
    ) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        for q in [0.50, 0.99] {
            let exact = exact_quantile(&mut samples, q);
            let got = h.quantile(q);
            let (lo, hi) = bucket_bounds(index_of(exact));
            prop_assert!(
                got >= lo && got <= hi,
                "q={} exact={} bucket=[{},{}] got={}", q, exact, lo, hi, got
            );
        }
        prop_assert_eq!(h.max(), *samples.last().unwrap());
        prop_assert_eq!(h.min(), samples[0]);
    }

    /// Merge property: absorbing B into A gives the same quantiles (to
    /// bucket resolution) as recording the union directly — merging is
    /// percentile-safe, unlike sample-ring subsampling.
    #[test]
    fn absorb_is_percentile_safe(
        a in prop::collection::vec(0u64..1_000_000, 1..200),
        b in prop::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let ha = Histogram::new();
        let hb = Histogram::new();
        let hu = Histogram::new();
        for &s in &a {
            ha.record(s);
            hu.record(s);
        }
        for &s in &b {
            hb.record(s);
            hu.record(s);
        }
        ha.absorb(&hb);
        prop_assert_eq!(&ha, &hu, "merged buckets equal union buckets");
        let mut union: Vec<u64> = a.iter().chain(&b).copied().collect();
        for q in [0.50, 0.99] {
            let exact = exact_quantile(&mut union, q);
            let got = ha.quantile(q);
            let (lo, hi) = bucket_bounds(index_of(exact));
            prop_assert!(
                got >= lo && got <= hi,
                "q={} exact={} bucket=[{},{}] got={}", q, exact, lo, hi, got
            );
        }
    }
}
