//! Log-bucketed latency histogram.
//!
//! Layout: values `0..8` get exact unit buckets; every power-of-two
//! octave above that is split into 8 sub-buckets, so the relative
//! bucket width is ≤ 1/8 everywhere. That covers the full `u64` range
//! in [`HISTOGRAM_BUCKETS`] (= 496) buckets ≈ 4 KiB of atomics —
//! bounded no matter how long the run, unlike a raw sample ring.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS; // 8 sub-buckets per octave

/// Total bucket count: 8 unit buckets + 61 octaves × 8 sub-buckets.
pub const HISTOGRAM_BUCKETS: usize = (SUB + (64 - SUB_BITS) as u64 * SUB) as usize;

struct Kernel {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64, // u64::MAX while empty
}

/// A thread-safe log-bucketed histogram of `u64` samples (typically
/// nanoseconds). Clones share the underlying cells, so the same
/// histogram can be recorded to from a writer thread and read live
/// through a [`crate::MetricsRegistry`] snapshot.
#[derive(Clone)]
pub struct Histogram(Arc<Kernel>);

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
pub(crate) fn index_of(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS
        let sub = (v >> (msb - SUB_BITS)) - SUB;
        (SUB as usize) * (msb - SUB_BITS + 1) as usize + sub as usize
    }
}

/// Inclusive `[lo, hi]` value range covered by bucket `idx`.
pub(crate) fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUB as usize {
        (idx as u64, idx as u64)
    } else {
        let oct = (idx / SUB as usize) as u32;
        let msb = oct + SUB_BITS - 1;
        let sub = (idx % 8) as u64;
        let width = 1u64 << (msb - SUB_BITS);
        let lo = (SUB + sub) << (msb - SUB_BITS);
        (lo, lo + (width - 1))
    }
}

impl Histogram {
    pub fn new() -> Self {
        let buckets = (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(Kernel {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }))
    }

    /// Record one sample. Lock-free: two relaxed adds plus two
    /// relaxed min/max updates.
    #[inline]
    pub fn record(&self, v: u64) {
        let k = &*self.0;
        k.buckets[index_of(v)].fetch_add(1, Ordering::Relaxed);
        k.count.fetch_add(1, Ordering::Relaxed);
        k.sum.fetch_add(v, Ordering::Relaxed);
        k.max.fetch_max(v, Ordering::Relaxed);
        k.min.fetch_min(v, Ordering::Relaxed);
    }

    /// Fold `other`'s buckets into `self`. Because merging is bucket
    /// addition, percentiles of the merged histogram are exact to
    /// bucket resolution — no subsampling bias.
    pub fn absorb(&self, other: &Histogram) {
        if Arc::ptr_eq(&self.0, &other.0) {
            return; // same cells: absorbing self would double-count
        }
        let (a, b) = (&*self.0, &*other.0);
        for (dst, src) in a.buckets.iter().zip(&b.buckets) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        a.count
            .fetch_add(b.count.load(Ordering::Relaxed), Ordering::Relaxed);
        a.sum
            .fetch_add(b.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        a.max
            .fetch_max(b.max.load(Ordering::Relaxed), Ordering::Relaxed);
        a.min
            .fetch_min(b.min.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    #[inline]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    #[inline]
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    pub fn min(&self) -> u64 {
        let m = self.0.min.load(Ordering::Relaxed);
        if m == u64::MAX && self.count() == 0 {
            0
        } else {
            m
        }
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The value at quantile `q` (`0.0 ..= 1.0`), reported as the upper
    /// bound of the bucket holding that rank (clamped to the observed
    /// max) — i.e. exact to one bucket (≤ 12.5% relative error).
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (idx, b) in self.0.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                let (lo, hi) = bucket_bounds(idx);
                return hi.min(self.max()).max(lo.min(self.max()));
            }
        }
        self.max()
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Non-empty buckets as `(upper_bound, cumulative_count)` pairs —
    /// the shape Prometheus `_bucket{le=...}` lines want.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, b) in self.0.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                cum += c;
                out.push((bucket_bounds(idx).1, cum));
            }
        }
        out
    }

    /// A point-in-time value snapshot (plain data, no atomics).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.p50(),
            p99: self.p99(),
            buckets: self.cumulative_buckets(),
        }
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.0, &other.0) {
            return true;
        }
        self.count() == other.count()
            && self.sum() == other.sum()
            && self.cumulative_buckets() == other.cumulative_buckets()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("max", &self.max())
            .finish()
    }
}

/// Plain-data snapshot of a [`Histogram`], embedded in
/// [`crate::MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    pub p50: u64,
    pub p99: u64,
    /// Non-empty buckets as `(upper_bound, cumulative_count)`.
    pub buckets: Vec<(u64, u64)>,
}
