//! Name → metric map with non-blocking snapshots.
//!
//! The mutex guards only the map itself; it is taken on registration
//! (setup-time) and on snapshot (reader-side). The record path — the
//! writer thread bumping counters and histograms — never touches it:
//! handles are `Arc`-shared atomics.

use crate::hist::HistogramSnapshot;
use crate::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A shared registry of named metrics. Clones share the map.
///
/// Names are sanitized to the Prometheus charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`) at registration, so
/// [`MetricsSnapshot::render_text`] always emits well-formed exposition
/// lines.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() || out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create a counter under `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.metrics.lock().unwrap();
        match map
            .entry(sanitize(name))
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Get-or-create a gauge under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.metrics.lock().unwrap();
        match map
            .entry(sanitize(name))
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Get-or-create a histogram under `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.metrics.lock().unwrap();
        match map
            .entry(sanitize(name))
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Names currently registered (sorted).
    pub fn names(&self) -> Vec<String> {
        self.metrics.lock().unwrap().keys().cloned().collect()
    }

    /// A typed point-in-time snapshot of every registered metric.
    /// Holds the map lock only while copying handles; never blocks a
    /// recording thread (recording is lock-free).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let handles: Vec<(String, Metric)> = {
            let map = self.metrics.lock().unwrap();
            map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
        };
        let mut values = BTreeMap::new();
        for (name, m) in handles {
            let v = match m {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
            };
            values.insert(name, v);
        }
        MetricsSnapshot { values }
    }

    /// Shorthand: snapshot and render Prometheus text exposition.
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }

    /// Shorthand: snapshot and render JSON.
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &self.names().len())
            .finish()
    }
}

/// One metric's value inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramSnapshot),
}

/// Plain-data snapshot of a whole registry, readable from any thread.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    values: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.values.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.values.get(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.values.get(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Prometheus text exposition format: `# TYPE` comments, one sample
    /// per line, histograms expanded to cumulative `_bucket{le=...}`
    /// lines plus `_sum` / `_count`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.values {
            match v {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", fmt_f64(*g));
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    for (le, cum) in &h.buckets {
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                    let _ = writeln!(out, "{name}_sum {}", h.sum);
                    let _ = writeln!(out, "{name}_count {}", h.count);
                }
            }
        }
        out
    }

    /// JSON object keyed by metric name; histograms become summary
    /// objects (`count`, `sum`, `min`, `max`, `mean`, `p50`, `p99`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (name, v) in &self.values {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{name}\":");
            match v {
                MetricValue::Counter(c) => {
                    let _ = write!(out, "{c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = write!(out, "{}", fmt_f64(*g));
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                         \"mean\":{},\"p50\":{},\"p99\":{}}}",
                        h.count,
                        h.sum,
                        h.min,
                        h.max,
                        fmt_f64(h.mean),
                        h.p50,
                        h.p99
                    );
                }
            }
        }
        out.push('}');
        out
    }
}

/// `f64` formatting that is valid in both JSON and Prometheus text:
/// finite values print with a decimal point, non-finite become 0.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}
