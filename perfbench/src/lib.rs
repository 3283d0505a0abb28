//! Helpers of the repository benchmark: the percentile rule, visible
//! latency measured from due time, failure accounting, span self time,
//! the trace dump format, and the result line the benchmark prints.
//!
//! The metric names and units here are the ones `BENCHMARK.json` at the
//! repository root declares; a test keeps the two in step.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("visible_p50_ms", "ms"),
    ("visible_p99_ms", "ms"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name, unit, and the end-to-end
/// metric and workload it is expected to move.
pub const PER_LAYER: [(&str, &str, &str); 30] = [
    ("decomp.core_s", "s", "setup_s on scale_churn"),
    ("decomp.korder_s", "s", "setup_s on scale_churn"),
    ("order.precedes_ns", "ns", "events_per_s on scale_churn"),
    (
        "graph.apply_ns_per_event",
        "ns",
        "events_per_s on scale_churn",
    ),
    ("maint.us_per_event", "us", "events_per_s on scale_churn"),
    (
        "maint.visited_per_event",
        "count",
        "events_per_s on scale_churn",
    ),
    (
        "maint.changed_per_event",
        "count",
        "events_per_s on scale_churn",
    ),
    ("maint.ns_per_visited", "ns", "events_per_s on scale_churn"),
    ("maint.noop_share", "share", "events_per_s on scale_churn"),
    (
        "maint.seeds_per_pass",
        "count",
        "events_per_s on scale_churn",
    ),
    (
        "maint.journaled_overhead",
        "ratio",
        "events_per_s on scale_churn and hot_durable",
    ),
    ("planner.plan_ns", "ns", "events_per_s on hot_durable"),
    (
        "planner.recompute_share",
        "share",
        "events_per_s on hot_durable",
    ),
    (
        "durability.encode_ns_per_event",
        "ns",
        "events_per_s on hot_durable",
    ),
    (
        "durability.append_sync_us",
        "us",
        "events_per_s on hot_durable",
    ),
    (
        "durability.bytes_per_event",
        "B",
        "events_per_s on hot_durable",
    ),
    (
        "durability.checkpoint_ms",
        "ms",
        "events_per_s on hot_durable",
    ),
    (
        "durability.recover_s",
        "s",
        "crash-restart time on hot_durable",
    ),
    (
        "chunked.mirror_apply_ns",
        "ns",
        "visible_p99_ms on paced_reads",
    ),
    ("chunked.snapshot_ns", "ns", "visible_p99_ms on paced_reads"),
    (
        "chunked.chunks_copied_per_flush",
        "count",
        "visible_p99_ms on paced_reads",
    ),
    ("snapshot.load_ns", "ns", "read_p50_us on paced_reads"),
    (
        "snapshot.load_under_writes_ns",
        "ns",
        "read_p99_us on paced_reads",
    ),
    (
        "service.submit_wait_share",
        "share",
        "events_per_s on hot_durable",
    ),
    (
        "service.events_per_flush",
        "count",
        "visible_p50_ms on paced_reads",
    ),
    (
        "service.flush_rtt_us",
        "us",
        "visible_p50_ms on paced_reads",
    ),
    ("service.warmup_s", "s", "visible_p99_ms on paced_reads"),
    ("obs.record_ns", "ns", "events_per_s on hot_durable"),
    ("gen.late_p99_us", "us", "validity of paced_reads"),
    ("gen.backlog_end", "count", "validity of paced_reads"),
];

/// Layers the in-memory workloads never reach on their serving path;
/// the traced run still measures them on the workload's input, and the
/// renderer marks them off the path.
pub const OFF_PATH_IN_MEMORY: [&str; 1] = ["durability"];

/// The unit of a metric, from either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|(n, _, _)| *n == name)
                .map(|&(_, u, _)| u)
        })
}

// ------------------------------------------------------------ percentiles

/// Percentiles the tail rule chooses from, highest first.
pub const TAIL_LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of the `p`-th percentile among `n > 0` samples.
/// The epsilon keeps decimal percentiles such as 99.9 from rounding up
/// one rank through binary representation error.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile of an ascending sample (`p` in `0..=100`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Whether a sample of `n` supports the `p`-th percentile: at least ten
/// samples lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= 10
}

/// The highest percentile of [`TAIL_LADDER`] a sample of `n` supports.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| supports(n, p))
}

/// A latency sample summarised by the percentile rule: the median, the
/// highest supported tail percentile, and the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: u64,
    pub p99: Option<u64>,
    pub tail_p: Option<f64>,
    pub tail: Option<u64>,
}

impl Summary {
    /// Sorts `sample` in place and summarises it. `p99` is `None` when
    /// the sample is too small to support it.
    pub fn of(sample: &mut [u64]) -> Summary {
        sample.sort_unstable();
        let n = sample.len();
        if n == 0 {
            return Summary {
                n,
                p50: 0,
                p99: None,
                tail_p: None,
                tail: None,
            };
        }
        let tail_p = supported_tail(n);
        Summary {
            n,
            p50: percentile(sample, 50.0),
            p99: supports(n, 99.0).then(|| percentile(sample, 99.0)),
            tail_p,
            tail: tail_p.map(|p| percentile(sample, p)),
        }
    }
}

/// Mean of the middle half of a sample (sorted in place): as robust to
/// outliers as the median, but not stuck on one clock tick, so a short
/// operation timed in whole nanoseconds still reads differently from run
/// to run. 0 for an empty sample.
pub fn interquartile_mean(sample: &mut [u64]) -> f64 {
    sample.sort_unstable();
    let n = sample.len();
    let mid = &sample[n / 4..n - n / 4];
    if mid.is_empty() {
        return 0.0;
    }
    mid.iter().sum::<u64>() as f64 / mid.len() as f64
}

/// Median of a non-empty list of figures (mean of the middle pair).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

// ------------------------------------------------------ visible latency

/// Tracks when each submitted event first becomes visible in a published
/// snapshot. Latency is charged from the event's *due* time, so a
/// generator stall that delays sends is counted against every event it
/// delayed, not hidden by a late send stamp.
#[derive(Debug, Default)]
pub struct Visibility {
    /// Published `ops` count before the first tracked event.
    base_ops: u64,
    due: Vec<u64>,
    latency: Vec<u64>,
}

impl Visibility {
    pub fn new(base_ops: u64) -> Self {
        Visibility {
            base_ops,
            ..Visibility::default()
        }
    }

    /// Registers the next event (in submission order) as due at `due_ns`.
    pub fn push_due(&mut self, due_ns: u64) {
        self.due.push(due_ns);
    }

    /// A snapshot covering `ops` events was observed at `now_ns`: every
    /// tracked event below that count not yet seen becomes visible now.
    pub fn observe(&mut self, ops: u64, now_ns: u64) {
        let covered = (ops.saturating_sub(self.base_ops) as usize).min(self.due.len());
        while self.latency.len() < covered {
            let due = self.due[self.latency.len()];
            self.latency.push(now_ns.saturating_sub(due));
        }
    }

    /// Due time of event `i` (ns).
    pub fn due(&self, i: usize) -> u64 {
        self.due[i]
    }

    /// Events registered but not yet seen visible.
    pub fn pending(&self) -> usize {
        self.due.len() - self.latency.len()
    }

    /// Visible latencies (ns) of the events seen so far, in order.
    pub fn latencies(&self) -> &[u64] {
        &self.latency
    }
}

// ------------------------------------------------------ failure ledger

/// Failure accounting across the repetitions of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Events offered to the service.
    pub attempted: u64,
    /// Events that count as failed.
    pub failed: u64,
    /// Repetitions whose final cores differed from the oracle.
    pub wrong_reps: u64,
}

impl Tally {
    /// Adds one repetition: `refused` submits, `lost` events the service
    /// reported lost, and whether its cores matched the oracle. A wrong
    /// repetition fails every event it attempted.
    pub fn add_rep(&mut self, attempted: u64, refused: u64, lost: u64, oracle_ok: bool) {
        self.attempted += attempted;
        if oracle_ok {
            self.failed += (refused + lost).min(attempted);
        } else {
            self.failed += attempted;
            self.wrong_reps += 1;
        }
    }

    /// `failed ÷ attempted` (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

// -------------------------------------------------------------- spans

/// One recorded span, as read back from a trace dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    pub trace: u64,
    pub seq: u64,
    pub stage: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub items: u64,
}

impl SpanRow {
    fn end(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    /// The layer a span belongs to: its stage name up to the first dot.
    pub fn layer(&self) -> &str {
        self.stage.split('.').next().unwrap_or(&self.stage)
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Spans nest by interval containment within one trace
/// id; of two spans with the same interval the later-recorded one (the
/// higher `seq`) is the parent, since a parent closes after its child.
/// Children of one parent must not overlap (spans come from one thread).
pub fn self_times(spans: &[SpanRow]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        let (x, y) = (&spans[a], &spans[b]);
        (
            x.trace,
            x.start_ns,
            std::cmp::Reverse(x.end()),
            std::cmp::Reverse(x.seq),
        )
            .cmp(&(
                y.trace,
                y.start_ns,
                std::cmp::Reverse(y.end()),
                std::cmp::Reverse(y.seq),
            ))
    });
    let mut child_ns = vec![0u64; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        while let Some(&top) = stack.last() {
            let t = &spans[top];
            if t.trace == s.trace && t.start_ns <= s.start_ns && s.end() <= t.end() {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            child_ns[parent] += s.dur_ns;
        }
        stack.push(i);
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, &c)| s.dur_ns.saturating_sub(c))
        .collect()
}

/// Per-stage totals of a span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRow {
    pub stage: String,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub items: u64,
}

/// Aggregates spans by stage name (sorted by name).
pub fn stage_table(spans: &[SpanRow]) -> Vec<StageRow> {
    let selfs = self_times(spans);
    let mut rows: std::collections::BTreeMap<&str, StageRow> = Default::default();
    for (s, &own) in spans.iter().zip(&selfs) {
        let row = rows.entry(&s.stage).or_insert_with(|| StageRow {
            stage: s.stage.clone(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
            items: 0,
        });
        row.count += 1;
        row.total_ns += s.dur_ns;
        row.self_ns += own;
        row.items += s.items;
    }
    rows.into_values().collect()
}

// ---------------------------------------------------------- trace dump

/// What a traced run leaves behind for the renderer: run facts, the
/// per-layer metrics, and every span it recorded.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Dump {
    pub meta: Vec<(String, String)>,
    pub metrics: Vec<(String, f64)>,
    pub spans: Vec<SpanRow>,
}

impl Dump {
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Tab-separated lines: `meta`, `metric` and `span` records.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# perfbench trace dump v1\n");
        for (k, v) in &self.meta {
            let _ = writeln!(out, "meta\t{k}\t{v}");
        }
        for (k, v) in &self.metrics {
            let _ = writeln!(out, "metric\t{k}\t{v}");
        }
        for s in &self.spans {
            let _ = writeln!(
                out,
                "span\t{}\t{}\t{}\t{}\t{}\t{}",
                s.trace, s.seq, s.stage, s.start_ns, s.dur_ns, s.items
            );
        }
        out
    }

    pub fn parse(text: &str) -> Result<Dump, String> {
        let mut dump = Dump::default();
        for (no, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("line {}: malformed record {line:?}", no + 1);
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            match f.as_slice() {
                ["meta", k, v] => dump.meta.push((k.to_string(), v.to_string())),
                ["metric", k, v] => dump
                    .metrics
                    .push((k.to_string(), v.parse::<f64>().map_err(|_| bad())?)),
                ["span", trace, seq, stage, start, dur, items] => dump.spans.push(SpanRow {
                    trace: num(trace)?,
                    seq: num(seq)?,
                    stage: stage.to_string(),
                    start_ns: num(start)?,
                    dur_ns: num(dur)?,
                    items: num(items)?,
                }),
                _ => return Err(bad()),
            }
        }
        Ok(dump)
    }
}

// ---------------------------------------------------------- result line

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. Each metric carries its unit from the tables
/// above; a non-finite value is a benchmark bug.
pub fn result_line(correct: bool, tally: &Tally, metrics: &[(&str, f64)]) -> String {
    let mut body = String::new();
    for (i, (name, value)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted, tally.failed
    )
}

/// Peak resident set size of this process so far in MB (`VmHWM` of
/// `/proc/self/status`; `None` where that file does not exist).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(supported_tail(1000), Some(99.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(100_000), Some(99.99));
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn summary_reports_count_median_and_supported_tail() {
        let mut sample: Vec<u64> = (1..=1000).rev().collect();
        let s = Summary::of(&mut sample);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500);
        assert_eq!(s.p99, Some(990));
        assert_eq!((s.tail_p, s.tail), (Some(99.0), Some(990)));

        let mut small: Vec<u64> = (1..=500).collect();
        let s = Summary::of(&mut small);
        assert_eq!(s.p99, None, "500 samples cannot support p99");
        assert_eq!((s.tail_p, s.tail), (Some(95.0), Some(475)));
    }

    #[test]
    fn interquartile_mean_drops_both_tails() {
        let mut sample = vec![1000, 1, 10, 12, 11, 9, 10, 2000];
        // Sorted: 1 9 10 10 11 12 1000 2000; the middle half is 10 10 11 12.
        assert_eq!(interquartile_mean(&mut sample), 10.75);
        assert_eq!(interquartile_mean(&mut []), 0.0);
        assert_eq!(interquartile_mean(&mut [7]), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn visible_latency_counts_from_due_time() {
        // Three events due at 0, 10 and 20 ns; the generator stalls and
        // sends all three at 25; one snapshot covering them lands at 30.
        let mut vis = Visibility::new(0);
        for due in [0, 10, 20] {
            vis.push_due(due);
        }
        vis.observe(3, 30);
        assert_eq!(vis.latencies(), &[30, 20, 10]);
        assert_eq!(vis.pending(), 0);
    }

    #[test]
    fn visible_latency_charges_a_stall_to_later_events() {
        // Due every 10 ns. Event 0 publishes at 5; then the writer stalls
        // until 100, by which time events 1..=3 were due: each is charged
        // the stall from its own due time.
        let mut vis = Visibility::new(7);
        vis.push_due(0);
        vis.observe(8, 5);
        for due in [10, 20, 30] {
            vis.push_due(due);
        }
        vis.observe(9, 50); // only event 1 visible yet
        vis.observe(7, 60); // an older snapshot changes nothing
        vis.observe(99, 100); // covers more than was submitted
        assert_eq!(vis.latencies(), &[5, 40, 80, 70]);
        assert_eq!(vis.pending(), 0);
    }

    #[test]
    fn failed_share_counts_refusals_losses_and_wrong_reps() {
        let mut t = Tally::default();
        t.add_rep(100, 2, 3, true);
        assert_eq!((t.attempted, t.failed), (100, 5));
        t.add_rep(100, 1, 0, false); // wrong cores: the whole rep fails
        assert_eq!((t.attempted, t.failed, t.wrong_reps), (200, 105, 1));
        assert!((t.failed_share() - 0.525).abs() < 1e-12);
        t.add_rep(10, 20, 0, true); // never more failures than attempts
        assert_eq!(t.failed, 115);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }

    fn span(trace: u64, seq: u64, stage: &str, start: u64, dur: u64) -> SpanRow {
        SpanRow {
            trace,
            seq,
            stage: stage.to_string(),
            start_ns: start,
            dur_ns: dur,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // rep [0,100) holds a [10,40) and b [50,90); a holds c [20,30).
        // Trace 2 overlaps in time but is a separate tree.
        let spans = vec![
            span(1, 0, "c", 20, 10),
            span(1, 1, "a", 10, 30),
            span(1, 2, "b", 50, 40),
            span(1, 3, "rep", 0, 100),
            span(2, 4, "other", 0, 100),
        ];
        assert_eq!(self_times(&spans), vec![10, 20, 40, 30, 100]);
    }

    #[test]
    fn self_time_of_equal_intervals_goes_to_the_later_span() {
        let spans = vec![span(1, 0, "child", 5, 10), span(1, 1, "parent", 5, 10)];
        assert_eq!(self_times(&spans), vec![10, 0]);
    }

    #[test]
    fn stage_table_sums_by_stage() {
        let spans = vec![
            span(1, 0, "maint.batch", 0, 10),
            span(1, 1, "maint.batch", 20, 10),
            span(1, 2, "maint.run", 0, 40),
        ];
        let rows = stage_table(&spans);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].stage.as_str(), rows[0].count), ("maint.batch", 2));
        assert_eq!((rows[0].total_ns, rows[0].self_ns), (20, 20));
        assert_eq!((rows[1].total_ns, rows[1].self_ns), (40, 20));
        assert_eq!(spans[2].layer(), "maint");
    }

    #[test]
    fn dump_round_trips() {
        let dump = Dump {
            meta: vec![("workload".into(), "hot_durable".into())],
            metrics: vec![("maint.us_per_event".into(), 1.25)],
            spans: vec![span(3, 9, "graph.apply", 100, 50)],
        };
        let back = Dump::parse(&dump.to_text()).unwrap();
        assert_eq!(back, dump);
        assert_eq!(back.meta("workload"), Some("hot_durable"));
        assert!(Dump::parse("span\t1\tx").is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut t = Tally::default();
        t.add_rep(10, 0, 0, true);
        let line = result_line(true, &t, &[("setup_s", 0.5), ("events_per_s", 1200.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"events_per_s\": {\"value\": 1200.25, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let mut declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        for w in ["scale_churn", "hot_durable", "paced_reads"] {
            declared.retain(|n| *n != w);
        }
        let mut ours: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        ours.extend(PER_LAYER.iter().map(|m| m.0));
        assert_eq!(declared, ours);
        for (name, unit) in END_TO_END {
            assert!(json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")));
        }
        for (name, unit, _) in PER_LAYER {
            assert!(json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")));
        }
    }
}
