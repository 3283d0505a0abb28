//! Streaming-ingest throughput → `BENCH_ingest.json`.
//!
//! The experiment behind the `kcore-ingest` subsystem: drive the
//! wall-clock [`IngestService`] (producer thread submitting, writer
//! thread maintaining, snapshots publishing) over the two streaming
//! workload shapes and measure what a deployment would see:
//!
//! * **churn** — `churn_stream` micro-batches (mixed degree-weighted
//!   inserts + uniform removals) submitted with blocking backpressure:
//!   sustained edges/sec, p50/p99 per-flush batch latency, and snapshot
//!   staleness (events submitted but not yet covered by the published
//!   epoch, sampled after every producer batch);
//! * **window** — a `SlidingWindow` admit/expire stream over timestamped
//!   edges: the same metrics for the expiry-heavy shape;
//! * **durable** — the churn workload with journal shipping + periodic
//!   index checkpoints, plus the `recover()` time to rebuild the final
//!   state from disk.
//!
//! Two publication-cost experiments ride along (the copy-on-write
//! snapshot layer's before/after evidence):
//!
//! * **churn_lean** — the churn workload with a 4× smaller queue: the
//!   bounded queue is the staleness budget (staleness ≈ queue occupancy
//!   under blocking submit), and the cheap COW publish path keeps
//!   throughput at the big-queue level while staleness p50 drops
//!   proportionally;
//! * **publish scaling** — the *identical* churn stream over a fixed
//!   active region embedded in a growing vertex universe: per-flush
//!   snapshot-maintenance time (`publish_ns`) must stay roughly flat
//!   (it is O(changed) chunk copies + O(chunks) `Arc` bumps), while the
//!   old full-rebuild cost — modelled as an O(n) cores copy + histogram
//!   rescan, timed on the same data — grows linearly with the universe.
//!   `--max-publish-cost-ratio R` gates the growth ratio between the
//!   largest and smallest |V|.
//!
//! The fault-tolerance layer contributes a **recovery** section: a
//! dedicated empty-base durable run is copied and deliberately damaged
//! once per escalation rung (clean, torn journal tail, corrupt newest
//! snapshot, unparseable journal, no snapshots at all) and `recover()`
//! is timed on each — every rung's restored state is asserted
//! bit-identical to the oracle on exactly the prefix its
//! `RecoveryReport` claims durable. A CPU micro-benchmark prices the
//! KJRN v3 checksummed delta-frame encode against the plain v1 record encode;
//! `--max-append-overhead-ratio R` gates that ratio.
//!
//! The observability layer contributes an **observability** section:
//! the churn workload run metrics-on (the default registry + stage
//! histograms + span ring) and metrics-off (`ObsConfig::disabled()`),
//! with `--max-obs-overhead-ratio R` gating the throughput ratio; the
//! metrics-on run's Prometheus `render_text()` exposition is validated
//! line-by-line and its registry JSON dump is embedded in the output.
//!
//! Every section's final core numbers are asserted equal to the
//! recompute oracle before any number is reported. `--min-ingest-throughput R`
//! turns the churn edges/sec into a CI exit gate; all gates are
//! **waived with a loud note** (recorded in the JSON, matching
//! `BENCH_par.json`) on hosts with fewer than 2 cores — producer and
//! writer are separate threads, so a 1-core container measures
//! time-slicing, not pipeline behaviour.

use kcore_decomp::core_decomposition;
use kcore_gen::{barabasi_albert, churn_stream, timestamp_edges, SlidingWindow};
use kcore_graph::DynamicGraph;
use kcore_ingest::durability::{encode_frame, snapshot_generation_path, DurabilityConfig};
use kcore_ingest::sources::{apply_events, churn_events, window_event};
use kcore_ingest::{recover, GraphEvent, IngestConfig, IngestService, ObsConfig};
use kcore_maint::PlannerConfig;
use std::io::Write;
use std::time::Instant;

struct Args {
    n: usize,
    attach: usize,
    batches: usize,
    inserts_per_batch: usize,
    removes_per_batch: usize,
    max_batch: usize,
    queue: usize,
    seed: u64,
    out: String,
    /// `0.0` disables the gate (events/sec on the churn section).
    min_ingest_throughput: f64,
    /// `0.0` disables the gate (publish p50 growth ratio, largest |V|
    /// over smallest, in the scaling section).
    max_publish_cost_ratio: f64,
    /// `0.0` disables the gate (v3 checksummed journal encode cost over
    /// the plain v1 encode, in the recovery section).
    max_append_overhead_ratio: f64,
    /// `0.0` disables the gate (metrics-off over metrics-on churn
    /// events/sec, in the observability section).
    max_obs_overhead_ratio: f64,
}

impl Args {
    fn parse() -> Args {
        let mut a = Args {
            n: 20_000,
            attach: 4,
            batches: 200,
            inserts_per_batch: 96,
            removes_per_batch: 64,
            max_batch: 512,
            queue: 4096,
            seed: 42,
            out: "BENCH_ingest.json".to_string(),
            min_ingest_throughput: 0.0,
            max_publish_cost_ratio: 0.0,
            max_append_overhead_ratio: 0.0,
            max_obs_overhead_ratio: 0.0,
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let need = |i: usize| {
                argv.get(i + 1)
                    .unwrap_or_else(|| panic!("flag {} needs a value", argv[i]))
            };
            match argv[i].as_str() {
                "--n" => a.n = need(i).parse().expect("bad --n"),
                "--attach" => a.attach = need(i).parse().expect("bad --attach"),
                "--batches" => a.batches = need(i).parse().expect("bad --batches"),
                "--inserts-per-batch" => {
                    a.inserts_per_batch = need(i).parse().expect("bad --inserts-per-batch")
                }
                "--removes-per-batch" => {
                    a.removes_per_batch = need(i).parse().expect("bad --removes-per-batch")
                }
                "--max-batch" => a.max_batch = need(i).parse().expect("bad --max-batch"),
                "--queue" => a.queue = need(i).parse().expect("bad --queue"),
                "--seed" => a.seed = need(i).parse().expect("bad --seed"),
                "--out" => a.out = need(i).clone(),
                "--min-ingest-throughput" => {
                    a.min_ingest_throughput = need(i).parse().expect("bad --min-ingest-throughput")
                }
                "--max-publish-cost-ratio" => {
                    a.max_publish_cost_ratio =
                        need(i).parse().expect("bad --max-publish-cost-ratio")
                }
                "--max-append-overhead-ratio" => {
                    a.max_append_overhead_ratio =
                        need(i).parse().expect("bad --max-append-overhead-ratio")
                }
                "--max-obs-overhead-ratio" => {
                    a.max_obs_overhead_ratio =
                        need(i).parse().expect("bad --max-obs-overhead-ratio")
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --n N  --attach M  --batches B  --inserts-per-batch I  \
                         --removes-per-batch R  --max-batch S  --queue Q  --seed S  \
                         --out FILE  --min-ingest-throughput EPS  --max-publish-cost-ratio R  \
                         --max-append-overhead-ratio R  --max-obs-overhead-ratio R"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other:?} (try --help)"),
            }
            i += 2;
        }
        a
    }
}

/// Percentile over an unsorted sample (nearest-rank).
fn percentile(sample: &mut [u64], p: f64) -> u64 {
    if sample.is_empty() {
        return 0;
    }
    sample.sort_unstable();
    let rank = ((p / 100.0) * sample.len() as f64).ceil() as usize;
    sample[rank.clamp(1, sample.len()) - 1]
}

/// Oracle: the stream applied through the shared skip-semantics model
/// (`kcore_ingest::sources::apply_events`), then decomposed.
fn oracle_cores(base: &DynamicGraph, events: &[GraphEvent]) -> Vec<u32> {
    core_decomposition(&apply_events(base, events))
}

struct SectionReport {
    name: &'static str,
    events: usize,
    secs: f64,
    events_per_sec: f64,
    batches: u64,
    epochs: u64,
    latency_p50_ns: u64,
    latency_p99_ns: u64,
    latency_max_ns: u64,
    staleness_p50: u64,
    staleness_max: u64,
    /// Per-flush snapshot-maintenance time (mirror sync + publication).
    publish_p50_ns: u64,
    publish_p99_ns: u64,
    /// Chunks copy-on-written across the run vs the mirror's chunk count
    /// — the O(changed) witness (copied ≪ chunks × batches).
    chunks_copied: u64,
    mirror_chunks: u64,
    tracked_drains: u64,
    full_syncs: u64,
    /// Registry JSON dump from the run's writer (None when the section
    /// ran with observability disabled).
    metrics_json: Option<String>,
    /// Prometheus exposition lines the run's registry rendered (0 when
    /// observability was off) — every line validated well-formed.
    exposition_lines: usize,
}

/// Validates one Prometheus text-exposition dump: every non-empty line
/// is either a `# TYPE <name> <counter|gauge|histogram>` comment or a
/// `<name>[{le="<float>"}] <number>` sample with a legal metric name.
/// Returns the number of lines checked; panics (bench = CI smoke) on
/// the first malformed line.
fn validate_exposition(text: &str) -> usize {
    let name_ok = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    let mut lines = 0;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        lines += 1;
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.split(' ');
            assert_eq!(parts.next(), Some("TYPE"), "malformed comment: {line:?}");
            let name = parts.next().unwrap_or("");
            assert!(name_ok(name), "bad metric name in comment: {line:?}");
            let kind = parts.next().unwrap_or("");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "bad metric type: {line:?}"
            );
            assert_eq!(parts.next(), None, "trailing tokens: {line:?}");
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line has no value separator: {line:?}");
        });
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok_and(f64::is_finite),
            "unparseable sample value: {line:?}"
        );
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                let labels = labels.strip_suffix('}').unwrap_or_else(|| {
                    panic!("unclosed label set: {line:?}");
                });
                let le = labels
                    .strip_prefix("le=\"")
                    .and_then(|v| v.strip_suffix('"'))
                    .unwrap_or_else(|| panic!("expected le=\"...\" label: {line:?}"));
                assert!(
                    le == "+Inf" || le.parse::<f64>().is_ok(),
                    "bad le bound: {line:?}"
                );
                name
            }
            None => series,
        };
        assert!(name_ok(name), "bad metric name: {line:?}");
    }
    lines
}

impl SectionReport {
    fn print(&self) {
        println!(
            "{:<10} {:>8} events in {:>7.3}s = {:>10.0} events/sec | {:>4} batches, {:>4} epochs | \
             batch p50 {:>7}us p99 {:>7}us | staleness p50 {:>5} max {:>5} | \
             publish p50 {:>6}ns, {} of {}x{} chunks copied",
            self.name,
            self.events,
            self.secs,
            self.events_per_sec,
            self.batches,
            self.epochs,
            self.latency_p50_ns / 1_000,
            self.latency_p99_ns / 1_000,
            self.staleness_p50,
            self.staleness_max,
            self.publish_p50_ns,
            self.chunks_copied,
            self.batches,
            self.mirror_chunks,
        );
    }

    fn json(&self, indent: &str) -> String {
        format!(
            "{indent}\"{}\": {{\n\
             {indent}  \"events\": {},\n\
             {indent}  \"secs\": {:.4},\n\
             {indent}  \"events_per_sec\": {:.0},\n\
             {indent}  \"batches\": {},\n\
             {indent}  \"epochs\": {},\n\
             {indent}  \"batch_latency_ns\": {{ \"p50\": {}, \"p99\": {}, \"max\": {} }},\n\
             {indent}  \"staleness_events\": {{ \"p50\": {}, \"max\": {} }},\n\
             {indent}  \"publish_ns\": {{ \"p50\": {}, \"p99\": {} }},\n\
             {indent}  \"publish_cow\": {{ \"chunks_copied\": {}, \"mirror_chunks\": {}, \
             \"tracked_drains\": {}, \"full_syncs\": {} }}\n\
             {indent}}}",
            self.name,
            self.events,
            self.secs,
            self.events_per_sec,
            self.batches,
            self.epochs,
            self.latency_p50_ns,
            self.latency_p99_ns,
            self.latency_max_ns,
            self.staleness_p50,
            self.staleness_max,
            self.publish_p50_ns,
            self.publish_p99_ns,
            self.chunks_copied,
            self.mirror_chunks,
            self.tracked_drains,
            self.full_syncs,
        )
    }
}

/// Runs one stream through a freshly spawned service, sampling staleness
/// after every `sample_every` submissions; asserts oracle equality.
fn run_section(
    name: &'static str,
    base: &DynamicGraph,
    events: &[GraphEvent],
    cfg: IngestConfig,
    seed: u64,
    sample_every: usize,
) -> SectionReport {
    let svc = IngestService::spawn_planned(base.clone(), seed, cfg).expect("spawn service");
    let handle = svc.snapshots();
    let metrics = svc.metrics();
    let mut staleness: Vec<u64> = Vec::with_capacity(events.len() / sample_every.max(1) + 1);
    let t0 = Instant::now();
    for (i, &e) in events.iter().enumerate() {
        svc.submit(e).expect("writer alive");
        if i % sample_every.max(1) == sample_every.max(1) - 1 {
            let snap = handle.load();
            staleness.push((i as u64 + 1).saturating_sub(snap.ops));
        }
    }
    svc.flush().expect("final barrier");
    let secs = t0.elapsed().as_secs_f64();
    // Dump + validate the registry after the barrier, outside the timed
    // window: the exposition smoke-check rides every section for free.
    let (metrics_json, exposition_lines) = match &metrics {
        Some(m) => {
            let snap = m.snapshot();
            (
                Some(snap.to_json()),
                validate_exposition(&snap.render_text()),
            )
        }
        None => (None, 0),
    };
    let (report, engine) = svc.shutdown();

    assert_eq!(
        engine.cores(),
        &oracle_cores(base, events)[..],
        "{name}: final state diverged from the recompute oracle"
    );

    SectionReport {
        name,
        events: events.len(),
        secs,
        events_per_sec: events.len() as f64 / secs,
        batches: report.batches,
        epochs: report.epochs_published,
        latency_p50_ns: report.batch_apply.p50(),
        latency_p99_ns: report.batch_apply.p99(),
        latency_max_ns: report.batch_apply.max(),
        staleness_p50: percentile(&mut staleness, 50.0),
        staleness_max: staleness.iter().copied().max().unwrap_or(0),
        publish_p50_ns: report.publish.p50(),
        publish_p99_ns: report.publish.p99(),
        chunks_copied: report.chunks_copied,
        mirror_chunks: report.mirror_chunks,
        tracked_drains: report.tracked_drains,
        full_syncs: report.full_syncs,
        metrics_json,
        exposition_lines,
    }
}

/// One row of the publish-cost scaling experiment: the same per-batch
/// change volume over a growing vertex universe.
struct ScalePoint {
    n: usize,
    publish_p50_ns: u64,
    publish_p99_ns: u64,
    chunks_copied: u64,
    mirror_chunks: u64,
    batches: u64,
    /// The *old* publication model timed on the same final state: an
    /// O(n) cores copy + full histogram rescan per epoch.
    full_rebuild_ns: u64,
}

/// Times the pre-COW publication path (clone all cores + rescan the
/// histogram) on `cores` — the honest O(n) baseline each scale point's
/// `publish_p50_ns` is compared against.
fn time_full_rebuild(cores: &[u32]) -> u64 {
    const REPS: u32 = 64;
    let t0 = Instant::now();
    for _ in 0..REPS {
        let copy = cores.to_vec();
        let max = copy.iter().copied().max().unwrap_or(0) as usize;
        let mut hist = vec![0usize; max + 1];
        for &c in &copy {
            hist[c as usize] += 1;
        }
        std::hint::black_box((copy, hist));
    }
    (t0.elapsed().as_nanos() / REPS as u128) as u64
}

/// Fixed change volume, growing |V|: publish cost must not scale with
/// the universe. Every point replays the *identical* churn stream over
/// an `active_n`-vertex region embedded in an `n`-vertex universe — the
/// changed vertices (and the chunks they dirty) are the same at every
/// scale, so any growth in publish time is pure universe overhead. The
/// old path rebuilt all `n` cores plus the histogram per epoch and grew
/// linearly here no matter how localised the churn was.
fn run_scale_point(
    n: usize,
    active_n: usize,
    attach: usize,
    max_batch: usize,
    seed: u64,
) -> ScalePoint {
    let active = barabasi_albert(active_n, attach, seed);
    let mut base = DynamicGraph::with_vertices(n);
    for v in 0..active.num_vertices() as u32 {
        for &u in active.neighbors(v) {
            if u > v {
                base.insert_edge_unchecked(v, u);
            }
        }
    }
    let events: Vec<GraphEvent> = churn_stream(&active, 40, 96, 64, seed ^ 0xABBA)
        .iter()
        .flat_map(churn_events)
        .collect();
    let cfg = IngestConfig::default()
        .max_batch(max_batch)
        .queue_capacity(max_batch * 2);
    let svc = IngestService::spawn_planned(base.clone(), seed, cfg).expect("spawn service");
    for &e in &events {
        svc.submit(e).expect("writer alive");
    }
    svc.flush().expect("final barrier");
    let (report, engine) = svc.shutdown();
    assert_eq!(
        engine.cores(),
        &oracle_cores(&base, &events)[..],
        "scale point n={n}: final state diverged from the recompute oracle"
    );
    ScalePoint {
        n,
        publish_p50_ns: report.publish.p50(),
        publish_p99_ns: report.publish.p99(),
        chunks_copied: report.chunks_copied,
        mirror_chunks: report.mirror_chunks,
        batches: report.batches,
        full_rebuild_ns: time_full_rebuild(engine.cores()),
    }
}

/// One timed `recover()` against a deliberately damaged copy of a
/// durable directory: which ladder rung fired and how long the rebuild
/// took.
struct RungTiming {
    scenario: &'static str,
    rung: String,
    secs: f64,
    replayed: usize,
    durable_ops: u64,
}

/// Copies every regular file of a durable directory (journal + snapshot
/// generations) into a fresh scenario directory.
fn copy_durable_dir(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::remove_dir_all(dst).ok();
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }
}

/// Flips one byte near the end of a file — lands in a v2 snapshot's
/// payload (or a journal record body), past the headers, so the per-file
/// CRC is what must catch it.
fn flip_last_byte(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let at = bytes.len() - 1;
    bytes[at] ^= 0xFF;
    std::fs::write(path, bytes).unwrap();
}

/// The plain v1 journal encoding (`seq u64 | kind u8 | u u32 | v u32`,
/// no checksums, no frame header) — the baseline the v3 checksummed
/// frame's append cost is measured against.
fn encode_plain_v1(entries: &[kcore_maint::journal::JournalEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * 17);
    for e in entries {
        out.extend_from_slice(&e.seq.to_le_bytes());
        let (kind, u, v) = match e.event {
            GraphEvent::EdgeInserted(u, v) => (1u8, u, v),
            GraphEvent::EdgeRemoved(u, v) => (2u8, u, v),
        };
        out.push(kind);
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn main() {
    let args = Args::parse();
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let base = barabasi_albert(args.n, args.attach, args.seed);
    println!(
        "base graph: n = {}, m = {} (barabasi_albert attach {}), host_parallelism = {host}",
        base.num_vertices(),
        base.num_edges(),
        args.attach
    );

    let wall_cfg = || {
        IngestConfig::default()
            .max_batch(args.max_batch)
            .queue_capacity(args.queue)
    };

    // ---- churn: the gated headline workload ----
    let churn: Vec<GraphEvent> = churn_stream(
        &base,
        args.batches,
        args.inserts_per_batch,
        args.removes_per_batch,
        args.seed ^ 0xC0FFEE,
    )
    .iter()
    .flat_map(churn_events)
    .collect();
    // Untimed warm-up on a quarter of the stream (cold caches + thread
    // spawn would otherwise land in the first timed batch).
    {
        let quarter = &churn[..churn.len() / 4];
        let _ = run_section("warmup", &base, quarter, wall_cfg(), args.seed, usize::MAX);
    }
    let churn_report = run_section(
        "churn",
        &base,
        &churn,
        wall_cfg(),
        args.seed,
        args.inserts_per_batch + args.removes_per_batch,
    );
    churn_report.print();

    // ---- churn_lean: the staleness-budget workload ----
    // Under blocking submit the bounded queue saturates, so staleness ≈
    // queue capacity: the queue IS the staleness budget. The COW publish
    // path keeps per-flush snapshot maintenance at O(changed), so a 4×
    // smaller queue (and batch) holds throughput while cutting the
    // published-state lag proportionally — the before/after staleness
    // evidence for this layer.
    let lean_cfg = IngestConfig::default()
        .max_batch(args.max_batch / 4)
        .queue_capacity(args.queue / 4);
    let churn_lean_report = run_section(
        "churn_lean",
        &base,
        &churn,
        lean_cfg,
        args.seed,
        args.inserts_per_batch + args.removes_per_batch,
    );
    churn_lean_report.print();

    // ---- observability: metrics-on vs metrics-off churn ----
    // The identical stream with the registry, stage histograms, and span
    // ring disabled — the honest price of the per-flush instrumentation.
    // Per-flush recording is O(stages) atomics per batch, so the ratio
    // should be statistical noise (gated at ≤1.05 in CI).
    let churn_obs_off_report = run_section(
        "churn_nobs",
        &base,
        &churn,
        wall_cfg().observe(ObsConfig::disabled()),
        args.seed,
        args.inserts_per_batch + args.removes_per_batch,
    );
    churn_obs_off_report.print();
    let obs_overhead_ratio = if churn_report.events_per_sec > 0.0 {
        churn_obs_off_report.events_per_sec / churn_report.events_per_sec
    } else {
        1.0
    };
    assert!(
        churn_report.exposition_lines > 0,
        "metrics-on churn run must render a non-empty exposition"
    );
    assert_eq!(
        churn_obs_off_report.exposition_lines, 0,
        "metrics-off run must not carry a registry"
    );
    println!(
        "observability: metrics-on {:.0} events/sec, metrics-off {:.0} events/sec = {:.3}x \
         overhead ({} exposition lines validated)",
        churn_report.events_per_sec,
        churn_obs_off_report.events_per_sec,
        obs_overhead_ratio,
        churn_report.exposition_lines,
    );

    // ---- window: admit/expire over a timestamped stream ----
    let ts = timestamp_edges(&base, 3, args.seed ^ 0xD00D);
    let window_events: Vec<GraphEvent> = SlidingWindow::new(ts, args.n as u64)
        .map(window_event)
        .collect();
    let empty = DynamicGraph::with_vertices(args.n);
    let window_report = run_section(
        "window",
        &empty,
        &window_events,
        wall_cfg(),
        args.seed,
        1024,
    );
    window_report.print();

    // ---- durable: churn again with journal + checkpoints ----
    let dir = std::env::temp_dir().join("kcore_bench_ingest");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let d = DurabilityConfig::in_dir(&dir).snapshot_every(64);
    let durable_report = run_section(
        "durable",
        &base,
        &churn,
        wall_cfg().durable(d.clone()),
        args.seed,
        args.inserts_per_batch + args.removes_per_batch,
    );
    durable_report.print();
    let journal_bytes = std::fs::metadata(&d.journal_path)
        .map(|m| m.len())
        .unwrap_or(0);

    let t0 = Instant::now();
    let rec = recover(&d, args.seed, PlannerConfig::default(), args.max_batch)
        .expect("recover from bench journal");
    let recover_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        rec.engine.cores(),
        &oracle_cores(&base, &churn)[..],
        "recovered state diverged from the oracle"
    );
    println!(
        "recover: {} events ({} replayed past checkpoint) in {recover_secs:.3}s from {} journal bytes",
        rec.next_seq, rec.replayed, journal_bytes
    );
    std::fs::remove_dir_all(&dir).ok();

    // ---- recovery ladder: timed recover() per escalation rung ----
    // A dedicated durable run over the EMPTY universe: every rung —
    // including genesis replay, which rebuilds from the journal alone —
    // must land bit-identical to the oracle, and that is only true when
    // no pre-stream state lives exclusively in the checkpoints.
    let ladder_src = std::env::temp_dir().join("kcore_bench_ingest_ladder");
    std::fs::remove_dir_all(&ladder_src).ok();
    std::fs::create_dir_all(&ladder_src).unwrap();
    // No periodic snapshots: the rotation then deterministically holds
    // gen0 = the final shutdown checkpoint (all ops) and gen1 = the
    // spawn-time checkpoint (0 ops), independent of flush timing.
    let ld = DurabilityConfig::in_dir(&ladder_src);
    let _ = run_section(
        "ladder",
        &empty,
        &churn,
        wall_cfg().durable(ld.clone()),
        args.seed,
        usize::MAX,
    );
    let gen1 = snapshot_generation_path(&ld.snapshot_path, 1);
    assert!(
        gen1.exists(),
        "ladder run must leave a rotated older snapshot generation"
    );
    // Each scenario damages a fresh copy so the rungs are independent.
    // `scenario → (damage, expected rung, expected durable prefix)`; the
    // oracle check below holds recovery to exactly the prefix its report
    // claims. `None` = some proper prefix (frames are atomic, so a torn
    // tail drops the whole final frame and the exact count depends on
    // how the run batched).
    let total = churn.len() as u64;
    type Damage = Box<dyn Fn(&std::path::Path)>;
    let scenarios: Vec<(&'static str, Damage, &'static str, Option<u64>)> = vec![
        (
            "primary",
            Box::new(|_d: &std::path::Path| {}),
            "primary",
            Some(total),
        ),
        (
            // Demote gen0 to the 0-ops spawn checkpoint (else the final
            // shutdown snapshot is *ahead* of the chopped journal and
            // the snapshot-only rung fires instead), then tear the
            // journal mid-record: recovery keeps the checksummed frame
            // prefix and replays it.
            "truncated_tail",
            Box::new(|d: &std::path::Path| {
                std::fs::copy(d.join("ingest.ksnp.1"), d.join("ingest.ksnp")).unwrap();
                let j = d.join("ingest.kjrn");
                let len = std::fs::metadata(&j).unwrap().len();
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&j)
                    .unwrap()
                    .set_len(len - 7)
                    .unwrap();
            }),
            "truncated-tail",
            None,
        ),
        (
            // Corrupt the newest snapshot's payload: its CRC rejects it
            // and the retained older generation recovers, replaying the
            // journal difference.
            "older_generation",
            Box::new(|d: &std::path::Path| flip_last_byte(&d.join("ingest.ksnp"))),
            "older-generation(1)",
            Some(total),
        ),
        (
            // Corrupt the journal magic: the journal is unparseable, so
            // state comes from the newest snapshot alone and the journal
            // is reset at its coverage.
            "snapshot_only",
            Box::new(|d: &std::path::Path| {
                let j = d.join("ingest.kjrn");
                let mut bytes = std::fs::read(&j).unwrap();
                bytes[0] ^= 0xFF;
                std::fs::write(&j, bytes).unwrap();
            }),
            "snapshot-only",
            Some(total),
        ),
        (
            // Delete every checkpoint: the full journal replays from the
            // empty universe.
            "genesis",
            Box::new(|d: &std::path::Path| {
                std::fs::remove_file(d.join("ingest.ksnp")).unwrap();
                std::fs::remove_file(d.join("ingest.ksnp.1")).unwrap();
            }),
            "genesis-replay",
            Some(total),
        ),
    ];
    let mut rungs: Vec<RungTiming> = Vec::new();
    for (scenario, damage, expect_rung, expect_durable) in &scenarios {
        let sdir = std::env::temp_dir().join(format!("kcore_bench_ingest_rung_{scenario}"));
        copy_durable_dir(&ladder_src, &sdir);
        damage(&sdir);
        let rd = DurabilityConfig::in_dir(&sdir);
        let t0 = Instant::now();
        let rec = recover(&rd, args.seed, PlannerConfig::default(), args.max_batch)
            .unwrap_or_else(|e| panic!("rung {scenario}: recover failed: {e:?}"));
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "recovery rung {scenario:<16} -> {:<20} {secs:>8.4}s | {}",
            rec.report.rung.to_string(),
            rec.report
        );
        assert_eq!(
            rec.report.rung.to_string(),
            *expect_rung,
            "rung {scenario}: wrong ladder rung fired"
        );
        match expect_durable {
            Some(want) => assert_eq!(
                rec.report.durable_ops, *want,
                "rung {scenario}: unexpected durable prefix"
            ),
            None => assert!(
                rec.report.durable_ops < total,
                "rung {scenario}: a torn tail must lose its final frame"
            ),
        }
        assert_eq!(
            rec.engine.cores(),
            &oracle_cores(&empty, &churn[..rec.report.durable_ops as usize])[..],
            "rung {scenario}: recovered state diverged from the oracle on its reported prefix"
        );
        rungs.push(RungTiming {
            scenario,
            rung: rec.report.rung.to_string(),
            secs,
            replayed: rec.report.replayed,
            durable_ops: rec.report.durable_ops,
        });
        std::fs::remove_dir_all(&sdir).ok();
    }
    std::fs::remove_dir_all(&ladder_src).ok();

    // ---- CRC append overhead: v3 delta frames vs plain v1 ----
    // The per-event CPU price of the frame CRC32 + zigzag-LEB128 delta
    // encode on the journal's hot append path, measured alone (no
    // I/O, no fsync — those dominate real appends and would bury the
    // signal being gated).
    let crc_entries: Vec<kcore_maint::journal::JournalEntry> = (0..512u64)
        .map(|i| kcore_maint::journal::JournalEntry {
            seq: i,
            event: if i % 3 == 0 {
                GraphEvent::EdgeRemoved((i % 97) as u32, ((i + 1) % 97) as u32)
            } else {
                GraphEvent::EdgeInserted((i % 89) as u32, ((i * 7 + 3) % 89) as u32)
            },
            transitions: Vec::new(),
        })
        .collect();
    const CRC_REPS: u32 = 2000;
    let t0 = Instant::now();
    for _ in 0..CRC_REPS {
        std::hint::black_box(encode_plain_v1(std::hint::black_box(&crc_entries)));
    }
    let v1_ns_per_event =
        t0.elapsed().as_nanos() as f64 / (CRC_REPS as f64 * crc_entries.len() as f64);
    let t0 = Instant::now();
    for _ in 0..CRC_REPS {
        std::hint::black_box(encode_frame(std::hint::black_box(&crc_entries)));
    }
    let v3_ns_per_event =
        t0.elapsed().as_nanos() as f64 / (CRC_REPS as f64 * crc_entries.len() as f64);
    let append_overhead_ratio = if v1_ns_per_event > 0.0 {
        v3_ns_per_event / v1_ns_per_event
    } else {
        1.0
    };
    // Byte size of the v3 delta frames against the plain absolute v1
    // layout, on the same entry mix — the compression the LEB128 vertex
    // deltas buy on the wire.
    let v1_bytes_per_event = encode_plain_v1(&crc_entries).len() as f64 / crc_entries.len() as f64;
    let v3_bytes_per_event = encode_frame(&crc_entries).len() as f64 / crc_entries.len() as f64;
    let bytes_ratio = v3_bytes_per_event / v1_bytes_per_event;
    println!(
        "journal encode: v1 {v1_ns_per_event:.1}ns/event, v3 {v3_ns_per_event:.1}ns/event \
         = {append_overhead_ratio:.2}x; bytes/event v1 {v1_bytes_per_event:.1} \
         v3 {v3_bytes_per_event:.1} = {bytes_ratio:.2}x"
    );

    // ---- publish-cost scaling: fixed change volume, growing |V| ----
    let scale_ns: Vec<usize> = [args.n / 4, args.n, args.n * 4]
        .into_iter()
        .filter(|&n| n >= 64)
        .collect();
    let active_n = *scale_ns.first().unwrap_or(&64);
    let mut scaling: Vec<ScalePoint> = Vec::new();
    for &n in &scale_ns {
        let p = run_scale_point(n, active_n, args.attach, args.max_batch, args.seed);
        println!(
            "publish scaling: n = {:>7} | publish p50 {:>7}ns p99 {:>8}ns | \
             {:>4}/{} chunks copied over {} batches | full rebuild (old path) {:>8}ns",
            p.n,
            p.publish_p50_ns,
            p.publish_p99_ns,
            p.chunks_copied,
            p.mirror_chunks,
            p.batches,
            p.full_rebuild_ns,
        );
        scaling.push(p);
    }
    let publish_ratio = match (scaling.first(), scaling.last()) {
        (Some(a), Some(b)) if a.publish_p50_ns > 0 => {
            b.publish_p50_ns as f64 / a.publish_p50_ns as f64
        }
        _ => 1.0,
    };
    println!(
        "publish p50 growth over {}x |V|: {publish_ratio:.2}x (old full-rebuild path grows ~linearly)",
        scale_ns.last().unwrap_or(&1) / scale_ns.first().unwrap_or(&1).max(&1)
    );

    // ---- gate bookkeeping (BENCH_par.json convention) ----
    const GATE_CORES: usize = 2;
    let gate_status = if args.min_ingest_throughput <= 0.0 {
        "disabled".to_string()
    } else if host < GATE_CORES {
        format!(
            "waived (host_parallelism {host} < {GATE_CORES} required: producer + writer threads)"
        )
    } else {
        "enforced".to_string()
    };
    let publish_gate_status = if args.max_publish_cost_ratio <= 0.0 {
        "disabled".to_string()
    } else if host < GATE_CORES {
        format!(
            "waived (host_parallelism {host} < {GATE_CORES}: single shared core makes \
             nanosecond-scale publish timings scheduling noise)"
        )
    } else {
        "enforced".to_string()
    };
    let append_gate_status = if args.max_append_overhead_ratio <= 0.0 {
        "disabled".to_string()
    } else if host < GATE_CORES {
        format!(
            "waived (host_parallelism {host} < {GATE_CORES}: single shared core makes \
             nanosecond-scale encode timings scheduling noise)"
        )
    } else {
        "enforced".to_string()
    };
    let obs_gate_status = if args.max_obs_overhead_ratio <= 0.0 {
        "disabled".to_string()
    } else if host < GATE_CORES {
        format!(
            "waived (host_parallelism {host} < {GATE_CORES} required: producer + writer threads \
             time-slice on one core and the throughput delta is scheduling noise)"
        )
    } else {
        "enforced".to_string()
    };

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str(&format!(
        "  \"config\": {{ \"n\": {}, \"attach\": {}, \"batches\": {}, \"inserts_per_batch\": {}, \
         \"removes_per_batch\": {}, \"max_batch\": {}, \"queue\": {} }},\n",
        args.n,
        args.attach,
        args.batches,
        args.inserts_per_batch,
        args.removes_per_batch,
        args.max_batch,
        args.queue
    ));
    for r in [
        &churn_report,
        &churn_lean_report,
        &churn_obs_off_report,
        &window_report,
        &durable_report,
    ] {
        json.push_str(&r.json("  "));
        json.push_str(",\n");
    }
    json.push_str(&format!(
        "  \"observability\": {{\n    \"on_events_per_sec\": {:.0},\n    \
         \"off_events_per_sec\": {:.0},\n    \"overhead_ratio\": {obs_overhead_ratio:.4},\n    \
         \"exposition_lines\": {},\n    \"max_obs_overhead_ratio\": {:.2},\n    \
         \"obs_gate\": \"{obs_gate_status}\",\n    \"metrics\": {}\n  }},\n",
        churn_report.events_per_sec,
        churn_obs_off_report.events_per_sec,
        churn_report.exposition_lines,
        args.max_obs_overhead_ratio,
        churn_report.metrics_json.as_deref().unwrap_or("null"),
    ));
    json.push_str(&format!(
        "  \"recover\": {{ \"events\": {}, \"replayed\": {}, \"secs\": {recover_secs:.4}, \
         \"journal_bytes\": {journal_bytes} }},\n",
        rec.next_seq, rec.replayed
    ));
    json.push_str("  \"recovery\": {\n    \"rungs\": [\n");
    for (i, r) in rungs.iter().enumerate() {
        json.push_str(&format!(
            "      {{ \"scenario\": \"{}\", \"rung\": \"{}\", \"secs\": {:.4}, \
             \"replayed\": {}, \"durable_ops\": {} }}{}\n",
            r.scenario,
            r.rung,
            r.secs,
            r.replayed,
            r.durable_ops,
            if i + 1 < rungs.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "    ],\n    \"crc_append\": {{ \"v1_ns_per_event\": {v1_ns_per_event:.2}, \
         \"v3_ns_per_event\": {v3_ns_per_event:.2}, \
         \"overhead_ratio\": {append_overhead_ratio:.3}, \
         \"v1_bytes_per_event\": {v1_bytes_per_event:.2}, \
         \"v3_bytes_per_event\": {v3_bytes_per_event:.2}, \
         \"bytes_ratio\": {bytes_ratio:.3} }},\n    \
         \"max_append_overhead_ratio\": {:.2},\n    \
         \"append_gate\": \"{append_gate_status}\"\n  }},\n",
        args.max_append_overhead_ratio
    ));
    json.push_str("  \"publish_scaling\": [\n");
    for (i, p) in scaling.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"n\": {}, \"publish_ns\": {{ \"p50\": {}, \"p99\": {} }}, \
             \"chunks_copied\": {}, \"mirror_chunks\": {}, \"batches\": {}, \
             \"full_rebuild_ns\": {} }}{}\n",
            p.n,
            p.publish_p50_ns,
            p.publish_p99_ns,
            p.chunks_copied,
            p.mirror_chunks,
            p.batches,
            p.full_rebuild_ns,
            if i + 1 < scaling.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"publish_p50_growth_ratio\": {publish_ratio:.3},\n"
    ));
    // The pre-COW reference this PR is measured against (committed
    // BENCH_ingest.json before the chunked snapshot layer landed):
    // publication rebuilt all n cores + the histogram every epoch, and
    // the staleness budget had to absorb a 4096-deep queue.
    json.push_str(
        "  \"reference_before\": { \"publication\": \"full O(n) rebuild per epoch\", \
         \"staleness_events_p50\": { \"churn\": 4262, \"window\": 4608, \"durable\": 4256 } },\n",
    );
    json.push_str(&format!(
        "  \"target_events_per_sec\": {:.0},\n  \"gate\": \"{gate_status}\",\n",
        args.min_ingest_throughput
    ));
    json.push_str(&format!(
        "  \"max_publish_cost_ratio\": {:.2},\n  \"publish_gate\": \"{publish_gate_status}\"\n}}\n",
        args.max_publish_cost_ratio
    ));
    let mut f = std::fs::File::create(&args.out).expect("create BENCH_ingest.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_ingest.json");
    println!(
        "wrote {} (gate: {gate_status}, publish_gate: {publish_gate_status}, \
         append_gate: {append_gate_status}, obs_gate: {obs_gate_status})",
        args.out
    );

    let mut failed = false;
    if gate_status == "enforced" && churn_report.events_per_sec < args.min_ingest_throughput {
        eprintln!(
            "GATE FAILED: churn ingest {:.0} events/sec < required {:.0}",
            churn_report.events_per_sec, args.min_ingest_throughput
        );
        failed = true;
    }
    if publish_gate_status == "enforced" && publish_ratio > args.max_publish_cost_ratio {
        eprintln!(
            "GATE FAILED: publish p50 grew {publish_ratio:.2}x over a {}x |V| range \
             (allowed {:.2}x): publication is not O(changed)",
            scale_ns.last().unwrap_or(&1) / scale_ns.first().unwrap_or(&1).max(&1),
            args.max_publish_cost_ratio
        );
        failed = true;
    }
    if append_gate_status == "enforced" && append_overhead_ratio > args.max_append_overhead_ratio {
        eprintln!(
            "GATE FAILED: v3 checksummed append costs {append_overhead_ratio:.2}x the plain v1 \
             encode (allowed {:.2}x)",
            args.max_append_overhead_ratio
        );
        failed = true;
    }
    if obs_gate_status == "enforced" && obs_overhead_ratio > args.max_obs_overhead_ratio {
        eprintln!(
            "GATE FAILED: metrics-off churn runs {obs_overhead_ratio:.3}x the metrics-on \
             throughput (allowed {:.2}x): observability is not cheap enough to leave on",
            args.max_obs_overhead_ratio
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
