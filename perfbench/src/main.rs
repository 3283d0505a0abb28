//! The repository benchmark. Drives the deployed ingest stack — the
//! planner-driven engine over the treap k-order behind a serial writer,
//! spawned with `IngestService::spawn_planned` — from outside through
//! public APIs, on one of three seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot_durable --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` drives each of the workload's repetitions — a fresh
//! service over the same seeded input — through set-up, a discarded
//! warm-up and about one timed segment per second of `--seconds`, then
//! checks the final cores against the oracle (after a crash and
//! `recover()` on the durable workload). Each end-to-end figure is the
//! median over the valid segments; set-up is the median of several
//! spawns.
//! `--trace 1` drives one service with half its segments traced, then
//! drives each layer's public functions directly on the same input with
//! spans around every call, reports the per-layer metrics, and writes
//! the span dump under `perfbench/out/` for `--bin render`.
//!
//! The last line of standard output is the JSON result; a wrong core
//! number anywhere makes the run print `"correct": false` with no
//! metrics and exit non-zero.

mod drive;
mod layers;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::{
    interquartile_mean, median, peak_rss_mb, result_line, Dump, SpanRow, Summary, Tally,
    END_TO_END, PER_LAYER,
};

use drive::{drive, setup_probe, Counters, Drive, End, Service, Tracer};
use workload::{Input, Load, Workload};

/// Timed segments per `--trace 0` run: about one per second of
/// `--seconds` (a segment takes about a second on the reference host),
/// spread over the workload's repetitions, and at least this many.
const MIN_SEGMENTS: usize = 3;
/// Set-up samples per `--trace 0` run: the repetitions' spawns, topped
/// up with spawn-only probes — to this many, or fewer once the probes
/// have taken `SETUP_PROBE_S`, but never fewer than the minimum.
const SETUP_SAMPLES: usize = 7;
const MIN_SETUP_SAMPLES: usize = 3;
const SETUP_PROBE_S: f64 = 2.0;
/// Window segments of a `--trace 1` run, half of them traced.
const TRACED_SEGMENTS: usize = 8;
/// An open-loop segment whose generator ran later than this at p99, or
/// ended with more than this much of its schedule unsent, fell behind:
/// the service was not offered the intended load, so the segment is
/// reported invalid and left out of the figures. Shorter stalls of the
/// generator are charged to visible latency, which counts from due time.
const MAX_BEHIND_NS: u64 = 1_000_000;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(
                    workload::by_name(&value).ok_or_else(|| bad(&format!("one of {names:?}")))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Run outputs (span dumps, the durable workload's files) live here,
/// inside the checkout the benchmark runs from.
fn out_dir() -> PathBuf {
    let dir = PathBuf::from("perfbench").join("out");
    std::fs::create_dir_all(&dir).expect("create perfbench/out");
    dir
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn describe(label: &str, s: &Summary, scale: fn(u64) -> f64, unit: &str) -> String {
    let tail = match (s.tail_p, s.tail) {
        (Some(p), Some(v)) if p > 99.0 => format!(", p{p} {:.4} {unit}", scale(v)),
        _ => String::new(),
    };
    let p99 = s
        .p99
        .map_or(String::new(), |v| format!(", p99 {:.4} {unit}", scale(v)));
    format!(
        "{label} p50 {:.4} {unit}{p99}{tail} (n={})",
        scale(s.p50),
        s.n
    )
}

/// Lateness and backlog of one open-loop segment, against the rule for
/// a generator that fell behind.
fn fell_behind(w: &Workload, seg: &Drive) -> bool {
    match w.load {
        Load::Open { rate_per_s } => {
            let mut late = seg.late_ns.clone();
            let late = Summary::of(&mut late);
            seg.backlog_end as f64 > rate_per_s * MAX_BEHIND_NS as f64 / 1e9
                || late.p99.unwrap_or(u64::MAX) > MAX_BEHIND_NS
        }
        Load::Closed { .. } => false,
    }
}

/// Whether a segment has the samples for its own p99 figures.
fn supports_p99(seg: &Drive) -> bool {
    perfbench::supports(seg.visible_ns.len(), 99.0) && perfbench::supports(seg.read_ns.len(), 99.0)
}

fn print_segment(i: usize, seg: &Drive, valid: bool) {
    let summary = |v: &Vec<u64>| Summary::of(&mut v.clone());
    println!(
        "segment {i}: {:.1} ev/s over {} events in {:.3} s; {}; {}; {}; backlog_end {}{}",
        seg.events_per_s(),
        seg.events,
        seg.secs,
        describe("visible", &summary(&seg.visible_ns), ms, "ms"),
        describe("read", &summary(&seg.read_ns), us, "us"),
        describe("late", &summary(&seg.late_ns), us, "us"),
        seg.backlog_end,
        if valid {
            ""
        } else {
            "; INVALID: the generator fell behind"
        },
    );
}

/// The per-run environment record: what a reader needs to tell an off
/// run from a real change.
fn print_env(w: &Workload, seed: u64, c: &Counters, segments: usize, invalid: usize) {
    println!(
        "{{\"env\": {{\"workload\": \"{}\", \"seed\": {seed}, \"host_parallelism\": {}, \
         \"segments\": {segments}, \"invalid_segments\": {invalid}, \"planner_mix\": \
         {{\"batched\": {}, \"split\": {}, \"par_split\": {}, \"recompute\": {}, \
         \"par_recompute\": {}}}, \"events_per_flush\": {:.2}}}}}",
        w.name,
        host_parallelism(),
        c.planner_mix[0],
        c.planner_mix[1],
        c.planner_mix[2],
        c.planner_mix[3],
        c.planner_mix[4],
        c.events_per_flush(),
    );
}

/// Prints every metric with its unit, then the result line.
fn succeed(tally: &Tally, metrics: &[(&str, f64)]) -> ExitCode {
    for (name, value) in metrics {
        println!(
            "{name} = {value} {}",
            perfbench::unit_of(name).unwrap_or("")
        );
    }
    println!("{}", result_line(true, tally, metrics));
    ExitCode::SUCCESS
}

/// Prints a failed run's result line (no metrics) and fails the process.
fn wrong(tally: &Tally) -> ExitCode {
    println!("{}", result_line(false, tally, &[]));
    ExitCode::FAILURE
}

/// Pools one per-event sample over segments.
fn pool(segs: &[&Drive], pick: fn(&Drive) -> &Vec<u64>) -> Summary {
    let mut all: Vec<u64> = segs.iter().flat_map(|s| pick(s).iter().copied()).collect();
    Summary::of(&mut all)
}

fn end_to_end(args: &Args, input: &Input) -> ExitCode {
    let w = args.workload;
    let scratch = out_dir();
    let mut setups: Vec<f64> = Vec::new();
    let mut tally = Tally::default();
    let mut counters = Counters::default();
    // Per valid segment: events/s, visible p50 and p99 (ms); and the
    // reads of every valid segment.
    let mut figures: Vec<[f64; 3]> = Vec::new();
    let mut reads: Vec<u64> = Vec::new();
    let (mut segments, mut invalid) = (0, 0);
    // Each repetition is a fresh service over the same input: its own
    // set-up, warm-up, planner calibration and crash.
    for rep in 0..w.reps {
        let service = Service::spawn(w, input, args.seed, &scratch, None);
        setups.push(service.setup_s);
        let run = drive(
            &service.svc,
            &input.events,
            input.warmup,
            w.segment_events,
            w.load,
            None,
        );
        println!(
            "rep {rep}: set-up {:.4} s, warm-up {} events in {:.3} s (discarded)",
            service.setup_s, input.warmup, run.warmup_s
        );
        let refused = run.warmup_refused + run.segments.iter().map(|s| s.refused).sum::<u64>();
        for mut seg in run.segments {
            let valid = !fell_behind(w, &seg) && supports_p99(&seg);
            print_segment(segments, &seg, valid);
            segments += 1;
            if !valid {
                invalid += 1;
                continue;
            }
            let visible = Summary::of(&mut seg.visible_ns);
            figures.push([
                seg.events_per_s(),
                ms(visible.p50),
                ms(visible.p99.expect("a valid segment supports p99")),
            ]);
            reads.extend_from_slice(&seg.read_ns);
        }
        counters.absorb(&service.counters());
        let sent = input.events.len();
        let fin = service.finish(End::CrashIfDurable, input, sent, &run.last, args.seed);
        tally.add_rep(sent as u64, refused, fin.lost, fin.oracle_ok);
        if let Some(r) = fin.recover_s {
            println!("rep {rep}: recover after abort {r:.4} s; recovered cores checked");
        }
    }
    let probing = Instant::now();
    while setups.len() < SETUP_SAMPLES
        && (setups.len() < MIN_SETUP_SAMPLES || probing.elapsed().as_secs_f64() < SETUP_PROBE_S)
    {
        setups.push(setup_probe(w, input, args.seed, &scratch));
    }
    print_env(w, args.seed, &counters, segments, invalid);
    if tally.wrong_reps > 0 {
        eprintln!("perfbench: the final cores differ from the oracle");
        return wrong(&tally);
    }
    if figures.is_empty() {
        eprintln!("perfbench: no valid segment (the generator fell behind in every one)");
        return ExitCode::FAILURE;
    }
    // Throughput and visible latency are medians over the valid
    // segments, so a segment that a host hiccup slowed cannot move them.
    // Reads do not depend on the segment's pipeline state, and a closed
    // loop takes few per segment, so their percentiles pool the segments.
    let med = |k: usize| median(&figures.iter().map(|f| f[k]).collect::<Vec<_>>());
    let read = Summary::of(&mut reads);
    println!(
        "{} valid segments; pooled {}",
        figures.len(),
        describe("read", &read, us, "us")
    );
    let metrics = [
        ("setup_s", median(&setups)),
        ("events_per_s", med(0)),
        ("visible_p50_ms", med(1)),
        ("visible_p99_ms", med(2)),
        ("read_p50_us", us(read.p50)),
        (
            "read_p99_us",
            us(read.p99.expect("pooled reads support p99")),
        ),
        ("peak_rss_mb", peak_rss_mb().unwrap_or(0.0)),
    ];
    debug_assert!(metrics
        .iter()
        .map(|m| m.0)
        .eq(END_TO_END.iter().map(|m| m.0)));
    println!(
        "set-up: median of {} spawns; failed_share {} ({} of {} events)",
        setups.len(),
        tally.failed_share(),
        tally.failed,
        tally.attempted
    );
    succeed(&tally, &metrics)
}

fn traced(args: &Args, input: &Input) -> ExitCode {
    let w = args.workload;
    let scratch = out_dir();
    let tracer = Tracer::new();

    // Alternating untraced and traced segments on one service: the
    // tracing overhead compares the two halves.
    let service = Service::spawn(w, input, args.seed, &scratch, Some(&tracer));
    let run = drive(
        &service.svc,
        &input.events,
        input.warmup,
        w.segment_events,
        w.load,
        Some(&tracer),
    );
    let refused = run.warmup_refused + run.segments.iter().map(|s| s.refused).sum::<u64>();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    for (i, seg) in run.segments.into_iter().enumerate() {
        print_segment(i, &seg, !fell_behind(w, &seg));
        if seg.traced {
            spanned.push(seg)
        } else {
            plain.push(seg)
        }
    }
    let sent = input.events.len();
    let counters = service.counters();
    print_env(w, args.seed, &counters, TRACED_SEGMENTS, 0);
    let (idle_flush, idle_load) = service.probe_idle();
    let fin = service.finish(End::Shutdown, input, sent, &run.last, args.seed);
    let mut tally = Tally::default();
    tally.add_rep(sent as u64, refused, fin.lost, fin.oracle_ok);
    let eps = |segs: &[Drive]| median(&segs.iter().map(Drive::events_per_s).collect::<Vec<_>>());
    let overhead = eps(&spanned) / eps(&plain);

    let max_batch = w.config(None).max_batch;
    let batch = (counters.events_per_flush().round() as usize).clamp(1, max_batch);
    let upto = input.warmup + w.segment_events;
    let oracle = input.oracle_after(upto);
    let t: Vec<&Drive> = spanned.iter().collect();
    let late = pool(&t, |s| &s.late_ns);
    let mut load_busy: Vec<u64> = t.iter().flat_map(|s| s.load_ns.iter().copied()).collect();
    let mut vis_sample: Vec<u64> = t
        .iter()
        .flat_map(|s| s.visible_ns.iter().copied())
        .collect();
    vis_sample.truncate(1 << 16);
    let layers = layers::run(
        input,
        upto,
        &oracle,
        args.seed,
        batch,
        &vis_sample,
        &scratch,
        &tracer,
    );
    tally.add_rep(upto as u64, 0, 0, layers.oracle_ok);
    if tally.wrong_reps > 0 {
        eprintln!("perfbench: cores differ from the oracle");
        return wrong(&tally);
    }

    let wait: u64 = t.iter().map(|s| s.submit_wait_ns).sum();
    let sending: u64 = t.iter().map(|s| s.send_ns).sum();
    let mut metrics = layers.metrics;
    metrics.extend([
        (
            "chunked.chunks_copied_per_flush",
            fin.chunks_copied.unwrap_or(0) as f64 / counters.batches.max(1) as f64,
        ),
        (
            "snapshot.load_ns",
            interquartile_mean(&mut idle_load.clone()),
        ),
        (
            "snapshot.load_under_writes_ns",
            interquartile_mean(&mut load_busy),
        ),
        (
            "service.submit_wait_share",
            wait as f64 / sending.max(1) as f64,
        ),
        ("service.events_per_flush", counters.events_per_flush()),
        (
            "service.flush_rtt_us",
            interquartile_mean(&mut idle_flush.clone()) / 1e3,
        ),
        ("service.warmup_s", run.warmup_s),
        ("planner.recompute_share", counters.recompute_share()),
        (
            "gen.late_p99_us",
            us(late.p99.or(late.tail).unwrap_or(late.p50)),
        ),
        (
            "gen.backlog_end",
            t.iter().map(|s| s.backlog_end).max().unwrap_or(0) as f64,
        ),
    ]);
    let ordered: Vec<(&str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, _, _)| {
            let v = metrics
                .iter()
                .find(|m| m.0 == name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            (name, v.1)
        })
        .collect();

    let dump = Dump {
        meta: vec![
            ("workload".into(), w.name.into()),
            ("seed".into(), args.seed.to_string()),
            ("host_parallelism".into(), host_parallelism().to_string()),
            ("batch".into(), batch.to_string()),
            ("events_per_s_untraced".into(), eps(&plain).to_string()),
            ("events_per_s_traced".into(), eps(&spanned).to_string()),
            ("tracing_overhead".into(), overhead.to_string()),
            ("durable".into(), w.durable.to_string()),
        ],
        metrics: ordered.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        spans: tracer
            .rec
            .spans()
            .into_iter()
            .map(|s| SpanRow {
                trace: s.trace,
                seq: s.seq,
                stage: s.stage.to_string(),
                start_ns: s.start_ns,
                dur_ns: s.dur_ns,
                items: s.items,
            })
            .collect(),
    };
    let path = scratch.join(format!("trace-{}.tsv", w.name));
    std::fs::write(&path, dump.to_text()).expect("write the span dump");
    println!(
        "traced ÷ untraced events_per_s = {overhead:.4}; {} spans written to {}",
        dump.spans.len(),
        path.display()
    );
    succeed(&tally, &ordered)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <scale_churn|hot_durable|paced_reads> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let t = Instant::now();
    let segments = if args.trace {
        TRACED_SEGMENTS
    } else {
        (args.seconds.round() as usize)
            .max(MIN_SEGMENTS)
            .div_ceil(args.workload.reps)
    };
    let input = args.workload.input(args.seed, segments);
    println!(
        "{}: n = {}, m = {}, {} warm-up events, {segments} segments of {}, input generated in \
         {:.2} s, host_parallelism = {}",
        args.workload.name,
        input.base.num_vertices(),
        input.base.num_edges(),
        input.warmup,
        args.workload.segment_events,
        t.elapsed().as_secs_f64(),
        host_parallelism(),
    );
    if args.trace {
        traced(&args, &input)
    } else {
        end_to_end(&args, &input)
    }
}
