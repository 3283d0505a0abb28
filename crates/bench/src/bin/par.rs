//! Parallel vs sequential core-decomposition throughput → `BENCH_par.json`.
//!
//! The experiment behind the `decomp::par` subsystem: build the bench
//! base graphs (Barabási–Albert and R-MAT — the two power-law shapes the
//! batch benchmarks use) and time
//!
//! * **sequential** — `core_decomposition`;
//! * **parallel** — `par_core_decomposition` at each requested thread
//!   count (default 1, 2, 4, 8).
//!
//! Every parallel run's core numbers are asserted equal to the
//! sequential decomposition before any number is reported. Results go to
//! stdout as tables and to `BENCH_par.json` (speedup per thread count,
//! host parallelism, gate status). `--min-par-speedup R` turns the
//! 4-thread `par_core_decomposition` speedup on the BA base graph into a
//! CI exit gate; the gate is **waived with a loud note** when the host
//! exposes fewer cores than the gated thread count — a 4-thread speedup
//! target is physically meaningless on a 1-core container, and a waived
//! gate records that in the JSON instead of failing spuriously or faking
//! a number.

use kcore_decomp::par::Parallelism;
use kcore_decomp::{core_decomposition, par_core_decomposition};
use kcore_gen::{barabasi_albert, rmat};
use kcore_graph::DynamicGraph;
use std::io::Write;
use std::time::Instant;

struct Args {
    n: usize,
    attach: usize,
    threads: Vec<usize>,
    seed: u64,
    reps: usize,
    out: String,
    /// `0.0` disables the gate.
    min_par_speedup: f64,
}

impl Args {
    fn parse() -> Args {
        let mut a = Args {
            n: 50_000,
            attach: 4,
            threads: vec![1, 2, 4, 8],
            seed: 42,
            reps: 5,
            out: "BENCH_par.json".to_string(),
            min_par_speedup: 0.0,
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
                "--threads" => {
                    a.threads = need(i)
                        .split(',')
                        .map(|t| t.parse().expect("bad --threads"))
                        .collect()
                }
                "--seed" => a.seed = need(i).parse().expect("bad --seed"),
                "--reps" => a.reps = need(i).parse().expect("bad --reps"),
                "--out" => a.out = need(i).clone(),
                "--min-par-speedup" => {
                    a.min_par_speedup = need(i).parse().expect("bad --min-par-speedup")
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --n N  --attach M  --threads 1,2,4,8  --seed S  --reps R  \
                         --out FILE  --min-par-speedup R"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other:?} (try --help)"),
            }
            i += 2;
        }
        assert!(!a.threads.is_empty(), "--threads needs at least one count");
        a
    }
}

/// One timed configuration, interleaved-best-of-reps (see the batch
/// binary for the protocol rationale).
struct GraphReport {
    name: &'static str,
    n: usize,
    m: usize,
    max_core: u32,
    seq_secs: f64,
    /// `(threads, secs)` per requested thread count.
    par: Vec<(usize, f64)>,
}

impl GraphReport {
    fn speedup_at(&self, threads: usize) -> Option<f64> {
        self.par
            .iter()
            .find(|&&(t, _)| t == threads)
            .map(|&(_, secs)| self.seq_secs / secs)
    }
}

fn measure_graph(
    name: &'static str,
    g: &DynamicGraph,
    threads: &[usize],
    reps: usize,
) -> GraphReport {
    let reference = core_decomposition(g);
    let max_core = reference.iter().copied().max().unwrap_or(0);

    let mut seq_secs = f64::INFINITY;
    let mut par_secs = vec![f64::INFINITY; threads.len()];
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let seq_cores = core_decomposition(g);
        seq_secs = seq_secs.min(t0.elapsed().as_secs_f64());
        assert_eq!(seq_cores, reference);

        for (ti, &t) in threads.iter().enumerate() {
            let t0 = Instant::now();
            let cores = par_core_decomposition(g, &Parallelism::exact(t));
            par_secs[ti] = par_secs[ti].min(t0.elapsed().as_secs_f64());
            assert_eq!(
                cores, reference,
                "{name}: parallel peel diverged at {t} threads"
            );
        }
    }

    GraphReport {
        name,
        n: g.num_vertices(),
        m: g.num_edges(),
        max_core,
        seq_secs,
        par: threads.iter().copied().zip(par_secs).collect(),
    }
}

fn print_report(r: &GraphReport) {
    println!(
        "\n== {} (n = {}, m = {}, max core = {}) ==",
        r.name, r.n, r.m, r.max_core
    );
    println!("sequential: {:.4}s", r.seq_secs);
    kcore_bench::row(&["threads".into(), "secs".into(), "speedup".into()], 8, 14);
    for &(t, secs) in &r.par {
        kcore_bench::row(
            &[
                format!("{t}"),
                format!("{secs:.4}"),
                format!("{:.2}x", r.seq_secs / secs),
            ],
            8,
            14,
        );
    }
}

fn json_graph(r: &GraphReport, indent: &str) -> String {
    let mut s = format!(
        "{indent}{{ \"name\": \"{}\", \"n\": {}, \"m\": {}, \"max_core\": {}, \
         \"seq_secs\": {:.5},\n{indent}  \"threads\": [\n",
        r.name, r.n, r.m, r.max_core, r.seq_secs
    );
    for (i, &(t, secs)) in r.par.iter().enumerate() {
        s.push_str(&format!(
            "{indent}    {{ \"threads\": {t}, \"secs\": {secs:.5}, \"speedup\": {:.3} }}{}\n",
            r.seq_secs / secs,
            if i + 1 == r.par.len() { "" } else { "," }
        ));
    }
    s.push_str(&format!("{indent}  ]\n{indent}}}"));
    s
}

fn main() {
    let args = Args::parse();
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "host parallelism: {host} core(s); timing {} rep(s), threads {:?}",
        args.reps, args.threads
    );

    let ba = barabasi_albert(args.n, args.attach, args.seed);
    // Same edge budget, R-MAT's heavier tail; scale = ceil(log2 n).
    let scale = usize::BITS - (args.n.max(2) - 1).leading_zeros();
    let rm = rmat(
        scale,
        args.n * args.attach,
        0.57,
        0.19,
        0.19,
        args.seed ^ 0xD1CE,
    );

    // Untimed warm-up.
    let _ = par_core_decomposition(
        &ba,
        &Parallelism::exact(*args.threads.iter().max().unwrap()),
    );

    let reports = [
        measure_graph("barabasi_albert", &ba, &args.threads, args.reps),
        measure_graph("rmat", &rm, &args.threads, args.reps),
    ];
    for r in &reports {
        print_report(r);
    }

    // ---- gate bookkeeping ----
    const GATE_THREADS: usize = 4;
    let ba_speedup_at_4 = reports[0].speedup_at(GATE_THREADS);
    let gate_status = if args.min_par_speedup <= 0.0 {
        "disabled".to_string()
    } else if host < GATE_THREADS {
        format!("waived (host_parallelism {host} < {GATE_THREADS} gated threads)")
    } else if ba_speedup_at_4.is_none() {
        format!("waived ({GATE_THREADS} threads not in --threads)")
    } else {
        "enforced".to_string()
    };

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str(&format!("  \"reps\": {},\n", args.reps));
    json.push_str("  \"graphs\": [\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str(&json_graph(r, "    "));
        json.push_str(if i + 1 == reports.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    match ba_speedup_at_4 {
        Some(s) => json.push_str(&format!("  \"speedup_at_4\": {s:.3},\n")),
        None => json.push_str("  \"speedup_at_4\": null,\n"),
    }
    json.push_str(&format!(
        "  \"target_speedup\": {:.1},\n  \"gate\": \"{gate_status}\"\n}}\n",
        args.min_par_speedup
    ));
    let mut f = std::fs::File::create(&args.out).expect("create BENCH_par.json");
    f.write_all(json.as_bytes()).expect("write BENCH_par.json");
    println!("wrote {} (gate: {gate_status})", args.out);

    if gate_status == "enforced" {
        let s = ba_speedup_at_4.expect("enforced implies measured");
        if s < args.min_par_speedup {
            eprintln!(
                "GATE FAILED: peel speedup at {GATE_THREADS} threads {s:.3} < required {}",
                args.min_par_speedup
            );
            std::process::exit(1);
        }
    }
}
