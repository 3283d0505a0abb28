//! Parallel vs sequential core-decomposition throughput → `BENCH_par.json`.
//!
//! The experiment behind the `decomp::par` subsystem: build the bench
//! base graphs (Barabási–Albert and R-MAT — the two power-law shapes the
//! batch benchmarks use), freeze CSR snapshots, and time
//!
//! * **sequential** — `core_decomposition` / `core_decomposition_csr`;
//! * **parallel** — `par_core_decomposition{,_csr}` at each requested
//!   thread count (default 1, 2, 4, 8);
//! * **korder** — the phase-parallel `korder_decomposition_par` against
//!   the sequential k-order build (peel order is bit-identical; only the
//!   `deg⁺` finalisation parallelises).
//!
//! Every parallel run's core numbers are asserted equal to the
//! sequential decomposition before any number is reported. Results go to
//! stdout as tables and to `BENCH_par.json` (speedup per thread count,
//! host parallelism, gate status). `--min-par-speedup R` turns the
//! 4-thread CSR speedup on the BA base graph into a CI exit gate; the
//! gate is **waived with a loud note** when the host exposes fewer cores
//! than the gated thread count — a 4-thread speedup target is physically
//! meaningless on a 1-core container, and a waived gate records that in
//! the JSON instead of failing spuriously or faking a number.

use kcore_decomp::par::Parallelism;
use kcore_decomp::{
    core_decomposition, core_decomposition_csr, korder_decomposition, korder_decomposition_par,
    par_core_decomposition, par_core_decomposition_csr, Heuristic,
};
use kcore_gen::{barabasi_albert, churn_stream, rmat};
use kcore_graph::{CsrGraph, DynamicGraph};
use kcore_maint::{BatchOptions, OrderCore};
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
    /// `0.0` disables the maintenance-parallel gate.
    min_maint_speedup: f64,
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
            min_maint_speedup: 0.0,
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
                "--min-maint-speedup" => {
                    a.min_maint_speedup = need(i).parse().expect("bad --min-maint-speedup")
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --n N  --attach M  --threads 1,2,4,8  --seed S  --reps R  \
                         --out FILE  --min-par-speedup R  --min-maint-speedup R"
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
    seq_csr_secs: f64,
    seq_dyn_secs: f64,
    /// `(threads, csr_secs, dyn_secs)` per requested thread count.
    par: Vec<(usize, f64, f64)>,
}

impl GraphReport {
    fn speedup_csr_at(&self, threads: usize) -> Option<f64> {
        self.par
            .iter()
            .find(|&&(t, _, _)| t == threads)
            .map(|&(_, secs, _)| self.seq_csr_secs / secs)
    }
}

fn measure_graph(
    name: &'static str,
    g: &DynamicGraph,
    threads: &[usize],
    reps: usize,
) -> GraphReport {
    let csr = CsrGraph::from(g);
    let reference = core_decomposition(g);
    let max_core = reference.iter().copied().max().unwrap_or(0);

    let mut seq_csr = f64::INFINITY;
    let mut seq_dyn = f64::INFINITY;
    let mut par_secs: Vec<(f64, f64)> = vec![(f64::INFINITY, f64::INFINITY); threads.len()];
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let seq_cores = core_decomposition_csr(&csr);
        seq_csr = seq_csr.min(t0.elapsed().as_secs_f64());
        assert_eq!(seq_cores, reference, "csr decomposition diverged");

        let t0 = Instant::now();
        let dyn_cores = core_decomposition(g);
        seq_dyn = seq_dyn.min(t0.elapsed().as_secs_f64());
        assert_eq!(dyn_cores, reference);

        for (ti, &t) in threads.iter().enumerate() {
            let par = Parallelism::exact(t);
            let t0 = Instant::now();
            let cores = par_core_decomposition_csr(&csr, &par);
            par_secs[ti].0 = par_secs[ti].0.min(t0.elapsed().as_secs_f64());
            assert_eq!(
                cores, reference,
                "{name}: parallel csr peel diverged at {t} threads"
            );

            let t0 = Instant::now();
            let cores = par_core_decomposition(g, &par);
            par_secs[ti].1 = par_secs[ti].1.min(t0.elapsed().as_secs_f64());
            assert_eq!(
                cores, reference,
                "{name}: parallel dynamic peel diverged at {t} threads"
            );
        }
    }

    GraphReport {
        name,
        n: g.num_vertices(),
        m: g.num_edges(),
        max_core,
        seq_csr_secs: seq_csr,
        seq_dyn_secs: seq_dyn,
        par: threads
            .iter()
            .zip(par_secs)
            .map(|(&t, (c, d))| (t, c, d))
            .collect(),
    }
}

fn print_report(r: &GraphReport) {
    println!(
        "\n== {} (n = {}, m = {}, max core = {}) ==",
        r.name, r.n, r.m, r.max_core
    );
    println!(
        "sequential: csr {:.4}s, dynamic {:.4}s",
        r.seq_csr_secs, r.seq_dyn_secs
    );
    kcore_bench::row(
        &[
            "threads".into(),
            "csr secs".into(),
            "csr speedup".into(),
            "dyn secs".into(),
            "dyn speedup".into(),
        ],
        8,
        14,
    );
    for &(t, cs, ds) in &r.par {
        kcore_bench::row(
            &[
                format!("{t}"),
                format!("{cs:.4}"),
                format!("{:.2}x", r.seq_csr_secs / cs),
                format!("{ds:.4}"),
                format!("{:.2}x", r.seq_dyn_secs / ds),
            ],
            8,
            14,
        );
    }
}

fn json_graph(r: &GraphReport, indent: &str) -> String {
    let mut s = format!(
        "{indent}{{ \"name\": \"{}\", \"n\": {}, \"m\": {}, \"max_core\": {},\n\
         {indent}  \"seq_csr_secs\": {:.5}, \"seq_dynamic_secs\": {:.5},\n\
         {indent}  \"threads\": [\n",
        r.name, r.n, r.m, r.max_core, r.seq_csr_secs, r.seq_dyn_secs
    );
    for (i, &(t, cs, ds)) in r.par.iter().enumerate() {
        s.push_str(&format!(
            "{indent}    {{ \"threads\": {t}, \"csr_secs\": {:.5}, \"csr_speedup\": {:.3}, \
             \"dynamic_secs\": {:.5}, \"dynamic_speedup\": {:.3} }}{}\n",
            cs,
            r.seq_csr_secs / cs,
            ds,
            r.seq_dyn_secs / ds,
            if i + 1 == r.par.len() { "" } else { "," }
        ));
    }
    s.push_str(&format!("{indent}  ]\n{indent}}}"));
    s
}

/// Thread-parallel *maintenance*: batched insert/remove passes through
/// the order-based engine, serial component splits vs worker-team
/// component passes at each thread count. Cores are asserted
/// bit-identical to the serial engine before any number is reported.
struct MaintReport {
    batches: usize,
    inserts_per_batch: usize,
    removes_per_batch: usize,
    seq_insert_secs: f64,
    seq_remove_secs: f64,
    /// `(threads, insert_secs, remove_secs)` per requested thread count.
    par: Vec<(usize, f64, f64)>,
}

impl MaintReport {
    fn churn_speedup_at(&self, threads: usize) -> Option<f64> {
        self.par
            .iter()
            .find(|&&(t, _, _)| t == threads)
            .map(|&(_, is, rs)| (self.seq_insert_secs + self.seq_remove_secs) / (is + rs))
    }
}

fn measure_maint(base: &DynamicGraph, args: &Args) -> MaintReport {
    let batches = 8;
    let inserts_per_batch = (args.n / 25).max(64);
    let removes_per_batch = (args.n / 50).max(32);
    let stream = churn_stream(
        base,
        batches,
        inserts_per_batch,
        removes_per_batch,
        args.seed ^ 0xBEEF,
    );

    // One full churn run: fresh engine over the base graph, every
    // batch's inserts then removes, the two phases timed separately.
    let run = |opts: &BatchOptions| -> (f64, f64, Vec<u32>) {
        let mut eng: OrderCore = OrderCore::new(base.clone(), args.seed);
        let (mut ti, mut tr) = (0.0f64, 0.0f64);
        for b in &stream {
            let t0 = Instant::now();
            eng.insert_edges_with(&b.inserts, opts);
            ti += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            eng.remove_edges_with(&b.removes, opts);
            tr += t0.elapsed().as_secs_f64();
        }
        (ti, tr, eng.cores().to_vec())
    };

    let serial_opts = BatchOptions::component_split();
    let mut seq_insert = f64::INFINITY;
    let mut seq_remove = f64::INFINITY;
    let mut reference: Option<Vec<u32>> = None;
    let mut par_secs: Vec<(f64, f64)> = vec![(f64::INFINITY, f64::INFINITY); args.threads.len()];
    for _ in 0..args.reps.max(1) {
        let (ti, tr, cores) = run(&serial_opts);
        seq_insert = seq_insert.min(ti);
        seq_remove = seq_remove.min(tr);
        if let Some(r) = &reference {
            assert_eq!(&cores, r, "serial maintenance must be deterministic");
        } else {
            reference = Some(cores);
        }
        for (slot, &t) in args.threads.iter().enumerate() {
            let opts = BatchOptions::parallel(Parallelism::exact(t));
            let (ti, tr, cores) = run(&opts);
            par_secs[slot].0 = par_secs[slot].0.min(ti);
            par_secs[slot].1 = par_secs[slot].1.min(tr);
            assert_eq!(
                Some(cores),
                reference,
                "parallel maintenance diverged at {t} threads"
            );
        }
    }

    MaintReport {
        batches,
        inserts_per_batch,
        removes_per_batch,
        seq_insert_secs: seq_insert,
        seq_remove_secs: seq_remove,
        par: args
            .threads
            .iter()
            .zip(par_secs)
            .map(|(&t, (i, r))| (t, i, r))
            .collect(),
    }
}

fn print_maint(r: &MaintReport) {
    println!(
        "\n== maintenance passes (BA churn: {} batches x {} ins / {} rem) ==",
        r.batches, r.inserts_per_batch, r.removes_per_batch
    );
    println!(
        "serial split: insert {:.4}s, remove {:.4}s",
        r.seq_insert_secs, r.seq_remove_secs
    );
    kcore_bench::row(
        &[
            "threads".into(),
            "ins secs".into(),
            "ins speedup".into(),
            "rem secs".into(),
            "rem speedup".into(),
            "churn speedup".into(),
        ],
        8,
        14,
    );
    for &(t, is, rs) in &r.par {
        kcore_bench::row(
            &[
                format!("{t}"),
                format!("{is:.4}"),
                format!("{:.2}x", r.seq_insert_secs / is),
                format!("{rs:.4}"),
                format!("{:.2}x", r.seq_remove_secs / rs),
                format!(
                    "{:.2}x",
                    (r.seq_insert_secs + r.seq_remove_secs) / (is + rs)
                ),
            ],
            8,
            14,
        );
    }
}

fn json_maint(r: &MaintReport, indent: &str) -> String {
    let mut s = format!(
        "{indent}\"batches\": {}, \"inserts_per_batch\": {}, \"removes_per_batch\": {},\n\
         {indent}\"seq_insert_secs\": {:.5}, \"seq_remove_secs\": {:.5},\n\
         {indent}\"threads\": [\n",
        r.batches, r.inserts_per_batch, r.removes_per_batch, r.seq_insert_secs, r.seq_remove_secs
    );
    for (i, &(t, is, rs)) in r.par.iter().enumerate() {
        s.push_str(&format!(
            "{indent}  {{ \"threads\": {t}, \"insert_secs\": {is:.5}, \
             \"insert_speedup\": {:.3}, \"remove_secs\": {rs:.5}, \
             \"remove_speedup\": {:.3}, \"churn_speedup\": {:.3} }}{}\n",
            r.seq_insert_secs / is,
            r.seq_remove_secs / rs,
            (r.seq_insert_secs + r.seq_remove_secs) / (is + rs),
            if i + 1 == r.par.len() { "" } else { "," }
        ));
    }
    s.push_str(&format!("{indent}]"));
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

    // korder: phase-parallel vs sequential (bit-identical order asserted).
    let korder_threads = *args.threads.iter().max().unwrap();
    let mut ko_seq_secs = f64::INFINITY;
    let mut ko_par_secs = f64::INFINITY;
    for _ in 0..args.reps.max(1) {
        let t0 = Instant::now();
        let seq = korder_decomposition(&ba, Heuristic::SmallDegFirst, args.seed);
        ko_seq_secs = ko_seq_secs.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let par = korder_decomposition_par(
            &ba,
            Heuristic::SmallDegFirst,
            args.seed,
            &Parallelism::exact(korder_threads),
        );
        ko_par_secs = ko_par_secs.min(t0.elapsed().as_secs_f64());
        assert_eq!(par.order, seq.order, "phase-parallel korder reordered");
        assert_eq!(par.deg_plus, seq.deg_plus);
    }
    println!(
        "\nkorder build (BA): sequential {ko_seq_secs:.4}s, phase-parallel ({korder_threads} \
         threads) {ko_par_secs:.4}s ({:.2}x)",
        ko_seq_secs / ko_par_secs
    );

    // ---- thread-parallel maintenance (BA churn) ----
    let maint = measure_maint(&ba, &args);
    print_maint(&maint);

    // ---- gate bookkeeping ----
    const GATE_THREADS: usize = 4;
    let ba_speedup_at_4 = reports[0].speedup_csr_at(GATE_THREADS);
    let gate_status = if args.min_par_speedup <= 0.0 {
        "disabled".to_string()
    } else if host < GATE_THREADS {
        format!("waived (host_parallelism {host} < {GATE_THREADS} gated threads)")
    } else if ba_speedup_at_4.is_none() {
        format!("waived ({GATE_THREADS} threads not in --threads)")
    } else {
        "enforced".to_string()
    };
    let maint_speedup_at_4 = maint.churn_speedup_at(GATE_THREADS);
    let maint_gate_status = if args.min_maint_speedup <= 0.0 {
        "disabled".to_string()
    } else if host < GATE_THREADS {
        format!("waived (host_parallelism {host} < {GATE_THREADS} gated threads)")
    } else if maint_speedup_at_4.is_none() {
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
    json.push_str(&format!(
        "  \"korder\": {{ \"threads\": {korder_threads}, \"seq_secs\": {ko_seq_secs:.5}, \
         \"par_secs\": {ko_par_secs:.5}, \"speedup\": {:.3} }},\n",
        ko_seq_secs / ko_par_secs
    ));
    json.push_str("  \"maint_par\": {\n");
    json.push_str(&json_maint(&maint, "    "));
    json.push_str(",\n");
    match maint_speedup_at_4 {
        Some(s) => json.push_str(&format!("    \"churn_speedup_at_4\": {s:.3},\n")),
        None => json.push_str("    \"churn_speedup_at_4\": null,\n"),
    }
    json.push_str(&format!(
        "    \"target_speedup\": {:.1},\n    \"gate\": \"{maint_gate_status}\"\n  }},\n",
        args.min_maint_speedup
    ));
    match ba_speedup_at_4 {
        Some(s) => json.push_str(&format!("  \"speedup_at_4_csr\": {s:.3},\n")),
        None => json.push_str("  \"speedup_at_4_csr\": null,\n"),
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
                "GATE FAILED: csr speedup at {GATE_THREADS} threads {s:.3} < required {}",
                args.min_par_speedup
            );
            std::process::exit(1);
        }
    }
    if maint_gate_status == "enforced" {
        let s = maint_speedup_at_4.expect("enforced implies measured");
        if s < args.min_maint_speedup {
            eprintln!(
                "GATE FAILED: maintenance churn speedup at {GATE_THREADS} threads {s:.3} < \
                 required {}",
                args.min_maint_speedup
            );
            std::process::exit(1);
        }
    }
}
