//! Recovery memory does not grow with the stream: `recover()` holds the
//! journal's bytes (one read), the snapshot it loads and the tail it
//! replays, never the journal's decoded events.
//!
//! A counting global allocator tracks live heap bytes and their peak, so
//! this test has a binary of its own, with one test in it: nothing else
//! allocates while `recover()` runs. Two durable runs over the same base
//! take the same balanced churn (as many removes as inserts, so the graph
//! keeps its size) under the scripted clock; the second is four times
//! longer, and both end the same number of events past their last
//! checkpoint. Their recoveries then load equal-sized snapshots and
//! replay equal tails, so the growth in `recover()`'s peak heap from the
//! first to the second can only come from the longer journal. It must
//! stay within 1.25 times the growth of the journal file, which is the
//! one copy of the journal recovery reads: a decoded event costs more
//! than four times the 3–6 bytes it takes in the file.

use kcore_gen::{barabasi_albert, churn_stream};
use kcore_graph::DynamicGraph;
use kcore_ingest::sources::{apply_events, churn_events};
use kcore_ingest::{recover, DurabilityConfig, GraphEvent, IngestConfig, IngestService};
use kcore_maint::PlannerConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const SEED: u64 = 11;
const MAX_BATCH: usize = 64;
/// A checkpoint every `SNAPSHOT_EVERY × MAX_BATCH` = 3072 events.
const SNAPSHOT_EVERY: usize = 48;
const CHECKPOINT: usize = SNAPSHOT_EVERY * MAX_BATCH;
/// Events past the last checkpoint in both runs.
const TAIL: usize = CHECKPOINT / 3;
/// The short run: two checkpoints and the tail (7168 events). The long
/// run is four times as long, nine checkpoints and the same tail.
const SHORT: usize = 2 * CHECKPOINT + TAIL;
const LONG: usize = 4 * SHORT;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("kcore_ingest_recovery_memory")
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the first `events.len()` events durably into `dir`, ships them
/// all, and kills the writer.
fn durable_run(dir: &Path, base: &DynamicGraph, events: &[GraphEvent]) {
    let d = DurabilityConfig::in_dir(dir).snapshot_every(SNAPSHOT_EVERY);
    let cfg = IngestConfig::scripted().max_batch(MAX_BATCH).durable(d);
    let svc = IngestService::spawn_planned(base.clone(), SEED, cfg).unwrap();
    svc.submit_all(events.iter().copied()).unwrap();
    svc.flush().unwrap();
    svc.abort();
}

/// `recover()`'s peak heap above what was live before it, the journal's
/// length, and the recovered cores.
fn recovery_peak(dir: &Path) -> (usize, u64, Vec<u32>) {
    let d = DurabilityConfig::in_dir(dir);
    let journal = std::fs::metadata(&d.journal_path).unwrap().len();
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let rec = recover(&d, SEED, PlannerConfig::default(), MAX_BATCH).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(rec.report.replayed, TAIL, "{}", rec.report);
    (peak, journal, rec.engine.cores().to_vec())
}

#[test]
fn recovery_peak_heap_grows_with_the_journal_file_not_its_events() {
    let base = barabasi_albert(2000, 4, 17);
    let events: Vec<GraphEvent> = churn_stream(&base, LONG.div_ceil(192), 96, 96, 31)
        .iter()
        .flat_map(churn_events)
        .take(LONG)
        .collect();
    assert_eq!(events.len(), LONG);

    let mut runs = Vec::new();
    for (name, len) in [("short", SHORT), ("long", LONG)] {
        let dir = tmpdir(name);
        durable_run(&dir, &base, &events[..len]);
        let (peak, journal, cores) = recovery_peak(&dir);
        let want = kcore_decomp::core_decomposition(&apply_events(&base, &events[..len]));
        assert_eq!(cores, want, "{name} run recovered the wrong cores");
        runs.push((peak, journal));
    }
    let [(short_peak, short_journal), (long_peak, long_journal)] = runs[..] else {
        unreachable!()
    };
    let journal_growth = long_journal - short_journal;
    let peak_growth = long_peak.saturating_sub(short_peak) as u64;
    assert!(
        4 * peak_growth <= 5 * journal_growth,
        "recover()'s peak heap grew {peak_growth} B ({short_peak} -> {long_peak}) for \
         {journal_growth} B more journal ({short_journal} -> {long_journal})"
    );
}
