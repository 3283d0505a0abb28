//! Parallel level-synchronous core decomposition.
//!
//! The bucket peel of [`crate::bucket`] is sequential only in its
//! bookkeeping: at any peeling threshold `k`, *every* vertex whose
//! remaining degree has fallen to `k` can be peeled concurrently — their
//! core number is already decided. This module exploits exactly that
//! structure (the ParK/PKC family of algorithms):
//!
//! 1. **Scan** — at the start of level `k`, the vertex range is scanned
//!    in parallel for the frontier `{v : deg(v) = k}` (the invariant
//!    "unassigned ⇒ `deg >= k`" makes the degree test sufficient — no
//!    visited flags needed). The same scan records the minimum remaining
//!    degree above `k`, so empty levels are jumped over without extra
//!    scans.
//! 2. **Peel rounds** — the frontier is split into per-thread chunks;
//!    each worker assigns `core = k` to its vertices and decrements the
//!    neighbours' remaining degrees through
//!    [`AtomicDegrees::decrement_above`], a floored CAS that (a) can
//!    never underflow past the level and (b) hands **exactly one**
//!    worker the `Some(k)` transition — that worker owns the neighbour's
//!    frontier insertion, so per-thread next-frontier buffers merge into
//!    a duplicate-free frontier between rounds. Rounds repeat until the
//!    level produces no new frontier, then the level advances.
//!
//! The peel reads the same [`DynamicGraph`] as the sequential peel and
//! the maintenance engines; the planner's parallel recompute calls it.
//! Core numbers are a function of the graph alone, so the parallel peel
//! is **bit-identical** to [`crate::core_decomposition`] at every thread
//! count — property-tested in `tests/proptest_decomp.rs` and asserted by
//! the `par` bench binary before it reports a single number.
//!
//! Work is distributed by [`run_ranges`]/[`run_chunks`], a minimal
//! fork-join layer over the long-lived [`crate::team`] worker pool (the
//! container is offline; no rayon): callers hand a [`Parallelism`]
//! config and small inputs never leave the calling thread
//! (`sequential_cutoff`).

use kcore_graph::{AtomicDegrees, DynamicGraph, VertexId};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

/// Thread-count and granularity knobs for the parallel decompositions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker count; `0` resolves to `std::thread::available_parallelism`.
    pub threads: usize,
    /// Frontiers (and scan ranges) smaller than this are processed on the
    /// calling thread — spawning for a 20-vertex frontier costs more than
    /// peeling it.
    pub sequential_cutoff: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism {
            threads: 0,
            sequential_cutoff: 4096,
        }
    }
}

impl Parallelism {
    /// Auto-detect threads, default cutoff.
    pub fn auto() -> Self {
        Self::default()
    }

    /// Exactly `threads` workers, default cutoff.
    pub fn exact(threads: usize) -> Self {
        Parallelism {
            threads,
            ..Self::default()
        }
    }

    /// Overrides the sequential cutoff (tests set 0 to force the
    /// multi-threaded path even on tiny graphs).
    pub fn with_cutoff(mut self, cutoff: usize) -> Self {
        self.sequential_cutoff = cutoff;
        self
    }

    /// The worker count this config resolves to on the current host.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Runs `f(thread_index, range)` over `threads` contiguous sub-ranges of
/// `0..len` on the shared [`crate::team`] worker pool, returning the
/// per-thread results in range order. Falls back to a single inline call
/// when `len` is below `cutoff` or one worker is requested. The range
/// partition is identical to the PR-3 scoped-spawn version, so every
/// caller's work distribution — and therefore every bit-identical
/// equivalence guarantee — is unchanged; only the dispatch mechanism
/// (parked long-lived workers instead of per-call spawns) differs.
pub fn run_ranges<R, F>(threads: usize, len: usize, cutoff: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    if threads <= 1 || len < cutoff.max(2) {
        return vec![f(0, 0..len)];
    }
    let workers = threads.min(len);
    let chunk = len.div_ceil(workers);
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        (0..workers).map(|_| std::sync::Mutex::new(None)).collect();
    let task = |t: usize| {
        let lo = (t * chunk).min(len);
        let hi = ((t + 1) * chunk).min(len);
        *slots[t].lock().unwrap() = Some(f(t, lo..hi));
    };
    crate::team::run(workers, &task);
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("team task skipped a range")
        })
        .collect()
}

/// [`run_ranges`] specialised to slicing an item list: `f(thread_index,
/// chunk_of_items)`.
pub fn run_chunks<T, R, F>(threads: usize, items: &[T], cutoff: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    run_ranges(threads, items.len(), cutoff, |t, range| f(t, &items[range]))
}

/// One peel round's per-worker harvest: vertices that fell onto the
/// current level (next frontier) and the smallest remaining degree seen
/// strictly above it (level-jump hint).
struct RoundHarvest {
    next: Vec<VertexId>,
    min_above: u32,
}

/// Parallel [`crate::core_decomposition`]: identical core numbers,
/// level-synchronous multi-threaded peel.
///
/// ```
/// use kcore_graph::fixtures;
/// use kcore_decomp::par::{par_core_decomposition, Parallelism};
///
/// let g = fixtures::petersen();
/// let core = par_core_decomposition(&g, &Parallelism::exact(2).with_cutoff(0));
/// assert_eq!(core, vec![3; 10]);
/// ```
pub fn par_core_decomposition(g: &DynamicGraph, par: &Parallelism) -> Vec<u32> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let threads = par.resolved_threads().clamp(1, n);
    let cutoff = par.sequential_cutoff;

    let deg = AtomicDegrees::from_degrees(g.degree_vec());
    let core: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();

    let mut assigned = 0usize;
    let mut k = 0u32;
    while assigned < n {
        // ---- scan: frontier = {deg == k}; also the next occupied level.
        // Unassigned vertices always satisfy deg >= k (the CAS floor
        // forbids dropping below the active level, and every vertex
        // *landing* on the level is assigned within it), so the degree
        // test alone selects exactly the unpeeled frontier.
        let scans = run_ranges(threads, n, cutoff, |_, range| {
            let mut frontier = Vec::new();
            let mut min_above = u32::MAX;
            for v in range {
                let d = deg.load(v as VertexId);
                if d == k {
                    frontier.push(v as VertexId);
                } else if d > k && d < min_above {
                    min_above = d;
                }
            }
            RoundHarvest {
                next: frontier,
                min_above,
            }
        });
        let mut min_above = u32::MAX;
        let mut frontier: Vec<VertexId> = Vec::new();
        for s in scans {
            frontier.extend_from_slice(&s.next);
            min_above = min_above.min(s.min_above);
        }

        // ---- peel rounds at level k ----
        while !frontier.is_empty() {
            assigned += frontier.len();
            let harvests = run_chunks(threads, &frontier, cutoff, |_, chunk| {
                let mut next = Vec::new();
                let mut local_min = u32::MAX;
                for &v in chunk {
                    core[v as usize].store(k, Ordering::Relaxed);
                    for &u in g.neighbors(v) {
                        match deg.decrement_above(u, k) {
                            // This worker performed the k+1 -> k
                            // transition: it alone enrols u.
                            Some(nd) if nd == k => next.push(u),
                            Some(nd) if nd < local_min => local_min = nd,
                            _ => {}
                        }
                    }
                }
                RoundHarvest {
                    next,
                    min_above: local_min,
                }
            });
            frontier.clear();
            for h in harvests {
                frontier.extend_from_slice(&h.next);
                min_above = min_above.min(h.min_above);
            }
        }

        // Jump straight to the next occupied level: min_above saw every
        // remaining degree, both at scan time and as the peel rounds
        // re-landed them.
        if min_above == u32::MAX {
            break; // no unassigned vertex remains
        }
        k = min_above;
    }
    debug_assert_eq!(assigned, n);

    core.into_iter().map(AtomicU32::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_decomposition;
    use kcore_graph::fixtures;

    fn check_all_thread_counts(g: &DynamicGraph) {
        let reference = core_decomposition(g);
        for t in [1usize, 2, 3, 4] {
            let par = Parallelism::exact(t).with_cutoff(0);
            assert_eq!(
                par_core_decomposition(g, &par),
                reference,
                "peel diverged at {t} threads"
            );
        }
    }

    #[test]
    fn matches_sequential_on_fixtures() {
        check_all_thread_counts(&fixtures::triangle());
        check_all_thread_counts(&fixtures::path(9));
        check_all_thread_counts(&fixtures::cycle(6));
        check_all_thread_counts(&fixtures::star(5));
        check_all_thread_counts(&fixtures::petersen());
        check_all_thread_counts(&fixtures::two_cliques_bridge());
        check_all_thread_counts(&fixtures::clique(9));
        check_all_thread_counts(&fixtures::PaperGraph::full().graph);
    }

    #[test]
    fn isolated_vertices_and_components() {
        // Isolated vertices (core 0) plus two disconnected cliques of
        // different degeneracy: the scan must seed every component.
        let mut g = DynamicGraph::with_vertices(20);
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                g.insert_edge(a, b).unwrap();
            }
        }
        for a in 10..16u32 {
            for b in (a + 1)..16 {
                g.insert_edge(a, b).unwrap();
            }
        }
        check_all_thread_counts(&g);
    }

    #[test]
    fn empty_graph() {
        assert!(par_core_decomposition(&DynamicGraph::new(), &Parallelism::auto()).is_empty());
    }

    #[test]
    fn level_jump_skips_degree_gaps() {
        // A star has degrees {1, n}: after level 1 the peel must jump
        // straight to the hub's remaining level without scanning the gap.
        let g = fixtures::star(64);
        check_all_thread_counts(&g);
    }

    #[test]
    fn auto_parallelism_resolves() {
        let p = Parallelism::auto();
        assert!(p.resolved_threads() >= 1);
        assert_eq!(Parallelism::exact(3).resolved_threads(), 3);
    }

    #[test]
    fn run_helpers_cover_all_items() {
        let items: Vec<u32> = (0..1000).collect();
        let sums = run_chunks(4, &items, 0, |_, chunk| chunk.iter().sum::<u32>());
        assert_eq!(sums.iter().sum::<u32>(), items.iter().sum::<u32>());
        let counts = run_ranges(3, 17, 0, |_, r| r.len());
        assert_eq!(counts.iter().sum::<usize>(), 17);
    }
}
