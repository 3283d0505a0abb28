//! Unit tests for `OrderInsert` / `OrderRemoval`, including the paper's
//! worked examples (4.2, 5.2) and randomized cross-validation against the
//! traversal engine and full recomputation.

use crate::maintainer::CoreMaintainer;
use crate::{OrderCore, RecomputeCore, TreapOrderCore};
use kcore_graph::{fixtures, DynamicGraph, EdgeListError};
use kcore_traversal::TraversalCore;

fn order_core(g: &DynamicGraph) -> OrderCore {
    OrderCore::new(g.clone(), 42)
}

/// Rebuilds the index wholesale from a fresh decomposition, the way the
/// planner refreshes its k-order after a recompute.
fn rebuild_from_decomposition(oc: &mut OrderCore) {
    let core = kcore_decomp::core_decomposition(oc.graph());
    let ko = kcore_decomp::korder_from_cores(oc.graph(), &core);
    oc.rebuild_from_korder(ko);
}

#[test]
fn build_validates_on_fixtures() {
    for g in [
        fixtures::triangle(),
        fixtures::path(7),
        fixtures::star(5),
        fixtures::petersen(),
        fixtures::two_cliques_bridge(),
        fixtures::PaperGraph::small().graph,
        DynamicGraph::with_vertices(4),
        DynamicGraph::new(),
    ] {
        order_core(&g).validate();
    }
}

#[test]
fn insert_forms_triangle() {
    let mut g = DynamicGraph::with_vertices(3);
    g.insert_edge(0, 1).unwrap();
    g.insert_edge(1, 2).unwrap();
    let mut oc = order_core(&g);
    let stats = oc.insert_edge(2, 0).unwrap();
    assert_eq!(oc.cores(), &[2, 2, 2]);
    assert_eq!(stats.changed, 3);
    oc.validate();
}

#[test]
fn insert_between_isolated() {
    let g = DynamicGraph::with_vertices(2);
    let mut oc = order_core(&g);
    oc.insert_edge(0, 1).unwrap();
    assert_eq!(oc.cores(), &[1, 1]);
    oc.validate();
}

#[test]
fn insert_errors_leave_state_unchanged() {
    let mut oc = order_core(&fixtures::triangle());
    let state = |oc: &OrderCore| {
        (
            oc.cores().to_vec(),
            oc.graph().num_edges(),
            oc.global_order(),
        )
    };
    let before = state(&oc);
    // (insert?, u, v, error)
    for (insert, u, v, expected) in [
        (true, 0, 0, EdgeListError::SelfLoop(0)),
        (true, 0, 1, EdgeListError::Duplicate(0, 1)),
        (true, 0, 7, EdgeListError::UnknownVertex(7)),
        (false, 0, 9, EdgeListError::Missing(0, 9)),
        (false, 1, 1, EdgeListError::Missing(1, 1)),
        (false, 9, 0, EdgeListError::Missing(9, 0)),
    ] {
        let result = if insert {
            oc.insert_edge(u, v)
        } else {
            oc.remove_edge(u, v)
        };
        assert_eq!(result, Err(expected));
        assert_eq!(state(&oc), before, "{expected} changed the index");
    }
    oc.validate();
}

#[test]
fn paper_example_5_2_insertion_visits_one_vertex() {
    // Inserting (v4, u0): u0 is last in O_1 with deg+(u0) becoming 2 > 1,
    // and V* = {u0}. The order algorithm should visit exactly one vertex
    // (u0), against ~1,999 for the traversal algorithm (Example 4.2).
    let pg = fixtures::PaperGraph::full();
    let mut oc = order_core(&pg.graph);
    // Precondition from the paper: u0 has neighbours v5 (and after the
    // insert, v4) later in k-order.
    assert_eq!(oc.deg_plus(pg.u(0)), 1);
    let stats = oc.insert_edge(pg.v(4), pg.u(0)).unwrap();
    assert_eq!(stats.changed, 1, "V* = {{u0}}");
    assert_eq!(oc.core(pg.u(0)), 2);
    assert_eq!(
        stats.visited, 1,
        "order-based insertion must process u0 only"
    );
    oc.validate();

    // Compare with the traversal algorithm on the same update.
    let mut tc = TraversalCore::new(pg.graph.clone(), 2);
    let tstats = tc.insert_edge(pg.v(4), pg.u(0)).unwrap();
    assert!(tstats.visited > 1900);
    assert_eq!(tc.cores(), oc.cores());
}

#[test]
fn lemma_5_2_no_update_when_deg_plus_small() {
    // Insert (v5, v8): root v5 (core 2 < core(v8) = 3) has deg+ = 1 in
    // the Fig 6 k-order, so deg+ rises to 2 <= K = 2 and the algorithm
    // terminates in the preparing phase — zero vertices visited, zero
    // cores changed (Lemma 5.2).
    let pg = fixtures::PaperGraph::full();
    let mut oc = order_core(&pg.graph);
    // Tie-breaking may order O_2 differently from Fig 6; one of v4/v5 has
    // deg+ = 1 in any valid k-order of this graph.
    let root = if oc.deg_plus(pg.v(5)) == 1 {
        pg.v(5)
    } else {
        pg.v(4)
    };
    assert_eq!(oc.deg_plus(root), 1);
    let stats = oc.insert_edge(root, pg.v(8)).unwrap();
    assert_eq!(stats.visited, 0, "Lemma 5.2 short-circuit must not search");
    assert_eq!(stats.changed, 0);
    assert_eq!(oc.core(root), 2);
    oc.validate();

    // By contrast a vertex gaining its first edge always leaves O_0.
    let mut g = fixtures::path(3);
    let v = g.add_vertex();
    let mut oc = order_core(&g);
    let stats = oc.insert_edge(v, 0).unwrap();
    assert_eq!(stats.changed, 1);
    assert_eq!(oc.core(v), 1);
    oc.validate();
}

#[test]
fn remove_edge_reverts_insert() {
    let pg = fixtures::PaperGraph::small();
    let mut oc = order_core(&pg.graph);
    oc.insert_edge(pg.v(4), pg.u(0)).unwrap();
    assert_eq!(oc.core(pg.u(0)), 2);
    oc.validate();
    let stats = oc.remove_edge(pg.v(4), pg.u(0)).unwrap();
    assert_eq!(stats.changed, 1);
    assert_eq!(oc.cores(), &pg.expected_cores()[..]);
    oc.validate();
}

#[test]
fn remove_unravels_clique() {
    let mut oc = order_core(&fixtures::clique(4));
    oc.remove_edge(0, 1).unwrap();
    assert_eq!(oc.cores(), &[2, 2, 2, 2]);
    oc.validate();
    // K4 minus (0,1) minus (2,3) is the 4-cycle 0-2-1-3-0: still core 2.
    oc.remove_edge(2, 3).unwrap();
    assert_eq!(oc.cores(), &[2, 2, 2, 2]);
    oc.validate();
    // Breaking the cycle drops everyone to core 1.
    oc.remove_edge(0, 2).unwrap();
    assert_eq!(oc.cores(), &[1, 1, 1, 1]);
    oc.validate();
}

#[test]
fn insert_cascade_promotes_whole_cycle() {
    // A path closed into a cycle promotes every vertex from core 1 to 2.
    let mut oc = order_core(&fixtures::path(50));
    let stats = oc.insert_edge(0, 49).unwrap();
    assert_eq!(stats.changed, 50);
    assert!(oc.cores().iter().all(|&c| c == 2));
    oc.validate();
}

#[test]
fn case_2b_demotion_path() {
    // Build a shape where a candidate is later demoted: a 4-cycle with a
    // pendant chain — closing a chord makes part of the cycle candidates
    // and then retracts some.
    let mut g = DynamicGraph::with_vertices(6);
    for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5)] {
        g.insert_edge(a, b).unwrap();
    }
    let mut oc = order_core(&g);
    // Chord (1, 3): the 4-cycle already has core 2; vertices 4, 5 stay 1.
    let before = oc.cores().to_vec();
    oc.insert_edge(1, 3).unwrap();
    oc.validate();
    // 0..=3 form a dense block now: cores recomputed must match oracle.
    let _ = before;
}

#[test]
fn vertex_addition_and_detachment() {
    let mut oc = order_core(&fixtures::triangle());
    let v = oc.add_vertex();
    assert_eq!(oc.core(v), 0);
    oc.validate();
    oc.insert_edge(v, 0).unwrap();
    assert_eq!(oc.core(v), 1);
    oc.validate();
    oc.remove_edge(v, 0).unwrap();
    assert_eq!(oc.core(v), 0);
    oc.validate();
}

#[test]
fn precedes_is_consistent_with_levels() {
    let pg = fixtures::PaperGraph::small();
    let oc = order_core(&pg.graph);
    // Lower core always precedes higher core.
    assert!(oc.precedes(pg.u(5), pg.v(1)));
    assert!(oc.precedes(pg.v(1), pg.v(6)));
    assert!(!oc.precedes(pg.v(6), pg.u(5)));
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Random churn on several engines simultaneously; all must agree with
/// the recompute oracle after every operation.
fn churn_agreement<M: CoreMaintainer>(mut engine: M, n: u32, ops: usize, seed: u64) {
    let mut oracle = RecomputeCore::new(engine.graph_ref().clone());
    let mut present: Vec<(u32, u32)> = engine.graph_ref().edge_vec();
    let mut state = seed | 1;
    for step in 0..ops {
        let do_remove = !present.is_empty() && xorshift(&mut state).is_multiple_of(3);
        if do_remove {
            let idx = (xorshift(&mut state) % present.len() as u64) as usize;
            let (a, b) = present.swap_remove(idx);
            engine.remove(a, b).unwrap();
            oracle.remove(a, b).unwrap();
        } else {
            let a = (xorshift(&mut state) % n as u64) as u32;
            let b = (xorshift(&mut state) % n as u64) as u32;
            if a == b || engine.graph_ref().has_edge(a, b) {
                continue;
            }
            engine.insert(a, b).unwrap();
            oracle.insert(a, b).unwrap();
            present.push((a, b));
        }
        assert_eq!(
            engine.core_slice(),
            oracle.core_slice(),
            "{} diverged at step {step} (seed {seed})",
            engine.name()
        );
    }
}

#[test]
fn random_churn_treap_engine() {
    for seed in [1u64, 2, 3, 4] {
        let oc: TreapOrderCore = OrderCore::new(DynamicGraph::with_vertices(26), seed);
        churn_agreement(oc, 26, 220, seed);
    }
}

#[test]
fn random_churn_taglist_engine() {
    for seed in [5u64, 6] {
        let oc: OrderCore = OrderCore::new(DynamicGraph::with_vertices(26), seed);
        churn_agreement(oc, 26, 220, seed);
    }
}

#[test]
fn random_churn_with_full_validation() {
    // Smaller but validates the entire index (deg+, mcd, Lemma 5.1,
    // list/seq agreement) after every single update.
    for seed in [7u64, 8, 9] {
        let mut oc: OrderCore = OrderCore::new(DynamicGraph::with_vertices(18), seed);
        let mut present: Vec<(u32, u32)> = Vec::new();
        let mut state = seed | 1;
        for _ in 0..150 {
            let do_remove = !present.is_empty() && xorshift(&mut state).is_multiple_of(3);
            if do_remove {
                let idx = (xorshift(&mut state) % present.len() as u64) as usize;
                let (a, b) = present.swap_remove(idx);
                oc.remove_edge(a, b).unwrap();
            } else {
                let a = (xorshift(&mut state) % 18) as u32;
                let b = (xorshift(&mut state) % 18) as u32;
                if a == b || oc.graph().has_edge(a, b) {
                    continue;
                }
                oc.insert_edge(a, b).unwrap();
                present.push((a, b));
            }
            oc.validate();
        }
    }
}

#[test]
fn dense_block_growth() {
    // Growing a clique edge by edge exercises repeated promotions through
    // every level.
    let mut oc: OrderCore = OrderCore::new(DynamicGraph::with_vertices(12), 3);
    for a in 0..12u32 {
        for b in (a + 1)..12u32 {
            oc.insert_edge(a, b).unwrap();
        }
    }
    assert!(oc.cores().iter().all(|&c| c == 11));
    oc.validate();
    // And tearing it down edge by edge.
    for a in 0..12u32 {
        for b in (a + 1)..12u32 {
            oc.remove_edge(a, b).unwrap();
        }
    }
    assert!(oc.cores().iter().all(|&c| c == 0));
    oc.validate();
}

#[test]
fn all_engines_agree_on_paper_graph_updates() {
    let pg = fixtures::PaperGraph::small();
    let mut order = order_core(&pg.graph);
    let mut trav = TraversalCore::new(pg.graph.clone(), 2);
    let mut naive = RecomputeCore::new(pg.graph.clone());
    let updates = [
        (pg.v(4), pg.u(0)),
        (pg.v(8), pg.v(13)),
        (pg.u(19), pg.u(20)),
        (pg.v(1), pg.v(4)),
    ];
    for &(a, b) in &updates {
        order.insert(a, b).unwrap();
        trav.insert(a, b).unwrap();
        naive.insert(a, b).unwrap();
        assert_eq!(order.core_slice(), naive.core_slice());
        assert_eq!(trav.core_slice(), naive.core_slice());
        order.validate();
        trav.validate();
    }
    for &(a, b) in updates.iter().rev() {
        order.remove(a, b).unwrap();
        trav.remove(a, b).unwrap();
        naive.remove(a, b).unwrap();
        assert_eq!(order.core_slice(), naive.core_slice());
        assert_eq!(trav.core_slice(), naive.core_slice());
        order.validate();
        trav.validate();
    }
    assert_eq!(order.core_slice(), &pg.expected_cores()[..]);
}

#[test]
fn order_visits_far_fewer_than_traversal_on_chain() {
    // Aggregate over several chain insertions: the |V+| / |V'| gap that
    // motivates the paper (Figs 1-2).
    let pg = fixtures::PaperGraph::full();
    let mut order = order_core(&pg.graph);
    let mut trav = TraversalCore::new(pg.graph.clone(), 2);
    let mut order_visits = 0usize;
    let mut trav_visits = 0usize;
    let updates = [(pg.v(4), pg.u(0)), (pg.v(5), pg.u(3)), (pg.v(1), pg.u(4))];
    for &(a, b) in &updates {
        order_visits += order.insert(a, b).unwrap().visited;
        trav_visits += trav.insert(a, b).unwrap().visited;
        assert_eq!(order.core_slice(), trav.core_slice());
    }
    assert!(
        order_visits * 50 < trav_visits,
        "order {order_visits} vs traversal {trav_visits}"
    );
}

#[test]
fn heuristic_variants_build_valid_indices() {
    use kcore_decomp::Heuristic;
    let pg = fixtures::PaperGraph::small();
    for h in Heuristic::ALL {
        let mut oc: OrderCore = OrderCore::with_heuristic(pg.graph.clone(), h, 5);
        oc.validate();
        oc.insert_edge(pg.v(4), pg.u(0)).unwrap();
        oc.validate();
    }
}

#[test]
fn observation_6_1_demotions_occur_and_stay_valid() {
    // Hunt for insertions that trigger the RemoveCandidates demotion path
    // (a candidate retracted from VC and re-inserted mid-order) on a
    // fixed random graph, and validate the index after each. The paper's
    // Observation 6.1 is precisely about these repositionings.
    let mut state = 0xB0B5u64;
    let mut g = DynamicGraph::with_vertices(40);
    let mut edges = 0;
    while edges < 70 {
        let a = (xorshift(&mut state) % 40) as u32;
        let b = (xorshift(&mut state) % 40) as u32;
        if a != b && !g.has_edge(a, b) {
            g.insert_edge_unchecked(a, b);
            edges += 1;
        }
    }
    let mut demotion_inserts = 0usize;
    let mut oc = order_core(&g);
    for _ in 0..300 {
        let a = (xorshift(&mut state) % 40) as u32;
        let b = (xorshift(&mut state) % 40) as u32;
        if a == b || oc.graph().has_edge(a, b) {
            continue;
        }
        oc.insert_edge(a, b).unwrap();
        if oc.last_demotions() > 0 {
            demotion_inserts += 1;
            oc.validate();
        }
        // keep the graph from densifying into one clique
        oc.remove_edge(a, b).unwrap();
    }
    assert!(
        demotion_inserts > 0,
        "the demotion path was never exercised — test graph too easy"
    );
}

#[test]
fn epoch_wraparound_closes_a_triangle() {
    // The insert's apply phase wraps the epoch and its pass takes the
    // next one. A wrapped epoch of 0 would read every record stamped 0 as
    // fresh; the wrap resets the records and restarts at 1 instead.
    let mut oc = order_core(&fixtures::path(3));
    oc.epoch = u32::MAX;
    oc.insert_edges(&[(0, 2)]);
    assert_eq!(oc.cores(), &[2, 2, 2]);
    assert_eq!(oc.epoch, 2);
    oc.validate();
}

#[test]
fn epoch_wraparound_mid_churn_stays_valid() {
    // Records stamped in the last epochs before the wrap must not read
    // as fresh after it: churn across the wrap, validating every step.
    let mut state = 0x57A3u64;
    let mut oc = order_core(&fixtures::PaperGraph::small().graph);
    let n = oc.graph().num_vertices() as u64;
    oc.epoch = u32::MAX - 8;
    let mut wrapped = false;
    for _ in 0..40 {
        let a = (xorshift(&mut state) % n) as u32;
        let b = (xorshift(&mut state) % n) as u32;
        if a == b {
            continue;
        }
        let before = oc.epoch;
        if oc.graph().has_edge(a, b) {
            oc.remove_edge(a, b).unwrap();
        } else {
            oc.insert_edge(a, b).unwrap();
        }
        wrapped |= oc.epoch < before;
        oc.validate();
    }
    assert!(wrapped, "the churn never wrapped the epoch");
}

#[test]
fn repeated_batches_reuse_scratch_without_growth() {
    // Steady-state batches must allocate nothing: after one warm-up
    // cycle, the reusable scratch buffers stop growing even across many
    // further insert/remove cycles.
    let g = kcore_gen::barabasi_albert(2_000, 4, 11);
    let mut oc: OrderCore = OrderCore::new(g.clone(), 3);
    let mut state = 0xFEEDu64;
    let mut batch: Vec<(u32, u32)> = Vec::new();
    {
        let mut probe = g.clone();
        while batch.len() < 500 {
            let a = (xorshift(&mut state) % 2_000) as u32;
            let b = (xorshift(&mut state) % 2_000) as u32;
            if a != b && !probe.has_edge(a, b) {
                probe.insert_edge_unchecked(a, b);
                batch.push((a, b));
            }
        }
    }

    // Warm-up sizes every scratch buffer once.
    oc.insert_edges(&batch);
    oc.remove_edges(&batch);
    let warm = oc.batch_scratch_capacity();
    for _ in 0..5 {
        let si = oc.insert_edges(&batch);
        assert_eq!(si.skipped, 0);
        let sr = oc.remove_edges(&batch);
        assert_eq!(sr.skipped, 0);
        assert_eq!(
            oc.batch_scratch_capacity(),
            warm,
            "a steady-state batch grew a scratch buffer"
        );
    }
    oc.validate();
}

#[test]
fn histogram_and_degeneracy_track_updates_incrementally() {
    // Drive inserts, removals, batches, and the recompute-rebuild path;
    // the O(levels) histogram/degeneracy must match an O(n) recount at
    // every step (validate() additionally cross-checks level_counts).
    let mut state = 0xD1CEu64;
    let mut oc = order_core(&fixtures::two_cliques_bridge());
    let recount = |oc: &OrderCore| {
        let max = oc.cores().iter().copied().max().unwrap_or(0);
        let mut hist = vec![0usize; max as usize + 1];
        for &c in oc.cores() {
            hist[c as usize] += 1;
        }
        (hist, max)
    };
    for round in 0..60 {
        let a = (xorshift(&mut state) % 8) as u32;
        let b = (xorshift(&mut state) % 8) as u32;
        if a != b {
            if oc.graph().has_edge(a, b) {
                oc.remove_edge(a, b).unwrap();
            } else {
                oc.insert_edge(a, b).unwrap();
            }
        }
        if round % 20 == 19 {
            rebuild_from_decomposition(&mut oc);
        }
        let (hist, max) = recount(&oc);
        assert_eq!(oc.degeneracy(), max);
        assert_eq!(oc.core_histogram(), hist);
    }
    oc.validate();

    // Batched paths maintain the counts too.
    let batch: Vec<(u32, u32)> = vec![(0, 5), (1, 6), (2, 7)];
    oc.insert_edges(&batch);
    let (hist, max) = recount(&oc);
    assert_eq!(oc.degeneracy(), max);
    assert_eq!(oc.core_histogram(), hist);
    oc.remove_edges(&batch);
    let (hist, max) = recount(&oc);
    assert_eq!(oc.degeneracy(), max);
    assert_eq!(oc.core_histogram(), hist);
    oc.validate();
}

#[test]
fn kcore_members_allocates_exact_capacity() {
    let oc = order_core(&fixtures::PaperGraph::small().graph);
    for k in 0..=oc.degeneracy() + 1 {
        let members = oc.kcore_members(k);
        assert_eq!(members.capacity(), members.len());
    }
}

// ---- core-change tracking (the O(changed) snapshot-publication feed) ----

/// Applies drained change ids to a stale copy of the cores and checks it
/// reaches the engine's current state — the exact contract the ingest
/// writer's core mirror relies on.
fn assert_drain_covers<F: FnOnce(&mut OrderCore)>(g: &DynamicGraph, mutate: F) {
    let mut oc = order_core(g);
    oc.enable_core_change_tracking();
    let before = oc.cores().to_vec();
    mutate(&mut oc);
    let mut changes = Vec::new();
    assert!(
        oc.drain_core_changes(&mut changes),
        "tracking active, drain must report the tracked set"
    );
    let mut patched = before;
    for &v in &changes {
        patched[v as usize] = oc.core(v);
    }
    assert_eq!(patched, oc.cores(), "drained ids must cover every change");
    // A second drain is empty: the log was cleared.
    let mut again = Vec::new();
    assert!(oc.drain_core_changes(&mut again));
    assert!(again.is_empty());
}

#[test]
fn change_tracking_covers_single_edge_updates() {
    assert_drain_covers(&fixtures::path(6), |oc| {
        oc.insert_edge(0, 5).unwrap();
        oc.insert_edge(1, 4).unwrap();
        oc.remove_edge(2, 3).unwrap();
    });
}

#[test]
fn change_tracking_covers_batches_and_rebuilds() {
    let g = fixtures::PaperGraph::small().graph;
    assert_drain_covers(&g, |oc| {
        oc.insert_edges(&[(0, 9), (3, 12), (1, 7)]);
        oc.remove_edges(&[(0, 9)]);
        // A wholesale rebuild must diff instead of losing the changes.
        oc.insert_edge(2, 11).unwrap();
        rebuild_from_decomposition(oc);
    });
}

#[test]
fn change_tracking_off_reports_full_sync() {
    let mut oc = order_core(&fixtures::triangle());
    let mut out = Vec::new();
    assert!(
        !oc.drain_core_changes(&mut out),
        "tracking off => full sync"
    );
    assert!(out.is_empty());
}

#[test]
fn planned_core_tracks_through_recompute() {
    use crate::planner::{PlanPolicy, PlannedCore};
    let g = fixtures::PaperGraph::small().graph;
    let mut pc: PlannedCore = PlannedCore::with_policy(g, 7, PlanPolicy::ForceRecompute);
    pc.enable_core_change_tracking();
    let before = pc.cores().to_vec();
    pc.insert_edges(&[(0, 9), (3, 12), (1, 7)]);
    // Force the deferred k-order rebuild too: cores are unchanged by it,
    // so it must not pollute or invalidate the log.
    pc.insert_edge(2, 11).unwrap();
    let mut changes = Vec::new();
    assert!(pc.drain_core_changes(&mut changes));
    let mut patched = before;
    for &v in &changes {
        patched[v as usize] = pc.core(v);
    }
    assert_eq!(patched, pc.cores());
}
