//! Property-based tests local to the maintenance crate: persistence
//! robustness (roundtrip + corruption), heuristic-built indices under
//! churn, and batch-vs-incremental equivalence.

use kcore_decomp::Heuristic;
use kcore_graph::DynamicGraph;
use kcore_maint::{CoreMaintainer, OrderCore, PlanPolicy, PlannedCore, RecomputeCore};
use proptest::prelude::*;

/// Every dispatch policy.
const ALL_POLICIES: [PlanPolicy; 3] = [
    PlanPolicy::Auto,
    PlanPolicy::ForceBatch,
    PlanPolicy::ForceRecompute,
];

fn arb_graph(n: u32, max_edges: usize) -> impl Strategy<Value = DynamicGraph> {
    prop::collection::vec((0..n, 0..n), 0..max_edges).prop_map(move |pairs| {
        let mut g = DynamicGraph::with_vertices(n as usize);
        for (a, b) in pairs {
            if a != b && !g.has_edge(a, b) {
                g.insert_edge_unchecked(a, b);
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// save → load is the identity on every observable of the index.
    #[test]
    fn persist_roundtrip_identity(g in arb_graph(30, 120), seed in any::<u64>()) {
        let oc: OrderCore = OrderCore::new(g, seed);
        let mut buf = Vec::new();
        oc.save(&mut buf).unwrap();
        let loaded: OrderCore = OrderCore::load(&buf[..], seed ^ 1).unwrap();
        prop_assert_eq!(loaded.cores(), oc.cores());
        prop_assert_eq!(loaded.global_order(), oc.global_order());
        loaded.validate();
    }

    /// Arbitrary single-byte corruption never yields a silently-wrong
    /// index: load either errors or (if the flip cancels out, which it
    /// cannot for a checksum-covered byte) returns a valid one.
    #[test]
    fn persist_corruption_is_detected(
        g in arb_graph(16, 40),
        byte in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let oc: OrderCore = OrderCore::new(g, 7);
        let mut buf = Vec::new();
        oc.save(&mut buf).unwrap();
        let pos = byte.index(buf.len());
        buf[pos] ^= flip;
        match <OrderCore>::load(&buf[..], 7) {
            Err(_) => {} // detected — the expected outcome
            Ok(loaded) => {
                // Only possible if the flip hit redundant state that the
                // validators and checksum both tolerate — which would mean
                // the index is still fully valid:
                loaded.validate();
            }
        }
    }

    /// Truncation at any point is detected.
    #[test]
    fn persist_truncation_is_detected(g in arb_graph(12, 30), cut in any::<prop::sample::Index>()) {
        let oc: OrderCore = OrderCore::new(g, 3);
        let mut buf = Vec::new();
        oc.save(&mut buf).unwrap();
        let keep = cut.index(buf.len()); // strictly shorter than buf
        prop_assert!(<OrderCore>::load(&buf[..keep], 3).is_err());
    }

    /// Indices built with the large/random heuristics stay valid under
    /// churn too (the heuristic only changes the starting order).
    #[test]
    fn heuristic_indices_survive_churn(
        g in arb_graph(16, 50),
        updates in prop::collection::vec((any::<bool>(), 0u32..16, 0u32..16), 0..40),
        seed in any::<u64>(),
    ) {
        for h in [Heuristic::LargeDegFirst, Heuristic::RandomDegFirst] {
            let mut oc: OrderCore = OrderCore::with_heuristic(g.clone(), h, seed);
            let mut present = oc.graph().edge_vec();
            for &(ins, a, b) in &updates {
                if ins {
                    if a != b && !oc.graph().has_edge(a, b) {
                        oc.insert_edge(a, b).unwrap();
                        present.push((a.min(b), a.max(b)));
                    }
                } else if !present.is_empty() {
                    let idx = (a as usize * 13 + b as usize) % present.len();
                    let (x, y) = present.swap_remove(idx);
                    oc.remove_edge(x, y).unwrap();
                }
                oc.validate();
            }
        }
    }

    /// The batched insert entry point equals (a) edge-at-a-time insertion
    /// and (b) a from-scratch decomposition of the final graph — for
    /// batches salted with self loops, duplicates (of existing edges and
    /// within the batch), and out-of-range endpoints, which the batch API
    /// skips and the sequential loop must therefore also ignore.
    #[test]
    fn insert_edges_equals_sequential_and_decomposition(
        g in arb_graph(16, 40),
        raw in prop::collection::vec((0u32..20, 0u32..20), 1..40),
        seed in any::<u64>(),
    ) {
        // Out-of-range ids (16..20) and self loops stay in the batch on
        // purpose: insert_edges must skip them.
        let batch: Vec<(u32, u32)> = raw;

        let mut batched: OrderCore = OrderCore::new(g.clone(), seed);
        let stats = batched.insert_edges(&batch);

        let mut seq: OrderCore = OrderCore::new(g.clone(), seed);
        let mut applied = 0usize;
        for &(u, v) in &batch {
            if seq.insert_edge(u, v).is_ok() {
                applied += 1;
            }
        }
        prop_assert_eq!(stats.skipped, batch.len() - applied);
        prop_assert_eq!(batched.cores(), seq.cores());
        prop_assert_eq!(
            batched.cores(),
            &kcore_decomp::core_decomposition(batched.graph())[..]
        );
        batched.validate();
    }

    /// Same equivalence for the batched removal entry point, with the
    /// batch salted by absent edges and self loops.
    #[test]
    fn remove_edges_equals_sequential_and_decomposition(
        g in arb_graph(16, 60),
        picks in prop::collection::vec((0u32..18, 0u32..18), 1..40),
        seed in any::<u64>(),
    ) {
        let mut batched: OrderCore = OrderCore::new(g.clone(), seed);
        let stats = batched.remove_edges(&picks);

        let mut seq: OrderCore = OrderCore::new(g, seed);
        let mut applied = 0usize;
        for &(u, v) in &picks {
            if seq.remove_edge(u, v).is_ok() {
                applied += 1;
            }
        }
        prop_assert_eq!(stats.skipped, picks.len() - applied);
        prop_assert_eq!(batched.cores(), seq.cores());
        prop_assert_eq!(
            batched.cores(),
            &kcore_decomp::core_decomposition(batched.graph())[..]
        );
        batched.validate();
    }

    /// The merged multi-seed removal pass on a batch built mostly from
    /// *live* edges — so the dismissal passes really fire — with the dirt
    /// the skip contract covers: every live edge listed twice (removed
    /// twice in one batch), plus self loops and out-of-range endpoints.
    /// Must equal sequential removal and a from-scratch decomposition.
    #[test]
    fn remove_edges_dirty_live_batches(
        g in arb_graph(14, 70),
        step in 1usize..4,
        salt in prop::collection::vec((0u32..18, 0u32..18), 0..10),
        seed in any::<u64>(),
    ) {
        let mut batch: Vec<(u32, u32)> = Vec::new();
        for (i, e) in g.edge_vec().into_iter().enumerate() {
            if i % step == 0 {
                batch.push(e);
                batch.push((e.1, e.0)); // same edge again, flipped
            }
        }
        for (i, &(a, b)) in salt.iter().enumerate() {
            batch.insert((i * 7) % (batch.len() + 1), (a, b));
            batch.push((a, a)); // self loop
        }

        let mut batched: OrderCore = OrderCore::new(g.clone(), seed);
        let stats = batched.remove_edges(&batch);

        let mut seq: OrderCore = OrderCore::new(g, seed);
        let mut applied = 0usize;
        for &(u, v) in &batch {
            if seq.remove_edge(u, v).is_ok() {
                applied += 1;
            }
        }
        prop_assert_eq!(stats.skipped, batch.len() - applied);
        prop_assert_eq!(batched.cores(), seq.cores());
        prop_assert_eq!(
            batched.cores(),
            &kcore_decomp::core_decomposition(batched.graph())[..]
        );
        batched.validate();
    }

    /// A churn stream (interleaved insert/remove micro-batches) driven
    /// through the `CoreMaintainer` batch entry points must match the
    /// recompute oracle after every batch, and no generated op may be
    /// skipped as invalid.
    #[test]
    fn churn_stream_through_core_maintainer(
        g in arb_graph(24, 90),
        ins in 0usize..8,
        rem in 0usize..8,
        seed in any::<u64>(),
    ) {
        let mut g = g;
        if g.num_edges() == 0 {
            g.insert_edge(0, 1).unwrap(); // churn needs a live edge
        }
        let stream = kcore_gen::churn_stream(&g, 6, ins, rem, seed);
        let mut engine: OrderCore = OrderCore::new(g.clone(), seed);
        let mut oracle = RecomputeCore::new(g);
        for b in &stream {
            let si = engine.insert_batch(&b.inserts);
            prop_assert_eq!(si.skipped, 0, "churn inserts are always fresh");
            let sr = engine.remove_batch(&b.removes);
            prop_assert_eq!(sr.skipped, 0, "churn removes are always live");
            oracle.insert_batch(&b.inserts);
            oracle.remove_batch(&b.removes);
            prop_assert_eq!(engine.cores(), oracle.core_slice());
        }
        engine.validate();
    }

    /// Planner equivalence on random edge soups: every `PlanPolicy`
    /// yields bit-identical core numbers on dirty insert + removal
    /// batches, reports identical skip counts, and — after any recompute
    /// fallback — the engine remains a valid order-based index
    /// (`validate()` passes post-rebuild) that keeps absorbing
    /// single-edge updates through the order-based passes.
    #[test]
    fn planner_policies_agree_on_edge_soups(
        g in arb_graph(16, 50),
        raw in prop::collection::vec((0u32..20, 0u32..20), 1..40),
        picks in prop::collection::vec((0u32..18, 0u32..18), 1..30),
        seed in any::<u64>(),
    ) {
        let mut reference: Option<(Vec<u32>, usize, usize)> = None;
        for policy in ALL_POLICIES {
            let mut pc: PlannedCore = PlannedCore::with_policy(g.clone(), seed, policy);
            let si = pc.insert_edges(&raw);
            let sr = pc.remove_edges(&picks);
            // After a recompute fallback the engine must remain
            // order-based: run single-edge updates through the passes
            // (net zero change either way around).
            if pc.graph().has_edge(0, 1) {
                pc.remove_edge(0, 1).unwrap();
                pc.insert_edge(0, 1).unwrap();
            } else {
                pc.insert_edge(0, 1).unwrap();
                pc.remove_edge(0, 1).unwrap();
            }
            prop_assert!(pc.is_order_fresh());
            pc.validate();
            let state = (pc.cores().to_vec(), si.skipped, sr.skipped);
            if let Some(r) = &reference {
                prop_assert_eq!(&state, r, "{:?} diverged", policy);
            } else {
                prop_assert_eq!(
                    &state.0[..],
                    &kcore_decomp::core_decomposition(pc.graph())[..]
                );
                reference = Some(state);
            }
        }
    }

    /// Planner equivalence on preferential-attachment graphs with larger
    /// fresh batches (the shape the benchmarks measure): all policies
    /// agree with the decomposition oracle and stay valid.
    #[test]
    fn planner_policies_agree_on_ba_graphs(
        n in 30usize..80,
        attach in 2usize..4,
        extra in prop::collection::vec((0u32..30, 0u32..30), 1..30),
        seed in any::<u64>(),
    ) {
        let g = kcore_gen::barabasi_albert(n, attach, seed);
        let mut reference: Option<Vec<u32>> = None;
        for policy in ALL_POLICIES {
            let mut pc: PlannedCore = PlannedCore::with_policy(g.clone(), seed ^ 1, policy);
            pc.insert_edges(&extra);
            pc.validate();
            let cores = pc.cores().to_vec();
            if let Some(r) = &reference {
                prop_assert_eq!(&cores, r, "{:?} diverged", policy);
            } else {
                prop_assert_eq!(
                    &cores[..],
                    &kcore_decomp::core_decomposition(pc.graph())[..]
                );
                reference = Some(cores);
            }
        }
    }

    /// Planner equivalence under churn streams driven through the
    /// planned mixed entry point: every policy matches the recompute
    /// oracle after every micro-batch, and the index revalidates at the
    /// end (exercising the deferred rebuild across interleaved batches).
    #[test]
    fn planner_policies_agree_under_churn(
        g in arb_graph(24, 90),
        ins in 0usize..8,
        rem in 0usize..8,
        seed in any::<u64>(),
    ) {
        let mut g = g;
        if g.num_edges() == 0 {
            g.insert_edge(0, 1).unwrap();
        }
        let stream = kcore_gen::churn_stream(&g, 5, ins, rem, seed);
        for policy in ALL_POLICIES {
            let mut pc: PlannedCore = PlannedCore::with_policy(g.clone(), seed, policy);
            let mut oracle = RecomputeCore::new(g.clone());
            for b in &stream {
                let s = pc.apply_churn(&b.inserts, &b.removes);
                prop_assert_eq!(s.skipped, 0, "churn ops are always valid");
                oracle.insert_batch(&b.inserts);
                oracle.remove_batch(&b.removes);
                prop_assert_eq!(pc.cores(), oracle.core_slice(), "{:?} diverged", policy);
            }
            pc.validate();
        }
    }

    /// A planned batch equals sequential application on either path:
    /// the merged passes (`ForceBatch`) and the full recompute
    /// (`ForceRecompute`).
    #[test]
    fn batch_equals_sequential(
        g in arb_graph(14, 30),
        extra in prop::collection::vec((0u32..14, 0u32..14), 1..20),
    ) {
        let mut ops = Vec::new();
        {
            let mut probe = g.clone();
            for &(a, b) in &extra {
                if a != b && !probe.has_edge(a, b) {
                    probe.insert_edge_unchecked(a, b);
                    ops.push((a, b));
                }
            }
        }
        prop_assume!(!ops.is_empty());
        let mut seq: OrderCore = OrderCore::new(g.clone(), 5);
        for &(a, b) in &ops {
            seq.insert_edge(a, b).unwrap();
        }
        for policy in [PlanPolicy::ForceBatch, PlanPolicy::ForceRecompute] {
            let mut batched: PlannedCore = PlannedCore::with_policy(g.clone(), 5, policy);
            batched.insert_edges(&ops);
            prop_assert_eq!(batched.cores(), seq.cores(), "{:?}", policy);
            batched.validate();
        }
    }
}
