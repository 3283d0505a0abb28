//! Miniature end-to-end runs of every experiment pipeline (the binaries in
//! `kcore-bench`), at tiny scale, asserting the *shape* each figure/table
//! relies on rather than wall-clock numbers.

use kcore::decomp::regions::{ordercore_sizes, purecore_sizes, subcore_sizes};
use kcore::decomp::{core_decomposition, korder_decomposition, max_core, Heuristic};
use kcore::gen::sample::{induced_vertex_sample, sample_edge_subgraph, sample_vertices};
use kcore::gen::{load_dataset, Scale, DATASETS};
use kcore::graph::stats::fig1_buckets;
use kcore::{CoreMaintainer, OrderCore, TraversalCore};

fn insert_all<M: CoreMaintainer>(engine: &mut M, stream: &[(u32, u32)]) -> (usize, usize) {
    let mut visited = 0;
    let mut changed = 0;
    for &(u, v) in stream {
        let s = engine.insert(u, v).unwrap();
        visited += s.visited;
        changed += s.changed;
    }
    (visited, changed)
}

/// Table I pipeline: every dataset generates, has sane statistics, and
/// max k is ordered the way the paper's families are.
#[test]
fn table1_pipeline() {
    let mut max_k = std::collections::HashMap::new();
    for d in &DATASETS {
        let ds = load_dataset(d.name, Scale::Tiny, 100);
        let g = ds.full_graph();
        let core = core_decomposition(&g);
        max_k.insert(d.name, max_core(&core));
        assert!(g.num_edges() > 0);
    }
    // road network shallow, dense social deepest — the family contrast
    // every experiment depends on.
    assert!(max_k["ca"] <= 3);
    assert!(max_k["orkut"] > 3 * max_k["ca"]);
}

/// Fig 1 + Fig 2 pipeline on one heavy-tailed dataset: order
/// concentrates in the small buckets, traversal has tail mass; ratios
/// ordered the paper's way.
#[test]
fn fig1_fig2_pipeline() {
    let ds = load_dataset("patents", Scale::Tiny, 400);
    let mut trav = TraversalCore::new(ds.base.clone(), 2);
    let mut order = OrderCore::new(ds.base.clone(), 7);
    let mut tv = Vec::new();
    let mut ov = Vec::new();
    for &(u, v) in &ds.stream {
        tv.push(trav.insert(u, v).unwrap().visited);
        ov.push(order.insert(u, v).unwrap().visited);
    }
    assert_eq!(order.core_slice(), trav.core_slice());
    let tb = fig1_buckets(&tv);
    let ob = fig1_buckets(&ov);
    // order: essentially nothing beyond the <=100 bucket (tiny-scale
    // tie-breaking can leave a sliver in <=1000), never >1000;
    // traversal: real mass past <=10.
    assert_eq!(ob[4], 0.0, "order visited >1000 vertices: {ob:?}");
    assert!(ob[3] < 0.02, "order tail too heavy: {ob:?}");
    assert!(
        tb[2] + tb[3] + tb[4] > 0.0,
        "traversal should spill past <=10 on a citation-family graph: {tb:?}"
    );
    // Fig 2 ratios.
    let tsum: usize = tv.iter().sum();
    let osum: usize = ov.iter().sum();
    assert!(tsum > 3 * osum, "traversal {tsum} vs order {osum}");
}

/// Fig 5 pipeline: oc has a lighter tail than pc and sc.
#[test]
fn fig5_pipeline() {
    let g = load_dataset("patents", Scale::Tiny, 10).full_graph();
    let core = core_decomposition(&g);
    let sc = subcore_sizes(&g, &core);
    let pc = purecore_sizes(&g, &core);
    let ko = korder_decomposition(&g, Heuristic::SmallDegFirst, 0);
    let sample = sample_vertices(&g, 800, 5);
    let oc = ordercore_sizes(&g, &ko, &sample);
    // Compare all three on the same vertex sample.
    let pc_s: Vec<u32> = sample.iter().map(|&v| pc[v as usize]).collect();
    let sc_s: Vec<u32> = sample.iter().map(|&v| sc[v as usize]).collect();
    let frac = |xs: &[u32], t: u32| xs.iter().filter(|&&x| x <= t).count() as f64 / xs.len() as f64;
    // At thresholds 10/100: oc >= pc >= sc concentration (paper Fig 5).
    for t in [10, 100] {
        assert!(frac(&oc, t) >= frac(&pc_s, t), "t={t}");
        assert!(frac(&pc_s, t) >= frac(&sc_s, t) - 1e-9, "t={t}");
    }
}

/// Fig 9 pipeline: small-deg+-first yields the smallest |V+|/|V*|.
#[test]
fn fig9_pipeline() {
    let ds = load_dataset("gowalla", Scale::Tiny, 400);
    let mut ratios = Vec::new();
    for h in Heuristic::ALL {
        let mut engine = kcore::OrderCore::with_heuristic(ds.base.clone(), h, 9);
        let (visited, changed) = insert_all(&mut engine, &ds.stream);
        ratios.push(visited as f64 / changed.max(1) as f64);
    }
    // small (index 0) <= large and <= random, with a small tolerance for
    // tie-breaking noise at tiny scale.
    assert!(
        ratios[0] <= ratios[1] * 1.15 && ratios[0] <= ratios[2] * 1.15,
        "heuristic ratios out of order: {ratios:?}"
    );
}

/// Fig 10 pipeline: the sampled K values span more than one core level.
#[test]
fn fig10_pipeline() {
    let ds = load_dataset("livejournal", Scale::Tiny, 300);
    let g = ds.full_graph();
    let core = core_decomposition(&g);
    let ks: std::collections::HashSet<u32> = ds
        .stream
        .iter()
        .map(|&(u, v)| core[u as usize].min(core[v as usize]))
        .collect();
    assert!(ks.len() > 3, "K diversity too low: {ks:?}");
}

/// Fig 11 pipeline: sampled subgraphs behave (sizes monotone in ratio)
/// and insertion on them completes.
#[test]
fn fig11_pipeline() {
    let g = load_dataset("orkut", Scale::Tiny, 10).full_graph();
    let v20 = induced_vertex_sample(&g, 0.2, 3);
    let v80 = induced_vertex_sample(&g, 0.8, 3);
    assert!(v20.num_edges() < v80.num_edges());
    let e20 = sample_edge_subgraph(&g, 0.2, 3);
    let e80 = sample_edge_subgraph(&g, 0.8, 3);
    assert!(e20.num_edges() < e80.num_edges());
    let mut engine = OrderCore::new(e80, 3);
    engine.insert_edge(0, 1).ok(); // may be duplicate — just exercise
    engine.validate();
}

/// Table II pipeline (counts, not time): order visits less than Trav-2 on
/// insertion for a heavy-tailed dataset, and both agree.
#[test]
fn table2_pipeline() {
    let ds = load_dataset("google", Scale::Tiny, 300);
    let mut order = OrderCore::new(ds.base.clone(), 11);
    let mut trav = TraversalCore::new(ds.base.clone(), 2);
    let (ov, _) = insert_all(&mut order, &ds.stream);
    let (tv, _) = insert_all(&mut trav, &ds.stream);
    assert_eq!(order.core_slice(), trav.core_slice());
    assert!(ov <= tv);
    // Removal leg: run backwards, engines stay in lockstep.
    for &(u, v) in ds.stream.iter().rev() {
        order.remove(u, v).unwrap();
        trav.remove(u, v).unwrap();
    }
    assert_eq!(order.core_slice(), trav.core_slice());
}

/// Table III pipeline: both index builders produce consistent engines on
/// the full graph.
#[test]
fn table3_pipeline() {
    let g = load_dataset("facebook", Scale::Tiny, 10).full_graph();
    let order = OrderCore::new(g.clone(), 1);
    order.validate();
    for h in [2, 4, 6] {
        let trav = TraversalCore::new(g.clone(), h);
        trav.validate();
        assert_eq!(trav.cores(), order.cores());
    }
}

/// Stability pipeline (Fig 12): sustained churn does not degrade the
/// index invariants.
#[test]
fn fig12_pipeline() {
    use kcore::gen::sample::{EdgeSampler, Op};
    use kcore::gen::sample_edges;
    let full = load_dataset("dblp", Scale::Tiny, 10).full_graph();
    let pool = sample_edges(&full, 1500, 77);
    let mut base = full.clone();
    for &(u, v) in &pool {
        base.remove_edge(u, v).unwrap();
    }
    let mut engine = OrderCore::new(base, 7);
    let mut sampler = EdgeSampler::new(pool, 8);
    let mut step = 0u32;
    while let Some(Op::Insert(u, v)) = sampler.next_insert() {
        engine.insert_edge(u, v).unwrap();
        if let Some(Op::Remove(a, b)) = sampler.maybe_remove(0.2) {
            engine.remove_edge(a, b).unwrap();
        }
        step += 1;
        if step.is_multiple_of(500) {
            engine.validate();
        }
    }
    engine.validate();
}
