//! Release-mode oracle checks at scale: the default engine replays churn
//! on a million-vertex graph and must end on exactly the decomposition's
//! cores with a `validate()`-clean k-order. Two legs: Barabási–Albert,
//! where every vertex has core 4 (one k-order level), and R-MAT, whose
//! skewed degrees spread the cores over many levels.
//!
//! `cargo test --release --test scale_oracle -- --ignored`

use kcore::gen::{barabasi_albert, churn_stream, rmat};
use kcore::graph::DynamicGraph;
use kcore::{core_decomposition, PlannedCore};

const VERTICES: usize = 1_000_000;
const EVENTS: usize = 20_000;
/// Churn micro-batch: half fresh inserts, half removals of live edges.
const BATCH: usize = 256;

/// Replays the churn stream through the default engine and checks the
/// final cores against the decomposition and the k-order with
/// `validate()`. Returns the final cores.
fn churn_matches_the_oracle(base: DynamicGraph) -> Vec<u32> {
    let stream = churn_stream(&base, EVENTS.div_ceil(BATCH), BATCH / 2, BATCH / 2, 11);
    let mut engine = PlannedCore::new(base, 7);
    for b in &stream {
        let stats = engine.apply_churn(&b.inserts, &b.removes);
        assert_eq!(stats.skipped, 0, "churn streams replay cleanly");
    }
    assert_eq!(engine.cores(), &core_decomposition(engine.graph())[..]);
    engine.order().validate();
    engine.cores().to_vec()
}

#[test]
#[ignore = "a release-mode scale check: run with --release -- --ignored"]
fn planned_core_matches_the_oracle_at_a_million_vertices() {
    churn_matches_the_oracle(barabasi_albert(VERTICES, 4, 7));
}

#[test]
#[ignore = "a release-mode scale check: run with --release -- --ignored"]
fn planned_core_matches_the_oracle_on_a_deep_core_graph() {
    const SCALE: u32 = 20;
    let cores = churn_matches_the_oracle(rmat(SCALE, 4 << SCALE, 0.57, 0.19, 0.19, 7));
    let mut levels = cores;
    levels.sort_unstable();
    levels.dedup();
    assert!(
        levels.len() >= 10,
        "the deep-core leg must span at least 10 core levels, got {}",
        levels.len()
    );
}
