//! Release-mode oracle check at scale: the default engine replays churn
//! on a million-vertex Barabási–Albert graph and must end on exactly the
//! decomposition's cores with a `validate()`-clean k-order.
//!
//! `cargo test --release --test scale_oracle -- --ignored`

use kcore::gen::{barabasi_albert, churn_stream};
use kcore::{core_decomposition, PlannedCore};

const VERTICES: usize = 1_000_000;
const EVENTS: usize = 20_000;
/// Churn micro-batch: half fresh inserts, half removals of live edges.
const BATCH: usize = 256;

#[test]
#[ignore = "a release-mode scale check: run with --release -- --ignored"]
fn planned_core_matches_the_oracle_at_a_million_vertices() {
    let base = barabasi_albert(VERTICES, 4, 7);
    let stream = churn_stream(&base, EVENTS.div_ceil(BATCH), BATCH / 2, BATCH / 2, 11);
    let mut engine = PlannedCore::new(base, 7);
    for b in &stream {
        let stats = engine.apply_churn(&b.inserts, &b.removes);
        assert_eq!(stats.skipped, 0, "churn streams replay cleanly");
    }
    assert_eq!(engine.cores(), &core_decomposition(engine.graph())[..]);
    engine.order().validate();
}
