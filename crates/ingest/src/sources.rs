//! Adapters from the `kcore-gen` stream shapes to [`GraphEvent`]s — the
//! seam between workload generation (sliding windows, churn batches,
//! timestamped micro-batches) and the ingest channel.

use kcore_gen::{ChurnBatch, WindowOp};
use kcore_graph::DynamicGraph;
use kcore_maint::journal::GraphEvent;

/// Replays `events` onto a clone of `base` with the engines' batch skip
/// semantics (self-loop, out-of-range endpoint, duplicate insert,
/// missing removal → skipped). This is the *model* of what the ingest
/// writer's engine ends up holding after ingesting the stream —
/// the single definition the equivalence tests and the bench oracle
/// share, so the skip rules cannot drift between them.
pub fn apply_events(base: &DynamicGraph, events: &[GraphEvent]) -> DynamicGraph {
    let mut g = base.clone();
    let n = g.num_vertices();
    for &e in events {
        match e {
            GraphEvent::EdgeInserted(u, v) => {
                if u != v && (u as usize) < n && (v as usize) < n && !g.has_edge(u, v) {
                    g.insert_edge_unchecked(u, v);
                }
            }
            GraphEvent::EdgeRemoved(u, v) => {
                if (u as usize) < n && (v as usize) < n {
                    let _ = g.remove_edge(u, v);
                }
            }
        }
    }
    g
}

/// One window transition as an ingest event: admissions insert, expiries
/// remove.
pub fn window_event(op: WindowOp) -> GraphEvent {
    match op {
        WindowOp::Admit(u, v) => GraphEvent::EdgeInserted(u, v),
        WindowOp::Expire(u, v) => GraphEvent::EdgeRemoved(u, v),
    }
}

/// A churn micro-batch as an event run: all inserts, then all removes —
/// the order [`kcore_gen::churn_stream`] guarantees replays cleanly.
pub fn churn_events(batch: &ChurnBatch) -> impl Iterator<Item = GraphEvent> + '_ {
    batch
        .inserts
        .iter()
        .map(|&(u, v)| GraphEvent::EdgeInserted(u, v))
        .chain(
            batch
                .removes
                .iter()
                .map(|&(u, v)| GraphEvent::EdgeRemoved(u, v)),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adapters_preserve_order_and_kind() {
        assert_eq!(
            window_event(WindowOp::Admit(1, 2)),
            GraphEvent::EdgeInserted(1, 2)
        );
        assert_eq!(
            window_event(WindowOp::Expire(3, 4)),
            GraphEvent::EdgeRemoved(3, 4)
        );
        let batch = ChurnBatch {
            inserts: vec![(0, 1), (2, 3)],
            removes: vec![(0, 1)],
        };
        let events: Vec<GraphEvent> = churn_events(&batch).collect();
        assert_eq!(
            events,
            vec![
                GraphEvent::EdgeInserted(0, 1),
                GraphEvent::EdgeInserted(2, 3),
                GraphEvent::EdgeRemoved(0, 1),
            ]
        );
    }
}
