//! Core-change journaling: a thin recorder around any [`CoreMaintainer`]
//! that captures, per update, exactly which vertices changed core number
//! and in which direction — the event stream a downstream consumer
//! (community tracker, alerting pipeline, materialised view) needs.
//!
//! The wrapper diffs against a shadow copy of the core numbers, bounded
//! by the engine-reported `|V*|`: updates with `V* = ∅` (the vast
//! majority, see Fig 10b) cost nothing, and changing updates stop
//! scanning after the `|V*|`-th transition is found.

use crate::maintainer::CoreMaintainer;
use kcore_graph::{EdgeListError, VertexId};
use kcore_traversal::UpdateStats;

/// What happened to the graph in one journaled step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphEvent {
    /// An edge was inserted.
    EdgeInserted(VertexId, VertexId),
    /// An edge was removed.
    EdgeRemoved(VertexId, VertexId),
}

/// One journal entry: the triggering event plus every core transition it
/// caused (empty when `V* = ∅`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Monotone sequence number (0-based).
    pub seq: u64,
    /// The graph mutation.
    pub event: GraphEvent,
    /// `(vertex, old_core, new_core)` for every vertex in `V*`.
    pub transitions: Vec<(VertexId, u32, u32)>,
}

/// A maintenance engine wrapper that records a [`JournalEntry`] per
/// update.
///
/// ```
/// use kcore_graph::fixtures;
/// use kcore_maint::journal::{GraphEvent, Journaled};
/// use kcore_maint::OrderCore;
///
/// let engine: OrderCore = OrderCore::new(fixtures::path(3), 1);
/// let mut j = Journaled::new(engine);
/// j.insert_edge(2, 0).unwrap();
/// let entry = j.entries().last().unwrap();
/// assert_eq!(entry.event, GraphEvent::EdgeInserted(2, 0));
/// assert_eq!(entry.transitions.len(), 3); // the whole cycle rose to 2
/// ```
pub struct Journaled<M: CoreMaintainer> {
    engine: M,
    shadow: Vec<u32>,
    entries: Vec<JournalEntry>,
    next_seq: u64,
}

impl<M: CoreMaintainer> Journaled<M> {
    /// Wraps an engine (snapshots its current core numbers).
    pub fn new(engine: M) -> Self {
        let shadow = engine.core_slice().to_vec();
        Journaled {
            engine,
            shadow,
            entries: Vec::new(),
            next_seq: 0,
        }
    }

    /// Wraps an engine whose history up to `start_seq` has already been
    /// journaled elsewhere — the recovery path: a service restored from a
    /// snapshot + journal tail resumes recording where the old journal
    /// left off, so shipped sequence numbers stay globally monotone.
    pub fn with_start_seq(engine: M, start_seq: u64) -> Self {
        let mut j = Journaled::new(engine);
        j.next_seq = start_seq;
        j
    }

    /// The wrapped engine (read access).
    pub fn engine(&self) -> &M {
        &self.engine
    }

    /// The wrapped engine, mutably. Mutating the graph or cores through
    /// this reference without going through the journaled entry points
    /// desynchronises the transition shadow — it exists for operations
    /// that leave core numbers untouched (index persistence, deferred
    /// order rebuilds, scratch maintenance).
    pub fn engine_mut(&mut self) -> &mut M {
        &mut self.engine
    }

    /// Unwraps the engine, discarding any unshipped entries.
    pub fn into_inner(self) -> M {
        self.engine
    }

    /// Recorded entries, oldest first.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// The sequence number the next recorded entry will get — the tail
    /// cursor a shipping consumer persists between
    /// [`Journaled::drain_since`] rounds.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Drops recorded entries (e.g. after a consumer flush), keeping the
    /// sequence counter monotone.
    pub fn drain(&mut self) -> Vec<JournalEntry> {
        std::mem::take(&mut self.entries)
    }

    /// Incremental shipping: drains the buffer and returns only the
    /// entries with `seq >= min_seq` (entries below the cursor were
    /// already shipped in an earlier round and are discarded). Calling in
    /// a loop with `min_seq = next_seq()` from the previous round yields
    /// every entry exactly once, in order, with no gaps — the contract
    /// the append-only journal sink relies on.
    pub fn drain_since(&mut self, min_seq: u64) -> Vec<JournalEntry> {
        let entries = std::mem::take(&mut self.entries);
        // Entries are pushed with strictly increasing seq, so the cutoff
        // is a partition point.
        let cut = entries.partition_point(|e| e.seq < min_seq);
        let mut tail = entries;
        tail.drain(..cut);
        tail
    }

    fn record(&mut self, event: GraphEvent, stats: &UpdateStats) {
        // The engine reports how many vertices changed; only diff against
        // the shadow when something did, and only around the touched
        // region — we walk the engine's core slice lazily: since
        // |V*| = stats.changed, scan until that many diffs are found.
        let transitions = self.diff_shadow(stats.changed);
        self.entries.push(JournalEntry {
            seq: self.next_seq,
            event,
            transitions,
        });
        self.next_seq += 1;
    }

    /// Inserts an edge, recording the resulting transitions.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        let stats = self.engine.insert(u, v)?;
        self.record(GraphEvent::EdgeInserted(u, v), &stats);
        Ok(stats)
    }

    /// Removes an edge, recording the resulting transitions.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        let stats = self.engine.remove(u, v)?;
        self.record(GraphEvent::EdgeRemoved(u, v), &stats);
        Ok(stats)
    }

    /// Collects the net core transitions since the last shadow sync
    /// (bounded by `changed`, see [`Journaled::record`]) and syncs the
    /// shadow.
    fn diff_shadow(&mut self, changed: usize) -> Vec<(VertexId, u32, u32)> {
        let mut transitions = Vec::with_capacity(changed.min(self.shadow.len()));
        if changed > 0 {
            let cores = self.engine.core_slice();
            if self.shadow.len() < cores.len() {
                self.shadow.resize(cores.len(), 0);
            }
            for (v, &c) in cores.iter().enumerate() {
                if c != self.shadow[v] {
                    transitions.push((v as VertexId, self.shadow[v], c));
                    self.shadow[v] = c;
                    if transitions.len() == changed {
                        break;
                    }
                }
            }
        }
        transitions
    }

    /// Journals one batch: an event per submitted edge (skipped entries
    /// included — replay through any engine's batch entry points skips
    /// them identically), with the batch's **net** core transitions
    /// attached to the last entry. Events stay per-edge so
    /// [`replay_batched`] reproduces the graph exactly; transitions are
    /// batch-granular because a multi-seed pass resolves them jointly —
    /// there is no per-edge attribution to recover.
    fn record_batch(
        &mut self,
        inserting: bool,
        edges: &[(VertexId, VertexId)],
        stats: &UpdateStats,
    ) {
        if edges.is_empty() {
            return;
        }
        let transitions = self.diff_shadow(stats.changed);
        for (i, &(u, v)) in edges.iter().enumerate() {
            let event = if inserting {
                GraphEvent::EdgeInserted(u, v)
            } else {
                GraphEvent::EdgeRemoved(u, v)
            };
            self.entries.push(JournalEntry {
                seq: self.next_seq,
                event,
                transitions: if i + 1 == edges.len() {
                    transitions.clone()
                } else {
                    Vec::new()
                },
            });
            self.next_seq += 1;
        }
    }

    /// Inserts a batch through the engine's batch entry point, journaling
    /// every submitted edge (see [`Journaled::record_batch`]).
    pub fn insert_batch(&mut self, edges: &[(VertexId, VertexId)]) -> UpdateStats {
        let stats = self.engine.insert_batch(edges);
        self.record_batch(true, edges, &stats);
        stats
    }

    /// Removes a batch through the engine's batch entry point, journaling
    /// every submitted edge (see [`Journaled::record_batch`]).
    pub fn remove_batch(&mut self, edges: &[(VertexId, VertexId)]) -> UpdateStats {
        let stats = self.engine.remove_batch(edges);
        self.record_batch(false, edges, &stats);
        stats
    }

    /// The journaled event stream (no transitions), oldest first — the
    /// input [`replay_batched`] consumes.
    pub fn events(&self) -> impl Iterator<Item = GraphEvent> + '_ {
        self.entries.iter().map(|e| e.event)
    }

    /// Vertices currently at or above core `k` that crossed the threshold
    /// within the journaled window — e.g. "who joined the 10-core today".
    pub fn threshold_crossings(&self, k: u32) -> Vec<(u64, VertexId, bool)> {
        let mut out = Vec::new();
        for e in &self.entries {
            for &(v, old, new) in &e.transitions {
                if old < k && new >= k {
                    out.push((e.seq, v, true));
                } else if old >= k && new < k {
                    out.push((e.seq, v, false));
                }
            }
        }
        out
    }
}

/// A [`Journaled`] engine is itself a [`CoreMaintainer`]: updates route
/// through the journaled entry points (batches via
/// [`Journaled::insert_batch`] / [`Journaled::remove_batch`], so the
/// wrapped engine's genuine batch path — for [`crate::PlannedCore`], the
/// planner dispatch — is preserved while every event is recorded). This
/// is what lets a change-stream consumer treat "apply a micro-batch" and
/// "record its core transitions" as one operation.
impl<M: CoreMaintainer> CoreMaintainer for Journaled<M> {
    fn insert(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        self.insert_edge(u, v)
    }

    fn remove(&mut self, u: VertexId, v: VertexId) -> Result<UpdateStats, EdgeListError> {
        self.remove_edge(u, v)
    }

    fn insert_batch(&mut self, edges: &[(VertexId, VertexId)]) -> UpdateStats {
        Journaled::insert_batch(self, edges)
    }

    fn remove_batch(&mut self, edges: &[(VertexId, VertexId)]) -> UpdateStats {
        Journaled::remove_batch(self, edges)
    }

    fn core_of(&self, v: VertexId) -> u32 {
        self.engine.core_of(v)
    }

    fn core_slice(&self) -> &[u32] {
        self.engine.core_slice()
    }

    fn graph_ref(&self) -> &kcore_graph::DynamicGraph {
        self.engine.graph_ref()
    }

    fn name(&self) -> String {
        format!("Journaled<{}>", self.engine.name())
    }
}

/// Replays a journaled event stream onto `engine` **in batches**:
/// consecutive same-kind events are grouped (up to `max_batch` edges per
/// group) and applied through the engine's batch entry points, which for
/// [`crate::OrderCore`] means adjacency pre-reservation, level-sorted
/// application, and merged passes instead of per-edge setup. Returns
/// aggregate stats.
///
/// Replay order across groups preserves the journal order, so the final
/// graph — and therefore every core number — matches an event-at-a-time
/// replay exactly.
pub fn replay_batched<M: CoreMaintainer>(
    engine: &mut M,
    events: impl IntoIterator<Item = GraphEvent>,
    max_batch: usize,
) -> UpdateStats {
    let max_batch = max_batch.max(1);
    let mut stats = UpdateStats::default();
    let mut run: Vec<(VertexId, VertexId)> = Vec::with_capacity(max_batch);
    let mut inserting = true;
    let flush = |engine: &mut M, run: &mut Vec<(VertexId, VertexId)>, inserting: bool| {
        if run.is_empty() {
            return UpdateStats::default();
        }
        let s = if inserting {
            engine.insert_batch(run)
        } else {
            engine.remove_batch(run)
        };
        run.clear();
        s
    };
    for event in events {
        let (kind_insert, u, v) = match event {
            GraphEvent::EdgeInserted(u, v) => (true, u, v),
            GraphEvent::EdgeRemoved(u, v) => (false, u, v),
        };
        if kind_insert != inserting || run.len() == max_batch {
            stats.absorb(flush(engine, &mut run, inserting));
            inserting = kind_insert;
        }
        run.push((u, v));
    }
    stats.absorb(flush(engine, &mut run, inserting));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OrderCore;
    use kcore_graph::fixtures;

    #[test]
    fn records_promotions_and_demotions() {
        let engine: OrderCore = OrderCore::new(fixtures::path(4), 1);
        let mut j = Journaled::new(engine);
        j.insert_edge(3, 0).unwrap();
        j.remove_edge(1, 2).unwrap();
        let es = j.entries();
        assert_eq!(es.len(), 2);
        assert_eq!(es[0].event, GraphEvent::EdgeInserted(3, 0));
        assert_eq!(es[0].transitions.len(), 4);
        assert!(es[0].transitions.iter().all(|&(_, o, n)| o == 1 && n == 2));
        assert_eq!(es[1].event, GraphEvent::EdgeRemoved(1, 2));
        assert_eq!(es[1].transitions.len(), 4);
        assert!(es[1].transitions.iter().all(|&(_, o, n)| o == 2 && n == 1));
    }

    #[test]
    fn empty_vstar_yields_empty_transitions() {
        let pg = fixtures::PaperGraph::small();
        let engine: OrderCore = OrderCore::new(pg.graph.clone(), 1);
        let mut j = Journaled::new(engine);
        // joining the two 4-cliques changes no core number
        j.insert_edge(pg.v(6), pg.v(10)).unwrap();
        assert_eq!(j.entries()[0].transitions, Vec::new());
    }

    #[test]
    fn threshold_crossings_detect_joins_and_leaves() {
        let engine: OrderCore = OrderCore::new(fixtures::path(4), 1);
        let mut j = Journaled::new(engine);
        j.insert_edge(3, 0).unwrap(); // everyone joins the 2-core
        j.remove_edge(0, 1).unwrap(); // everyone leaves it
        let crossings = j.threshold_crossings(2);
        let joins = crossings.iter().filter(|&&(_, _, up)| up).count();
        let leaves = crossings.iter().filter(|&&(_, _, up)| !up).count();
        assert_eq!(joins, 4);
        assert_eq!(leaves, 4);
    }

    #[test]
    fn drain_preserves_sequence_numbers() {
        let engine: OrderCore = OrderCore::new(fixtures::path(5), 1);
        let mut j = Journaled::new(engine);
        j.insert_edge(0, 2).unwrap();
        let first = j.drain();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].seq, 0);
        j.insert_edge(0, 3).unwrap();
        assert_eq!(j.entries()[0].seq, 1);
    }

    #[test]
    fn batched_replay_reproduces_the_engine() {
        // Journal a mixed stream on one engine, replay it batched onto a
        // fresh engine: cores must agree at the end.
        let base = fixtures::two_cliques_bridge();
        let mut j: Journaled<OrderCore> = Journaled::new(OrderCore::new(base.clone(), 1));
        j.insert_edge(0, 5).unwrap();
        j.insert_edge(1, 6).unwrap();
        j.insert_edge(2, 7).unwrap();
        j.remove_edge(0, 5).unwrap();
        j.insert_edge(0, 4).unwrap();
        j.remove_edge(1, 6).unwrap();

        for max_batch in [1, 2, 64] {
            let mut replayed: OrderCore = OrderCore::new(base.clone(), 9);
            let stats = replay_batched(&mut replayed, j.events(), max_batch);
            assert_eq!(stats.skipped, 0, "journaled events are always valid");
            assert_eq!(replayed.cores(), j.engine().cores());
            replayed.validate();
        }
    }

    #[test]
    fn drain_since_ships_each_entry_exactly_once() {
        let engine: OrderCore = OrderCore::new(fixtures::path(8), 1);
        let mut j = Journaled::new(engine);
        let mut cursor = j.next_seq();
        let mut shipped: Vec<u64> = Vec::new();
        let mut ship = |j: &mut Journaled<OrderCore>, cursor: &mut u64| {
            let tail = j.drain_since(*cursor);
            for e in &tail {
                shipped.push(e.seq);
            }
            *cursor = j.next_seq();
        };
        j.insert_edge(0, 2).unwrap();
        j.insert_edge(0, 3).unwrap();
        ship(&mut j, &mut cursor);
        // Nothing new: a second round with the same cursor ships nothing.
        ship(&mut j, &mut cursor);
        j.remove_edge(0, 2).unwrap();
        j.insert_batch(&[(0, 4), (1, 5), (0, 4)]); // dup journaled too
        ship(&mut j, &mut cursor);
        // Monotone, gap-free, complete: exactly seqs 0..next_seq.
        assert_eq!(shipped, (0..j.next_seq()).collect::<Vec<u64>>());
        assert_eq!(shipped.len(), 6);
    }

    #[test]
    fn cursor_stays_monotone_across_index_snapshots() {
        // The ingest shape: ship, persist the index, keep updating, ship
        // again — and after a restore, resume the sequence where the old
        // journal left off via `with_start_seq`.
        let mut j: Journaled<OrderCore> = Journaled::new(OrderCore::new(fixtures::path(6), 2));
        j.insert_edge(0, 2).unwrap();
        j.insert_edge(3, 5).unwrap();
        let mut cursor = 0u64;
        let first = j.drain_since(cursor);
        cursor = j.next_seq();
        assert_eq!(first.last().unwrap().seq, 1);

        // Persist the index mid-stream; the journal cursor is unaffected.
        let mut buf = Vec::new();
        j.engine().save(&mut buf).unwrap();
        j.insert_edge(1, 4).unwrap();
        let second = j.drain_since(cursor);
        cursor = j.next_seq();
        assert_eq!(second.iter().map(|e| e.seq).collect::<Vec<_>>(), [2]);

        // Restore from the snapshot + resume at the shipped cursor: new
        // entries continue the sequence with no overlap and no gap.
        let restored: OrderCore = OrderCore::load(&buf[..], 2).unwrap();
        let mut resumed = Journaled::with_start_seq(restored, cursor);
        assert_eq!(resumed.next_seq(), 3);
        resumed.insert_edge(1, 3).unwrap();
        let third = resumed.drain_since(cursor);
        assert_eq!(third.iter().map(|e| e.seq).collect::<Vec<_>>(), [3]);
    }

    #[test]
    fn batch_journaling_records_events_and_net_transitions() {
        let mut j: Journaled<OrderCore> = Journaled::new(OrderCore::new(fixtures::path(4), 1));
        // Closing the cycle promotes all four vertices to the 2-core.
        let stats = j.insert_batch(&[(3, 0), (0, 2), (2, 2)]);
        assert_eq!(stats.skipped, 1, "self-loop skipped by the engine");
        let es = j.entries();
        assert_eq!(es.len(), 3, "every submitted edge journaled");
        assert_eq!(es[0].event, GraphEvent::EdgeInserted(3, 0));
        assert_eq!(es[2].event, GraphEvent::EdgeInserted(2, 2));
        // Net transitions ride on the last entry of the batch.
        assert!(es[0].transitions.is_empty() && es[1].transitions.is_empty());
        assert_eq!(es[2].transitions.len(), 4);
        assert!(es[2].transitions.iter().all(|&(_, o, n)| o == 1 && n == 2));
        // And the events replay to the same engine state.
        let mut replayed: OrderCore = OrderCore::new(fixtures::path(4), 7);
        let rs = replay_batched(&mut replayed, j.events(), 64);
        assert_eq!(rs.skipped, 1, "journaled dup skipped identically");
        assert_eq!(replayed.cores(), j.engine().cores());
    }

    #[test]
    fn planned_replay_matches_sequential_replay() {
        // ROADMAP PR-4 leftover: journal-replay batch sizes flow through
        // the planner. Replaying through a `PlannedCore` under
        // `PlanPolicy::Auto` (every batch priced, possibly recomputed)
        // must be bit-identical to an event-at-a-time sequential replay.
        use crate::{PlanPolicy, PlannedCore};
        use kcore_gen::{barabasi_albert, churn_stream};

        let base = barabasi_albert(120, 3, 21);
        let mut j: Journaled<OrderCore> = Journaled::new(OrderCore::new(base.clone(), 1));
        for b in churn_stream(&base, 12, 9, 6, 33) {
            j.insert_batch(&b.inserts);
            j.remove_batch(&b.removes);
        }

        // Sequential oracle: one event at a time on a plain engine.
        let mut seq_engine: OrderCore = OrderCore::new(base.clone(), 5);
        let seq_stats = replay_batched(&mut seq_engine, j.events(), 1);

        for max_batch in [4, 64, 1024] {
            let mut planned: PlannedCore =
                PlannedCore::with_policy(base.clone(), 9, PlanPolicy::Auto);
            let stats = replay_batched(&mut planned, j.events(), max_batch);
            assert_eq!(stats.skipped, seq_stats.skipped);
            assert_eq!(
                planned.cores(),
                seq_engine.cores(),
                "planned replay diverged at max_batch {max_batch}"
            );
            let decided = planned.planner_stats().batched_chosen
                + planned.planner_stats().split_chosen
                + planned.planner_stats().recompute_chosen;
            assert!(decided > 0, "replay batches must route through the planner");
            planned.validate();
        }
    }

    #[test]
    fn shadow_tracks_engine_exactly_under_churn() {
        let engine: OrderCore = OrderCore::new(fixtures::clique(6), 1);
        let mut j = Journaled::new(engine);
        let edges: Vec<(u32, u32)> = (0..6u32)
            .flat_map(|a| ((a + 1)..6).map(move |b| (a, b)))
            .collect();
        for &(a, b) in &edges {
            j.remove_edge(a, b).unwrap();
        }
        for &(a, b) in edges.iter().rev() {
            j.insert_edge(a, b).unwrap();
        }
        // net effect zero: transitions must cancel per vertex
        let mut net = vec![0i64; 6];
        for e in j.entries() {
            for &(v, old, new) in &e.transitions {
                net[v as usize] += new as i64 - old as i64;
            }
        }
        assert_eq!(net, vec![0; 6]);
        assert_eq!(j.engine().core_slice(), &[5, 5, 5, 5, 5, 5]);
    }
}
