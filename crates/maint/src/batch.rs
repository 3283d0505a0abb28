//! The batched update engine.
//!
//! Real update traffic (streaming graphs, temporal edge logs, journal
//! replay) arrives in batches, and a batch admits optimisations a
//! single-edge API cannot express:
//!
//! * **adjacency pre-reservation** — per-vertex degree deltas are counted
//!   up front and every touched [`AdjArena`](kcore_graph::AdjArena) slot
//!   is sized once, so the steady-state per-edge path performs zero heap
//!   allocation and zero slot relocation;
//! * **one pass per affected level** — all Lemma 5.1 violators of a
//!   level are resolved by a single multi-seed promotion pass (ascending,
//!   with an upward cascade), and all dismissible vertices of a level by
//!   a single multi-seed dismissal pass (descending, with a downward
//!   cascade) — instead of one pass per edge;
//! * **`O(1)` root tests** — between promotion/dismissal passes the
//!   k-order is frozen, and every same-level root test compares two
//!   `A_k` labels ([`kcore_order::TagList`]) instead of walking a tree —
//!   hubs in power-law batches hit this constantly;
//! * **Lemma 5.2 short-circuit** — no-op edges (the vast majority, see
//!   Fig 10b of the paper) are counted and dropped before any order
//!   structure is touched;
//! * **shared scratch** — the min-heap `B`, candidate set `VC`, and the
//!   epoch-stamped scratch arrays live on the engine and are reused
//!   across the whole batch (no per-edge setup beyond an epoch bump);
//! * **scheduled compaction** — removal batches consider adjacency-arena
//!   compaction exactly once, between the apply and pass phases, instead
//!   of risking a latency spike inside a per-edge hot loop.
//!
//! Unlike the single-edge API, the batch entry points **skip** invalid
//! entries (self loops, duplicates — also within the batch —, missing
//! edges, out-of-range endpoints) instead of erroring, counting them in
//! [`UpdateStats::skipped`]: a stream replayer wants throughput, not a
//! transaction abort on the first dirty record. The single-edge
//! [`OrderCore::insert_edge`] / [`OrderCore::remove_edge`] report each
//! invalid edge as an error.
//!
//! Core numbers of the final graph are order-independent, so neither the
//! deferred passes nor the merged per-level walks change any observable
//! core value — property-tested in `tests/proptest_maint.rs` against both
//! edge-at-a-time updates and a from-scratch decomposition.

use crate::order_core::OrderCore;
use kcore_graph::{VertexId, DEFAULT_MAX_HOLE_RATIO};
use kcore_order::OrderSeq;
use kcore_traversal::UpdateStats;

impl<S: OrderSeq> OrderCore<S> {
    /// Inserts a batch of edges, updating core numbers and the k-order.
    /// Invalid entries (self loops, duplicate edges — including
    /// duplicates within `edges` —, unknown endpoints) are skipped and
    /// counted in [`UpdateStats::skipped`]. Returns aggregate stats for
    /// the whole batch.
    ///
    /// Works in two phases. The **apply phase** admits every edge into
    /// the (pre-reserved) adjacency arena, updates `mcd`, and bumps the
    /// root's `deg⁺` — all against the *frozen* k-order, so every
    /// same-level root test is one `A_k` order-key compare. Roots left
    /// violating Lemma 5.1 (`deg⁺ > core`) are collected as dirty. The
    /// **pass phase** then runs one multi-seed promotion pass per dirty
    /// level, ascending, instead of one pass per edge: seeds at the
    /// lowest dirty level are resolved together, and promoted vertices
    /// that still violate at the next level (a batch can raise a core by
    /// more than one) cascade upward until Lemma 5.1 holds everywhere.
    pub fn insert_edges(&mut self, edges: &[(VertexId, VertexId)]) -> UpdateStats {
        let mut stats = UpdateStats::default();
        if edges.is_empty() {
            return stats;
        }
        self.insert_apply_phase(edges, &mut stats);
        self.insert_pass_phase(&mut stats);
        stats
    }

    /// The apply phase of batched insertion (see
    /// [`OrderCore::insert_edges`]): admits every valid edge against the
    /// frozen k-order and collects the Lemma 5.1 violators into the
    /// reusable `batch_seeds` scratch, which `insert_pass_phase`
    /// consumes.
    fn insert_apply_phase(&mut self, edges: &[(VertexId, VertexId)], stats: &mut UpdateStats) {
        let n = self.graph.num_vertices() as VertexId;

        // Range/self-loop filter, into the reusable edge scratch.
        let mut batch = std::mem::take(&mut self.edge_scratch);
        batch.clear();
        for &(u, v) in edges {
            if u == v || u >= n || v >= n {
                stats.skipped += 1;
                continue;
            }
            batch.push((u, v));
        }

        // Pre-reserve adjacency slots from the batch's per-vertex degree
        // deltas (duplicates overcount slightly — harmless headroom).
        let mut endpoints = std::mem::take(&mut self.endpoint_scratch);
        endpoints.clear();
        for &(u, v) in &batch {
            endpoints.push(u);
            endpoints.push(v);
        }
        endpoints.sort_unstable();
        let mut i = 0;
        while i < endpoints.len() {
            let v = endpoints[i];
            let mut j = i + 1;
            while j < endpoints.len() && endpoints[j] == v {
                j += 1;
            }
            self.graph.reserve_neighbors(v, j - i);
            i = j;
        }
        self.endpoint_scratch = endpoints;

        // ---- apply phase (k-order frozen) ----
        let dirty_epoch = self.bump_epoch();
        self.batch_seeds.clear();
        for &(u, v) in &batch {
            if self.graph.has_edge(u, v) {
                stats.skipped += 1;
                continue;
            }
            self.graph.insert_edge_unchecked(u, v);

            // mcd reflects the new edge immediately (old core numbers).
            let (cu, cv) = (self.core[u as usize], self.core[v as usize]);
            if cv >= cu {
                self.mcd[u as usize] += 1;
            }
            if cu >= cv {
                self.mcd[v as usize] += 1;
            }

            // Root = earlier endpoint in k-order; same-level ties compare
            // A_k order keys.
            let root = if cu < cv {
                u
            } else if cv < cu {
                v
            } else if self.order_key(u) < self.order_key(v) {
                u
            } else {
                v
            };
            let ri = root as usize;
            self.deg_plus[ri] += 1;
            if self.deg_plus[ri] <= self.core[ri] {
                // Lemma 5.2: the k-order absorbs this edge unchanged.
                stats.noop += 1;
            } else if self.touch_mark[ri] != dirty_epoch {
                self.touch_mark[ri] = dirty_epoch;
                self.batch_seeds.push(root);
            }
        }
        self.edge_scratch = batch;
    }

    /// The pass phase of batched insertion: one multi-seed promotion pass
    /// per dirty level, ascending, consuming the seeds the apply phase
    /// left in `batch_seeds`.
    fn insert_pass_phase(&mut self, stats: &mut UpdateStats) {
        let mut dirty = std::mem::take(&mut self.batch_seeds);
        let mut seeds = std::mem::take(&mut self.level_seeds);
        while !dirty.is_empty() {
            // Drop roots a previous pass already resolved (demoted back
            // under the Lemma 5.1 budget, or promoted past the violation).
            dirty.retain(|&v| self.deg_plus[v as usize] > self.core[v as usize]);
            let Some(k) = dirty.iter().map(|&v| self.core[v as usize]).min() else {
                break;
            };
            seeds.clear();
            seeds.extend(
                dirty
                    .iter()
                    .copied()
                    .filter(|&v| self.core[v as usize] == k),
            );
            dirty.retain(|&v| self.core[v as usize] != k);
            self.promote_pass(&seeds, k, stats);
            // Upward cascade: the pass can promote vertices that still
            // violate at level `k + 1` (a batch may raise a core by more
            // than one) — those re-enter the dirty pool.
            dirty.extend(
                self.vstar
                    .iter()
                    .copied()
                    .filter(|&w| self.deg_plus[w as usize] > self.core[w as usize]),
            );
        }
        dirty.clear();
        self.batch_seeds = dirty;
        self.level_seeds = seeds;
    }

    /// Removes a batch of edges, updating core numbers and the k-order.
    /// Invalid entries (self loops, absent edges — including edges removed
    /// earlier in the same batch —, unknown endpoints) are skipped and
    /// counted in [`UpdateStats::skipped`]. Returns aggregate stats.
    ///
    /// The mirror image of [`OrderCore::insert_edges`]. The **apply
    /// phase** deletes every batch edge from the graph and repairs `mcd`
    /// plus the earlier endpoint's `deg⁺` against the *frozen* k-order
    /// (same-level ties compare `A_k` order keys), collecting the union of
    /// dismissible vertices as per-level seed sets. The **pass phase**
    /// then runs **one multi-seed dismissal pass per affected level,
    /// descending**: all seeds of a level peel together into one `V*`
    /// instead of one walk per edge, and a vertex dismissed from level
    /// `k` whose `mcd` already violates at `k − 1` (a batch can drop a
    /// core by more than one) is re-seeded into the `k − 1` pass — the
    /// downward cascade matching batched insertion's upward one.
    /// Adjacency-arena compaction is considered once per batch, between
    /// the two phases, never in the middle of the apply loop.
    pub fn remove_edges(&mut self, edges: &[(VertexId, VertexId)]) -> UpdateStats {
        let mut stats = UpdateStats::default();
        if edges.is_empty() {
            return stats;
        }
        self.remove_apply_phase(edges, &mut stats);
        self.remove_pass_phase(&mut stats);
        stats
    }

    /// The apply phase of batched removal: deletes every valid edge and
    /// repairs `mcd`/`deg⁺` against the frozen k-order, pooling
    /// dismissible vertices into the reusable `batch_seeds` scratch, then
    /// considers arena compaction once; `remove_pass_phase` consumes the
    /// pool.
    fn remove_apply_phase(&mut self, edges: &[(VertexId, VertexId)], stats: &mut UpdateStats) {
        let n = self.graph.num_vertices() as VertexId;

        // ---- apply phase (k-order frozen) ----
        let dirty_epoch = self.bump_epoch();
        self.batch_seeds.clear();
        for &(u, v) in edges {
            if u == v || u >= n || v >= n {
                stats.skipped += 1;
                continue;
            }
            // One adjacency scan decides presence and deletes: absent
            // edges surface as `Missing` instead of a separate probe.
            if self.graph.remove_edge(u, v).is_err() {
                stats.skipped += 1;
                continue;
            }

            let (cu, cv) = (self.core[u as usize], self.core[v as usize]);
            debug_assert!(cu >= 1 && cv >= 1, "an incident edge implies core >= 1");
            // mcd loses the removed edge immediately (old core numbers).
            if cu <= cv {
                self.mcd[u as usize] -= 1;
            }
            if cv <= cu {
                self.mcd[v as usize] -= 1;
            }
            // The earlier endpoint counted the later one in deg⁺;
            // same-level ties compare A_k order keys.
            let earlier = if cu < cv {
                u
            } else if cv < cu {
                v
            } else if self.order_key(u) < self.order_key(v) {
                u
            } else {
                v
            };
            self.deg_plus[earlier as usize] -= 1;

            // A vertex becomes a dismissal seed the moment its mcd drops
            // below its core; each enters the pool once.
            let mut dirty = false;
            for x in [u, v] {
                let xi = x as usize;
                if self.mcd[xi] < self.core[xi] {
                    dirty = true;
                    if self.touch_mark[xi] != dirty_epoch {
                        self.touch_mark[xi] = dirty_epoch;
                        self.batch_seeds.push(x);
                    }
                }
            }
            if !dirty {
                // The k-order absorbs this edge unchanged — the removal
                // mirror of the Lemma 5.2 short-circuit.
                stats.noop += 1;
            }
        }

        // One compaction opportunity per batch, before the passes rescan
        // the touched neighbourhoods (ideally laid out in vertex order).
        self.graph.maintain_adjacency(DEFAULT_MAX_HOLE_RATIO);
    }

    /// The pass phase of batched removal: one multi-seed dismissal pass
    /// per affected level, descending, consuming the pool the apply phase
    /// left in `batch_seeds`.
    fn remove_pass_phase(&mut self, stats: &mut UpdateStats) {
        let mut pool = std::mem::take(&mut self.batch_seeds);
        let mut seeds = std::mem::take(&mut self.level_seeds);
        while !pool.is_empty() {
            // Drop seeds a previous pass already resolved (peeled away as
            // a neighbour of another seed, restoring mcd >= core).
            pool.retain(|&x| self.mcd[x as usize] < self.core[x as usize]);
            let Some(k) = pool.iter().map(|&x| self.core[x as usize]).max() else {
                break;
            };
            seeds.clear();
            seeds.extend(pool.iter().copied().filter(|&x| self.core[x as usize] == k));
            pool.retain(|&x| self.core[x as usize] != k);
            self.dismiss_pass(&seeds, k, stats);
            // Downward cascade: a vertex dismissed from level `k` whose
            // `mcd` already violates at `k − 1` re-seeds the `k − 1` pass.
            pool.extend(
                self.vstar
                    .iter()
                    .copied()
                    .filter(|&w| self.mcd[w as usize] < self.core[w as usize]),
            );
        }
        pool.clear();
        self.batch_seeds = pool;
        self.level_seeds = seeds;
    }
}

#[cfg(test)]
mod tests {
    use crate::OrderCore;
    use kcore_decomp::core_decomposition;
    use kcore_graph::fixtures;

    #[test]
    fn batch_insert_matches_sequential() {
        // Second input: two islands with no path between them, a K5
        // (core 4) and a K4 (core 3), plus an isolated vertex 9 that the
        // chords wire into both. Vertex 9 climbs from core 0 to 3 in one
        // batch and falls back in the next: one pass per level crossed.
        let mut islands = fixtures::clique(5);
        for _ in 0..5 {
            islands.add_vertex();
        }
        for a in 5..9u32 {
            for b in (a + 1)..9 {
                islands.insert_edge(a, b).unwrap();
            }
        }
        // (graph, batch, (insert passes, removal passes))
        let inputs = [
            (
                fixtures::path(12),
                vec![(0, 11), (2, 9), (3, 8), (1, 10), (4, 7)],
                (1, 1),
            ),
            (
                islands,
                vec![(9, 0), (9, 1), (9, 2), (9, 5), (9, 6), (9, 7)],
                (4, 3),
            ),
        ];
        for (g, edges, (insert_passes, removal_passes)) in inputs {
            let mut batched: OrderCore = OrderCore::new(g.clone(), 1);
            let stats = batched.insert_edges(&edges);
            assert_eq!(stats.skipped, 0);
            assert_eq!(stats.passes, insert_passes);
            let mut seq: OrderCore = OrderCore::new(g, 1);
            for &(u, v) in &edges {
                seq.insert_edge(u, v).unwrap();
            }
            assert_eq!(batched.cores(), seq.cores());
            batched.validate();

            // Removal mirror: tear the same edges back out.
            let stats = batched.remove_edges(&edges);
            assert_eq!(stats.skipped, 0);
            assert_eq!(stats.passes, removal_passes);
            for &(u, v) in &edges {
                seq.remove_edge(u, v).unwrap();
            }
            assert_eq!(batched.cores(), seq.cores());
            assert_eq!(batched.cores(), &core_decomposition(batched.graph())[..]);
            batched.validate();
        }
    }

    #[test]
    fn batch_insert_skips_invalid_entries() {
        let mut oc: OrderCore = OrderCore::new(fixtures::triangle(), 1);
        // self loop, duplicate of an existing edge, in-batch duplicate,
        // out-of-range endpoint — all skipped, the one good edge lands.
        let stats = oc.insert_edges(&[(0, 0), (0, 1), (99, 1), (2, 2)]);
        assert_eq!(stats.skipped, 4);
        let before = oc.graph().num_edges();
        let stats = oc.insert_edges(&[(1, 2), (2, 1)]);
        // (1,2) already exists; (2,1) is its duplicate too
        assert_eq!(stats.skipped, 2);
        assert_eq!(oc.graph().num_edges(), before);
        oc.validate();
    }

    #[test]
    fn batch_insert_promotes_like_decomposition() {
        // Close a long cycle and add chords: multiple promotions in one
        // batch, compared against a from-scratch decomposition.
        let g = fixtures::path(30);
        let mut oc: OrderCore = OrderCore::new(g, 7);
        let mut batch = vec![(0u32, 29u32)];
        for i in 0..28 {
            batch.push((i, i + 2));
        }
        let stats = oc.insert_edges(&batch);
        assert_eq!(stats.skipped, 0);
        assert!(stats.changed > 0);
        assert_eq!(oc.cores(), &core_decomposition(oc.graph())[..]);
        oc.validate();
    }

    #[test]
    fn batch_remove_matches_sequential() {
        let mut g = fixtures::clique(8);
        for i in 0..7u32 {
            let _ = g.insert_edge(i, i + 1); // already present; no-ops
        }
        let edges: Vec<(u32, u32)> = vec![(0, 1), (2, 3), (4, 5), (0, 2), (1, 3)];
        let mut batched: OrderCore = OrderCore::new(g.clone(), 3);
        let stats = batched.remove_edges(&edges);
        assert_eq!(stats.skipped, 0);
        let mut seq: OrderCore = OrderCore::new(g, 3);
        for &(u, v) in &edges {
            seq.remove_edge(u, v).unwrap();
        }
        assert_eq!(batched.cores(), seq.cores());
        batched.validate();
    }

    #[test]
    fn batch_remove_skips_invalid_entries() {
        let mut oc: OrderCore = OrderCore::new(fixtures::clique(4), 1);
        let stats = oc.remove_edges(&[(0, 1), (0, 1), (3, 3), (0, 99)]);
        // second (0,1) is already gone, (3,3) self loop, (0,99) range
        assert_eq!(stats.skipped, 3);
        assert_eq!(oc.graph().num_edges(), 5);
        oc.validate();
    }

    #[test]
    fn batch_remove_cascades_multiple_levels() {
        // Tearing the rim off a wheel-like graph drops hub cores by more
        // than one level in a single batch: the downward cascade must
        // re-seed dismissed vertices instead of leaving Lemma 5.1 broken.
        let mut g = fixtures::clique(6);
        let hub_edges: Vec<(u32, u32)> = (0..5u32)
            .flat_map(|a| ((a + 1)..6).map(move |b| (a, b)))
            .filter(|&(a, b)| a != 5 && b != 5)
            .collect();
        for i in 6..12u32 {
            g.add_vertex();
            let _ = g.insert_edge(i, 5);
        }
        let mut oc: OrderCore = OrderCore::new(g, 2);
        assert_eq!(oc.core(5), 5);
        // Remove every clique edge not touching vertex 5: its core falls
        // 5 -> 1 in one batch.
        let stats = oc.remove_edges(&hub_edges);
        assert_eq!(stats.skipped, 0);
        assert_eq!(oc.core(5), 1);
        assert_eq!(oc.cores(), &core_decomposition(oc.graph())[..]);
        oc.validate();
    }

    #[test]
    fn batch_remove_merges_passes_per_level() {
        // A 1k-edge removal batch on a power-law graph must run at most
        // one dismissal pass per affected level — not one per edge, which
        // is what the sequential loop pays.
        let g = kcore_gen::barabasi_albert(4_000, 4, 21);
        let max_core = *core_decomposition(&g).iter().max().unwrap();
        let batch: Vec<(u32, u32)> = g.edge_vec().into_iter().step_by(15).take(1_000).collect();
        assert_eq!(batch.len(), 1_000);

        let mut batched: OrderCore = OrderCore::new(g.clone(), 9);
        let stats = batched.remove_edges(&batch);
        assert_eq!(stats.skipped, 0);
        assert!(
            stats.passes <= max_core as usize,
            "dismissal passes ({}) must not exceed affected levels (≤ {max_core})",
            stats.passes
        );
        assert!(stats.changed > 0, "a 1k-edge tear must change some core");
        assert!(stats.merged_seeds >= stats.passes);

        // The sequential loop runs exactly one pass per removal.
        let mut seq: OrderCore = OrderCore::new(g, 9);
        let mut seq_stats = kcore_traversal::UpdateStats::default();
        for &(u, v) in &batch {
            seq_stats.absorb(seq.remove_edge(u, v).unwrap());
        }
        assert_eq!(seq_stats.passes, batch.len());
        assert_eq!(batched.cores(), seq.cores());
    }

    #[test]
    fn batch_remove_compacts_at_most_once() {
        // Grow a graph (relocation churn leaves arena holes), then remove
        // a large batch: per-edge removal must never compact mid-batch —
        // the policy hook runs once, between apply and pass phases.
        let g = kcore_gen::barabasi_albert(2_000, 8, 4);
        let mut oc: OrderCore = OrderCore::new(g, 1);
        let before = oc.graph().adjacency_compactions();
        let batch: Vec<(u32, u32)> = oc.graph().edge_vec().into_iter().step_by(2).collect();
        let stats = oc.remove_edges(&batch);
        assert_eq!(stats.skipped, 0);
        let after = oc.graph().adjacency_compactions();
        assert!(
            after - before <= 1,
            "one removal batch compacted {} times",
            after - before
        );
        oc.validate();
    }

    #[test]
    fn churn_compacts_a_pinned_number_of_times() {
        // A churn stream shaped like the durable ingest benchmark's:
        // BA(20k, 4), then 2,750 batches of 96 fresh inserts and 64
        // removals (440k events). The build lays the graph out once;
        // after that only relocation holes can trigger a compaction, and
        // at every batch boundary the buffer stays within twice the rows'
        // capacity plus the slack.
        let g = kcore_gen::barabasi_albert(20_000, 4, 0x6B_636F_7265);
        let stream = kcore_gen::churn_stream(&g, 2_750, 96, 64, 1);
        let mut oc: OrderCore = OrderCore::new(g, 1);
        assert_eq!(oc.graph().adjacency_compactions(), 1, "the build's layout");
        for b in &stream {
            oc.insert_edges(&b.inserts);
            oc.remove_edges(&b.removes);
            let (_, capacity, backing) = oc.graph().adjacency_footprint();
            assert!(
                backing <= 2 * capacity + 4096,
                "backing {backing} past twice the capacity {capacity}"
            );
        }
        assert_eq!(oc.graph().adjacency_compactions(), 2);
    }

    #[test]
    fn interleaved_batches_stay_valid() {
        let mut oc: OrderCore = OrderCore::new(fixtures::two_cliques_bridge(), 5);
        let inserts: Vec<(u32, u32)> = vec![(0, 5), (1, 6), (2, 7), (3, 4)];
        oc.insert_edges(&inserts);
        oc.validate();
        oc.remove_edges(&inserts);
        oc.validate();
        let reference = core_decomposition(oc.graph());
        assert_eq!(oc.cores(), &reference[..]);
    }

    #[test]
    fn empty_batches_are_free() {
        let mut oc: OrderCore = OrderCore::new(fixtures::triangle(), 1);
        let stats = oc.insert_edges(&[]);
        assert_eq!(stats, Default::default());
        let stats = oc.remove_edges(&[]);
        assert_eq!(stats, Default::default());
        oc.validate();
    }
}
