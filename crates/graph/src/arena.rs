//! A flat adjacency arena: every neighbour list lives in **one**
//! contiguous backing buffer.
//!
//! The per-vertex `Vec<Vec<VertexId>>` representation costs one heap
//! allocation per vertex and scatters neighbour lists across the heap —
//! and neighbour scanning is the inner loop of every core-maintenance
//! algorithm in this workspace. [`AdjArena`] replaces it with:
//!
//! * one backing `Vec<VertexId>` (`buf`) holding every neighbour list;
//! * per-vertex `(offset, len, cap)` rows into that buffer;
//! * **one row-sizing rule**: compaction and batch reservation give a
//!   row of `len` neighbours a capacity of `len + max(len / 4, 2)`, so
//!   a freshly laid-out row absorbs a quarter of its degree (at least
//!   two edges) before it has to move;
//! * **amortised-doubling growth**: a [`AdjArena::push`] that outgrows
//!   its row relocates it to the end of the buffer with doubled
//!   capacity (the old row becomes a hole);
//! * **CSR-style compaction on demand**: when relocation holes outweigh
//!   the rows, the buffer is rebuilt in vertex order with every row
//!   re-sized by the rule above — which also restores scan locality.
//!   Compaction is **never** triggered implicitly by a mutation: callers
//!   invoke [`AdjArena::maintain`] at their own batch boundaries, so a
//!   churn-heavy stream pays the `O(live)` rebuild once per batch
//!   instead of as a latency spike in the middle of one;
//! * **batch pre-reservation** ([`AdjArena::reserve`]): a caller that
//!   knows how many neighbours a vertex is about to gain can size the
//!   row once, so the steady-state push path never allocates or
//!   relocates (the zero-per-edge-allocation guarantee the batched
//!   update engine relies on).
//!
//! Offsets are `u32`, capping the buffer at `2^32` half-edges (2 billion
//! undirected edges) — beyond the scale anything in this workspace
//! addresses, and half the per-slot metadata of `usize` offsets.

use crate::graph::VertexId;

/// Flat slack added to every [`AdjArena::maintain`] threshold so tiny
/// arenas never bother compacting.
const COMPACT_SLACK: usize = 4096;

/// Minimum slot capacity allocated on first growth.
const MIN_CAP: u32 = 4;

/// Spare capacity a row of `len` neighbours is laid out with, by
/// [`AdjArena::compact`] and [`AdjArena::reserve`]: a quarter of its
/// length, at least two.
#[inline]
fn headroom(len: u32) -> u32 {
    (len / 4).max(2)
}

/// Flat adjacency storage: one contiguous buffer, per-vertex slices.
#[derive(Clone, Default)]
pub struct AdjArena {
    /// Backing storage for every neighbour list.
    buf: Vec<VertexId>,
    /// Per-vertex slot start in `buf`.
    off: Vec<u32>,
    /// Per-vertex live length.
    len: Vec<u32>,
    /// Per-vertex slot capacity (`len <= cap`).
    cap: Vec<u32>,
    /// Sum of `len` — the number of live half-edges.
    live: usize,
    /// Sum of `cap` — the buffer entries owned by rows; the rest of the
    /// buffer is relocation holes.
    capacity: usize,
    /// Number of compactions performed so far (diagnostics; lets tests
    /// assert a removal batch compacts at most once).
    compactions: u64,
}

impl AdjArena {
    /// An empty arena with no vertices.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena with `n` empty neighbour lists.
    pub fn with_vertices(n: usize) -> Self {
        AdjArena {
            buf: Vec::new(),
            off: vec![0; n],
            len: vec![0; n],
            cap: vec![0; n],
            live: 0,
            capacity: 0,
            compactions: 0,
        }
    }

    /// An arena whose rows are empty but laid out for the given final
    /// lengths exactly as [`AdjArena::compact`] lays them out, so pushing
    /// up to `lens[v]` neighbours onto each row `v` fills it in place and
    /// leaves the compacted layout. A bulk builder sizes every row once.
    pub(crate) fn with_row_lengths(lens: &[u32]) -> Self {
        let mut off = Vec::with_capacity(lens.len());
        let mut cap = Vec::with_capacity(lens.len());
        let mut total = 0usize;
        for &l in lens {
            off.push(total as u32);
            cap.push(l + headroom(l));
            total += (l + headroom(l)) as usize;
            assert!(
                total <= u32::MAX as usize,
                "AdjArena backing buffer exceeds u32 offsets"
            );
        }
        AdjArena {
            buf: vec![0; total],
            off,
            len: vec![0; lens.len()],
            cap,
            live: 0,
            capacity: total,
            compactions: 0,
        }
    }

    /// Number of vertices (slots).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.off.len()
    }

    /// Live half-edge count (sum of list lengths, i.e. `2m`).
    #[inline]
    pub fn half_edges(&self) -> usize {
        self.live
    }

    /// Sum of the row capacities: live half-edges plus each row's spare
    /// room (diagnostics).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total backing-buffer entries: row capacities plus relocation
    /// holes (diagnostics).
    #[inline]
    pub fn backing_len(&self) -> usize {
        self.buf.len()
    }

    /// Appends one empty slot; returns its vertex id.
    pub fn push_vertex(&mut self) -> VertexId {
        let id = self.off.len() as VertexId;
        self.off.push(0);
        self.len.push(0);
        self.cap.push(0);
        id
    }

    /// Grows the vertex range so `v` is a valid slot.
    pub fn ensure_vertex(&mut self, v: VertexId) {
        let need = v as usize + 1;
        if need > self.off.len() {
            self.off.resize(need, 0);
            self.len.resize(need, 0);
            self.cap.resize(need, 0);
        }
    }

    /// Neighbour list of `v`.
    #[inline]
    pub fn slice(&self, v: VertexId) -> &[VertexId] {
        let vi = v as usize;
        let o = self.off[vi] as usize;
        &self.buf[o..o + self.len[vi] as usize]
    }

    /// Mutable neighbour list of `v`.
    #[inline]
    pub fn slice_mut(&mut self, v: VertexId) -> &mut [VertexId] {
        let vi = v as usize;
        let o = self.off[vi] as usize;
        &mut self.buf[o..o + self.len[vi] as usize]
    }

    /// List length of `v`.
    #[inline]
    pub fn len_of(&self, v: VertexId) -> usize {
        self.len[v as usize] as usize
    }

    /// Spare capacity of `v`'s slot.
    #[inline]
    pub fn spare(&self, v: VertexId) -> usize {
        let vi = v as usize;
        (self.cap[vi] - self.len[vi]) as usize
    }

    /// Relocates `v`'s list to the end of the buffer with capacity
    /// `new_cap` (callers guarantee `new_cap >= len`).
    #[cold]
    fn relocate(&mut self, vi: usize, new_cap: u32) {
        debug_assert!(new_cap >= self.len[vi]);
        let old_off = self.off[vi] as usize;
        let l = self.len[vi] as usize;
        let new_off = self.buf.len();
        assert!(
            new_off + new_cap as usize <= u32::MAX as usize,
            "AdjArena backing buffer exceeds u32 offsets"
        );
        self.buf.extend_from_within(old_off..old_off + l);
        // Fill the headroom so `buf.len()` always covers every slot.
        self.buf.resize(new_off + new_cap as usize, 0);
        self.off[vi] = new_off as u32;
        self.capacity = self.capacity - self.cap[vi] as usize + new_cap as usize;
        self.cap[vi] = new_cap;
    }

    /// Ensures `v`'s slot can take `additional` more neighbours without
    /// relocating. One relocation at most — this is the batch
    /// pre-reservation hook. A row that must move is sized for its new
    /// length plus the same headroom [`AdjArena::compact`] gives it.
    pub fn reserve(&mut self, v: VertexId, additional: usize) {
        let vi = v as usize;
        let need = self.len[vi] as u64 + additional as u64;
        if need > self.cap[vi] as u64 {
            let need = u32::try_from(need)
                .ok()
                .and_then(|n| n.checked_add(headroom(n)))
                .expect("AdjArena slot capacity exceeds u32 offsets");
            self.relocate(vi, need);
        }
    }

    /// Appends `w` to `v`'s list (amortised `O(1)`; relocates with
    /// doubled capacity when the slot is full).
    #[inline]
    pub fn push(&mut self, v: VertexId, w: VertexId) {
        let vi = v as usize;
        if self.len[vi] == self.cap[vi] {
            let new_cap = (self.cap[vi] * 2).max(MIN_CAP);
            self.relocate(vi, new_cap);
        }
        let slot = self.off[vi] as usize + self.len[vi] as usize;
        self.buf[slot] = w;
        self.len[vi] += 1;
        self.live += 1;
    }

    /// Removes the element at `idx` of `v`'s list by swapping the last
    /// element into its place (`O(1)`, order not preserved).
    #[inline]
    pub fn swap_remove(&mut self, v: VertexId, idx: usize) -> VertexId {
        let vi = v as usize;
        let l = self.len[vi] as usize;
        debug_assert!(idx < l);
        let o = self.off[vi] as usize;
        let removed = self.buf[o + idx];
        self.buf[o + idx] = self.buf[o + l - 1];
        self.len[vi] -= 1;
        self.live -= 1;
        removed
    }

    /// Position of `w` in `v`'s list.
    #[inline]
    pub fn position(&self, v: VertexId, w: VertexId) -> Option<usize> {
        self.slice(v).iter().position(|&x| x == w)
    }

    /// The explicit compaction policy hook: compacts when the backing
    /// buffer exceeds `max_hole_ratio * capacity + slack` entries, i.e.
    /// when relocation holes outweigh the rows' own capacity by
    /// `max_hole_ratio - 1`. Returns whether a compaction ran.
    ///
    /// Only holes count: a row's spare capacity (the headroom
    /// [`AdjArena::compact`] lays out, or room a removal left behind) is
    /// part of the row, so a just-compacted arena never trips this check
    /// however small its degrees, and a row whose degree falls keeps its
    /// room until a compaction runs for other reasons.
    ///
    /// Mutations never compact on their own; batch writers call this once
    /// per batch (and single-edge engines once per update — the check is
    /// `O(1)`), which turns the `O(live)` rebuild from a mid-batch latency
    /// spike into a scheduled, amortised step.
    pub fn maintain(&mut self, max_hole_ratio: f64) -> bool {
        debug_assert!(max_hole_ratio >= 1.0, "ratio below 1.0 compacts always");
        if self.buf.len() as f64 > max_hole_ratio * self.capacity as f64 + COMPACT_SLACK as f64 {
            self.compact();
            return true;
        }
        false
    }

    /// Number of compactions performed over this arena's lifetime.
    #[inline]
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Rebuilds the buffer in vertex order (CSR layout), dropping every
    /// hole and restoring sequential-scan locality. Each row of `len`
    /// neighbours gets capacity `len + max(len / 4, 2)`, and the buffer is
    /// exactly the sum of those capacities. `O(n + live)`.
    pub fn compact(&mut self) {
        let total: usize = self.len.iter().map(|&l| (l + headroom(l)) as usize).sum();
        assert!(
            total <= u32::MAX as usize,
            "AdjArena backing buffer exceeds u32 offsets"
        );
        let mut new_buf = Vec::with_capacity(total);
        for vi in 0..self.off.len() {
            let o = self.off[vi] as usize;
            let l = self.len[vi];
            self.off[vi] = new_buf.len() as u32;
            self.cap[vi] = l + headroom(l);
            new_buf.extend_from_slice(&self.buf[o..o + l as usize]);
            new_buf.resize(new_buf.len() + headroom(l) as usize, 0);
        }
        self.buf = new_buf;
        self.capacity = total;
        self.compactions += 1;
    }

    /// Verifies slot invariants (tests / debug).
    pub fn check(&self) -> Result<(), String> {
        let n = self.off.len();
        if self.len.len() != n || self.cap.len() != n {
            return Err("slot vectors disagree on n".into());
        }
        let (mut live, mut capacity) = (0usize, 0usize);
        for vi in 0..n {
            if self.len[vi] > self.cap[vi] {
                return Err(format!("len > cap at vertex {vi}"));
            }
            let end = self.off[vi] as usize + self.cap[vi] as usize;
            if end > self.buf.len() {
                return Err(format!("slot of vertex {vi} overruns the buffer"));
            }
            live += self.len[vi] as usize;
            capacity += self.cap[vi] as usize;
        }
        if live != self.live {
            return Err(format!(
                "live count mismatch: counted {live}, stored {}",
                self.live
            ));
        }
        if capacity != self.capacity {
            return Err(format!(
                "capacity mismatch: counted {capacity}, stored {}",
                self.capacity
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
impl AdjArena {
    /// Verifies the layout [`AdjArena::compact`] leaves: rows in vertex
    /// order, back to back, each of capacity `len + headroom(len)`, and
    /// a buffer that is exactly the sum of the capacities.
    pub(crate) fn check_compacted(&self) -> Result<(), String> {
        self.check()?;
        let mut at = 0usize;
        for vi in 0..self.off.len() {
            if self.off[vi] as usize != at {
                return Err(format!("row {vi} starts at {}, not {at}", self.off[vi]));
            }
            let want = self.len[vi] + headroom(self.len[vi]);
            if self.cap[vi] != want {
                return Err(format!(
                    "row {vi} has capacity {}, not {want}",
                    self.cap[vi]
                ));
            }
            at += want as usize;
        }
        if self.buf.len() != at || self.capacity != at {
            return Err(format!(
                "buffer {} / capacity {} != rows {at}",
                self.buf.len(),
                self.capacity
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_slice_roundtrip() {
        let mut a = AdjArena::with_vertices(3);
        a.push(0, 5);
        a.push(1, 6);
        a.push(0, 7);
        a.push(2, 8);
        a.push(0, 9);
        assert_eq!(a.slice(0), &[5, 7, 9]);
        assert_eq!(a.slice(1), &[6]);
        assert_eq!(a.slice(2), &[8]);
        assert_eq!(a.half_edges(), 5);
        a.check().unwrap();
    }

    #[test]
    fn growth_relocates_and_preserves_content() {
        let mut a = AdjArena::with_vertices(2);
        for i in 0..100u32 {
            a.push(0, i);
            a.push(1, 1000 + i);
        }
        assert_eq!(a.slice(0), (0..100).collect::<Vec<_>>().as_slice());
        assert_eq!(a.slice(1), (1000..1100).collect::<Vec<_>>().as_slice());
        a.check().unwrap();
    }

    #[test]
    fn swap_remove_behaves_like_vec() {
        let mut a = AdjArena::with_vertices(1);
        for i in 0..5u32 {
            a.push(0, i);
        }
        let mut model = vec![0u32, 1, 2, 3, 4];
        assert_eq!(a.swap_remove(0, 1), model.swap_remove(1));
        assert_eq!(a.slice(0), model.as_slice());
        assert_eq!(a.swap_remove(0, 3), model.swap_remove(3));
        assert_eq!(a.slice(0), model.as_slice());
        a.check().unwrap();
    }

    #[test]
    fn reserve_prevents_relocation() {
        let mut a = AdjArena::with_vertices(2);
        a.push(0, 1);
        a.reserve(0, 50);
        let off_before = a.off[0];
        for i in 0..50u32 {
            a.push(0, i);
        }
        assert_eq!(a.off[0], off_before, "reserve should pre-size the slot");
        assert_eq!(a.len_of(0), 51);
        a.check().unwrap();
    }

    /// Every row's contents, by vertex.
    fn rows(a: &AdjArena) -> Vec<Vec<u32>> {
        (0..a.num_vertices() as u32)
            .map(|v| a.slice(v).to_vec())
            .collect()
    }

    /// Grows every one of `n` rows to `len` neighbours one reserved edge
    /// at a time: each reservation that does not fit moves the row with
    /// only headroom to spare, so the old rows pile up as holes.
    fn reserved_rows(n: usize, len: u32) -> AdjArena {
        let mut a = AdjArena::with_vertices(n);
        for v in 0..n as u32 {
            for i in 0..len {
                a.reserve(v, 1);
                a.push(v, i);
            }
        }
        a
    }

    #[test]
    fn compact_drops_holes() {
        let mut a = AdjArena::with_vertices(8);
        for v in 0..8u32 {
            for i in 0..20u32 + v {
                a.push(v, i);
            }
        }
        let before = rows(&a);
        assert!(a.backing_len() > a.capacity(), "doubling must leave holes");
        a.compact();
        a.check_compacted().unwrap();
        assert_eq!(rows(&a), before);
        a.check().unwrap();
    }

    #[test]
    fn compact_gives_empty_and_small_rows_headroom() {
        let mut a = AdjArena::with_vertices(3);
        a.push(1, 7);
        for i in 0..12u32 {
            a.push(2, i);
        }
        a.compact();
        a.check_compacted().unwrap();
        assert_eq!((a.spare(0), a.spare(1), a.spare(2)), (2, 2, 3));
        assert_eq!(a.capacity(), 2 + 3 + 15);
    }

    #[test]
    fn reserve_sizes_a_moved_row_with_headroom() {
        let mut a = AdjArena::with_vertices(1);
        a.push(0, 1);
        a.reserve(0, 39);
        // 40 neighbours after the batch, plus a quarter of that.
        assert_eq!(a.spare(0), 39 + 10);
        a.reserve(0, 49);
        assert_eq!(a.spare(0), 49, "a row that fits does not move");
        a.check().unwrap();
    }

    #[test]
    fn maintain_compacts_only_past_the_ratio() {
        let mut a = reserved_rows(64, 300);
        assert_eq!(a.compactions(), 0, "no mutation may compact implicitly");
        assert!(a.backing_len() > 2 * a.capacity() + COMPACT_SLACK);
        let before = rows(&a);
        // A huge ratio tolerates the holes…
        assert!(!a.maintain(1.0e6));
        assert_eq!(a.compactions(), 0);
        // …the default ratio does not.
        assert!(a.maintain(2.0));
        assert_eq!(a.compactions(), 1);
        a.check_compacted().unwrap();
        assert_eq!(rows(&a), before);
        // Idempotent once laid out.
        assert!(!a.maintain(2.0));
        // Removals leave no holes: trimmed rows keep their room, and
        // nothing trips.
        for v in 0..64u32 {
            while a.len_of(v) > 2 {
                a.swap_remove(v, 0);
            }
        }
        assert!(!a.maintain(2.0));
        assert_eq!(a.compactions(), 1);
        a.check().unwrap();
    }

    #[test]
    fn compacted_matching_does_not_trip_maintain() {
        // A perfect matching: every row holds one neighbour, so headroom
        // is twice the live data — a live-based trigger would fire on
        // every check.
        let n = 20_000u32;
        let mut a = AdjArena::with_vertices(n as usize);
        for v in (0..n).step_by(2) {
            a.push(v, v + 1);
            a.push(v + 1, v);
        }
        a.compact();
        a.check_compacted().unwrap();
        assert!(a.backing_len() > 2 * a.half_edges() + COMPACT_SLACK);
        assert!(!a.maintain(2.0));
        assert_eq!(a.compactions(), 1);
    }

    #[test]
    fn ensure_vertex_grows_slots() {
        let mut a = AdjArena::new();
        a.ensure_vertex(3);
        assert_eq!(a.num_vertices(), 4);
        a.push(3, 1);
        assert_eq!(a.slice(3), &[1]);
        a.check().unwrap();
    }

    #[test]
    fn empty_slices_are_fine() {
        let a = AdjArena::with_vertices(4);
        for v in 0..4u32 {
            assert!(a.slice(v).is_empty());
        }
    }
}
