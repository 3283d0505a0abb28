//! The engine's `A_k`: one order-maintenance list with `u64` labels for
//! every level of the k-order, indexed by vertex id (list labelling after
//! Dietz & Sleator, STOC 1987, with the overflow thresholds of Bender et
//! al., "Two Simplified Algorithms for Maintaining Order in a List",
//! ESA 2002).
//!
//! Every vertex carries a label, a `next` and a `prev`, in one 16-byte
//! record indexed by vertex id; a level keeps only its head and tail. An
//! order test between two vertices of one level compares their
//! labels in `O(1)`. Labels live in `[0, 2^62)` and are assigned per
//! level:
//!
//! * the first vertex of an empty level takes the mid-universe label;
//! * an end insert (at the head, or at the tail — `insert_after` the tail
//!   included) steps one fixed stride (2³²) away from its neighbour, so a
//!   level built by tail appends is never relabelled;
//! * an interior insert takes the midpoint of its neighbours' labels;
//! * when no label is free, the smallest aligned range `[b, b + 2^i)`
//!   around the insertion point that holds at most `(2/T)^i` vertices of
//!   the level (the new one included) is relabelled evenly. The range
//!   grows outward from the insertion point with two cursors, so each
//!   wider range only scans the vertices it adds. With `T` = 1.4 the
//!   whole universe admits ~4·10⁹ vertices — more than `u32` ids
//!   address — so the search always ends.
//!
//! Only insertions relabel, and only vertices near the insertion point;
//! removal never touches a label.

use crate::{OrderSeq, NONE};

/// Labels live in `[0, 1 << UNIVERSE_BITS)`.
const UNIVERSE_BITS: u32 = 62;
const UNIVERSE: u64 = 1 << UNIVERSE_BITS;

/// Label distance of an end insert from the current head or tail.
const STRIDE: u64 = 1 << 32;

/// Bender et al.'s density parameter: a range of `2^i` labels overflows
/// above `(2/T)^i` vertices.
const T: f64 = 1.4;

/// A vertex's place in its level's list. One record, so that linking a
/// vertex in or out writes one cache line per vertex touched.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    label: u64,
    next: u32,
    prev: u32,
}

/// Ends of one level's list.
#[derive(Clone, Copy, Debug)]
struct Level {
    head: u32,
    tail: u32,
}

/// Order-maintenance lists over vertex ids, one per level. A vertex is
/// on at most one level at a time; callers name that level on insert and
/// remove. The order key of a vertex is its label.
#[derive(Clone, Debug, Default)]
pub struct TagList {
    /// Indexed by vertex id.
    slot: Vec<Slot>,
    levels: Vec<Level>,
    /// Labels rewritten by relabels so far (the new vertex included),
    /// over every level and across [`OrderSeq::clear`].
    relabels: u64,
}

impl OrderSeq for TagList {
    fn with_seed(_seed: u64) -> Self {
        Self::default()
    }

    fn clear(&mut self) {
        self.levels.clear();
    }

    #[inline]
    fn levels(&self) -> usize {
        self.levels.len()
    }

    fn push_level(&mut self) {
        self.levels.push(Level {
            head: NONE,
            tail: NONE,
        });
    }

    fn insert_first(&mut self, k: u32, v: u32) {
        self.link(k, NONE, self.levels[k as usize].head, v)
    }

    fn insert_last(&mut self, k: u32, v: u32) {
        self.link(k, self.levels[k as usize].tail, NONE, v)
    }

    fn insert_after(&mut self, k: u32, at: u32, v: u32) {
        self.link(k, at, self.slot[at as usize].next, v)
    }

    /// Unlinks `v`; no label changes.
    fn remove(&mut self, k: u32, v: u32) {
        let (prev, next) = (self.slot[v as usize].prev, self.slot[v as usize].next);
        let level = &mut self.levels[k as usize];
        debug_assert!(prev != NONE || level.head == v, "{v} is not on level {k}");
        if prev == NONE {
            level.head = next;
        } else {
            self.slot[prev as usize].next = next;
        }
        if next == NONE {
            level.tail = prev;
        } else {
            self.slot[next as usize].prev = prev;
        }
    }

    /// The label of `v`: strictly increasing along its level, and fixed
    /// until an insertion into that level relabels its neighbourhood.
    #[inline]
    fn key(&self, v: u32) -> u64 {
        self.slot[v as usize].label
    }

    fn iter(&self, k: u32) -> impl Iterator<Item = u32> + '_ {
        let head = self.levels[k as usize].head;
        std::iter::successors((head != NONE).then_some(head), move |&v| {
            let next = self.slot[v as usize].next;
            (next != NONE).then_some(next)
        })
    }

    fn relabels(&self) -> u64 {
        self.relabels
    }

    /// Checks, per level, link symmetry and strictly increasing
    /// in-universe labels, and that no vertex is on two levels.
    fn validate(&self) {
        let mut seen = vec![false; self.slot.len()];
        for (k, level) in self.levels.iter().enumerate() {
            let (mut cur, mut prev) = (level.head, NONE);
            while cur != NONE {
                let c = cur as usize;
                assert!(!seen[c], "{cur} is linked twice (level {k})");
                seen[c] = true;
                assert_eq!(self.slot[c].prev, prev, "prev mismatch at {cur}");
                assert!(self.slot[c].label < UNIVERSE, "label outside the universe");
                if prev != NONE {
                    assert!(
                        self.slot[c].label > self.slot[prev as usize].label,
                        "labels not strictly increasing on level {k}"
                    );
                }
                prev = cur;
                cur = self.slot[c].next;
            }
            assert_eq!(level.tail, prev, "tail mismatch on level {k}");
        }
    }
}

impl TagList {
    /// Links `v` into level `k` between the adjacent vertices `prev` and
    /// `next` (`NONE` = level end) and labels it.
    fn link(&mut self, k: u32, prev: u32, next: u32, v: u32) {
        let x = v as usize;
        if x >= self.slot.len() {
            self.slot.resize(x + 1, Slot::default());
        }
        self.slot[x].prev = prev;
        self.slot[x].next = next;
        let level = &mut self.levels[k as usize];
        if prev == NONE {
            level.head = v;
        } else {
            self.slot[prev as usize].next = v;
        }
        if next == NONE {
            level.tail = v;
        } else {
            self.slot[next as usize].prev = v;
        }
        match self.free_label(prev, next) {
            Some(label) => self.slot[x].label = label,
            None => self.relabel_around(v),
        }
    }

    /// A free label strictly between `prev` and `next` (`NONE` = level
    /// end), or `None` when the gap is exhausted.
    fn free_label(&self, prev: u32, next: u32) -> Option<u64> {
        let label = |v: u32| self.slot[v as usize].label;
        match (prev, next) {
            (NONE, NONE) => Some(UNIVERSE / 2),
            (NONE, next) => {
                let step = STRIDE.min(label(next) / 2);
                (step > 0).then(|| label(next) - step)
            }
            (prev, NONE) => {
                let step = STRIDE.min((UNIVERSE - label(prev)) / 2);
                (step > 0).then(|| label(prev) + step)
            }
            (prev, next) => {
                let step = (label(next) - label(prev)) / 2;
                (step > 0).then(|| label(prev) + step)
            }
        }
    }

    /// Relabels, evenly, the smallest aligned range around the linked
    /// but unlabelled vertex `x` whose `2^i` labels hold at most
    /// `(2/T)^i` vertices of its level, `x` included.
    fn relabel_around(&mut self, x: u32) {
        // The range must cover x's slot: anchor it at the predecessor's
        // label, or at 0 for a new head.
        let prev = self.slot[x as usize].prev;
        let anchor = if prev == NONE {
            0
        } else {
            self.slot[prev as usize].label
        };
        // `first..=last` are the vertices inside the current range.
        let (mut first, mut last, mut count) = (x, x, 1u64);
        let mut limit = 1.0f64;
        for bits in 1..=UNIVERSE_BITS {
            limit *= 2.0 / T;
            let width = 1u64 << bits;
            let base = anchor & !(width - 1);
            loop {
                let p = self.slot[first as usize].prev;
                if p == NONE || self.slot[p as usize].label < base {
                    break;
                }
                first = p;
                count += 1;
            }
            loop {
                let n = self.slot[last as usize].next;
                if n == NONE || self.slot[n as usize].label >= base + width {
                    break;
                }
                last = n;
                count += 1;
            }
            if count as f64 <= limit || bits == UNIVERSE_BITS {
                // count <= (2/T)^bits <= width, so the gap is at least 1.
                let gap = width / count;
                let mut label = base + gap / 2;
                let mut cur = first;
                loop {
                    self.slot[cur as usize].label = label;
                    if cur == last {
                        break;
                    }
                    label += gap;
                    cur = self.slot[cur as usize].next;
                }
                self.relabels += count;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A list with `levels` empty levels.
    fn with_levels(levels: usize) -> TagList {
        let mut l = TagList::default();
        (0..levels).for_each(|_| l.push_level());
        l
    }

    #[test]
    fn sequential_appends() {
        let mut l = with_levels(1);
        for v in 0..1000 {
            l.insert_last(0, v);
        }
        l.validate();
        assert!(l.iter(0).eq(0..1000));
    }

    #[test]
    fn end_inserts_step_one_stride_from_mid_universe() {
        let mut l = with_levels(2);
        l.insert_last(0, 0);
        l.insert_last(0, 1);
        l.insert_first(0, 2);
        assert_eq!(l.key(0), UNIVERSE / 2);
        assert_eq!(l.key(1), UNIVERSE / 2 + STRIDE);
        assert_eq!(l.key(2), UNIVERSE / 2 - STRIDE);
        l.insert_after(0, 0, 3);
        assert_eq!(l.key(3), UNIVERSE / 2 + STRIDE / 2);
        // Every level labels from its own mid-universe start.
        l.insert_first(1, 4);
        assert_eq!(l.key(4), UNIVERSE / 2);
        assert_eq!(l.relabels(), 0);
    }

    #[test]
    fn front_insert_storm_forces_relabels() {
        let mut l = with_levels(1);
        l.insert_first(0, 0);
        // Start next to the lower universe edge, where head inserts run
        // out of labels after a few halvings.
        l.slot[0].label = 64;
        for v in 1..5000 {
            l.insert_first(0, v);
        }
        l.validate();
        assert!(l.relabels() > 0, "dense front inserts must relabel");
        assert!(l.iter(0).eq((0..5000).rev()));
    }

    #[test]
    fn tail_insert_storm_at_the_universe_edge_relabels() {
        let mut l = with_levels(1);
        l.insert_last(0, 0);
        l.slot[0].label = UNIVERSE - 64;
        for v in 1..5000 {
            l.insert_last(0, v);
        }
        l.validate();
        assert!(l.relabels() > 0, "dense tail inserts must relabel");
        assert!(l.iter(0).eq(0..5000));
    }

    #[test]
    fn midpoint_insert_storm_at_fixed_point() {
        // Repeated insertion right after the same vertex is the worst
        // case for midpoint labelling: it exhausts a stride gap every 32
        // inserts.
        let mut l = with_levels(1);
        l.insert_last(0, 0);
        l.insert_last(0, 1);
        for v in 2..3000 {
            l.insert_after(0, 0, v);
        }
        l.validate();
        assert!(l.relabels() > 0, "an exhausted gap must relabel");
        let v = l.iter(0).collect::<Vec<_>>();
        assert_eq!(v[0], 0);
        assert_eq!(v[v.len() - 1], 1);
        assert_eq!(v[1], 2999);
    }

    #[test]
    fn precedes_matches_positions() {
        let mut l = with_levels(1);
        for v in (0..200).rev() {
            l.insert_first(0, v);
        }
        for a in 0..200 {
            for b in (a + 1)..200 {
                assert!(l.key(a) < l.key(b));
            }
        }
    }

    #[test]
    fn remove_keeps_order() {
        let mut l = with_levels(2);
        for v in 0..10 {
            l.insert_last(0, v);
        }
        l.remove(0, 0);
        l.remove(0, 9);
        l.remove(0, 4);
        l.validate();
        assert!(l.iter(0).eq([1, 2, 3, 5, 6, 7, 8]));
        assert_eq!(l.iter(0).count(), 7);
        // A removed vertex rejoins at a new place, on any level.
        l.insert_after(0, 3, 4);
        l.insert_last(1, 9);
        l.validate();
        assert!(l.iter(0).eq([1, 2, 3, 4, 5, 6, 7, 8]));
        assert!(l.iter(1).eq([9]));
    }

    #[test]
    fn interleaved_random_ops_match_vec_model() {
        let mut l = with_levels(1);
        let mut model: Vec<u32> = Vec::new();
        let mut out: Vec<u32> = Vec::new();
        let mut state = 0xDEADBEEFu64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for v in 0..3000u32 {
            let r = next();
            if model.is_empty() || r % 4 != 0 {
                // Reinsert a removed vertex now and then, else a fresh one.
                let x = if r % 3 == 0 {
                    out.pop().unwrap_or(v)
                } else {
                    v
                };
                if model.is_empty() {
                    l.insert_first(0, x);
                    model.insert(0, x);
                } else {
                    let pos = (r / 4) as usize % model.len();
                    l.insert_after(0, model[pos], x);
                    model.insert(pos + 1, x);
                }
            } else {
                let pos = (r / 4) as usize % model.len();
                let x = model.remove(pos);
                l.remove(0, x);
                out.push(x);
            }
        }
        l.validate();
        assert_eq!(l.iter(0).collect::<Vec<_>>(), model);
    }

    #[test]
    fn relabels_stay_within_ops_log_ops() {
        let mut l = with_levels(1);
        for v in 0..1_000_000 {
            l.insert_first(0, v);
        }
        for v in 1_000_000..2_000_000 {
            l.insert_last(0, v);
        }
        let at = l.levels[0].head;
        for v in 2_000_000..2_100_000 {
            l.insert_after(0, at, v);
        }
        l.validate();
        let ops = 2_100_000f64;
        assert!(
            (l.relabels() as f64) <= ops * ops.log2(),
            "{} relabels for {ops} inserts",
            l.relabels()
        );
    }

    #[test]
    fn building_a_level_by_tail_appends_never_relabels() {
        // The k-order install path: one insert_last, then insert_after
        // the previous vertex for the rest of the level.
        let mut l = with_levels(1);
        l.insert_last(0, 0);
        for v in 1..1_000_000 {
            l.insert_after(0, v - 1, v);
        }
        assert_eq!(l.relabels(), 0);
        assert_eq!(l.iter(0).count(), 1_000_000);
        l.validate();
    }
}
