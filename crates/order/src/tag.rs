//! The engine's `A_k`: an order-maintenance list with `u64` labels
//! (list labelling after Dietz & Sleator, STOC 1987, with the overflow
//! thresholds of Bender et al., "Two Simplified Algorithms for
//! Maintaining Order in a List", ESA 2002).
//!
//! Every element carries a label, and an order test compares two labels
//! in `O(1)`. Labels live in `[0, 2^62)`:
//!
//! * the first element of an empty list takes the mid-universe label;
//! * an end insert (at the head, or at the tail — `insert_after` the tail
//!   included) steps one fixed stride (2³²) away from its neighbour, so a
//!   level built by tail appends is never relabelled;
//! * an interior insert takes the midpoint of its neighbours' labels;
//! * when no label is free, the smallest aligned range `[b, b + 2^i)`
//!   around the insertion point that holds at most `(2/T)^i` elements
//!   (the new one included) is relabelled evenly. The range grows outward
//!   from the insertion point with two cursors, so each wider range only
//!   scans the elements it adds. With `T` = 1.4 the whole universe admits
//!   ~4·10⁹ elements — more than `u32` handles address — so the search
//!   always ends.
//!
//! Only insertions relabel, and only elements near the insertion point;
//! removal never touches a label. Storage is struct-of-arrays, so an
//! order test reads two `u64`s and nothing else.

use crate::NONE;

/// Labels live in `[0, 1 << UNIVERSE_BITS)`.
const UNIVERSE_BITS: u32 = 62;
const UNIVERSE: u64 = 1 << UNIVERSE_BITS;

/// Label distance of an end insert from the current head or tail.
const STRIDE: u64 = 1 << 32;

/// Bender et al.'s density parameter: a range of `2^i` labels overflows
/// above `(2/T)^i` elements.
const T: f64 = 1.4;

/// An order-maintenance list with `u64` labels. Handles are arena
/// indices, stable until the element is removed.
#[derive(Clone, Debug)]
pub struct TagList {
    next: Vec<u32>,
    prev: Vec<u32>,
    tags: Vec<u64>,
    payloads: Vec<u32>,
    head: u32,
    tail: u32,
    free: Vec<u32>,
    len: usize,
    /// Labels rewritten by relabels so far (the new element included).
    pub relabel_count: u64,
}

impl Default for TagList {
    fn default() -> Self {
        Self::new()
    }
}

impl TagList {
    /// Creates an empty list.
    pub fn new() -> Self {
        TagList {
            next: Vec::new(),
            prev: Vec::new(),
            tags: Vec::new(),
            payloads: Vec::new(),
            head: NONE,
            tail: NONE,
            free: Vec::new(),
            len: 0,
            relabel_count: 0,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Payload stored at `handle`.
    #[inline]
    pub fn payload(&self, handle: u32) -> u32 {
        self.payloads[handle as usize]
    }

    /// The label of `handle`: strictly monotone in list order, and fixed
    /// until an insertion relabels its neighbourhood.
    #[inline]
    pub fn tag(&self, handle: u32) -> u64 {
        self.tags[handle as usize]
    }

    /// `true` iff `a` is strictly before `b` (`O(1)`).
    #[inline]
    pub fn precedes(&self, a: u32, b: u32) -> bool {
        self.tags[a as usize] < self.tags[b as usize]
    }

    /// Inserts `payload` as the first element.
    pub fn insert_first(&mut self, payload: u32) -> u32 {
        self.link(NONE, self.head, payload)
    }

    /// Inserts `payload` as the last element.
    pub fn insert_last(&mut self, payload: u32) -> u32 {
        self.link(self.tail, NONE, payload)
    }

    /// Inserts `payload` right after node `at`.
    pub fn insert_after(&mut self, at: u32, payload: u32) -> u32 {
        self.link(at, self.next[at as usize], payload)
    }

    /// Inserts `payload` right before node `at`.
    pub fn insert_before(&mut self, at: u32, payload: u32) -> u32 {
        self.link(self.prev[at as usize], at, payload)
    }

    /// Removes node `at`, returning its payload. No label changes.
    pub fn remove(&mut self, at: u32) -> u32 {
        let (prev, next) = (self.prev[at as usize], self.next[at as usize]);
        if prev == NONE {
            self.head = next;
        } else {
            self.next[prev as usize] = next;
        }
        if next == NONE {
            self.tail = prev;
        } else {
            self.prev[next as usize] = prev;
        }
        self.len -= 1;
        self.free.push(at);
        self.payloads[at as usize]
    }

    fn alloc(&mut self, payload: u32) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.payloads[i as usize] = payload;
                i
            }
            None => {
                self.next.push(NONE);
                self.prev.push(NONE);
                self.tags.push(0);
                self.payloads.push(payload);
                (self.payloads.len() - 1) as u32
            }
        }
    }

    /// Links a new node for `payload` between the adjacent nodes `prev`
    /// and `next` (`NONE` = list end) and labels it.
    fn link(&mut self, prev: u32, next: u32, payload: u32) -> u32 {
        let x = self.alloc(payload);
        self.prev[x as usize] = prev;
        self.next[x as usize] = next;
        if prev == NONE {
            self.head = x;
        } else {
            self.next[prev as usize] = x;
        }
        if next == NONE {
            self.tail = x;
        } else {
            self.prev[next as usize] = x;
        }
        self.len += 1;
        match self.free_label(prev, next) {
            Some(tag) => self.tags[x as usize] = tag,
            None => self.relabel_around(x),
        }
        x
    }

    /// A free label strictly between `prev` and `next` (`NONE` = list
    /// end), or `None` when the gap is exhausted.
    fn free_label(&self, prev: u32, next: u32) -> Option<u64> {
        let tag = |h: u32| self.tags[h as usize];
        match (prev, next) {
            (NONE, NONE) => Some(UNIVERSE / 2),
            (NONE, next) => {
                let step = STRIDE.min(tag(next) / 2);
                (step > 0).then(|| tag(next) - step)
            }
            (prev, NONE) => {
                let step = STRIDE.min((UNIVERSE - tag(prev)) / 2);
                (step > 0).then(|| tag(prev) + step)
            }
            (prev, next) => {
                let step = (tag(next) - tag(prev)) / 2;
                (step > 0).then(|| tag(prev) + step)
            }
        }
    }

    /// Relabels, evenly, the smallest aligned range around the linked
    /// but unlabelled node `x` whose `2^i` labels hold at most `(2/T)^i`
    /// nodes, `x` included.
    fn relabel_around(&mut self, x: u32) {
        // The range must cover x's slot: anchor it at the predecessor's
        // label, or at 0 for a new head.
        let prev = self.prev[x as usize];
        let anchor = if prev == NONE {
            0
        } else {
            self.tags[prev as usize]
        };
        // `first..=last` are the nodes inside the current range.
        let (mut first, mut last, mut count) = (x, x, 1u64);
        let mut limit = 1.0f64;
        for bits in 1..=UNIVERSE_BITS {
            limit *= 2.0 / T;
            let width = 1u64 << bits;
            let base = anchor & !(width - 1);
            loop {
                let p = self.prev[first as usize];
                if p == NONE || self.tags[p as usize] < base {
                    break;
                }
                first = p;
                count += 1;
            }
            loop {
                let n = self.next[last as usize];
                if n == NONE || self.tags[n as usize] >= base + width {
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
                    self.tags[cur as usize] = label;
                    if cur == last {
                        break;
                    }
                    label += gap;
                    cur = self.next[cur as usize];
                }
                self.relabel_count += count;
                return;
            }
        }
    }

    /// Front-to-back payload sequence (tests/diagnostics).
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        let mut cur = self.head;
        while cur != NONE {
            out.push(self.payloads[cur as usize]);
            cur = self.next[cur as usize];
        }
        out
    }

    /// Checks link symmetry and strictly increasing in-universe labels.
    pub fn check_invariants(&self) {
        let mut cur = self.head;
        let mut prev = NONE;
        let mut count = 0usize;
        while cur != NONE {
            let c = cur as usize;
            assert_eq!(self.prev[c], prev, "prev mismatch at {cur}");
            assert!(self.tags[c] < UNIVERSE, "label outside the universe");
            if prev != NONE {
                assert!(
                    self.tags[c] > self.tags[prev as usize],
                    "labels not strictly increasing"
                );
            }
            prev = cur;
            cur = self.next[c];
            count += 1;
            assert!(count <= self.payloads.len(), "cycle detected");
        }
        assert_eq!(self.tail, prev, "tail mismatch");
        assert_eq!(count, self.len, "len mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_appends() {
        let mut l = TagList::new();
        for i in 0..1000 {
            l.insert_last(i);
        }
        l.check_invariants();
        assert_eq!(l.to_vec(), (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn end_inserts_step_one_stride_from_mid_universe() {
        let mut l = TagList::new();
        let a = l.insert_last(0);
        let b = l.insert_last(1);
        let z = l.insert_first(2);
        assert_eq!(l.tag(a), UNIVERSE / 2);
        assert_eq!(l.tag(b), UNIVERSE / 2 + STRIDE);
        assert_eq!(l.tag(z), UNIVERSE / 2 - STRIDE);
        let m = l.insert_after(a, 3);
        assert_eq!(l.tag(m), UNIVERSE / 2 + STRIDE / 2);
        assert_eq!(l.relabel_count, 0);
    }

    #[test]
    fn front_insert_storm_forces_relabels() {
        let mut l = TagList::new();
        let first = l.insert_first(0);
        // Start next to the lower universe edge, where head inserts run
        // out of labels after a few halvings.
        l.tags[first as usize] = 64;
        for i in 1..5000 {
            l.insert_first(i);
        }
        l.check_invariants();
        assert!(l.relabel_count > 0, "dense front inserts must relabel");
        assert_eq!(l.to_vec(), (0..5000).rev().collect::<Vec<_>>());
    }

    #[test]
    fn tail_insert_storm_at_the_universe_edge_relabels() {
        let mut l = TagList::new();
        let first = l.insert_last(0);
        l.tags[first as usize] = UNIVERSE - 64;
        for i in 1..5000 {
            l.insert_last(i);
        }
        l.check_invariants();
        assert!(l.relabel_count > 0, "dense tail inserts must relabel");
        assert_eq!(l.to_vec(), (0..5000).collect::<Vec<_>>());
    }

    #[test]
    fn midpoint_insert_storm_at_fixed_point() {
        // Repeated insertion right after the same node is the worst case
        // for midpoint labelling: it exhausts a stride gap every 32
        // inserts.
        let mut l = TagList::new();
        let a = l.insert_last(0);
        l.insert_last(1);
        for i in 2..3000 {
            l.insert_after(a, i);
        }
        l.check_invariants();
        assert!(l.relabel_count > 0, "an exhausted gap must relabel");
        let v = l.to_vec();
        assert_eq!(v[0], 0);
        assert_eq!(v[v.len() - 1], 1);
        assert_eq!(v[1], 2999);
    }

    #[test]
    fn precedes_matches_positions() {
        let mut l = TagList::new();
        let hs: Vec<u32> = (0..200).map(|i| l.insert_last(i)).collect();
        for i in 0..hs.len() {
            for j in (i + 1)..hs.len() {
                assert!(l.precedes(hs[i], hs[j]));
                assert!(!l.precedes(hs[j], hs[i]));
            }
        }
    }

    #[test]
    fn remove_keeps_order() {
        let mut l = TagList::new();
        let hs: Vec<u32> = (0..10).map(|i| l.insert_last(i)).collect();
        assert_eq!(l.remove(hs[0]), 0);
        assert_eq!(l.remove(hs[9]), 9);
        assert_eq!(l.remove(hs[4]), 4);
        l.check_invariants();
        assert_eq!(l.to_vec(), vec![1, 2, 3, 5, 6, 7, 8]);
        assert_eq!(l.len(), 7);
        let h = l.insert_after(hs[3], 40);
        assert_eq!(h, hs[4], "freed handles are reused");
        l.check_invariants();
        assert_eq!(l.to_vec(), vec![1, 2, 3, 40, 5, 6, 7, 8]);
    }

    #[test]
    fn interleaved_random_ops_match_vec_model() {
        let mut l = TagList::new();
        let mut model: Vec<(u32, u32)> = Vec::new();
        let mut state = 0xDEADBEEFu64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..3000u32 {
            let r = next();
            if model.is_empty() || r % 4 != 0 {
                if model.is_empty() {
                    let h = l.insert_first(step);
                    model.insert(0, (h, step));
                } else {
                    let pos = (r / 4) as usize % model.len();
                    let h = l.insert_after(model[pos].0, step);
                    model.insert(pos + 1, (h, step));
                }
            } else {
                let pos = (r / 4) as usize % model.len();
                let (h, p) = model.remove(pos);
                assert_eq!(l.remove(h), p);
            }
        }
        l.check_invariants();
        assert_eq!(
            l.to_vec(),
            model.iter().map(|&(_, p)| p).collect::<Vec<_>>()
        );
    }

    #[test]
    fn relabels_stay_within_ops_log_ops() {
        let mut l = TagList::new();
        for i in 0..1_000_000 {
            l.insert_first(i);
        }
        for i in 0..1_000_000 {
            l.insert_last(i);
        }
        let at = l.head;
        for i in 0..100_000 {
            l.insert_after(at, i);
        }
        l.check_invariants();
        let ops = 2_100_000f64;
        assert!(
            (l.relabel_count as f64) <= ops * ops.log2(),
            "{} relabels for {ops} inserts",
            l.relabel_count
        );
    }

    #[test]
    fn building_a_level_by_tail_appends_never_relabels() {
        // The k-order install path: one insert_last, then insert_after
        // the previous handle for the rest of the level.
        let mut l = TagList::new();
        let mut prev = l.insert_last(0);
        for i in 1..1_000_000 {
            prev = l.insert_after(prev, i);
        }
        assert_eq!(l.relabel_count, 0);
        assert_eq!(l.len(), 1_000_000);
        l.check_invariants();
    }
}
