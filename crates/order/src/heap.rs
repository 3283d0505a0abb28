//! The paper's `B` structure: a min-heap of `(rank, vertex)` pairs used by
//! `OrderInsert` to jump, in `O(1)`, to the next vertex of `O_K` that still
//! needs attention (`deg*(v) > 0 ∨ deg⁺(v) > K`).
//!
//! `B` is a **monotone radix heap** (Ahuja, Mehlhorn, Orlin & Tarjan,
//! "Faster algorithms for the shortest path problem", JACM 1990). Its
//! contract is that no key is pushed below the last popped key; a push
//! that breaks it panics. Every promotion pass keeps it:
//!
//! * all seeds are pushed before the first pop;
//! * every later push is a same-level neighbour `z` that Case-1 vertex
//!   `w`, just popped, grants a `deg*`, and the pass grants only when
//!   `rank_z > rank_w` (ranks are pass-start keys of the frozen `A_K`).
//!
//! Keys within a level are distinct, so a key names one vertex and the pop
//! order is the order of `(key, vertex)` pairs. Entries with equal keys
//! but different vertices would pop in an unspecified order.
//!
//! Entry `(key, v)` sits in the bucket indexed by the highest bit in which
//! `key` differs from the last popped key (bucket 0: equal keys). A push is
//! `O(1)`. A pop that finds bucket 0 empty refills it from the first
//! non-empty bucket: its minimum becomes the new last key and its entries
//! move to strictly lower buckets, so each entry moves at most 64 times and
//! usually far fewer.
//!
//! A bitmask of the buckets that hold entries lets a refill jump to the
//! first non-empty one, and a clear touch only the buckets in use.
//!
//! Entries are removed **lazily**: instead of decrease-key, stale entries
//! are filtered out at pop time by a caller supplied validity predicate.
//! A promotion pass pushes at most one entry per vertex per pass, on its
//! first `deg*` grant, plus the seeds: a later copy would carry the same
//! frozen key and could only pop stale. Grants come from candidates'
//! neighbour scans, so the pushes stay within `O(Σ_{v∈V⁺} deg(v))` per
//! pass (Theorem 5.2 without its `log` factor).

/// Number of buckets: one per possible highest differing bit, plus the
/// bucket of keys equal to the last popped key.
const BUCKETS: usize = 65;

/// Entries a drained or cleared bucket keeps allocated. A larger bucket
/// is freed, so after a pass with a long queue the heap does not hold the
/// high-water capacity of every bucket it passed through: between passes
/// it keeps at most `65 · 256` entries (260 KiB).
const RETAINED_PER_BUCKET: usize = 256;

/// Monotone radix min-heap over `(key, vertex)` pairs with lazy
/// invalidation. [`MinRankHeap::new`] does not allocate.
#[derive(Clone, Debug)]
pub struct MinRankHeap {
    buckets: [Vec<(u64, u32)>; BUCKETS],
    /// Bit `i`, for `i > 0`, is set exactly when bucket `i` holds
    /// entries (a clear bucket was recycled when a refill drained it).
    /// Pushes set bit 0 too, but it is never read: pops empty bucket 0
    /// without touching the mask.
    live: u128,
    /// The last popped key (0 before the first pop): the floor every push
    /// must respect.
    last: u64,
}

impl Default for MinRankHeap {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| Vec::new()),
            live: 0,
            last: 0,
        }
    }
}

impl MinRankHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live + stale entries currently stored.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.live & !1 == 0 && self.buckets[0].is_empty()
    }

    /// Removes all entries and resets the key floor to 0. Each bucket
    /// keeps at most 256 entries of capacity.
    pub fn clear(&mut self) {
        // Pops empty bucket 0 without recycling it; every other bucket
        // outside `live` was recycled when a refill drained it.
        recycle(&mut self.buckets[0]);
        let mut live = self.live & !1;
        while live != 0 {
            recycle(&mut self.buckets[live.trailing_zeros() as usize]);
            live &= live - 1;
        }
        self.live = 0;
        self.last = 0;
    }

    /// Pushes an entry.
    ///
    /// # Panics
    /// If `key` is below the last popped key.
    #[inline]
    pub fn push(&mut self, key: u64, vertex: u32) {
        assert!(
            key >= self.last,
            "monotone heap: key {key} pushed below the last popped key {}",
            self.last
        );
        let b = bucket_of(key, self.last);
        self.buckets[b].push((key, vertex));
        self.live |= 1 << b;
    }

    /// Pops entries in key order until one satisfies `valid`; returns it,
    /// or `None` when the heap is exhausted. Invalid entries are discarded
    /// permanently.
    #[inline]
    pub fn pop_valid<F: FnMut(u32) -> bool>(&mut self, mut valid: F) -> Option<(u64, u32)> {
        loop {
            let (key, v) = match self.buckets[0].pop() {
                Some(e) => e,
                None => {
                    if !self.refill() {
                        return None;
                    }
                    continue;
                }
            };
            if valid(v) {
                return Some((key, v));
            }
        }
    }

    /// Moves the first non-empty bucket's entries down, its minimum key
    /// becoming the new floor; returns `false` when every bucket is empty.
    fn refill(&mut self) -> bool {
        let live = self.live & !1;
        if live == 0 {
            return false;
        }
        let i = live.trailing_zeros() as usize;
        self.live &= !(1 << i);
        let mut drained = std::mem::take(&mut self.buckets[i]);
        self.last = drained
            .iter()
            .map(|&(k, _)| k)
            .min()
            .expect("non-empty bucket");
        // Every key in bucket i shares the bits above bit i - 1 with the
        // new floor, so each lands in a bucket below i.
        for &(key, v) in &drained {
            let b = bucket_of(key, self.last);
            self.buckets[b].push((key, v));
            self.live |= 1 << b;
        }
        recycle(&mut drained);
        self.buckets[i] = drained;
        true
    }
}

/// Bucket of `key` against the floor `last`: one plus the index of the
/// highest differing bit, 0 when equal.
#[inline]
fn bucket_of(key: u64, last: u64) -> usize {
    (u64::BITS - (key ^ last).leading_zeros()) as usize
}

/// Empties `bucket`, freeing its allocation when it exceeds the retained
/// capacity.
fn recycle(bucket: &mut Vec<(u64, u32)>) {
    if bucket.capacity() > RETAINED_PER_BUCKET {
        *bucket = Vec::new();
    } else {
        bucket.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order() {
        let mut h = MinRankHeap::new();
        for (k, v) in [(5u64, 50u32), (1, 10), (3, 30), (2, 20), (4, 40)] {
            h.push(k, v);
        }
        let mut out = Vec::new();
        while let Some((k, v)) = h.pop_valid(|_| true) {
            out.push((k, v));
        }
        assert_eq!(out, vec![(1, 10), (2, 20), (3, 30), (4, 40), (5, 50)]);
    }

    #[test]
    fn lazy_invalidation_skips_stale() {
        let mut h = MinRankHeap::new();
        h.push(1, 100);
        h.push(2, 200);
        h.push(3, 300);
        // 100 is stale.
        let got = h.pop_valid(|v| v != 100);
        assert_eq!(got, Some((2, 200)));
        // stale entry was dropped, not retained
        let got = h.pop_valid(|_| true);
        assert_eq!(got, Some((3, 300)));
        assert!(h.is_empty());
    }

    #[test]
    fn duplicate_vertices_allowed() {
        let mut h = MinRankHeap::new();
        h.push(5, 7);
        h.push(2, 7);
        assert_eq!(h.pop_valid(|_| true), Some((2, 7)));
        assert_eq!(h.pop_valid(|_| true), Some((5, 7)));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut h = MinRankHeap::new();
        h.push(1, 1);
        assert_eq!(h.pop_valid(|_| false), None);
        assert!(h.is_empty());
        assert_eq!(h.pop_valid(|_| true), None);
    }

    #[test]
    fn clear_retains_capacity_semantics() {
        let mut h = MinRankHeap::new();
        for i in 0..10_000u64 {
            h.push(i << 20, i as u32);
        }
        assert_eq!(h.pop_valid(|_| true), Some((0, 0)));
        assert_eq!(h.pop_valid(|_| true), Some((1 << 20, 1)));
        h.clear();
        assert!(h.is_empty());
        assert!(h
            .buckets
            .iter()
            .all(|b| b.capacity() <= RETAINED_PER_BUCKET));
        // The key floor is back at 0: 1 is below the last popped key.
        h.push(1, 1);
        assert_eq!(h.pop_valid(|_| true), Some((1, 1)));
    }

    #[test]
    fn keys_differing_in_bit_63_use_the_top_bucket() {
        // Against the floor 0, a key with bit 63 set lands in bucket 64,
        // the last one the mask covers.
        let top = 1u64 << 63;
        let mut h = MinRankHeap::new();
        h.push(top + 5, 2);
        h.push(3, 1);
        h.push(u64::MAX, 3);
        assert_eq!(h.live & (1 << 64), 1 << 64);
        assert_eq!(h.pop_valid(|_| true), Some((3, 1)));
        assert_eq!(h.pop_valid(|_| true), Some((top + 5, 2)));
        assert_eq!(h.pop_valid(|_| true), Some((u64::MAX, 3)));
        assert_eq!(h.pop_valid(|_| true), None);
        assert!(h.is_empty());
        // Only bucket 64 holds entries: a refill must still find it.
        h.clear();
        h.push(top, 9);
        assert_eq!(h.live & !1, 1 << 64);
        assert_eq!(h.pop_valid(|_| true), Some((top, 9)));
    }

    #[test]
    fn clear_resets_the_live_mask() {
        let mut h = MinRankHeap::new();
        for k in [1u64, 1 << 10, 1 << 40, 1 << 63] {
            h.push(k, k as u32);
        }
        assert_ne!(h.live & !1, 0);
        h.clear();
        assert_eq!(h.live, 0);
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.pop_valid(|_| true), None);
        // Entries pushed after the clear are all that pops.
        h.push(7, 70);
        h.push(2, 20);
        assert_eq!(h.pop_valid(|_| true), Some((2, 20)));
        assert_eq!(h.pop_valid(|_| true), Some((7, 70)));
        assert_eq!(h.pop_valid(|_| true), None);
    }

    #[test]
    fn pushes_after_a_partial_refill_pop_in_order() {
        // The pops refill from the lowest live bucket and leave the one
        // holding 1 << 50 untouched. Pushes above the new floor then land
        // in buckets a refill emptied or none filled, and must still pop
        // in order with the entries left behind.
        let mut h = MinRankHeap::new();
        for k in [100u64, 1 << 20, (1 << 20) + 3, 1 << 50] {
            h.push(k, k as u32);
        }
        assert_eq!(h.pop_valid(|_| true), Some((100, 100)));
        assert_eq!(h.pop_valid(|_| true), Some((1 << 20, 1 << 20)));
        for k in [
            (1u64 << 20) + 1,
            (1 << 40) + 1,
            (1 << 50) - 1,
            (1 << 63) + 1,
        ] {
            h.push(k, k as u32);
        }
        let mut out = Vec::new();
        while let Some((k, _)) = h.pop_valid(|_| true) {
            out.push(k);
        }
        assert_eq!(
            out,
            vec![
                (1 << 20) + 1,
                (1 << 20) + 3,
                (1 << 40) + 1,
                (1 << 50) - 1,
                1 << 50,
                (1 << 63) + 1
            ]
        );
        assert!(h.is_empty());
    }

    #[test]
    fn new_does_not_allocate() {
        let h = MinRankHeap::new();
        assert!(h.buckets.iter().all(|b| b.capacity() == 0));
    }

    #[test]
    #[should_panic(expected = "below the last popped key")]
    fn push_below_the_last_popped_key_panics() {
        let mut h = MinRankHeap::new();
        h.push(4, 1);
        h.push(9, 2);
        assert_eq!(h.pop_valid(|_| true), Some((4, 1)));
        h.push(3, 3);
    }

    #[test]
    fn heap_property_random() {
        let mut h = MinRankHeap::new();
        let mut state = 12345u64;
        let mut keys = Vec::new();
        for _ in 0..500 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let k = state % 1000;
            keys.push(k);
            h.push(k, k as u32);
        }
        keys.sort_unstable();
        let mut out = Vec::new();
        while let Some((k, _)) = h.pop_valid(|_| true) {
            out.push(k);
        }
        assert_eq!(out, keys);
    }
}
