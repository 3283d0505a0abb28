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
//! Entries are removed **lazily**: instead of decrease-key, stale entries
//! are filtered out at pop time by a caller supplied validity predicate.
//! Each (re-)qualification of a vertex pushes a fresh entry, so the number
//! of pushes is bounded by the number of `deg*` transitions, `O(Σ_{v∈V⁺}
//! deg(v))` per pass (Theorem 5.2 without its `log` factor).

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
    /// The last popped key (0 before the first pop): the floor every push
    /// must respect.
    last: u64,
}

impl Default for MinRankHeap {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| Vec::new()),
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
        self.buckets.iter().all(Vec::is_empty)
    }

    /// Removes all entries and resets the key floor to 0. Each bucket
    /// keeps at most 256 entries of capacity.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            recycle(b);
        }
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
        self.buckets[bucket_of(key, self.last)].push((key, vertex));
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
        let Some(i) = (1..BUCKETS).find(|&i| !self.buckets[i].is_empty()) else {
            return false;
        };
        let mut drained = std::mem::take(&mut self.buckets[i]);
        self.last = drained
            .iter()
            .map(|&(k, _)| k)
            .min()
            .expect("non-empty bucket");
        // Every key in bucket i shares the bits above bit i - 1 with the
        // new floor, so each lands in a bucket below i.
        for &(key, v) in &drained {
            self.buckets[bucket_of(key, self.last)].push((key, v));
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
