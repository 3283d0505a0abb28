//! [`OrderSeq`]: the interface the maintenance algorithms need from the
//! `A_k` structures, addressed by level and vertex id. [`crate::TagList`]
//! (the engine's `O(1)` label list) implements it natively; the paper's
//! treap, kept for the ablation, through the [`TreapLevels`] adapter.

use crate::{OrderTreap, NONE};

/// The k-order's per-level sequences over vertex ids: positional
/// insertion and removal, a monotone order key, and an in-order walk of
/// each level. A vertex is on at most one level at a time.
///
/// The *order key* contract: while level `k` is **not mutated**, `a`
/// precedes `b` on it iff `key(a) < key(b)`. Keys may be invalidated by
/// any insertion — `OrderInsert` only compares keys captured within a
/// single mutation-free pass, which is exactly what this permits.
///
/// `Send + Sync` is a supertrait: parallel component passes plan against
/// a shared `&OrderCore<S>` from worker threads, reading frozen order
/// keys concurrently. Every implementation here is plain `Vec`-backed
/// data, so the bound is free.
pub trait OrderSeq: Send + Sync {
    /// Creates a k-order with no levels; `seed` feeds any internal
    /// randomness.
    fn with_seed(seed: u64) -> Self;

    /// Drops every level (the relabel count keeps counting).
    fn clear(&mut self);

    /// Number of levels.
    fn levels(&self) -> usize;

    /// Appends an empty level.
    fn push_level(&mut self);

    /// Inserts `v` at the front of level `k`.
    fn insert_first(&mut self, k: u32, v: u32);

    /// Inserts `v` at the back of level `k`.
    fn insert_last(&mut self, k: u32, v: u32);

    /// Inserts `v` right after `at`, which is on level `k`.
    fn insert_after(&mut self, k: u32, at: u32, v: u32);

    /// Removes `v` from level `k`.
    fn remove(&mut self, k: u32, v: u32);

    /// Monotone order key of `v` within its level (see trait docs).
    fn key(&self, v: u32) -> u64;

    /// In-order walk over level `k`. This is how the k-order is read
    /// back out of `A_k`: persistence, order queries and validation all
    /// go through it.
    fn iter(&self, k: u32) -> impl Iterator<Item = u32> + '_;

    /// Labels rewritten by relabels so far (0 for structures without
    /// labels).
    fn relabels(&self) -> u64;

    /// Validates internal invariants; panics on violation (tests only).
    fn validate(&self);
}

/// The paper's `A_k` behind [`OrderSeq`]: one [`OrderTreap`] per level,
/// plus each vertex's level and node handle. The order key is the
/// vertex's rank in its level's treap.
#[derive(Clone, Debug, Default)]
pub struct TreapLevels {
    treaps: Vec<OrderTreap>,
    /// `(level, handle)` of each vertex's node.
    slot: Vec<(u32, u32)>,
    seed: u64,
}

impl TreapLevels {
    fn put(&mut self, k: u32, v: u32, handle: u32) {
        let x = v as usize;
        if x >= self.slot.len() {
            self.slot.resize(x + 1, (NONE, NONE));
        }
        self.slot[x] = (k, handle);
    }
}

impl OrderSeq for TreapLevels {
    fn with_seed(seed: u64) -> Self {
        TreapLevels {
            seed,
            ..Self::default()
        }
    }

    fn clear(&mut self) {
        self.treaps.clear();
    }

    fn levels(&self) -> usize {
        self.treaps.len()
    }

    fn push_level(&mut self) {
        let k = self.treaps.len() as u64;
        let seed = self.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.treaps.push(OrderTreap::new(seed));
    }

    fn insert_first(&mut self, k: u32, v: u32) {
        let h = self.treaps[k as usize].insert_first(v);
        self.put(k, v, h);
    }

    fn insert_last(&mut self, k: u32, v: u32) {
        let h = self.treaps[k as usize].insert_last(v);
        self.put(k, v, h);
    }

    fn insert_after(&mut self, k: u32, at: u32, v: u32) {
        let h = self.treaps[k as usize].insert_after(self.slot[at as usize].1, v);
        self.put(k, v, h);
    }

    fn remove(&mut self, k: u32, v: u32) {
        debug_assert_eq!(self.slot[v as usize].0, k, "{v} is not on level {k}");
        self.treaps[k as usize].remove(self.slot[v as usize].1);
    }

    fn key(&self, v: u32) -> u64 {
        let (k, h) = self.slot[v as usize];
        self.treaps[k as usize].rank(h) as u64
    }

    fn iter(&self, k: u32) -> impl Iterator<Item = u32> + '_ {
        self.treaps[k as usize].iter()
    }

    fn relabels(&self) -> u64 {
        0
    }

    fn validate(&self) {
        for (k, treap) in self.treaps.iter().enumerate() {
            treap.check_invariants();
            for v in treap.iter() {
                let (level, h) = self.slot[v as usize];
                assert_eq!(level, k as u32, "{v} has a stale level");
                assert_eq!(treap.payload(h), v, "node handle of {v} is stale");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<S: OrderSeq>() {
        let mut s = S::with_seed(99);
        s.push_level();
        s.push_level();
        assert_eq!(s.iter(0).count(), 0);
        s.insert_last(0, 1);
        s.insert_last(0, 3);
        s.insert_after(0, 1, 2);
        s.insert_first(0, 0);
        s.insert_first(1, 4);
        s.validate();
        assert!(s.iter(0).eq([0, 1, 2, 3]));
        // order keys are monotone while unmutated
        assert!(s.key(0) < s.key(1) && s.key(1) < s.key(2) && s.key(2) < s.key(3));
        // a promotion-style move to the next level
        s.remove(0, 1);
        s.insert_first(1, 1);
        s.validate();
        assert!(s.iter(0).eq([0, 2, 3]));
        assert!(s.iter(1).eq([1, 4]));
        s.clear();
        assert_eq!(s.levels(), 0);
    }

    #[test]
    fn treap_satisfies_orderseq() {
        exercise::<TreapLevels>();
    }

    #[test]
    fn taglist_satisfies_orderseq() {
        exercise::<crate::TagList>();
    }
}
