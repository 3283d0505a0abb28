//! [`OrderSeq`]: the interface the maintenance algorithms need from an
//! `A_k` structure, implemented by both [`crate::TagList`] (the engine's
//! `O(1)` label list) and [`crate::OrderTreap`] (the paper's choice, kept
//! for the ablation).

use crate::{OrderTreap, TagList};

/// A mutable sequence with stable `u32` handles supporting positional
/// insertion, removal, order tests, a monotone order key, and an
/// in-order walk.
///
/// The *order key* contract: while the sequence is **not mutated**, `a`
/// precedes `b` iff `order_key(a) < order_key(b)`. Keys may be invalidated
/// by any mutation — `OrderInsert` only compares keys captured within a
/// single mutation-free pass, which is exactly what this permits.
///
/// `Send + Sync` is a supertrait: parallel component passes plan against
/// a shared `&OrderCore<S>` from worker threads, reading frozen order
/// keys concurrently. Every implementation here is plain `Vec`-backed
/// data, so the bound is free.
pub trait OrderSeq: Send + Sync {
    /// Creates an empty sequence; `seed` feeds any internal randomness.
    fn with_seed(seed: u64) -> Self;

    /// Number of elements.
    fn len(&self) -> usize;

    /// `true` when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `payload` at the front; returns a handle.
    fn insert_first(&mut self, payload: u32) -> u32;

    /// Inserts `payload` at the back; returns a handle.
    fn insert_last(&mut self, payload: u32) -> u32;

    /// Inserts `payload` right after `at`; returns a handle.
    fn insert_after(&mut self, at: u32, payload: u32) -> u32;

    /// Inserts `payload` right before `at`; returns a handle.
    fn insert_before(&mut self, at: u32, payload: u32) -> u32;

    /// Removes the element behind `at`, returning its payload.
    fn remove(&mut self, at: u32) -> u32;

    /// `true` iff `a` is strictly before `b`.
    fn precedes(&self, a: u32, b: u32) -> bool;

    /// Monotone order key (see trait docs).
    fn order_key(&self, at: u32) -> u64;

    /// Payload stored behind `at`.
    fn payload(&self, at: u32) -> u32;

    /// In-order walk over the payloads. This is how the k-order is read
    /// back out of `A_k`: persistence, order queries and validation all
    /// go through it.
    fn iter(&self) -> impl Iterator<Item = u32> + '_;

    /// Validates internal invariants; panics on violation (tests only).
    fn validate(&self);
}

impl OrderSeq for OrderTreap {
    fn with_seed(seed: u64) -> Self {
        OrderTreap::new(seed)
    }

    fn len(&self) -> usize {
        OrderTreap::len(self)
    }

    fn insert_first(&mut self, payload: u32) -> u32 {
        OrderTreap::insert_first(self, payload)
    }

    fn insert_last(&mut self, payload: u32) -> u32 {
        OrderTreap::insert_last(self, payload)
    }

    fn insert_after(&mut self, at: u32, payload: u32) -> u32 {
        OrderTreap::insert_after(self, at, payload)
    }

    fn insert_before(&mut self, at: u32, payload: u32) -> u32 {
        OrderTreap::insert_before(self, at, payload)
    }

    fn remove(&mut self, at: u32) -> u32 {
        OrderTreap::remove(self, at)
    }

    fn precedes(&self, a: u32, b: u32) -> bool {
        OrderTreap::precedes(self, a, b)
    }

    fn order_key(&self, at: u32) -> u64 {
        OrderTreap::rank(self, at) as u64
    }

    fn payload(&self, at: u32) -> u32 {
        OrderTreap::payload(self, at)
    }

    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        OrderTreap::iter(self)
    }

    fn validate(&self) {
        self.check_invariants()
    }
}

impl OrderSeq for TagList {
    fn with_seed(_seed: u64) -> Self {
        TagList::new()
    }

    fn len(&self) -> usize {
        TagList::len(self)
    }

    fn insert_first(&mut self, payload: u32) -> u32 {
        TagList::insert_first(self, payload)
    }

    fn insert_last(&mut self, payload: u32) -> u32 {
        TagList::insert_last(self, payload)
    }

    fn insert_after(&mut self, at: u32, payload: u32) -> u32 {
        TagList::insert_after(self, at, payload)
    }

    fn insert_before(&mut self, at: u32, payload: u32) -> u32 {
        TagList::insert_before(self, at, payload)
    }

    fn remove(&mut self, at: u32) -> u32 {
        TagList::remove(self, at)
    }

    #[inline]
    fn precedes(&self, a: u32, b: u32) -> bool {
        TagList::precedes(self, a, b)
    }

    #[inline]
    fn order_key(&self, at: u32) -> u64 {
        self.tag(at)
    }

    #[inline]
    fn payload(&self, at: u32) -> u32 {
        TagList::payload(self, at)
    }

    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        TagList::iter(self)
    }

    fn validate(&self) {
        self.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<S: OrderSeq>() {
        let mut s = S::with_seed(99);
        assert!(s.is_empty());
        let a = s.insert_last(1);
        let c = s.insert_last(3);
        let b = s.insert_after(a, 2);
        let z = s.insert_before(a, 0);
        s.validate();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert!(s.precedes(z, a) && s.precedes(a, b) && s.precedes(b, c));
        // order keys are monotone while unmutated
        assert!(s.order_key(z) < s.order_key(a));
        assert!(s.order_key(a) < s.order_key(b));
        assert!(s.order_key(b) < s.order_key(c));
        assert_eq!(s.payload(b), 2);
        assert_eq!(s.remove(a), 1);
        s.validate();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn treap_satisfies_orderseq() {
        exercise::<OrderTreap>();
    }

    #[test]
    fn taglist_satisfies_orderseq() {
        exercise::<TagList>();
    }
}
