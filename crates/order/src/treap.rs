//! Order-statistics treap with parent pointers (the paper's `A_k`).
//!
//! The tree stores a *sequence* (no keys): a node's position is defined by
//! the usual in-order traversal, insertions are positional
//! (`insert_after` / `insert_before` / front / back), and every node carries
//! the size of its subtree so that the **rank** of a node — its 1-based
//! position in the sequence — can be computed by walking *up* from the node
//! in `O(log n)` expected time. This is exactly the mechanism of Section VI:
//! because the caller keeps a one-to-one mapping from vertices to node
//! handles, "locating the node" is free, and the usual chicken-and-egg
//! problem of searching an order-statistics tree without knowing the rank
//! disappears.
//!
//! Heap priorities come from a per-tree deterministic xorshift generator,
//! making test failures reproducible. Nodes live in an arena (`Vec`) with a
//! free list; handles are `u32` indices and remain stable across rotations.

use crate::NONE;

#[derive(Clone, Debug)]
struct Node {
    left: u32,
    right: u32,
    parent: u32,
    size: u32,
    priority: u64,
    payload: u32,
}

/// A positional treap; see the module docs.
#[derive(Clone, Debug)]
pub struct OrderTreap {
    nodes: Vec<Node>,
    root: u32,
    free: Vec<u32>,
    len: usize,
    rng_state: u64,
}

impl OrderTreap {
    /// Creates an empty treap whose priorities are drawn from a xorshift
    /// generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        OrderTreap {
            nodes: Vec::new(),
            root: NONE,
            free: Vec::new(),
            len: 0,
            // xorshift must not start at 0.
            rng_state: seed | 1,
        }
    }

    /// Number of nodes in the sequence.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn next_priority(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn alloc(&mut self, payload: u32) -> u32 {
        let priority = self.next_priority();
        let node = Node {
            left: NONE,
            right: NONE,
            parent: NONE,
            size: 1,
            priority,
            payload,
        };
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx as usize] = node;
                idx
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    #[inline]
    fn n(&self, i: u32) -> &Node {
        &self.nodes[i as usize]
    }

    #[inline]
    fn nm(&mut self, i: u32) -> &mut Node {
        &mut self.nodes[i as usize]
    }

    #[inline]
    fn size_of(&self, i: u32) -> u32 {
        if i == NONE {
            0
        } else {
            self.n(i).size
        }
    }

    #[inline]
    fn fix_size(&mut self, i: u32) {
        let s = 1 + self.size_of(self.n(i).left) + self.size_of(self.n(i).right);
        self.nm(i).size = s;
    }

    /// Payload stored at `handle`.
    #[inline]
    pub fn payload(&self, handle: u32) -> u32 {
        self.n(handle).payload
    }

    /// Replaces the payload stored at `handle`.
    #[inline]
    pub fn set_payload(&mut self, handle: u32, payload: u32) {
        self.nm(handle).payload = payload;
    }

    /// Rotates `x` up over its parent, preserving in-order sequence.
    fn rotate_up(&mut self, x: u32) {
        let p = self.n(x).parent;
        debug_assert!(p != NONE);
        let g = self.n(p).parent;
        if self.n(p).left == x {
            // right rotation
            let b = self.n(x).right;
            self.nm(p).left = b;
            if b != NONE {
                self.nm(b).parent = p;
            }
            self.nm(x).right = p;
        } else {
            // left rotation
            let b = self.n(x).left;
            self.nm(p).right = b;
            if b != NONE {
                self.nm(b).parent = p;
            }
            self.nm(x).left = p;
        }
        self.nm(p).parent = x;
        self.nm(x).parent = g;
        if g == NONE {
            self.root = x;
        } else if self.n(g).left == p {
            self.nm(g).left = x;
        } else {
            self.nm(g).right = x;
        }
        self.fix_size(p);
        self.fix_size(x);
    }

    /// Restores the min-heap priority invariant by rotating `x` towards the
    /// root, then propagates subtree sizes the rest of the way up.
    fn bubble_up(&mut self, x: u32) {
        while self.n(x).parent != NONE && self.n(self.n(x).parent).priority > self.n(x).priority {
            self.rotate_up(x);
        }
        // Sizes above x's final position still need the +1.
        let mut p = self.n(x).parent;
        while p != NONE {
            self.nm(p).size += 1;
            p = self.n(p).parent;
        }
    }

    /// Inserts `payload` as the first element; returns its handle.
    pub fn insert_first(&mut self, payload: u32) -> u32 {
        let x = self.alloc(payload);
        if self.root == NONE {
            self.root = x;
        } else {
            // leftmost descent
            let mut cur = self.root;
            while self.n(cur).left != NONE {
                cur = self.n(cur).left;
            }
            self.nm(cur).left = x;
            self.nm(x).parent = cur;
            self.bubble_up(x);
        }
        self.len += 1;
        x
    }

    /// Inserts `payload` as the last element; returns its handle.
    pub fn insert_last(&mut self, payload: u32) -> u32 {
        let x = self.alloc(payload);
        if self.root == NONE {
            self.root = x;
        } else {
            let mut cur = self.root;
            while self.n(cur).right != NONE {
                cur = self.n(cur).right;
            }
            self.nm(cur).right = x;
            self.nm(x).parent = cur;
            self.bubble_up(x);
        }
        self.len += 1;
        x
    }

    /// Inserts `payload` immediately after the node `at`; returns the new
    /// node's handle.
    pub fn insert_after(&mut self, at: u32, payload: u32) -> u32 {
        let x = self.alloc(payload);
        if self.n(at).right == NONE {
            self.nm(at).right = x;
            self.nm(x).parent = at;
        } else {
            let mut cur = self.n(at).right;
            while self.n(cur).left != NONE {
                cur = self.n(cur).left;
            }
            self.nm(cur).left = x;
            self.nm(x).parent = cur;
        }
        self.bubble_up(x);
        self.len += 1;
        x
    }

    /// Inserts `payload` immediately before the node `at`; returns the new
    /// node's handle.
    pub fn insert_before(&mut self, at: u32, payload: u32) -> u32 {
        let x = self.alloc(payload);
        if self.n(at).left == NONE {
            self.nm(at).left = x;
            self.nm(x).parent = at;
        } else {
            let mut cur = self.n(at).left;
            while self.n(cur).right != NONE {
                cur = self.n(cur).right;
            }
            self.nm(cur).right = x;
            self.nm(x).parent = cur;
        }
        self.bubble_up(x);
        self.len += 1;
        x
    }

    /// Removes the node `at` from the sequence and returns its payload.
    /// The handle is recycled; using it afterwards is a logic error.
    pub fn remove(&mut self, at: u32) -> u32 {
        // Rotate `at` down until it is a leaf, then detach.
        loop {
            let (l, r) = (self.n(at).left, self.n(at).right);
            if l == NONE && r == NONE {
                break;
            }
            let child = match (l, r) {
                (NONE, _) => r,
                (_, NONE) => l,
                _ if self.n(r).priority < self.n(l).priority => r,
                _ => l,
            };
            self.rotate_up(child);
        }
        let p = self.n(at).parent;
        if p == NONE {
            self.root = NONE;
        } else {
            if self.n(p).left == at {
                self.nm(p).left = NONE;
            } else {
                self.nm(p).right = NONE;
            }
            // shrink sizes up to the root
            let mut cur = p;
            while cur != NONE {
                self.nm(cur).size -= 1;
                cur = self.n(cur).parent;
            }
        }
        self.len -= 1;
        let payload = self.n(at).payload;
        self.free.push(at);
        payload
    }

    /// 1-based rank of `at` in the sequence, computed by walking to the
    /// root (`O(log n)` expected).
    pub fn rank(&self, at: u32) -> usize {
        let mut r = self.size_of(self.n(at).left) as usize + 1;
        let mut cur = at;
        let mut p = self.n(cur).parent;
        while p != NONE {
            if self.n(p).right == cur {
                r += self.size_of(self.n(p).left) as usize + 1;
            }
            cur = p;
            p = self.n(cur).parent;
        }
        r
    }

    /// `true` iff `a` precedes `b` in the sequence. `a == b` yields `false`.
    #[inline]
    pub fn precedes(&self, a: u32, b: u32) -> bool {
        if a == b {
            return false;
        }
        self.rank(a) < self.rank(b)
    }

    /// Handle of the node at 1-based `rank`, or `None` if out of range.
    /// (`O(log n)` top-down descent; used by tests and diagnostics.)
    pub fn select(&self, rank: usize) -> Option<u32> {
        if rank == 0 || rank > self.len {
            return None;
        }
        let mut cur = self.root;
        let mut need = rank;
        loop {
            let left = self.size_of(self.n(cur).left) as usize;
            if need == left + 1 {
                return Some(cur);
            } else if need <= left {
                cur = self.n(cur).left;
            } else {
                need -= left + 1;
                cur = self.n(cur).right;
            }
        }
    }

    /// In-order walk over the payloads. Steps from node to successor
    /// through parent pointers, so it allocates nothing and costs `O(n)`
    /// over the whole sequence.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let first = (self.root != NONE).then(|| self.leftmost(self.root));
        std::iter::successors(first, move |&x| self.successor(x)).map(move |x| self.n(x).payload)
    }

    fn leftmost(&self, mut x: u32) -> u32 {
        while self.n(x).left != NONE {
            x = self.n(x).left;
        }
        x
    }

    /// In-order successor of `x`, or `None` at the end.
    fn successor(&self, mut x: u32) -> Option<u32> {
        if self.n(x).right != NONE {
            return Some(self.leftmost(self.n(x).right));
        }
        let mut p = self.n(x).parent;
        while p != NONE && self.n(p).right == x {
            x = p;
            p = self.n(x).parent;
        }
        (p != NONE).then_some(p)
    }

    /// Verifies heap order, parent pointers, and subtree sizes; panics with
    /// a description on violation. Test-only helper (O(n)).
    pub fn check_invariants(&self) {
        if self.root == NONE {
            assert_eq!(self.len, 0, "empty tree but len = {}", self.len);
            return;
        }
        assert_eq!(self.n(self.root).parent, NONE, "root has a parent");
        let total = self.check_subtree(self.root);
        assert_eq!(total, self.len as u32, "len mismatch");
    }

    fn check_subtree(&self, x: u32) -> u32 {
        let node = self.n(x);
        let mut size = 1;
        for child in [node.left, node.right] {
            if child != NONE {
                assert_eq!(self.n(child).parent, x, "bad parent pointer");
                assert!(
                    self.n(child).priority >= node.priority,
                    "heap violation at {x}"
                );
                size += self.check_subtree(child);
            }
        }
        assert_eq!(node.size, size, "bad size at {x}");
        size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_back_sequence() {
        let mut t = OrderTreap::new(42);
        let handles: Vec<u32> = (0..100).map(|i| t.insert_last(i)).collect();
        t.check_invariants();
        assert!(t.iter().eq(0..100));
        for (i, &h) in handles.iter().enumerate() {
            assert_eq!(t.rank(h), i + 1);
            assert_eq!(t.payload(h), i as u32);
        }
    }

    #[test]
    fn push_front_reverses() {
        let mut t = OrderTreap::new(7);
        for i in 0..50 {
            t.insert_first(i);
        }
        t.check_invariants();
        assert!(t.iter().eq((0..50).rev()));
    }

    #[test]
    fn insert_after_and_before() {
        let mut t = OrderTreap::new(1);
        let a = t.insert_last(10);
        let c = t.insert_last(30);
        let b = t.insert_after(a, 20);
        let z = t.insert_before(a, 5);
        t.check_invariants();
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![5, 10, 20, 30]);
        assert!(t.precedes(z, a) && t.precedes(a, b) && t.precedes(b, c));
        assert!(!t.precedes(b, a));
        assert!(!t.precedes(a, a));
    }

    #[test]
    fn remove_middle_and_ends() {
        let mut t = OrderTreap::new(3);
        let hs: Vec<u32> = (0..10).map(|i| t.insert_last(i)).collect();
        assert_eq!(t.remove(hs[5]), 5);
        assert_eq!(t.remove(hs[0]), 0);
        assert_eq!(t.remove(hs[9]), 9);
        t.check_invariants();
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 6, 7, 8]);
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn remove_all_then_reuse() {
        let mut t = OrderTreap::new(5);
        let hs: Vec<u32> = (0..20).map(|i| t.insert_last(i)).collect();
        for h in hs {
            t.remove(h);
        }
        assert!(t.is_empty());
        t.check_invariants();
        let h = t.insert_first(99);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![99]);
        assert_eq!(t.rank(h), 1);
    }

    #[test]
    fn select_is_inverse_of_rank() {
        let mut t = OrderTreap::new(11);
        let hs: Vec<u32> = (0..64).map(|i| t.insert_last(i)).collect();
        for &h in &hs {
            assert_eq!(t.select(t.rank(h)), Some(h));
        }
        assert_eq!(t.select(0), None);
        assert_eq!(t.select(65), None);
    }

    #[test]
    fn interleaved_random_ops_match_vec_model() {
        // Deterministic pseudo-random op sequence cross-checked against a
        // Vec model.
        let mut t = OrderTreap::new(1234);
        let mut model: Vec<(u32, u32)> = Vec::new(); // (handle, payload)
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..2000u32 {
            let r = next();
            if model.is_empty() || r % 3 != 0 {
                // insert at a random position
                let payload = step;
                if model.is_empty() {
                    let h = t.insert_first(payload);
                    model.insert(0, (h, payload));
                } else {
                    let pos = (r / 3) as usize % model.len();
                    let h = t.insert_after(model[pos].0, payload);
                    model.insert(pos + 1, (h, payload));
                }
            } else {
                let pos = (r / 3) as usize % model.len();
                let (h, payload) = model.remove(pos);
                assert_eq!(t.remove(h), payload);
            }
        }
        t.check_invariants();
        let expected: Vec<u32> = model.iter().map(|&(_, p)| p).collect();
        assert_eq!(t.iter().collect::<Vec<_>>(), expected);
        for (i, &(h, _)) in model.iter().enumerate() {
            assert_eq!(t.rank(h), i + 1);
        }
    }

    #[test]
    fn precedes_total_order() {
        let mut t = OrderTreap::new(77);
        let hs: Vec<u32> = (0..30).map(|i| t.insert_last(i)).collect();
        for i in 0..hs.len() {
            for j in 0..hs.len() {
                assert_eq!(t.precedes(hs[i], hs[j]), i < j);
            }
        }
    }
}
