//! Property-based tests of the two `OrderSeq` implementations against a
//! `Vec`-per-level reference model, plus heap ordering properties.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kcore_order::{MinRankHeap, OrderSeq, TagList, TreapLevels};
use proptest::prelude::*;

/// Levels of the modelled k-order.
const LEVELS: usize = 4;

/// K-order operations addressed by level and by *position* into the
/// model's level. Inserts take the most recently removed vertex, else a
/// fresh one.
#[derive(Debug, Clone, Copy)]
enum SeqOp {
    InsertFirst(usize),
    InsertLast(usize),
    InsertAfter(usize, usize),
    /// `n` inserts right after one vertex: exhausts label gaps.
    Hammer(usize, usize, usize),
    Remove(usize, usize),
    /// Promotion-style move to the front of the next level (a remove
    /// on the top level).
    Promote(usize, usize),
    /// Dismissal-style move to the back of the previous level (a remove
    /// on level 0).
    Dismiss(usize, usize),
}

fn arb_ops(len: usize) -> impl Strategy<Value = Vec<SeqOp>> {
    let at = || (0..LEVELS, any::<prop::sample::Index>());
    prop::collection::vec(
        prop_oneof![
            (0..LEVELS).prop_map(SeqOp::InsertFirst),
            (0..LEVELS).prop_map(SeqOp::InsertLast),
            at().prop_map(|(k, i)| SeqOp::InsertAfter(k, i.index(1 << 16))),
            (at(), 1usize..64).prop_map(|((k, i), n)| SeqOp::Hammer(k, i.index(1 << 16), n)),
            at().prop_map(|(k, i)| SeqOp::Remove(k, i.index(1 << 16))),
            at().prop_map(|(k, i)| SeqOp::Promote(k, i.index(1 << 16))),
            at().prop_map(|(k, i)| SeqOp::Dismiss(k, i.index(1 << 16))),
        ],
        0..len,
    )
}

fn model_check<S: OrderSeq>(ops: &[SeqOp]) {
    let mut s = S::with_seed(0xC0FFEE);
    (0..LEVELS).for_each(|_| s.push_level());
    let mut model: Vec<Vec<u32>> = vec![Vec::new(); LEVELS];
    let (mut removed, mut fresh) = (Vec::new(), 0u32);
    let mut vertex = |removed: &mut Vec<u32>| {
        removed.pop().unwrap_or_else(|| {
            fresh += 1;
            fresh - 1
        })
    };
    for &op in ops {
        match op {
            SeqOp::InsertFirst(k) => {
                let v = vertex(&mut removed);
                s.insert_first(k as u32, v);
                model[k].insert(0, v);
            }
            SeqOp::InsertLast(k) => {
                let v = vertex(&mut removed);
                s.insert_last(k as u32, v);
                model[k].push(v);
            }
            SeqOp::InsertAfter(k, i) | SeqOp::Hammer(k, i, _) if !model[k].is_empty() => {
                let n = if let SeqOp::Hammer(.., n) = op { n } else { 1 };
                let i = i % model[k].len();
                for _ in 0..n {
                    let v = vertex(&mut removed);
                    s.insert_after(k as u32, model[k][i], v);
                    model[k].insert(i + 1, v);
                }
            }
            SeqOp::Remove(k, i) | SeqOp::Promote(k, i) | SeqOp::Dismiss(k, i)
                if !model[k].is_empty() =>
            {
                let len = model[k].len();
                let v = model[k].remove(i % len);
                s.remove(k as u32, v);
                match op {
                    SeqOp::Promote(..) if k + 1 < LEVELS => {
                        s.insert_first(k as u32 + 1, v);
                        model[k + 1].insert(0, v);
                    }
                    SeqOp::Dismiss(..) if k > 0 => {
                        s.insert_last(k as u32 - 1, v);
                        model[k - 1].push(v);
                    }
                    _ => removed.push(v),
                }
            }
            _ => {}
        }
        for (k, level) in model.iter().enumerate() {
            assert!(s.iter(k as u32).eq(level.iter().copied()), "level {k}");
            assert!(
                level.windows(2).all(|w| s.key(w[0]) < s.key(w[1])),
                "keys not strictly increasing on level {k}"
            );
        }
    }
    s.validate();
}

/// Heap operations for the interleaved contract test: a push names its
/// key as an offset above the last popped key.
#[derive(Debug, Clone, Copy)]
enum HeapOp {
    Push(u64),
    Pop,
}

fn arb_heap_ops() -> impl Strategy<Value = Vec<HeapOp>> {
    prop::collection::vec(
        prop_oneof![
            // Near the floor (equal keys included), mid-range and anywhere
            // above it, so entries land in low, middle and high buckets.
            (0u64..4).prop_map(HeapOp::Push),
            (0u64..1 << 20).prop_map(HeapOp::Push),
            any::<u64>().prop_map(HeapOp::Push),
            Just(HeapOp::Pop),
            Just(HeapOp::Pop),
        ],
        0..400,
    )
}

/// The vertex behind `key`: as in a promotion pass, equal keys name one
/// vertex, so pop order is fully determined.
fn vertex_of(key: u64) -> u32 {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as u32
}

/// `BinaryHeap` reference for [`MinRankHeap`], tracking the last key it
/// popped (stale entries included: both heaps discard them alike, and a
/// later push must not go below them).
#[derive(Default)]
struct Reference {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    last: u64,
}

impl Reference {
    fn pop_valid(&mut self, valid: impl Fn(u32) -> bool) -> Option<(u64, u32)> {
        while let Some(Reverse((k, v))) = self.heap.pop() {
            self.last = k;
            if valid(v) {
                return Some((k, v));
            }
        }
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn heap_interleaved_matches_binary_heap(
        ops in arb_heap_ops(),
        mask in prop::collection::vec(any::<bool>(), 64..65)
    ) {
        let mut h = MinRankHeap::new();
        let mut reference = Reference::default();
        let valid = |v: u32| mask[v as usize];
        for op in ops {
            match op {
                HeapOp::Push(offset) => {
                    let floor = reference.last;
                    let key = floor + offset % (u64::MAX - floor).max(1);
                    h.push(key, vertex_of(key));
                    reference.heap.push(Reverse((key, vertex_of(key))));
                }
                HeapOp::Pop => {
                    prop_assert_eq!(h.pop_valid(valid), reference.pop_valid(valid));
                }
            }
            prop_assert_eq!(h.len(), reference.heap.len());
        }
        loop {
            let got = h.pop_valid(valid);
            prop_assert_eq!(got, reference.pop_valid(valid));
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn treap_matches_model(ops in arb_ops(300)) {
        model_check::<TreapLevels>(&ops);
    }

    #[test]
    fn taglist_matches_model(ops in arb_ops(300)) {
        model_check::<TagList>(&ops);
    }

    #[test]
    fn heap_pops_sorted(mut keys in prop::collection::vec(any::<u64>(), 0..200)) {
        let mut h = MinRankHeap::new();
        for (i, &k) in keys.iter().enumerate() {
            h.push(k, i as u32);
        }
        let mut out = Vec::new();
        while let Some((k, _)) = h.pop_valid(|_| true) {
            out.push(k);
        }
        keys.sort_unstable();
        prop_assert_eq!(out, keys);
    }

    #[test]
    fn heap_lazy_filtering_drops_exactly_invalid(
        keys in prop::collection::vec((any::<u64>(), any::<bool>()), 0..120)
    ) {
        let mut h = MinRankHeap::new();
        for (i, &(k, _)) in keys.iter().enumerate() {
            h.push(k, i as u32);
        }
        let valid: Vec<bool> = keys.iter().map(|&(_, v)| v).collect();
        let mut out = Vec::new();
        while let Some((k, v)) = h.pop_valid(|v| valid[v as usize]) {
            out.push((k, v));
        }
        let mut expected: Vec<(u64, u32)> = keys
            .iter()
            .enumerate()
            .filter(|&(_, &(_, ok))| ok)
            .map(|(i, &(k, _))| (k, i as u32))
            .collect();
        expected.sort_unstable();
        out.sort_unstable();
        prop_assert_eq!(out, expected);
    }
}

/// Deterministic adversarial patterns that stress each structure's weak
/// spot: monotone appends (treap-friendly), single-point hammering (tag
/// relabel storms), and alternating ends.
#[test]
fn adversarial_patterns_all_structures() {
    fn drive<S: OrderSeq>() {
        // zigzag: alternate front/back
        let mut s = S::with_seed(3);
        s.push_level();
        for v in 0..800u32 {
            if v % 2 == 0 {
                s.insert_first(0, v);
            } else {
                s.insert_last(0, v);
            }
        }
        s.validate();
        let order = s.iter(0).collect::<Vec<_>>();
        assert_eq!(order.len(), 800);
        // fronts reversed, then backs in order
        assert_eq!(order[0], 798);
        assert_eq!(order[799], 799);
        // hammer one gap
        for v in 1000..1800u32 {
            s.insert_after(0, 0, v);
        }
        s.validate();
        assert_eq!(s.iter(0).count(), 1600);
        // drain from the middle out
        for v in 0..800u32 {
            s.remove(0, v);
        }
        s.validate();
        assert_eq!(s.iter(0).count(), 800);
    }
    drive::<TreapLevels>();
    drive::<TagList>();
}
