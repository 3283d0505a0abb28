//! Property-based tests of the two `OrderSeq` implementations against a
//! `Vec` reference model, plus heap ordering properties.

use kcore_order::{MinRankHeap, OrderSeq, OrderTreap, TagList};
use proptest::prelude::*;

/// Sequence operations addressed by *position* into the model.
#[derive(Debug, Clone, Copy)]
enum SeqOp {
    InsertFirst(u32),
    InsertLast(u32),
    InsertAfter(usize, u32),
    InsertBefore(usize, u32),
    Remove(usize),
}

fn arb_ops(len: usize) -> impl Strategy<Value = Vec<SeqOp>> {
    prop::collection::vec(
        prop_oneof![
            any::<u32>().prop_map(SeqOp::InsertFirst),
            any::<u32>().prop_map(SeqOp::InsertLast),
            (any::<prop::sample::Index>(), any::<u32>())
                .prop_map(|(i, p)| SeqOp::InsertAfter(i.index(1 << 16), p)),
            (any::<prop::sample::Index>(), any::<u32>())
                .prop_map(|(i, p)| SeqOp::InsertBefore(i.index(1 << 16), p)),
            any::<prop::sample::Index>().prop_map(|i| SeqOp::Remove(i.index(1 << 16))),
        ],
        0..len,
    )
}

fn model_check<S: OrderSeq>(ops: &[SeqOp]) {
    let mut s = S::with_seed(0xC0FFEE);
    let mut model: Vec<(u32, u32)> = Vec::new(); // (handle, payload)
    for &op in ops {
        match op {
            SeqOp::InsertFirst(p) => {
                let h = s.insert_first(p);
                model.insert(0, (h, p));
            }
            SeqOp::InsertLast(p) => {
                let h = s.insert_last(p);
                model.push((h, p));
            }
            SeqOp::InsertAfter(i, p) => {
                if model.is_empty() {
                    let h = s.insert_first(p);
                    model.insert(0, (h, p));
                } else {
                    let i = i % model.len();
                    let h = s.insert_after(model[i].0, p);
                    model.insert(i + 1, (h, p));
                }
            }
            SeqOp::InsertBefore(i, p) => {
                if model.is_empty() {
                    let h = s.insert_first(p);
                    model.insert(0, (h, p));
                } else {
                    let i = i % model.len();
                    let h = s.insert_before(model[i].0, p);
                    model.insert(i, (h, p));
                }
            }
            SeqOp::Remove(i) => {
                if !model.is_empty() {
                    let i = i % model.len();
                    let (h, p) = model.remove(i);
                    assert_eq!(s.remove(h), p);
                }
            }
        }
        assert_eq!(s.len(), model.len());
    }
    s.validate();
    assert_eq!(
        s.iter().collect::<Vec<_>>(),
        model.iter().map(|&(_, p)| p).collect::<Vec<_>>()
    );
    // Order relations and key monotonicity across sampled pairs.
    let step = (model.len() / 16).max(1);
    for i in (0..model.len()).step_by(step) {
        for j in (0..model.len()).step_by(step) {
            let (hi, hj) = (model[i].0, model[j].0);
            assert_eq!(s.precedes(hi, hj), i < j, "precedes({i},{j})");
            if i < j {
                assert!(s.order_key(hi) < s.order_key(hj));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn treap_matches_model(ops in arb_ops(300)) {
        model_check::<OrderTreap>(&ops);
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
        let mut front = Vec::new();
        let mut back = Vec::new();
        for i in 0..800u32 {
            if i % 2 == 0 {
                front.push(s.insert_first(i));
            } else {
                back.push(s.insert_last(i));
            }
        }
        s.validate();
        let v = s.iter().collect::<Vec<_>>();
        assert_eq!(v.len(), 800);
        // fronts reversed, then backs in order
        assert_eq!(v[0], 798);
        assert_eq!(v[799], 799);
        // hammer one gap
        let anchor = front[0];
        for i in 0..800u32 {
            s.insert_after(anchor, 1000 + i);
        }
        s.validate();
        assert_eq!(s.len(), 1600);
        // drain from the middle out
        for h in front.into_iter().chain(back) {
            s.remove(h);
        }
        s.validate();
        assert_eq!(s.len(), 800);
    }
    drive::<OrderTreap>();
    drive::<TagList>();
}
