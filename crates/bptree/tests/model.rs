//! Model-based tests: a bulk-loaded B+-tree of any order must agree with a
//! sorted-vector oracle on arbitrary range queries.

use pm_lsh_bptree::BPlusTree;
use proptest::prelude::*;

fn model_range(model: &[(f32, u32)], lo: f32, hi: f32) -> Vec<(f32, u32)> {
    let mut out: Vec<(f32, u32)> = model
        .iter()
        .copied()
        .filter(|&(k, _)| k >= lo && k <= hi)
        .collect();
    out.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    out
}

#[test]
fn bulk_load_and_range_basic() {
    let pairs: Vec<(f32, u32)> = (0..1000).map(|i| (i as f32, i)).collect();
    let tree = BPlusTree::bulk_load(&pairs);
    tree.verify_invariants().unwrap();
    assert_eq!(tree.len(), 1000);
    assert!(tree.height() >= 2);
    let got = tree.range(100.0, 109.5);
    assert_eq!(got.len(), 10);
    assert_eq!(got[0], (100.0, 100));
    assert_eq!(tree.range(2000.0, 3000.0), vec![]);
    assert_eq!(tree.range(5.0, 2.0), vec![]);
}

#[test]
fn small_order_deep_tree() {
    let mut pairs: Vec<(f32, u32)> = (0..200).map(|i| ((i % 50) as f32, i)).collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let tree = BPlusTree::bulk_load_with_order(&pairs, 4);
    tree.verify_invariants().unwrap();
    assert!(tree.height() >= 3);
    assert_eq!(tree.len(), 200);
    // duplicate-heavy range
    assert_eq!(tree.range(10.0, 10.0).len(), 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tree_matches_model(
        keys in proptest::collection::vec(-1000i32..1000, 1..400),
        order in 4usize..16,
        ranges in proptest::collection::vec((-1000i32..1000, 0i32..200), 1..8),
    ) {
        let model: Vec<(f32, u32)> =
            keys.iter().enumerate().map(|(i, &k)| (k as f32 * 0.25, i as u32)).collect();
        let mut pairs = model.clone();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let tree = BPlusTree::bulk_load_with_order(&pairs, order);
        tree.verify_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(tree.len(), model.len());

        for &(lo_raw, span) in &ranges {
            let lo = lo_raw as f32 * 0.25;
            let hi = lo + span as f32 * 0.25;
            let got = tree.range(lo, hi);
            let want = model_range(&model, lo, hi);
            // same multiset of keys and same ids
            let got_keys: Vec<f32> = got.iter().map(|p| p.0).collect();
            let want_keys: Vec<f32> = want.iter().map(|p| p.0).collect();
            prop_assert_eq!(got_keys, want_keys);
            let mut got_ids: Vec<u32> = got.iter().map(|p| p.1).collect();
            let mut want_ids: Vec<u32> = want.iter().map(|p| p.1).collect();
            got_ids.sort_unstable();
            want_ids.sort_unstable();
            prop_assert_eq!(got_ids, want_ids);
        }
    }

    #[test]
    fn bulk_load_matches_model(
        mut keys in proptest::collection::vec(-500i32..500, 0..300),
        anchor in -500i32..500,
    ) {
        keys.sort_unstable();
        let pairs: Vec<(f32, u32)> =
            keys.iter().enumerate().map(|(i, &k)| (k as f32, i as u32)).collect();
        let tree = BPlusTree::bulk_load(&pairs);
        tree.verify_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(tree.len(), pairs.len());

        // nearest-first cursor visits everything in non-decreasing offset
        let mut cur = pm_lsh_bptree::ExpandingCursor::new(&tree, anchor as f32);
        let mut last = 0.0f32;
        let mut n = 0;
        while let Some((k, _, _)) = cur.next_nearest() {
            let off = (k - anchor as f32).abs();
            prop_assert!(off >= last - 1e-6);
            last = off;
            n += 1;
        }
        prop_assert_eq!(n, pairs.len());
    }
}
