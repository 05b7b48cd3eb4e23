//! Property-based tests for the tensor runtime's core invariants — the
//! kernels every relational operator is built from.

use proptest::prelude::*;
use tqp_repro::tensor as tt;
use tt::index::{filter, mask_to_indices, searchsorted, take, Side};
use tt::ops::{compare_scalar, CmpOp};
use tt::reduce::{segmented_reduce, sum_f64, AggFn};
use tt::sort::{argsort, argsort_multi, Order, SortKey};
use tt::strings::LikePattern;
use tt::{Scalar, Tensor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn argsort_is_a_stable_permutation(xs in prop::collection::vec(-1000i64..1000, 0..200)) {
        let t = Tensor::from_i64(xs.clone());
        let perm = argsort(&t, Order::Asc);
        // A permutation: sorted indices are 0..n.
        let mut idx = perm.to_i64_vec();
        idx.sort_unstable();
        prop_assert_eq!(idx, (0..xs.len() as i64).collect::<Vec<_>>());
        // Output is ordered and matches std's stable sort.
        let sorted = take(&t, &perm);
        let mut expect = xs.clone();
        expect.sort();
        prop_assert_eq!(sorted.as_i64(), expect.as_slice());
        // Stability: equal keys keep original order.
        let pv = perm.to_i64_vec();
        for w in pv.windows(2) {
            if xs[w[0] as usize] == xs[w[1] as usize] {
                prop_assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn multi_key_sort_matches_std(pairs in prop::collection::vec((-20i64..20, -5i64..5), 0..150)) {
        let a = Tensor::from_i64(pairs.iter().map(|p| p.0).collect());
        let b = Tensor::from_i64(pairs.iter().map(|p| p.1).collect());
        let perm = argsort_multi(&[SortKey::asc(a), SortKey::desc(b)]);
        let got: Vec<(i64, i64)> =
            perm.to_i64_vec().iter().map(|&i| pairs[i as usize]).collect();
        let mut expect = pairs.clone();
        expect.sort_by(|x, y| x.0.cmp(&y.0).then(y.1.cmp(&x.1)));
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn filter_equals_scan(xs in prop::collection::vec(-100f64..100.0, 0..300), thr in -50f64..50.0) {
        let t = Tensor::from_f64(xs.clone());
        let mask = compare_scalar(CmpOp::Lt, &t, &Scalar::F64(thr));
        let got = filter(&t, &mask);
        let expect: Vec<f64> = xs.into_iter().filter(|&x| x < thr).collect();
        prop_assert_eq!(got.as_f64(), expect.as_slice());
    }

    #[test]
    fn mask_to_indices_roundtrip(mask in prop::collection::vec(any::<bool>(), 0..300)) {
        let m = Tensor::from_bool(mask.clone());
        let idx = mask_to_indices(&m);
        let expect: Vec<i64> =
            mask.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i as i64).collect();
        prop_assert_eq!(idx.as_i64(), expect.as_slice());
    }

    #[test]
    fn searchsorted_matches_linear_scan(
        mut hay in prop::collection::vec(-100i64..100, 0..100),
        needles in prop::collection::vec(-120i64..120, 0..50),
    ) {
        hay.sort_unstable();
        let h = Tensor::from_i64(hay.clone());
        let n = Tensor::from_i64(needles.clone());
        let left = searchsorted(&h, &n, Side::Left);
        let right = searchsorted(&h, &n, Side::Right);
        for (k, &v) in needles.iter().enumerate() {
            let l = hay.iter().filter(|&&x| x < v).count() as i64;
            let r = hay.iter().filter(|&&x| x <= v).count() as i64;
            prop_assert_eq!(left.as_i64()[k], l);
            prop_assert_eq!(right.as_i64()[k], r);
        }
    }

    #[test]
    fn segmented_sum_equals_naive(
        rows in prop::collection::vec((0usize..8, -100f64..100.0), 0..300),
    ) {
        // Ids in input order, unsorted: each group folds its rows in row
        // order, so the sums match a sequential per-key fold bitwise.
        let ids = Tensor::from_i64(rows.iter().map(|r| r.0 as i64).collect());
        let vals = Tensor::from_f64(rows.iter().map(|r| r.1).collect());
        let sums = segmented_reduce(&vals, &ids, 8, AggFn::Sum);
        for key in 0..8 {
            let expect = rows.iter().filter(|r| r.0 == key).fold(0.0, |acc, r| acc + r.1);
            prop_assert_eq!(sums.as_f64()[key].to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn sum_matches_iterator(xs in prop::collection::vec(-1e6f64..1e6, 0..1000)) {
        let t = Tensor::from_f64(xs.clone());
        let expect: f64 = xs.iter().sum();
        prop_assert!((sum_f64(&t) - expect).abs() <= 1e-6 * expect.abs().max(1.0));
    }

    #[test]
    fn like_matches_naive_matcher(
        s in "[a-c]{0,12}",
        pat in "[a-c%_]{0,8}",
    ) {
        let compiled = LikePattern::compile(&pat);
        let got = compiled.matches(s.as_bytes());
        prop_assert_eq!(got, naive_like(pat.as_bytes(), s.as_bytes()),
            "pattern {:?} on {:?}", pat, s);
    }

    // The searched matcher (rarest-byte scan for `_`-free segments) against
    // a table-filling reference, on haystacks long enough to cross the
    // eight-byte scan words many times: `%` runs (empty segments), `_`,
    // anchors at either, both or neither end.
    #[test]
    fn like_search_matches_reference_on_long_haystacks(
        s in "[a-cq ]{0,90}",
        pat in "[a-cq%_]{0,10}",
        head in "[a-cq]{0,3}",
        tail in "[a-cq]{0,3}",
    ) {
        for pat in [pat.clone(), format!("{head}%{pat}"), format!("{pat}%{tail}"), format!("{head}%{pat}%{tail}")] {
            let got = LikePattern::compile(&pat).matches(s.as_bytes());
            prop_assert_eq!(got, dp_like(pat.as_bytes(), s.as_bytes()),
                "pattern {:?} on {:?}", pat, s);
        }
    }

    #[test]
    fn take_concat_roundtrip(xs in prop::collection::vec(-100i64..100, 1..100), split in 0usize..100) {
        let t = Tensor::from_i64(xs.clone());
        let k = split.min(xs.len());
        let head = tt::index::head(&t, k);
        let tail = tt::index::slice_rows(&t, k, xs.len());
        let back = tt::index::concat(&[&head, &tail]);
        prop_assert_eq!(back.as_i64(), xs.as_slice());
    }

    #[test]
    fn matmul_matches_naive(
        n in 1usize..6, k in 1usize..6, m in 1usize..6,
        seed in 0u64..1000,
    ) {
        let av: Vec<f64> = (0..n * k).map(|i| ((i as u64 * 37 + seed) % 19) as f64 - 9.0).collect();
        let bv: Vec<f64> = (0..k * m).map(|i| ((i as u64 * 53 + seed) % 17) as f64 - 8.0).collect();
        let c = tt::gemm::matmul_f64(
            &Tensor::from_f64_matrix(av.clone(), n, k),
            &Tensor::from_f64_matrix(bv.clone(), k, m),
        );
        for i in 0..n {
            for j in 0..m {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += av[i * k + kk] * bv[kk * m + j];
                }
                prop_assert!((c.as_f64()[i * m + j] - acc).abs() < 1e-9);
            }
        }
    }
}

/// Exponential-time reference LIKE matcher (correct by construction).
fn naive_like(pat: &[u8], s: &[u8]) -> bool {
    match (pat.first(), s.first()) {
        (None, None) => true,
        (None, Some(_)) => false,
        (Some(b'%'), _) => naive_like(&pat[1..], s) || (!s.is_empty() && naive_like(pat, &s[1..])),
        (Some(b'_'), Some(_)) => naive_like(&pat[1..], &s[1..]),
        (Some(&p), Some(&c)) if p == c => naive_like(&pat[1..], &s[1..]),
        _ => false,
    }
}

/// Polynomial-time reference LIKE matcher: `ok[i][j]` = `pat[i..]` matches
/// `s[j..]`, filled from the ends.
fn dp_like(pat: &[u8], s: &[u8]) -> bool {
    let (m, n) = (pat.len(), s.len());
    let mut ok = vec![vec![false; n + 1]; m + 1];
    ok[m][n] = true;
    for i in (0..m).rev() {
        for j in (0..=n).rev() {
            ok[i][j] = match pat[i] {
                b'%' => ok[i + 1][j] || (j < n && ok[i][j + 1]),
                b'_' => j < n && ok[i + 1][j + 1],
                c => j < n && s[j] == c && ok[i + 1][j + 1],
            };
        }
    }
    ok[0][0]
}
