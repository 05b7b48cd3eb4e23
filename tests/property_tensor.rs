//! Property-based tests for the tensor runtime's core invariants — the
//! kernels every relational operator is built from.

use proptest::prelude::*;
use tqp_repro::tensor as tt;
use tt::index::{filter, mask_to_indices, take};
use tt::ops::{compare_scalar, CmpOp};
use tt::reduce::{segmented_reduce, sum_f64, AggFn};
use tt::sort::{argsort, argsort_multi, topk_merge, topk_range, Order, SortKey};
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

    // Top-k over `workers` contiguous ranges plus one merge — the way the
    // VM runs `ORDER BY … LIMIT k` — is the first k rows of the stable
    // sort: duplicate-heavy keys, ±0.0 and ±NaN, prefix-sharing strings,
    // every mix of directions, k from 0 past n.
    #[test]
    fn topk_is_the_prefix_of_the_stable_sort(
        rows in prop::collection::vec((0i64..4, 0usize..7, 0usize..4), 0..200),
        desc in prop::collection::vec(any::<bool>(), 3..4),
        k_pick in 0usize..5,
    ) {
        const FLOATS: [f64; 7] = [0.0, -0.0, f64::NAN, -f64::NAN, 1.5, -2.0, f64::INFINITY];
        const WORDS: [&str; 4] = ["a", "ab", "b", "ba"];
        let n = rows.len();
        let key = |t: Tensor, d: bool| if d { SortKey::desc(t) } else { SortKey::asc(t) };
        let words: Vec<&str> = rows.iter().map(|r| WORDS[r.2]).collect();
        let keys = [
            key(Tensor::from_f64(rows.iter().map(|r| FLOATS[r.1]).collect()), desc[0]),
            key(Tensor::from_strings(&words, 0), desc[1]),
            key(Tensor::from_i64(rows.iter().map(|r| r.0).collect()), desc[2]),
        ];
        let full = argsort_multi(&keys).to_i64_vec();
        let k = [0, 1, n.saturating_sub(1), n, n + 5][k_pick];
        for workers in [1usize, 2, 4, 8] {
            let len = n.div_ceil(workers).max(1);
            let candidates: Vec<i64> = (0..workers)
                .flat_map(|w| topk_range(&keys, (w * len).min(n), ((w + 1) * len).min(n), k))
                .collect();
            let got = topk_merge(&keys, candidates, k);
            prop_assert_eq!(got.as_i64(), &full[..k.min(n)], "k={} workers={}", k, workers);
        }
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
