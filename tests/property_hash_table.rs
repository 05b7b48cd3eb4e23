//! Property tests for the vectorized hash engine
//! (`tqp_tensor::hash`): both join tables — the flat arena table and the
//! direct-addressed dense table — must agree with a plain
//! `HashMap<i64, Vec<u32>>` oracle — same key set, same per-key row
//! list, and rows in **ascending input order** within every bucket (the
//! determinism contract the join build relies on) — on adversarial key
//! distributions: extremes (`i64::MIN`/`MAX`), all-equal, dense
//! sequential, and synthetic same-bucket collisions built by *inverting*
//! the `mix64` finalizer. The join build counts which table it picked.

use std::collections::HashMap;

use proptest::prelude::*;
use tqp_exec::batch::Batch;
use tqp_exec::join::{self, JoinTable};
use tqp_tensor::hash::{self, DenseRowTable, FlatRowTable};
use tqp_tensor::Tensor;

/// Oracle: per-key ascending row ids, in first-appearance key order.
fn oracle(keys: &[i64]) -> HashMap<i64, Vec<u32>> {
    let mut m: HashMap<i64, Vec<u32>> = HashMap::new();
    for (i, &k) in keys.iter().enumerate() {
        m.entry(k).or_default().push(i as u32);
    }
    m
}

/// Assert the flat table holds exactly the oracle's contents, with every
/// bucket's rows for a key in ascending order.
fn assert_matches_oracle(keys: &[i64]) {
    let hashes = hash::hash_i64(keys);
    let want = oracle(keys);
    for hint in [None, Some(1u64), Some(keys.len() as u64 * 4 + 1)] {
        let t = FlatRowTable::build(keys, &hashes, hint);
        assert_eq!(t.len(), want.len(), "distinct count (hint {hint:?})");
        assert_eq!(t.n_entries(), keys.len(), "entry count (hint {hint:?})");
        for (&k, rows) in &want {
            let h = hash::hash_i64(&[k])[0];
            assert_eq!(
                t.count_matches(k, h),
                rows.len(),
                "count for key {k} (hint {hint:?})"
            );
            let (bkeys, brows) = t.bucket(h);
            let got: Vec<u32> = bkeys
                .iter()
                .zip(brows)
                .filter(|&(bk, _)| *bk == k)
                .map(|(_, &r)| r)
                .collect();
            assert_eq!(got, *rows, "rows for key {k} in ascending input order");
        }
    }
}

/// The dense table holds exactly the oracle's contents when the exact span
/// of `keys` passes the rule, and is refused when it does not.
fn assert_dense_matches_oracle(keys: &[i64]) -> Result<(), TestCaseError> {
    let span = match (keys.iter().min(), keys.iter().max()) {
        (Some(&lo), Some(&hi)) => (hi as i128 - lo as i128 + 1) as u128,
        _ => 0,
    };
    let fits = span <= u64::MAX as u128 && hash::dense_span_fits(span as u64, keys.len() as u64);
    let Some(t) = DenseRowTable::build(keys, None) else {
        prop_assert!(!fits, "span {} over {} rows was refused", span, keys.len());
        return Ok(());
    };
    prop_assert!(fits, "span {} over {} rows was admitted", span, keys.len());
    let want = oracle(keys);
    prop_assert_eq!(t.len(), want.len());
    for (&k, rows) in &want {
        prop_assert_eq!(t.rows_of(k), &rows[..], "rows for key {}", k);
        for near in [
            k.wrapping_sub(1),
            k.wrapping_add(1),
            k ^ (1 << 40),
            i64::MIN,
            i64::MAX,
        ] {
            if !want.contains_key(&near) {
                prop_assert!(t.rows_of(near).is_empty(), "absent key {}", near);
            }
        }
    }
    Ok(())
}

/// A single-key `I64` join builds a dense table when its span allows and
/// a hashed table otherwise; a two-column join always hashes. Each build
/// counts once, under its kind. No other test in this binary builds a
/// join table, so the deltas are exact.
#[test]
fn join_builds_count_their_table_kind() {
    let counter = |name: &str| tqp_obs::registry().counter(name);
    let (dense, hashed) = (
        counter("exec.join.dense_builds"),
        counter("exec.join.hashed_builds"),
    );
    let build = |keys: &[usize], cols: Vec<Tensor>| {
        let (d0, h0) = (dense.get(), hashed.get());
        let table = join::build_table(&Batch::new(cols), keys);
        (table, dense.get() - d0, hashed.get() - h0)
    };
    let (table, d, h) = build(&[0], vec![Tensor::from_i64(vec![3, 1, 4, 1, 5])]);
    assert!(matches!(table, JoinTable::Dense(_)));
    assert_eq!((d, h), (1, 0), "a dense-key join");
    let (table, d, h) = build(&[0], vec![Tensor::from_i64(vec![3, -(1 << 50)])]);
    assert!(matches!(table, JoinTable::Hashed { .. }));
    assert_eq!((d, h), (0, 1), "a sparse single-key join");
    let two = vec![Tensor::from_i64(vec![1, 2]), Tensor::from_i64(vec![3, 4])];
    let (table, d, h) = build(&[0, 1], two);
    assert!(matches!(table, JoinTable::Hashed { .. }));
    assert_eq!((d, h), (0, 1), "a two-column join");
}

/// Multiplicative inverse of an odd u64 (Newton's iteration).
fn odd_inverse(m: u64) -> u64 {
    let mut inv = m; // correct mod 2^3
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
    }
    inv
}

/// Invert `mix64`: `x ^ (x >> 32)` is self-inverse, the Fibonacci
/// multiply inverts via the odd inverse — so we can manufacture keys
/// whose hashes share any chosen top/bottom bit pattern.
fn mix64_invert(h: u64) -> u64 {
    const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
    let x = h ^ (h >> 32);
    x.wrapping_mul(odd_inverse(FIB))
}

#[test]
fn mix64_inversion_is_exact() {
    for h in [
        0u64,
        1,
        0xdead_beef,
        u64::MAX,
        1 << 63,
        0x1234_5678_9abc_def0,
    ] {
        assert_eq!(hash::mix64(mix64_invert(h)), h);
    }
}

#[test]
fn extreme_keys_match_oracle() {
    let keys = [
        i64::MIN,
        i64::MAX,
        0,
        -1,
        1,
        i64::MIN,
        i64::MAX,
        i64::MIN + 1,
        i64::MAX - 1,
        0,
    ];
    assert_matches_oracle(&keys);
}

#[test]
fn all_equal_keys_match_oracle() {
    assert_matches_oracle(&vec![42i64; 4097]);
}

#[test]
fn dense_sequential_keys_match_oracle() {
    let keys: Vec<i64> = (0..10_000).collect();
    assert_matches_oracle(&keys);
}

/// Keys engineered (via mix64 inversion) so every hash lands in the same
/// directory slot of a 1024-bucket table *and* shares identical low 32
/// bits: the bucket scan must still separate them by key equality while
/// keeping each key's rows in input order.
#[test]
fn synthetic_same_bucket_collisions_match_oracle() {
    let mut keys = Vec::new();
    for i in 0..64u64 {
        // Same low bits (directory index), distinct high bits.
        let h = 0x0000_0000_dead_0000u64 | (i << 40);
        let k = mix64_invert(h) as i64;
        // Three duplicate rows per engineered key, interleaved.
        keys.push(k);
    }
    let base = keys.clone();
    keys.extend(&base);
    keys.extend(&base);
    assert_matches_oracle(&keys);
}

/// Group-by lookup: first-appearance group ids must match a HashMap scan.
fn assert_groups_match(keys: &[i64]) {
    let hashes = hash::hash_i64(keys);
    let (gids, firsts) = hash::group_rows_by_hash(&hashes, |i, j| keys[i] == keys[j]);
    let mut seen: HashMap<i64, i64> = HashMap::new();
    let mut want_firsts = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        let next = seen.len() as i64;
        let gid = *seen.entry(k).or_insert_with(|| {
            want_firsts.push(i as i64);
            next
        });
        assert_eq!(gids[i], gid, "gid for row {i}");
    }
    assert_eq!(firsts, want_firsts, "first-appearance rows");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_keys_match_oracle(keys in prop::collection::vec(any::<i64>(), 0..500)) {
        assert_matches_oracle(&keys);
    }

    #[test]
    fn high_collision_keys_match_oracle(keys in prop::collection::vec(-8i64..8, 0..800)) {
        assert_matches_oracle(&keys);
    }

    #[test]
    fn dense_table_matches_oracle(
        base in any::<i64>(),
        offsets in prop::collection::vec(0i64..3000, 0..400),
        spread in prop_oneof![Just(1i64), Just(7), Just(1 << 12), Just(1 << 24)],
    ) {
        // Offsets from a random base, scaled so some spans pass the rule
        // and some do not; wrapping sets reach across i64::MIN/MAX.
        let keys: Vec<i64> = offsets.iter().map(|&o| base.wrapping_add(o * spread)).collect();
        assert_dense_matches_oracle(&keys)?;
    }

    #[test]
    fn dense_table_matches_oracle_on_extremes(
        picks in prop::collection::vec(prop_oneof![
            Just(i64::MIN), Just(i64::MIN + 1), Just(i64::MIN + 64), Just(-1), Just(0), Just(1),
            Just(i64::MAX - 64), Just(i64::MAX - 1), Just(i64::MAX),
        ], 0..60),
    ) {
        assert_dense_matches_oracle(&picks)?;
    }

    #[test]
    fn random_groups_match_oracle(keys in prop::collection::vec(-50i64..50, 0..600)) {
        assert_groups_match(&keys);
    }

    #[test]
    fn group_ids_are_hash_independent(keys in prop::collection::vec(any::<i64>(), 0..300)) {
        // Shifting every hash by a constant must not change group ids —
        // they are first-appearance ordered, not hash ordered.
        let hashes = hash::hash_i64(&keys);
        let (gids, firsts) = hash::group_rows_by_hash(&hashes, |i, j| keys[i] == keys[j]);
        let shifted: Vec<u64> = hashes.iter().map(|h| h.wrapping_mul(0x10001).wrapping_add(7)).collect();
        let (gids2, firsts2) = hash::group_rows_by_hash(&shifted, |i, j| keys[i] == keys[j]);
        prop_assert_eq!(gids, gids2);
        prop_assert_eq!(firsts, firsts2);
    }
}
