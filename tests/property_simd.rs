//! SIMD-vs-scalar bitwise parity on adversarial inputs.
//!
//! The explicit SIMD layer's contract (`tqp_tensor::simd` module docs) is
//! that every vector tier produces *bitwise identical* output to the
//! public scalar reference. These properties feed the dispatchers the
//! values most likely to break that contract — NaN (both payload signs),
//! ±0.0, ±inf, subnormals, `i64::MIN`/`MAX`-adjacent values, ragged tails
//! shorter than one vector width, all-NULL and alternating validity
//! bitmaps — and demand equality with the `simd::scalar` oracle.
//!
//! The whole file runs at whatever tier the host dispatches (AVX-512 on
//! CI's main leg); the `TQP_SIMD=off` CI leg re-runs it with the
//! dispatchers pinned to scalar, where parity is trivially the identity —
//! that leg instead guards the oracle itself against rot.

use proptest::prelude::*;
use tqp_tensor::simd::{self, scalar, CmpF64, CmpI64};

/// Adversarial f64s: every IEEE special plus ordinary magnitudes.
fn evil_f64() -> BoxedStrategy<f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(-f64::NAN),
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MIN_POSITIVE),                      // smallest normal
        Just(f64::from_bits(1)),                      // smallest subnormal
        Just(-f64::from_bits(0x000f_ffff_ffff_ffff)), // largest -subnormal
        Just(f64::MAX),
        Just(f64::MIN),
        -1.0e6f64..1.0e6,
    ]
}

/// Adversarial i64s: MIN/MAX-adjacent plus small values (the wrapping
/// interval compare and the FOR decode both bias around extremes).
fn evil_i64() -> BoxedStrategy<i64> {
    prop_oneof![
        Just(i64::MIN),
        Just(i64::MIN + 1),
        Just(i64::MAX),
        Just(i64::MAX - 1),
        Just(0i64),
        Just(-1i64),
        -1000i64..1000,
    ]
}

/// Validity-bitmap shapes: random, all-NULL, all-valid, alternating.
fn validity(len: std::ops::Range<usize>) -> BoxedStrategy<Vec<bool>> {
    let rand = prop::collection::vec(any::<bool>(), len.clone());
    let all_null = (len.start.max(1)..len.end).prop_map(|n| vec![false; n]);
    let all_valid = (len.start.max(1)..len.end).prop_map(|n| vec![true; n]);
    let alternating =
        (len.start.max(1)..len.end).prop_map(|n| (0..n).map(|i| i % 2 == 0).collect());
    prop_oneof![rand, all_null, all_valid, alternating]
}

fn i64_op() -> BoxedStrategy<CmpI64> {
    prop_oneof![
        evil_i64().prop_map(CmpI64::Eq),
        evil_i64().prop_map(CmpI64::Ne),
        evil_i64().prop_map(CmpI64::Lt),
        evil_i64().prop_map(CmpI64::Le),
        evil_i64().prop_map(CmpI64::Gt),
        evil_i64().prop_map(CmpI64::Ge),
        (evil_i64(), any::<u64>()).prop_map(|(lo, r)| CmpI64::In(lo, r)),
    ]
}

fn f64_op() -> BoxedStrategy<CmpF64> {
    prop_oneof![
        evil_f64().prop_map(CmpF64::Eq),
        evil_f64().prop_map(CmpF64::Ne),
        evil_f64().prop_map(CmpF64::Lt),
        evil_f64().prop_map(CmpF64::Le),
        evil_f64().prop_map(CmpF64::Gt),
        evil_f64().prop_map(CmpF64::Ge),
        (evil_f64(), any::<bool>(), evil_f64(), any::<bool>()).prop_map(
            |(lo, lo_strict, hi, hi_strict)| CmpF64::In {
                lo,
                lo_strict,
                hi,
                hi_strict,
            }
        ),
    ]
}

// Lengths straddle the 16-element short-slice cutoff and both vector
// widths (4 and 8 lanes), so ragged tails of every residue are hit.
const LEN: std::ops::Range<usize> = 0..70;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mask_i64_parity(
        op in i64_op(),
        xs in prop::collection::vec(evil_i64(), LEN),
        init in validity(LEN),
        and in any::<bool>(),
    ) {
        let mut want = vec![false; xs.len()];
        let mut got = vec![false; xs.len()];
        for (d, &s) in want.iter_mut().zip(&init) {
            *d = s;
        }
        got.copy_from_slice(&want);
        scalar::mask_i64(op, &xs, &mut want, and);
        simd::mask_i64(op, &xs, &mut got, and);
        prop_assert_eq!(&want, &got, "op {:?}", op);
    }

    #[test]
    fn mask_f64_parity(
        op in f64_op(),
        xs in prop::collection::vec(evil_f64(), LEN),
        init in validity(LEN),
        and in any::<bool>(),
    ) {
        let mut want = vec![false; xs.len()];
        let mut got = vec![false; xs.len()];
        for (d, &s) in want.iter_mut().zip(&init) {
            *d = s;
        }
        got.copy_from_slice(&want);
        scalar::mask_f64(op, &xs, &mut want, and);
        simd::mask_f64(op, &xs, &mut got, and);
        prop_assert_eq!(&want, &got, "op {:?}", op);
    }

    #[test]
    fn mask_bool_parity(src in validity(LEN), init in validity(LEN), and in any::<bool>()) {
        let n = src.len().min(init.len());
        let mut want = init[..n].to_vec();
        let mut got = want.clone();
        scalar::mask_bool(&src[..n], &mut want, and);
        simd::mask_bool(&src[..n], &mut got, and);
        prop_assert_eq!(want, got);
    }

    #[test]
    fn float_reductions_bitwise_parity(xs in prop::collection::vec(evil_f64(), LEN)) {
        // A NaN *sum result* is the one carve-out from bitwise identity:
        // IEEE leaves NaN propagation implementation-defined, and LLVM may
        // commute scalar `fadd` operands, so when a sum both generates a
        // NaN (`inf + -inf`) and propagates an input NaN, which payload
        // survives is unspecified — NaN-ness itself still must agree.
        let (want, got) = (scalar::sum_f64(&xs), simd::sum_f64(&xs));
        if want.is_nan() {
            prop_assert!(got.is_nan());
        } else {
            prop_assert_eq!(want.to_bits(), got.to_bits());
        }
        // min/max *select* an element (or the ±inf identity), so they are
        // bitwise deterministic even across NaN payloads.
        prop_assert_eq!(scalar::min_f64(&xs).to_bits(), simd::min_f64(&xs).to_bits());
        prop_assert_eq!(scalar::max_f64(&xs).to_bits(), simd::max_f64(&xs).to_bits());
    }

    #[test]
    fn int_reductions_parity(xs in prop::collection::vec(evil_i64(), LEN), k in evil_i64()) {
        prop_assert_eq!(scalar::sum_i64(&xs), simd::sum_i64(&xs));
        prop_assert_eq!(scalar::count_eq_i64(&xs, k), simd::count_eq_i64(&xs, k));
    }

    #[test]
    fn hash_parity(
        is in prop::collection::vec(evil_i64(), LEN),
        fs in prop::collection::vec(evil_f64(), LEN),
    ) {
        let mut want = vec![0u64; is.len()];
        let mut got = vec![0u64; is.len()];
        scalar::hash_i64(&is, &mut want);
        simd::hash_i64(&is, &mut got);
        prop_assert_eq!(&want, &got);
        let n = is.len().min(fs.len());
        scalar::hash_combine_i64(&mut want[..n], &is[..n]);
        simd::hash_combine_i64(&mut got[..n], &is[..n]);
        prop_assert_eq!(&want, &got);
        // Float keys combine by bit pattern: -0.0 != 0.0, NaN payloads kept.
        scalar::hash_combine_f64(&mut want[..n], &fs[..n]);
        simd::hash_combine_f64(&mut got[..n], &fs[..n]);
        prop_assert_eq!(&want, &got);
    }

    #[test]
    fn compaction_and_count_parity(m in validity(LEN), base in -100i64..100) {
        prop_assert_eq!(scalar::count_true(&m), simd::count_true(&m));
        let mut want = Vec::new();
        let mut got = Vec::new();
        scalar::compact_indices_into(&m, base, &mut want);
        simd::compact_indices_into(&m, base, &mut got);
        prop_assert_eq!(want, got);
    }

    #[test]
    fn gather_parity(
        src in prop::collection::vec((evil_i64(), evil_f64()), 1..80),
        picks in prop::collection::vec(0usize..80, LEN),
    ) {
        let si: Vec<i64> = src.iter().map(|p| p.0).collect();
        let sf: Vec<f64> = src.iter().map(|p| p.1).collect();
        let idx: Vec<i64> = picks.iter().map(|&p| (p % src.len()) as i64).collect();
        let mut want = vec![0i64; idx.len()];
        let mut got = vec![0i64; idx.len()];
        scalar::gather_i64(&si, &idx, &mut want);
        simd::gather_i64(&si, &idx, &mut got);
        prop_assert_eq!(want, got);
        let mut want = vec![0f64; idx.len()];
        let mut got = vec![0f64; idx.len()];
        scalar::gather_f64(&sf, &idx, &mut want);
        simd::gather_f64(&sf, &idx, &mut got);
        // Bit-compare: NaN payloads must survive the gather unchanged.
        let wb: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
        let gb: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(wb, gb);
    }

    #[test]
    fn decode_parity(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
        width in 1usize..9,
        min in evil_i64(),
        rows in 0usize..70,
    ) {
        // Frame-of-reference at every width 1..=8 around extreme minima.
        let rows_for = (bytes.len() / width).min(rows);
        let mut want = vec![0i64; rows_for];
        let mut got = vec![0i64; rows_for];
        scalar::decode_for(&bytes[..width * rows_for], width, min, &mut want);
        simd::decode_for(&bytes[..width * rows_for], width, min, &mut got);
        prop_assert_eq!(&want, &got, "width {}", width);

        // Validity bitmap unpack (LSB-first).
        let rows_bits = (bytes.len() * 8).min(rows);
        let mut want = vec![false; rows_bits];
        let mut got = vec![false; rows_bits];
        scalar::unpack_bits_into(&bytes, &mut want);
        simd::unpack_bits_into(&bytes, &mut got);
        prop_assert_eq!(want, got);

        // Plain little-endian sections (i64 and f64 share the byte walk).
        let rows_plain = (bytes.len() / 8).min(rows);
        let mut want = vec![0i64; rows_plain];
        let mut got = vec![0i64; rows_plain];
        scalar::decode_i64_le(&bytes[..8 * rows_plain], &mut want);
        simd::decode_i64_le(&bytes[..8 * rows_plain], &mut got);
        prop_assert_eq!(want, got);
        let mut want = vec![0f64; rows_plain];
        let mut got = vec![0f64; rows_plain];
        scalar::decode_f64_le(&bytes[..8 * rows_plain], &mut want);
        simd::decode_f64_le(&bytes[..8 * rows_plain], &mut got);
        let wb: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
        let gb: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(wb, gb);

        // RLE run fill.
        let mut want = Vec::new();
        let mut got = Vec::new();
        scalar::splat_i64(&mut want, min, rows);
        simd::splat_i64(&mut got, min, rows);
        prop_assert_eq!(want, got);
    }
}

/// Out-of-range indices must panic in every tier (the vector paths bail
/// to the scalar loop, which panics at the offending index like `[]`).
#[test]
fn gather_oob_panics_at_any_tier() {
    let src: Vec<i64> = (0..64).collect();
    let mut idx: Vec<i64> = (0..64).collect();
    idx[37] = -1; // negative looks huge unsigned
    let mut out = vec![0i64; idx.len()];
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        simd::gather_i64(&src, &idx, &mut out)
    }));
    assert!(r.is_err(), "negative index must panic");
    idx[37] = 64; // one past the end
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        simd::gather_i64(&src, &idx, &mut out)
    }));
    assert!(r.is_err(), "past-the-end index must panic");
}
