//! Index-space kernels: mask compaction, gather, `arange`,
//! `repeat_interleave`, `cumsum`, scatter-add, slicing, concatenation.
//!
//! These are the workhorses of TQP's filter and join algorithms: a filter is
//! `mask → indices → take`, and a join gathers both sides by its pair
//! indices.

use std::ops::Range;
use std::sync::Arc;

use crate::dtype::DType;
use crate::tensor::Tensor;

/// Positions of `true` bits as an `I64` index tensor (`torch.nonzero`).
pub fn mask_to_indices(mask: &Tensor) -> Tensor {
    let m = mask.as_bool();
    let mut out = Vec::with_capacity(m.len() / 2);
    crate::simd::compact_indices_into(m, 0, &mut out);
    Tensor::from_i64(out)
}

/// Number of `true` bits in a bool tensor.
pub fn count_true(mask: &Tensor) -> usize {
    crate::simd::count_true(mask.as_bool())
}

/// Row gather (`index_select` on dim 0). Works for rank-1 tensors of any
/// dtype and rank-2 matrices (rows move as units; a coded string matrix
/// gathers its codes). Panics on out-of-bounds indices — the planner
/// always derives indices from masks or sorts.
pub fn take(t: &Tensor, idx: &Tensor) -> Tensor {
    let ix = idx.as_i64();
    let n = t.nrows();
    for &i in ix.iter().take(8) {
        // Fast sanity check on the first few; the kernels below still bound-check.
        assert!((i as usize) < n, "take: index {i} out of bounds ({n})");
    }
    macro_rules! gather1 {
        ($src:expr) => {{
            let src = $src;
            ix.iter().map(|&i| src[i as usize]).collect()
        }};
    }
    if let Some((codes, dict)) = t.coded() {
        return Tensor::from_coded(gather1!(codes), Arc::clone(dict));
    }
    if t.shape().len() == 2 {
        let m = t.row_width();
        macro_rules! gather_rows {
            ($as:ident, $ctor:path) => {{
                let src = t.$as();
                let mut out = vec![Default::default(); ix.len() * m];
                for (row, &i) in ix.iter().enumerate() {
                    let so = i as usize * m;
                    out[row * m..(row + 1) * m].copy_from_slice(&src[so..so + m]);
                }
                $ctor(out, ix.len(), m)
            }};
        }
        match t.dtype() {
            DType::U8 => gather_rows!(as_u8, Tensor::from_u8_matrix),
            DType::F64 => gather_rows!(as_f64, Tensor::from_f64_matrix),
            DType::F32 => gather_rows!(as_f32, Tensor::from_f32_matrix),
            DType::I64 => gather_rows!(as_i64, Tensor::from_i64_matrix),
            other => panic!("take on rank-2 {other:?} unsupported"),
        }
    } else {
        match t.dtype() {
            DType::Bool => Tensor::from_bool(gather1!(t.as_bool())),
            DType::I32 => Tensor::from_i32(gather1!(t.as_i32())),
            // The 8-byte dtypes ride the hardware-gather kernel (same
            // bounds-check-then-panic contract as direct indexing).
            DType::I64 => {
                let mut out = vec![0i64; ix.len()];
                crate::simd::gather_i64(t.as_i64(), ix, &mut out);
                Tensor::from_i64(out)
            }
            DType::F32 => Tensor::from_f32(gather1!(t.as_f32())),
            DType::F64 => {
                let mut out = vec![0f64; ix.len()];
                crate::simd::gather_f64(t.as_f64(), ix, &mut out);
                Tensor::from_f64(out)
            }
            DType::U8 => Tensor::from_u8(gather1!(t.as_u8())),
        }
    }
}

/// Filter = compact rows where `mask` is true (`t[mask]` in PyTorch).
pub fn filter(t: &Tensor, mask: &Tensor) -> Tensor {
    take(t, &mask_to_indices(mask))
}

/// `[start, start+1, ..., end)` as an `I64` tensor.
pub fn arange(start: i64, end: i64) -> Tensor {
    Tensor::from_i64((start..end).collect())
}

/// Repeat each index `i` `counts[i]` times (`torch.repeat_interleave`):
/// `repeat_interleave([2,0,3]) = [0,0,2,2,2]`.
pub fn repeat_interleave(counts: &Tensor) -> Tensor {
    let cs = counts.as_i64();
    let total: i64 = cs.iter().sum();
    let mut out = Vec::with_capacity(total.max(0) as usize);
    for (i, &c) in cs.iter().enumerate() {
        for _ in 0..c {
            out.push(i as i64);
        }
    }
    Tensor::from_i64(out)
}

/// Inclusive prefix sum of an `I64` tensor.
pub fn cumsum(t: &Tensor) -> Tensor {
    let x = t.as_i64();
    let mut out = Vec::with_capacity(x.len());
    let mut acc = 0i64;
    for &v in x {
        acc += v;
        out.push(acc);
    }
    Tensor::from_i64(out)
}

/// `out[idx[i]] += src[i]` over `F64` accumulators (`torch.scatter_add`).
/// Hash aggregation reduces into group slots with this kernel.
pub fn scatter_add_f64(len: usize, idx: &Tensor, src: &Tensor) -> Tensor {
    let ix = idx.as_i64();
    let xs = src.as_f64();
    assert_eq!(ix.len(), xs.len(), "scatter_add operand mismatch");
    let mut out = vec![0f64; len];
    for (&i, &v) in ix.iter().zip(xs) {
        out[i as usize] += v;
    }
    Tensor::from_f64(out)
}

/// `out[idx[i]] += src[i]` over `I64` accumulators.
pub fn scatter_add_i64(len: usize, idx: &Tensor, src: &Tensor) -> Tensor {
    let ix = idx.as_i64();
    let xs = src.as_i64();
    assert_eq!(ix.len(), xs.len(), "scatter_add operand mismatch");
    let mut out = vec![0i64; len];
    for (&i, &v) in ix.iter().zip(xs) {
        out[i as usize] += v;
    }
    Tensor::from_i64(out)
}

/// First `k` rows (the `LIMIT` kernel). Copies; tensors stay contiguous.
pub fn head(t: &Tensor, k: usize) -> Tensor {
    let k = k.min(t.nrows());
    take(t, &arange(0, k as i64))
}

/// Rows `[lo, hi)` as a direct contiguous copy — no index tensor, no
/// gather. This is the morsel-split primitive of the parallel executor,
/// so it must be a straight memcpy of the subrange.
pub fn slice_rows(t: &Tensor, lo: usize, hi: usize) -> Tensor {
    let hi = hi.min(t.nrows());
    let lo = lo.min(hi);
    if let Some((codes, dict)) = t.coded() {
        return Tensor::from_coded(codes[lo..hi].to_vec(), Arc::clone(dict));
    }
    if t.shape().len() == 2 {
        let m = t.row_width();
        return match t.dtype() {
            DType::U8 => Tensor::from_u8_matrix(t.as_u8()[lo * m..hi * m].to_vec(), hi - lo, m),
            DType::F64 => Tensor::from_f64_matrix(t.as_f64()[lo * m..hi * m].to_vec(), hi - lo, m),
            DType::F32 => Tensor::from_f32_matrix(t.as_f32()[lo * m..hi * m].to_vec(), hi - lo, m),
            DType::I64 => Tensor::from_i64_matrix(t.as_i64()[lo * m..hi * m].to_vec(), hi - lo, m),
            _ => take(t, &arange(lo as i64, hi as i64)),
        };
    }
    match t.dtype() {
        DType::Bool => Tensor::from_bool(t.as_bool()[lo..hi].to_vec()),
        DType::I32 => Tensor::from_i32(t.as_i32()[lo..hi].to_vec()),
        DType::I64 => Tensor::from_i64(t.as_i64()[lo..hi].to_vec()),
        DType::F32 => Tensor::from_f32(t.as_f32()[lo..hi].to_vec()),
        DType::F64 => Tensor::from_f64(t.as_f64()[lo..hi].to_vec()),
        DType::U8 => Tensor::from_u8(t.as_u8()[lo..hi].to_vec()),
    }
}

/// Vertical concatenation of rank-1 tensors or equal-width matrices of the
/// same dtype. Coded string matrices sharing one dictionary concatenate
/// their codes; any other mix of string matrices is re-padded to the
/// widest.
pub fn concat(parts: &[&Tensor]) -> Tensor {
    assert!(!parts.is_empty(), "concat of zero tensors");
    if parts.len() == 1 {
        // O(1) handle clone. Byte-identical to the copying path even for
        // string matrices: a single part *is* the max width, and its
        // padding is already zeros.
        return parts[0].clone();
    }
    let whole: Vec<(&Tensor, Range<usize>)> = parts.iter().map(|p| (*p, 0..p.nrows())).collect();
    concat_ranges(&whole)
}

/// [`concat()`] of the row range taken from each part, each row copied once
/// (no per-part slice is materialized).
pub fn concat_ranges(parts: &[(&Tensor, Range<usize>)]) -> Tensor {
    assert!(!parts.is_empty(), "concat of zero tensors");
    let first = parts[0].0;
    let dt = first.dtype();
    assert!(
        parts.iter().all(|(p, _)| p.dtype() == dt),
        "concat dtype mismatch"
    );
    let n: usize = parts.iter().map(|(_, r)| r.len()).sum();
    if let Some((_, dict)) = first.coded() {
        let same_dict = |p: &Tensor| p.coded().is_some_and(|(_, d)| Arc::ptr_eq(d, dict));
        if parts.iter().all(|(p, _)| same_dict(p)) {
            let mut out = Vec::with_capacity(n);
            for (p, range) in parts {
                out.extend_from_slice(&p.coded().expect("checked coded").0[range.clone()]);
            }
            return Tensor::from_coded(out, Arc::clone(dict));
        }
    }
    if first.shape().len() == 2 {
        let m = parts.iter().map(|(p, _)| p.row_width()).max().unwrap();
        match dt {
            DType::U8 => {
                // Each row lands in the prefix of its wider output row;
                // padding is zeros in every form, so the rest stays zero.
                let mut out = vec![0u8; n * m];
                let mut row = 0;
                for (p, range) in parts {
                    let w = p.row_width();
                    match p.coded() {
                        Some((codes, dict)) => {
                            for &c in &codes[range.clone()] {
                                out[row * m..row * m + w].copy_from_slice(dict.row(c));
                                row += 1;
                            }
                        }
                        None if w == m => {
                            let src = &p.as_u8()[range.start * m..range.end * m];
                            out[row * m..row * m + src.len()].copy_from_slice(src);
                            row += range.len();
                        }
                        None => {
                            for i in range.clone() {
                                out[row * m..row * m + w].copy_from_slice(p.str_row(i));
                                row += 1;
                            }
                        }
                    }
                }
                Tensor::from_u8_matrix(out, n, m)
            }
            DType::F64 => {
                assert!(
                    parts.iter().all(|(p, _)| p.row_width() == m),
                    "f64 concat width mismatch"
                );
                let mut out = Vec::with_capacity(n * m);
                for (p, range) in parts {
                    out.extend_from_slice(&p.as_f64()[range.start * m..range.end * m]);
                }
                Tensor::from_f64_matrix(out, n, m)
            }
            other => panic!("concat rank-2 {other:?} unsupported"),
        }
    } else {
        macro_rules! cat {
            ($as:ident, $ctor:path) => {{
                let mut out = Vec::with_capacity(n);
                for (p, range) in parts {
                    out.extend_from_slice(&p.$as()[range.clone()]);
                }
                $ctor(out)
            }};
        }
        match dt {
            DType::Bool => cat!(as_bool, Tensor::from_bool),
            DType::I32 => cat!(as_i32, Tensor::from_i32),
            DType::I64 => cat!(as_i64, Tensor::from_i64),
            DType::F32 => cat!(as_f32, Tensor::from_f32),
            DType::F64 => cat!(as_f64, Tensor::from_f64),
            DType::U8 => cat!(as_u8, Tensor::from_u8),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_to_indices_basic() {
        let m = Tensor::from_bool(vec![true, false, true, true, false]);
        assert_eq!(mask_to_indices(&m).as_i64(), &[0, 2, 3]);
        assert_eq!(count_true(&m), 3);
    }

    #[test]
    fn take_rank1() {
        let t = Tensor::from_f64(vec![10.0, 20.0, 30.0]);
        let r = take(&t, &Tensor::from_i64(vec![2, 0, 2]));
        assert_eq!(r.as_f64(), &[30.0, 10.0, 30.0]);
    }

    #[test]
    fn take_string_rows() {
        let t = Tensor::from_strings(&["aa", "bb", "cc"], 0);
        let r = take(&t, &Tensor::from_i64(vec![2, 1]));
        assert_eq!(r.str_at(0), "cc");
        assert_eq!(r.str_at(1), "bb");
    }

    #[test]
    fn take_empty_indices() {
        let t = Tensor::from_i64(vec![1, 2, 3]);
        let r = take(&t, &Tensor::from_i64(vec![]));
        assert!(r.is_empty());
    }

    #[test]
    fn filter_composes() {
        let t = Tensor::from_i64(vec![5, 6, 7, 8]);
        let m = Tensor::from_bool(vec![false, true, false, true]);
        assert_eq!(filter(&t, &m).as_i64(), &[6, 8]);
    }

    #[test]
    fn arange_repeat_cumsum() {
        assert_eq!(arange(2, 5).as_i64(), &[2, 3, 4]);
        assert_eq!(
            repeat_interleave(&Tensor::from_i64(vec![2, 0, 3])).as_i64(),
            &[0, 0, 2, 2, 2]
        );
        assert_eq!(
            cumsum(&Tensor::from_i64(vec![2, 3, 1])).as_i64(),
            &[2, 5, 6]
        );
    }

    #[test]
    fn scatter_adds() {
        let idx = Tensor::from_i64(vec![0, 1, 0, 2]);
        let src = Tensor::from_f64(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(scatter_add_f64(3, &idx, &src).as_f64(), &[4.0, 2.0, 4.0]);
        let srci = Tensor::from_i64(vec![1, 1, 1, 1]);
        assert_eq!(scatter_add_i64(3, &idx, &srci).as_i64(), &[2, 1, 1]);
    }

    #[test]
    fn head_slice_concat() {
        let t = Tensor::from_i64(vec![1, 2, 3, 4]);
        assert_eq!(head(&t, 2).as_i64(), &[1, 2]);
        assert_eq!(head(&t, 99).as_i64(), &[1, 2, 3, 4]);
        assert_eq!(slice_rows(&t, 1, 3).as_i64(), &[2, 3]);
        let c = concat(&[&head(&t, 2), &slice_rows(&t, 2, 4)]);
        assert_eq!(c.as_i64(), &[1, 2, 3, 4]);
    }

    #[test]
    fn concat_string_widths() {
        let a = Tensor::from_strings(&["ab"], 0);
        let b = Tensor::from_strings(&["wxyz"], 0);
        let c = concat(&[&a, &b]);
        assert_eq!(c.row_width(), 4);
        assert_eq!(c.str_at(0), "ab");
        assert_eq!(c.str_at(1), "wxyz");
    }

    #[test]
    fn coded_rows_move_as_codes() {
        let vals = ["b", "a", "ccc", "a"];
        let t = crate::dict::encode(&vals, 0).unwrap();
        let padded = Tensor::from_strings(&vals, 0);
        let idx = Tensor::from_i64(vec![2, 0, 3]);
        let taken = take(&t, &idx);
        assert!(taken.coded().is_some());
        assert_eq!(taken, take(&padded, &idx));
        let sliced = slice_rows(&t, 1, 3);
        assert!(sliced.coded().is_some());
        assert_eq!(sliced, slice_rows(&padded, 1, 3));
        // One dictionary: codes concatenate. Another dictionary or a
        // padded part: the rows re-pad to the widest part.
        let same = concat_ranges(&[(&t, 0..2), (&taken, 1..3)]);
        assert!(same.coded().is_some());
        assert_eq!(
            same,
            concat_ranges(&[(&padded, 0..2), (&take(&padded, &idx), 1..3)])
        );
        let other = crate::dict::encode(&["zzzzz"], 0).unwrap();
        for mixed in [concat(&[&t, &other]), concat(&[&t, &padded])] {
            assert!(mixed.coded().is_none());
            assert_eq!(mixed.str_at(0), "b");
            assert_eq!(mixed.row_width(), mixed.str_row(0).len());
        }
        assert_eq!(concat(&[&t, &other]).str_at(4), "zzzzz");
    }

    #[test]
    fn take_large_string_matrix() {
        let rows: Vec<String> = (0..40_000).map(|i| format!("row{i:06}")).collect();
        let refs: Vec<&str> = rows.iter().map(|s| s.as_str()).collect();
        let t = Tensor::from_strings(&refs, 0);
        let idx: Vec<i64> = (0..40_000).rev().collect();
        let r = take(&t, &Tensor::from_i64(idx));
        assert_eq!(r.str_at(0), "row039999");
        assert_eq!(r.str_at(39_999), "row000000");
    }
}
