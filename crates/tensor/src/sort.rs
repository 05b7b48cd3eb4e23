//! Stable sorting kernels.
//!
//! TQP's ORDER BY, key-ordered aggregate output, `COUNT(DISTINCT)` and
//! sort-merge join are all built on *stable argsort*: produce a
//! permutation, then [`crate::index::take`] every payload column through
//! it. Multi-key ordering uses the classic
//! LSD trick — repeated stable single-key sorts from the least-significant
//! key to the most-significant — which is exactly how multi-column sorts are
//! expressed on tensor runtimes that only expose per-column stable sorts.
//!
//! Large inputs can sort worker-parallel via [`argsort_multi_par`]:
//! contiguous chunks are stably sorted in parallel, then merged pairwise
//! with a stable merge (ties take the earlier chunk, whose indices are all
//! smaller). Because a stable sort permutation is *unique* — fully
//! determined by the key values and original row order — the parallel path
//! is **bit-identical** to the sequential LSD sort at any worker count.

use std::cmp::Ordering;

use crate::dtype::DType;
use crate::index::take;
use crate::tensor::Tensor;

/// Sort direction for one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    Asc,
    Desc,
}

/// One sort key: the column tensor plus a direction.
#[derive(Debug, Clone)]
pub struct SortKey {
    pub values: Tensor,
    pub order: Order,
}

impl SortKey {
    /// Ascending key.
    pub fn asc(values: Tensor) -> Self {
        SortKey {
            values,
            order: Order::Asc,
        }
    }

    /// Descending key.
    pub fn desc(values: Tensor) -> Self {
        SortKey {
            values,
            order: Order::Desc,
        }
    }
}

/// Stable argsort of a single rank-1 tensor (or rank-2 string matrix, whose
/// rows order byte-lexicographically ≡ UTF-8 order). Returns an `I64`
/// permutation tensor: `perm[k]` = original row index of output row `k`.
///
/// Floats order with a total order (NaN greatest), so the sort never panics.
pub fn argsort(t: &Tensor, order: Order) -> Tensor {
    let perm: Vec<i64> = (0..t.nrows() as i64).collect();
    argsort_perm(t, order, perm)
}

/// Stable re-sort of an existing permutation by a new key: sorts `perm` by
/// `key[perm[i]]`, keeping equal keys in `perm` order. This is the LSD step.
fn argsort_perm(key: &Tensor, order: Order, mut perm: Vec<i64>) -> Tensor {
    macro_rules! sort_by_slice {
        ($as:ident) => {{
            let vals = key.$as();
            match order {
                Order::Asc => perm.sort_by(|&a, &b| vals[a as usize].cmp(&vals[b as usize])),
                Order::Desc => perm.sort_by(|&a, &b| vals[b as usize].cmp(&vals[a as usize])),
            }
        }};
    }
    match key.dtype() {
        DType::Bool => sort_by_slice!(as_bool),
        DType::I32 => sort_by_slice!(as_i32),
        DType::I64 => sort_by_slice!(as_i64),
        DType::F32 => {
            let vals = key.as_f32();
            match order {
                Order::Asc => perm.sort_by(|&a, &b| vals[a as usize].total_cmp(&vals[b as usize])),
                Order::Desc => perm.sort_by(|&a, &b| vals[b as usize].total_cmp(&vals[a as usize])),
            }
        }
        DType::F64 => {
            let vals = key.as_f64();
            match order {
                Order::Asc => perm.sort_by(|&a, &b| vals[a as usize].total_cmp(&vals[b as usize])),
                Order::Desc => perm.sort_by(|&a, &b| vals[b as usize].total_cmp(&vals[a as usize])),
            }
        }
        DType::U8 => {
            // Rank-2 string matrix: rows compare as padded byte slices
            // (trailing NULs sort below every printable byte, preserving
            // prefix ordering).
            let m = key.row_width();
            let bytes = key.as_u8();
            let row = |i: i64| &bytes[i as usize * m..(i as usize + 1) * m];
            match order {
                Order::Asc => perm.sort_by(|&a, &b| row(a).cmp(row(b))),
                Order::Desc => perm.sort_by(|&a, &b| row(b).cmp(row(a))),
            }
        }
    }
    Tensor::from_i64(perm)
}

/// Stable multi-key argsort: `keys[0]` is the most significant. Implemented
/// as LSD repeated stable sorts (sort by last key first).
pub fn argsort_multi(keys: &[SortKey]) -> Tensor {
    assert!(!keys.is_empty(), "argsort_multi needs at least one key");
    let n = keys[0].values.nrows();
    for k in keys {
        assert_eq!(k.values.nrows(), n, "sort keys must have equal length");
    }
    let mut perm: Vec<i64> = (0..n as i64).collect();
    for key in keys.iter().rev() {
        perm = argsort_perm(&key.values, key.order, perm).to_i64_vec();
    }
    Tensor::from_i64(perm)
}

/// Minimum rows before parallel chunk-sort + merge amortizes thread spawn
/// and merge passes.
const PAR_SORT_MIN_ROWS: usize = 32 * 1024;

/// A borrowed, dtype-resolved view of one sort key for comparator sorting.
enum KeyCol<'a> {
    Bool(&'a [bool]),
    I32(&'a [i32]),
    I64(&'a [i64]),
    F32(&'a [f32]),
    F64(&'a [f64]),
    /// Rank-2 string matrix: rows compare as padded byte slices.
    Str {
        bytes: &'a [u8],
        width: usize,
    },
}

struct KeyView<'a> {
    col: KeyCol<'a>,
    desc: bool,
}

impl<'a> KeyView<'a> {
    fn new(k: &'a SortKey) -> KeyView<'a> {
        let col = match k.values.dtype() {
            DType::Bool => KeyCol::Bool(k.values.as_bool()),
            DType::I32 => KeyCol::I32(k.values.as_i32()),
            DType::I64 => KeyCol::I64(k.values.as_i64()),
            DType::F32 => KeyCol::F32(k.values.as_f32()),
            DType::F64 => KeyCol::F64(k.values.as_f64()),
            DType::U8 => KeyCol::Str {
                bytes: k.values.as_u8(),
                width: k.values.row_width(),
            },
        };
        KeyView {
            col,
            desc: k.order == Order::Desc,
        }
    }

    fn cmp(&self, a: usize, b: usize) -> Ordering {
        let o = match &self.col {
            KeyCol::Bool(v) => v[a].cmp(&v[b]),
            KeyCol::I32(v) => v[a].cmp(&v[b]),
            KeyCol::I64(v) => v[a].cmp(&v[b]),
            KeyCol::F32(v) => v[a].total_cmp(&v[b]),
            KeyCol::F64(v) => v[a].total_cmp(&v[b]),
            KeyCol::Str { bytes, width } => {
                bytes[a * width..(a + 1) * width].cmp(&bytes[b * width..(b + 1) * width])
            }
        };
        if self.desc {
            o.reverse()
        } else {
            o
        }
    }
}

/// Lexicographic comparison of rows `a` and `b` across all keys (most
/// significant first). Equivalent to the LSD formulation: repeated stable
/// single-key sorts realize exactly this ordering with index ties.
fn cmp_rows(views: &[KeyView], a: usize, b: usize) -> Ordering {
    for v in views {
        match v.cmp(a, b) {
            Ordering::Equal => continue,
            o => return o,
        }
    }
    Ordering::Equal
}

/// Stable merge of two sorted index runs. All indices in `a` come from
/// earlier rows than those in `b`, so taking `a` on ties preserves global
/// stability.
fn merge_runs(a: &[i64], b: &[i64], views: &[KeyView]) -> Vec<i64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if cmp_rows(views, a[i] as usize, b[j] as usize) != Ordering::Greater {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Worker-parallel stable multi-key argsort. Splits the input into
/// `workers` contiguous chunks, stably sorts each with the lexicographic
/// comparator, then merges pairs of adjacent runs (stable: ties take the
/// left run) until one permutation remains.
///
/// **Determinism contract**: a stable sort permutation is unique, so this
/// returns *bit-identical* output to [`argsort_multi`] for every input and
/// every `workers` value. Callers may freely vary the worker count without
/// perturbing downstream results.
pub fn argsort_multi_par(keys: &[SortKey], workers: usize) -> Tensor {
    assert!(!keys.is_empty(), "argsort_multi needs at least one key");
    let n = keys[0].values.nrows();
    for k in keys {
        assert_eq!(k.values.nrows(), n, "sort keys must have equal length");
    }
    if workers <= 1 || n < PAR_SORT_MIN_ROWS {
        return argsort_multi(keys);
    }
    let views: Vec<KeyView> = keys.iter().map(KeyView::new).collect();
    let n_chunks = workers.min(n / (PAR_SORT_MIN_ROWS / 4)).max(2);
    let chunk_len = n.div_ceil(n_chunks);

    // Phase 1: sort each contiguous chunk in parallel.
    let mut slots: Vec<Option<Vec<i64>>> = (0..n_chunks).map(|_| None).collect();
    crossbeam::scope(|s| {
        for (c, slot) in slots.iter_mut().enumerate() {
            let views = &views;
            s.spawn(move |_| {
                let lo = c * chunk_len;
                let hi = ((c + 1) * chunk_len).min(n);
                let mut idx: Vec<i64> = (lo as i64..hi as i64).collect();
                idx.sort_by(|&a, &b| cmp_rows(views, a as usize, b as usize));
                *slot = Some(idx);
            });
        }
    })
    .expect("sort worker panicked");
    let mut runs: Vec<Vec<i64>> = slots.into_iter().flatten().collect();

    // Phase 2: merge adjacent pairs (parallel per level) until one run.
    // An odd leftover run (always the last — highest chunk indices) moves
    // to the next level untouched, keeping the adjacency that makes
    // take-left-on-ties stable.
    while runs.len() > 1 {
        let leftover = if runs.len() % 2 == 1 {
            runs.pop()
        } else {
            None
        };
        let mut merged: Vec<Option<Vec<i64>>> = (0..runs.len() / 2).map(|_| None).collect();
        crossbeam::scope(|s| {
            for (slot, pair) in merged.iter_mut().zip(runs.chunks(2)) {
                let views = &views;
                s.spawn(move |_| {
                    *slot = Some(merge_runs(&pair[0], &pair[1], views));
                });
            }
        })
        .expect("merge worker panicked");
        runs = merged.into_iter().flatten().collect();
        runs.extend(leftover);
    }
    Tensor::from_i64(runs.pop().expect("non-empty input"))
}

/// Sort a tensor by itself (values, not indices).
pub fn sort(t: &Tensor, order: Order) -> Tensor {
    take(t, &argsort(t, order))
}

/// True iff the rank-1 `I64` tensor is non-decreasing.
pub fn is_sorted_i64(t: &Tensor) -> bool {
    t.as_i64().windows(2).all(|w| w[0] <= w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argsort_ints_stable() {
        let t = Tensor::from_i64(vec![3, 1, 2, 1]);
        let p = argsort(&t, Order::Asc);
        assert_eq!(p.as_i64(), &[1, 3, 2, 0]); // ties keep original order
        assert_eq!(sort(&t, Order::Asc).as_i64(), &[1, 1, 2, 3]);
        assert_eq!(sort(&t, Order::Desc).as_i64(), &[3, 2, 1, 1]);
    }

    #[test]
    fn argsort_floats_with_nan() {
        let t = Tensor::from_f64(vec![f64::NAN, 1.0, -1.0]);
        let s = sort(&t, Order::Asc);
        assert_eq!(s.as_f64()[0], -1.0);
        assert_eq!(s.as_f64()[1], 1.0);
        assert!(s.as_f64()[2].is_nan());
    }

    #[test]
    fn argsort_strings() {
        let t = Tensor::from_strings(&["pear", "apple", "ap"], 0);
        let s = take(&t, &argsort(&t, Order::Asc));
        assert_eq!(s.str_at(0), "ap");
        assert_eq!(s.str_at(1), "apple");
        assert_eq!(s.str_at(2), "pear");
    }

    #[test]
    fn multi_key_orders_lexicographically() {
        // (a, b) pairs; sort by a asc, b desc.
        let a = Tensor::from_i64(vec![1, 2, 1, 2]);
        let b = Tensor::from_f64(vec![10.0, 5.0, 20.0, 1.0]);
        let p = argsort_multi(&[SortKey::asc(a.clone()), SortKey::desc(b.clone())]);
        let sa = take(&a, &p);
        let sb = take(&b, &p);
        assert_eq!(sa.as_i64(), &[1, 1, 2, 2]);
        assert_eq!(sb.as_f64(), &[20.0, 10.0, 5.0, 1.0]);
    }

    #[test]
    fn multi_key_with_string_primary() {
        let s = Tensor::from_strings(&["b", "a", "b", "a"], 0);
        let v = Tensor::from_i64(vec![2, 9, 1, 3]);
        let p = argsort_multi(&[SortKey::asc(s.clone()), SortKey::asc(v.clone())]);
        let sv = take(&v, &p);
        assert_eq!(sv.as_i64(), &[3, 9, 1, 2]);
    }

    #[test]
    fn empty_sort() {
        let t = Tensor::from_i64(vec![]);
        assert_eq!(argsort(&t, Order::Asc).nrows(), 0);
        assert!(is_sorted_i64(&t));
    }

    #[test]
    fn is_sorted_checks() {
        assert!(is_sorted_i64(&Tensor::from_i64(vec![1, 1, 2])));
        assert!(!is_sorted_i64(&Tensor::from_i64(vec![2, 1])));
    }

    /// Deterministic LCG for the parity tests (no rand dependency).
    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    #[test]
    fn parallel_argsort_bit_identical_to_sequential() {
        let n = PAR_SORT_MIN_ROWS * 2 + 777;
        let mut seed = 42u64;
        // Low-cardinality primary key (many ties → stability matters),
        // floats with NaNs, and a string key.
        let a = Tensor::from_i64((0..n).map(|_| (lcg(&mut seed) % 7) as i64).collect());
        let b = Tensor::from_f64(
            (0..n)
                .map(|_| {
                    let v = lcg(&mut seed);
                    if v.is_multiple_of(97) {
                        f64::NAN
                    } else {
                        (v % 1000) as f64 / 7.0
                    }
                })
                .collect(),
        );
        let words = ["kiwi", "apple", "pear", "zed", "ap"];
        let strs: Vec<&str> = (0..n)
            .map(|_| words[(lcg(&mut seed) % 5) as usize])
            .collect();
        let c = Tensor::from_strings(&strs, 0);
        let keys = [
            SortKey::asc(a.clone()),
            SortKey::desc(b.clone()),
            SortKey::asc(c.clone()),
        ];
        let seq = argsort_multi(&keys);
        for workers in [2, 3, 8] {
            let par = argsort_multi_par(&keys, workers);
            assert_eq!(seq.as_i64(), par.as_i64(), "workers={workers}");
        }
    }

    #[test]
    fn parallel_argsort_small_input_delegates() {
        let t = Tensor::from_i64(vec![3, 1, 2, 1]);
        let p = argsort_multi_par(&[SortKey::asc(t)], 4);
        assert_eq!(p.as_i64(), &[1, 3, 2, 0]);
    }

    #[test]
    fn parallel_argsort_all_equal_keys_keeps_row_order() {
        let n = PAR_SORT_MIN_ROWS + 10;
        let t = Tensor::from_i64(vec![5; n]);
        let p = argsort_multi_par(&[SortKey::asc(t)], 4);
        let expect: Vec<i64> = (0..n as i64).collect();
        assert_eq!(p.as_i64(), &expect[..]);
    }
}
