//! Stable sorting kernels.
//!
//! TQP's ORDER BY and `COUNT(DISTINCT)` are built on *stable argsort*:
//! produce a permutation, then [`crate::index::take`] every payload column
//! through it. Multi-key ordering uses the classic LSD trick — repeated
//! stable single-key sorts from the least-significant key to the
//! most-significant — which is exactly how multi-column sorts are expressed
//! on tensor runtimes that only expose per-column stable sorts.
//!
//! Every kernel here is sequential. A caller that splits a large sort
//! across threads sorts contiguous row ranges with [`argsort_range`] and
//! combines adjacent runs with [`merge_runs`] (ties take the earlier run,
//! whose indices are all smaller). Because a stable sort permutation is
//! *unique* — fully determined by the key values and original row order —
//! any such split is **bit-identical** to the sequential LSD sort.
//!
//! `ORDER BY … LIMIT k` needs only the permutation's first `k` entries:
//! [`topk_range`] selects them from one range of rows and [`topk_merge`]
//! combines ranges. Uniqueness again makes the result the first `k` rows
//! of the full stable sort, however the rows were split.

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
        // A coded string matrix's dictionary is sorted: codes order as
        // the rows do.
        DType::U8 if key.coded().is_some() => {
            let codes = key.coded().expect("checked coded").0;
            match order {
                Order::Asc => perm.sort_by(|&a, &b| codes[a as usize].cmp(&codes[b as usize])),
                Order::Desc => perm.sort_by(|&a, &b| codes[b as usize].cmp(&codes[a as usize])),
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
    /// Coded string matrix: codes order as the rows do.
    Codes(&'a [u32]),
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
            DType::U8 => match k.values.coded() {
                Some((codes, _)) => KeyCol::Codes(codes),
                None => KeyCol::Str {
                    bytes: k.values.as_u8(),
                    width: k.values.row_width(),
                },
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
            KeyCol::Codes(v) => v[a].cmp(&v[b]),
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

/// Sort leaf kernel: the rows `lo..hi` in the stable order of `keys` — the
/// run a caller merges with its neighbours via [`merge_runs`].
pub fn argsort_range(keys: &[SortKey], lo: usize, hi: usize) -> Vec<i64> {
    let views: Vec<KeyView> = keys.iter().map(KeyView::new).collect();
    let mut idx: Vec<i64> = (lo as i64..hi as i64).collect();
    idx.sort_by(|&a, &b| cmp_rows(&views, a as usize, b as usize));
    idx
}

/// Stable merge of two sorted runs of `keys`' rows. All indices in `a`
/// come from earlier rows than those in `b`, so taking `a` on ties
/// preserves global stability.
pub fn merge_runs(keys: &[SortKey], a: &[i64], b: &[i64]) -> Vec<i64> {
    let views: Vec<KeyView> = keys.iter().map(KeyView::new).collect();
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if cmp_rows(&views, a[i] as usize, b[j] as usize) != Ordering::Greater {
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

/// Top-k leaf kernel: the first `k` rows of `lo..hi` in the stable order
/// of `keys` — key order, ties by row index — sorted. Sequential; a caller
/// splits the rows and merges the pieces with [`topk_merge`].
///
/// Bounded selection: rows collect in a buffer of `2k`; a full buffer keeps
/// its `k` first, and the last of those bounds every later row, which is
/// dropped unless it orders before the bound.
pub fn topk_range(keys: &[SortKey], lo: usize, hi: usize, k: usize) -> Vec<i64> {
    if k == 0 {
        return Vec::new();
    }
    let views: Vec<KeyView> = keys.iter().map(KeyView::new).collect();
    let order = |a: &i64, b: &i64| cmp_rows(&views, *a as usize, *b as usize).then(a.cmp(b));
    let mut buf: Vec<i64> = Vec::with_capacity(2 * k);
    let mut bound: Option<i64> = None;
    for row in lo as i64..hi as i64 {
        if bound.is_some_and(|b| order(&row, &b) != Ordering::Less) {
            continue;
        }
        buf.push(row);
        if buf.len() == 2 * k {
            buf.select_nth_unstable_by(k - 1, order);
            buf.truncate(k);
            bound = Some(buf[k - 1]);
        }
    }
    buf.sort_unstable_by(order);
    buf.truncate(k);
    buf
}

/// Merge top-k candidates — the union of [`topk_range`] results over
/// disjoint row ranges — into the first `k` rows of the stable sort of all
/// the rows: the order is total (ties by row index), so this is the prefix
/// [`argsort_multi`] would produce, whatever the ranges were.
pub fn topk_merge(keys: &[SortKey], mut candidates: Vec<i64>, k: usize) -> Tensor {
    let views: Vec<KeyView> = keys.iter().map(KeyView::new).collect();
    candidates.sort_unstable_by(|a, b| cmp_rows(&views, *a as usize, *b as usize).then(a.cmp(b)));
    candidates.truncate(k);
    Tensor::from_i64(candidates)
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
    fn coded_strings_sort_like_padded() {
        let vals = ["pear", "apple", "ap", "", "pear", "ap\0", "zed"];
        let p = Tensor::from_strings(&vals, 0);
        let c = crate::dict::encode(&vals, 0).unwrap();
        let n = Tensor::from_i64(vec![3, 1, 2, 5, 0, 4, 6]);
        for order in [Order::Asc, Order::Desc] {
            assert_eq!(argsort(&c, order).as_i64(), argsort(&p, order).as_i64());
            let keys = |s: &Tensor| {
                vec![
                    SortKey {
                        values: s.clone(),
                        order,
                    },
                    SortKey::desc(n.clone()),
                ]
            };
            assert_eq!(
                argsort_multi(&keys(&c)).as_i64(),
                argsort_multi(&keys(&p)).as_i64()
            );
            assert_eq!(
                topk_range(&keys(&c), 0, 7, 3),
                topk_range(&keys(&p), 0, 7, 3)
            );
        }
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

    #[test]
    fn ranges_merge_into_the_full_sort() {
        let a = Tensor::from_i64((0..50).map(|i| (i * 7) % 5).collect());
        let b = Tensor::from_strings(&["x", "y"].repeat(25), 0);
        let keys = [SortKey::asc(a), SortKey::desc(b)];
        let lo = argsort_range(&keys, 0, 23);
        let hi = argsort_range(&keys, 23, 50);
        assert_eq!(
            merge_runs(&keys, &lo, &hi),
            argsort_multi(&keys).to_i64_vec()
        );
    }
}
