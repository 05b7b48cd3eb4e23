//! Dictionary-coded string columns — the second tensor form of a string
//! column.
//!
//! A string column is an `(n × m)` right-zero-padded byte matrix (paper
//! §2.1). A low-cardinality one is cheaper as one `u32` **code** per row
//! into a shared [`StrDict`]: the column's distinct values, trimmed of
//! padding, deduplicated, **sorted by bytes**, and held as a `(d × m)`
//! padded matrix (`m` = the width the padded column would have had) with
//! one hash per entry. "Query Processing on Tensor Computation Runtimes"
//! asks for exactly this: strings as numeric tensors.
//!
//! A coded tensor keeps the padded form's dtype (`U8`) and shape
//! (`[n, m]`), and `Tensor::str_row(i)` reads the dictionary row of code
//! `i`, so every row-at-a-time path — `str_at`, `get`, the scalar VM,
//! result materialization — sees the padded bytes unchanged. Bulk kernels
//! dispatch on the codes instead:
//!
//! * the dictionary is sorted, so **code order is byte order**: sorts,
//!   MIN/MAX and key-ordered aggregate output compare codes;
//! * a predicate on the column (`=`, `<`, `IN`, `LIKE`) evaluates **once
//!   per entry** into a boolean lookup table ([`StrDict::lut`], memoized
//!   on the dictionary, so once per dictionary rather than per morsel) and
//!   gathers it by code ([`str_mask`]);
//! * hashes gather each entry's hash of its trimmed bytes — the hash a
//!   padded row of the same value gets, so coded, padded and mixed keys
//!   agree.
//!
//! The form is chosen at ingest by a constant rule on the data: a column
//! with at most [`MAX_ENTRIES`] distinct values is coded ([`encode`]).
//! Computed strings (`SUBSTRING`, `CASE`, literals) stay padded.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::ops::CmpOp;
use crate::strings::LikePattern;
use crate::tensor::{trim_padding, Tensor};

/// The most distinct values a coded column holds; a column with more stays
/// padded.
pub const MAX_ENTRIES: usize = 4096;

/// Lookup tables one dictionary memoizes before it starts over (a bound on
/// memory when ad-hoc predicates keep arriving).
const MAX_LUTS: usize = 64;

/// A predicate over one trimmed string, evaluated per dictionary entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrPred {
    /// `s op needle` (byte-lexicographic).
    Cmp(CmpOp, Vec<u8>),
    /// `s IN (list)`.
    In(Vec<Vec<u8>>),
    /// `s LIKE pattern`.
    Like(LikePattern),
}

impl StrPred {
    /// The predicate on one trimmed string — the per-row test of the padded
    /// kernels, bit for bit.
    pub fn eval(&self, s: &[u8]) -> bool {
        match self {
            StrPred::Cmp(op, needle) => op.eval_ord(s.cmp(needle)),
            StrPred::In(list) => list.iter().any(|v| s == v.as_slice()),
            StrPred::Like(p) => p.matches(s),
        }
    }
}

/// The distinct values of a coded string column, ascending by bytes.
pub struct StrDict {
    /// `(len × width)` padded matrix of the entries.
    bytes: Vec<u8>,
    width: usize,
    /// Trimmed length of each entry.
    lens: Vec<u32>,
    /// Each entry's trimmed-bytes hash (`hash::hash_bytes`).
    hashes: Vec<u64>,
    /// Memoized predicate lookup tables.
    luts: Mutex<Vec<(StrPred, Arc<[bool]>)>>,
}

impl std::fmt::Debug for StrDict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StrDict")
            .field("len", &self.len())
            .field("width", &self.width)
            .finish()
    }
}

impl StrDict {
    /// A dictionary over `entries` — trimmed, distinct, ascending — padded
    /// to `width` bytes.
    fn new<'a>(entries: impl ExactSizeIterator<Item = &'a [u8]>, width: usize) -> StrDict {
        let mut bytes = vec![0u8; entries.len() * width];
        let mut lens = Vec::with_capacity(entries.len());
        let mut hashes = Vec::with_capacity(entries.len());
        for (i, e) in entries.enumerate() {
            bytes[i * width..i * width + e.len()].copy_from_slice(e);
            lens.push(e.len() as u32);
            hashes.push(crate::hash::hash_bytes(e));
        }
        StrDict {
            bytes,
            width,
            lens,
            hashes,
            luts: Mutex::new(Vec::new()),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// True when the dictionary has no entries (a zero-row column).
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Padded row width `m`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Entry `code` with its padding.
    #[inline]
    pub fn row(&self, code: u32) -> &[u8] {
        let c = code as usize;
        &self.bytes[c * self.width..(c + 1) * self.width]
    }

    /// Entry `code` without its padding.
    #[inline]
    pub fn trimmed(&self, code: u32) -> &[u8] {
        let c = code as usize;
        &self.bytes[c * self.width..c * self.width + self.lens[c] as usize]
    }

    /// Entry `code`'s hash: the hash of its trimmed bytes.
    #[inline]
    pub fn hash(&self, code: u32) -> u64 {
        self.hashes[code as usize]
    }

    /// Bytes the dictionary holds (entries, lengths and hashes).
    pub fn nbytes(&self) -> usize {
        self.bytes.len() + self.lens.len() * 4 + self.hashes.len() * 8
    }

    /// `pred` over every entry, as a lookup table indexed by code. Built
    /// once per dictionary and predicate, then shared by every morsel and
    /// operator execution that asks again.
    pub fn lut(&self, pred: &StrPred) -> Arc<[bool]> {
        let mut luts = self
            .luts
            .lock()
            .expect("dictionary lookup-table memo poisoned");
        if let Some((_, lut)) = luts.iter().find(|(p, _)| p == pred) {
            return Arc::clone(lut);
        }
        let lut: Arc<[bool]> = (0..self.len() as u32)
            .map(|c| pred.eval(self.trimmed(c)))
            .collect();
        if luts.len() == MAX_LUTS {
            luts.clear();
        }
        luts.push((pred.clone(), Arc::clone(&lut)));
        lut
    }
}

/// Slots of the direct-mapped cache [`encode`] consults before its
/// distinct-value map.
const CACHE_SLOTS: usize = 1024;

/// A value's cache slot: its first and last four bytes and its length,
/// mixed. A collision only costs a map lookup.
fn cache_slot(v: &[u8]) -> usize {
    let n = v.len();
    let h = if n >= 4 {
        let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("four bytes")) as u64;
        word(&v[..4]) << 32 | word(&v[n - 4..])
    } else {
        v.iter().fold(0, |h, &b| h << 8 | b as u64)
    };
    crate::hash::mix64(h ^ n as u64) as usize & (CACHE_SLOTS - 1)
}

/// Dictionary-code a string column: `None` when it holds more than
/// [`MAX_ENTRIES`] distinct values (counting stops there). The coded
/// tensor's shape is the one [`Tensor::from_strings`] would give `values`.
///
/// A low-cardinality column repeats a few values, so each row first checks
/// a small direct-mapped cache of recent values (a byte comparison) and
/// only a miss reaches the distinct-value map, which keeps the standard
/// hasher: values come from outside the program.
pub fn encode(values: &[&str], min_width: usize) -> Option<Tensor> {
    let mut ids: HashMap<&[u8], u32> = HashMap::new();
    let mut cache: Vec<Option<(&[u8], u32)>> = vec![None; CACHE_SLOTS];
    // Ids in first-appearance order, then remapped in place to codes.
    let mut first_ids = Vec::with_capacity(values.len());
    let mut width = min_width.max(1);
    for s in values {
        let bytes = s.as_bytes();
        width = width.max(bytes.len());
        let value = trim_padding(bytes);
        let slot = &mut cache[cache_slot(value)];
        let id = match *slot {
            Some((cached, id)) if cached == value => id,
            _ => {
                let next = ids.len() as u32;
                let id = *ids.entry(value).or_insert(next);
                if ids.len() > MAX_ENTRIES {
                    return None;
                }
                *slot = Some((value, id));
                id
            }
        };
        first_ids.push(id);
    }
    let mut entries: Vec<(&[u8], u32)> = ids.into_iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut code_of = vec![0u32; entries.len()];
    for (code, &(_, id)) in entries.iter().enumerate() {
        code_of[id as usize] = code as u32;
    }
    for id in &mut first_ids {
        *id = code_of[*id as usize];
    }
    let dict = StrDict::new(entries.iter().map(|e| e.0), width);
    Some(Tensor::from_coded(first_ids, Arc::new(dict)))
}

/// `pred` over every row of a string matrix, as a `Bool` mask: once per
/// dictionary entry and gathered by code when the matrix is coded, per
/// trimmed row otherwise. The kernel behind string `=`/`<`/…, `IN` and
/// `LIKE`.
pub fn str_mask(col: &Tensor, pred: &StrPred) -> Tensor {
    if let Some((codes, dict)) = col.coded() {
        return gather_lut(codes, &dict.lut(pred));
    }
    let out = (0..col.nrows()).map(|i| pred.eval(col.str_row_trimmed(i)));
    Tensor::from_bool(out.collect())
}

/// `lut[codes[i]]` for every row — a predicate gathered by code.
fn gather_lut(codes: &[u32], lut: &[bool]) -> Tensor {
    Tensor::from_bool(codes.iter().map(|&c| lut[c as usize]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_follow_byte_order_and_trimmed_equality() {
        let t = encode(&["pear", "x\0", "", "apple", "x", "pear"], 1).unwrap();
        let (codes, dict) = t.coded().unwrap();
        // "", "apple", "pear", "x" (with "x\0" ≡ "x").
        assert_eq!(dict.len(), 4);
        assert_eq!(codes, &[2, 3, 0, 1, 3, 2]);
        assert_eq!(t.shape(), &[6, 5]);
        let padded = Tensor::from_strings(&["pear", "x\0", "", "apple", "x", "pear"], 1);
        for i in 0..6 {
            assert_eq!(t.str_row(i), padded.str_row(i), "row {i}");
            assert_eq!(t.str_row_trimmed(i), padded.str_row_trimmed(i), "row {i}");
        }
        assert_eq!(t, padded);
    }

    #[test]
    fn encoding_stops_past_the_entry_cap() {
        let vals: Vec<String> = (0..=MAX_ENTRIES).map(|i| format!("v{i}")).collect();
        let refs: Vec<&str> = vals.iter().map(|s| s.as_str()).collect();
        assert!(encode(&refs[..MAX_ENTRIES], 1).is_some());
        assert!(encode(&refs, 1).is_none());
        let empty = encode(&[], 1).unwrap();
        assert_eq!((empty.nrows(), empty.row_width()), (0, 1));
    }

    #[test]
    fn lookup_tables_match_per_row_predicates_and_are_memoized() {
        let vals = ["MAIL", "AIR", "SHIP", "AIR REG", "", "MAIL"];
        let t = encode(&vals, 1).unwrap();
        let (codes, dict) = t.coded().unwrap();
        let preds = [
            StrPred::Cmp(CmpOp::Lt, b"MAIL".to_vec()),
            StrPred::Cmp(CmpOp::Eq, b"".to_vec()),
            StrPred::In(vec![b"AIR".to_vec(), b"SHIP".to_vec()]),
            StrPred::Like(LikePattern::compile("AIR%")),
        ];
        for p in &preds {
            let lut = dict.lut(p);
            assert!(Arc::ptr_eq(&lut, &dict.lut(p)), "{p:?} memoized");
            let got = gather_lut(codes, &lut);
            let want: Vec<bool> = vals.iter().map(|v| p.eval(v.as_bytes())).collect();
            assert_eq!(got.as_bool(), want.as_slice(), "{p:?}");
        }
        for k in 0..MAX_LUTS + 3 {
            dict.lut(&StrPred::Cmp(CmpOp::Eq, k.to_string().into_bytes()));
        }
        assert!(dict.luts.lock().unwrap().len() <= MAX_LUTS);
    }
}
