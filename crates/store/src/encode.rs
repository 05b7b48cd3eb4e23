//! Column-chunk encodings: byte-exact encode/decode of one column's
//! values for one chunk, plus the bit-packed validity bitmap.
//!
//! Every encoder is paired with a decoder that reproduces the input
//! exactly (NULL positions decode to the placeholder values written there
//! — their content is masked by validity downstream). The writer picks
//! the cheapest encoding by exact encoded size, so compression is never
//! worse than plain.
//!
//! Decoders write the tensor the executor consumes, never a value per
//! row: a string column with a footer dictionary decodes to `u32` codes
//! into it, any other string column straight into its padded byte
//! matrix.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use tqp_data::{LogicalType, StrBuf};
use tqp_tensor::dict::StrDict;
use tqp_tensor::Tensor;

use crate::{Result, StoreError};

/// Encoding tags persisted in column blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Raw values (LE numerics; `u32` length-prefixed UTF-8 strings).
    Plain = 0,
    /// Frame-of-reference: `min` + fixed byte width deltas (ints/dates).
    For = 1,
    /// Run-length `(len, value)` pairs (ints/dates/bools).
    Rle = 2,
    /// Dictionary: distinct strings in first-appearance order + narrow
    /// indices.
    Dict = 3,
    /// One bit per row (bools).
    BitPack = 4,
}

impl Encoding {
    fn from_tag(tag: u8) -> Result<Encoding> {
        Ok(match tag {
            0 => Encoding::Plain,
            1 => Encoding::For,
            2 => Encoding::Rle,
            3 => Encoding::Dict,
            4 => Encoding::BitPack,
            other => return Err(StoreError::Format(format!("unknown encoding tag {other}"))),
        })
    }
}

/// One column chunk's values as the encoder reads them (dates ride as
/// i64).
#[derive(Debug, Clone, Copy)]
pub(crate) enum ChunkValues<'a> {
    I64(&'a [i64]),
    F64(&'a [f64]),
    Bool(&'a [bool]),
    Str(&'a LocalDict<'a>),
}

/// A string chunk's distinct values in first-appearance order, and each
/// row's index among them: the `Dict` block's payload, and all a `Plain`
/// block needs. Values are kept as written, trailing NULs included.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LocalDict<'a> {
    pub entries: Vec<&'a str>,
    pub indices: Vec<u32>,
}

/// Slots of the direct-mapped cache [`LocalDict::build`] consults before
/// its distinct-value map.
const CACHE_SLOTS: usize = 256;

/// A value's cache slot, from its length and its first and last bytes. A
/// collision only costs a map lookup.
fn cache_slot(v: &[u8]) -> usize {
    let edge = |b: Option<&u8>| b.copied().unwrap_or(0) as u64;
    let key = (v.len() as u64) << 16 | edge(v.first()) << 8 | edge(v.last());
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize
}

impl<'a> LocalDict<'a> {
    /// Rows `range` of `rows`, indexed. A low-cardinality chunk repeats a
    /// few values, so each row first checks a small cache of recent values
    /// and only a miss reaches the map, which keeps the standard hasher:
    /// values come from outside the program.
    pub(crate) fn build(rows: &'a StrBuf, range: Range<usize>) -> LocalDict<'a> {
        let mut ids: HashMap<&'a str, u32> = HashMap::with_capacity(range.len());
        let mut cache: [Option<(&'a str, u32)>; CACHE_SLOTS] = [None; CACHE_SLOTS];
        let mut entries = Vec::new();
        let mut indices = Vec::with_capacity(range.len());
        for i in range {
            let s = rows.get(i);
            let slot = &mut cache[cache_slot(s.as_bytes())];
            let id = match *slot {
                Some((cached, id)) if cached == s => id,
                _ => {
                    let id = *ids.entry(s).or_insert_with(|| {
                        entries.push(s);
                        entries.len() as u32 - 1
                    });
                    *slot = Some((s, id));
                    id
                }
            };
            indices.push(id);
        }
        LocalDict { entries, indices }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.indices.len()
    }
}

// ---------------------------------------------------------------------
// Byte-buffer primitives
// ---------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// A forward reader over a byte slice with truncation checks.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.rest().len()
    }

    /// The bytes not read yet.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StoreError::Format(format!(
                "truncated block: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }

    /// `rows` values of `size` bytes each.
    pub(crate) fn take_rows(&mut self, rows: usize, size: usize) -> Result<&'a [u8]> {
        let n = rows
            .checked_mul(size)
            .ok_or_else(|| StoreError::Format(format!("{rows} rows of {size} bytes overflow")))?;
        self.take(n)
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A `len`-prefixed UTF-8 string.
    pub(crate) fn str(&mut self) -> Result<&'a str> {
        utf8(self.bytes()?)
    }
}

/// `b` as UTF-8, or a format error.
pub(crate) fn utf8(b: &[u8]) -> Result<&str> {
    std::str::from_utf8(b).map_err(|_| StoreError::Format("invalid UTF-8 in string payload".into()))
}

// ---------------------------------------------------------------------
// Validity bitmaps
// ---------------------------------------------------------------------

/// Append the validity section: `0` (all valid) or `1` + bit-packed map.
pub(crate) fn encode_validity(out: &mut Vec<u8>, validity: Option<&[bool]>) {
    match validity {
        None => out.push(0),
        Some(bits) if bits.iter().all(|&b| b) => out.push(0),
        Some(bits) => {
            out.push(1);
            out.extend_from_slice(&pack_bits(bits));
        }
    }
}

/// Read the validity section back (row count known from the chunk meta).
pub(crate) fn decode_validity(cur: &mut Cursor<'_>, rows: usize) -> Result<Option<Vec<bool>>> {
    match cur.u8()? {
        0 => Ok(None),
        1 => {
            let packed = cur.take(rows.div_ceil(8))?;
            Ok(Some(unpack_bits(packed, rows)))
        }
        other => Err(StoreError::Format(format!("bad validity tag {other}"))),
    }
}

fn pack_bits(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

fn unpack_bits(packed: &[u8], rows: usize) -> Vec<bool> {
    let mut out = vec![false; rows];
    tqp_tensor::simd::unpack_bits_into(packed, &mut out);
    out
}

// ---------------------------------------------------------------------
// Value encodings
// ---------------------------------------------------------------------

/// Byte width needed to carry `range` (0 means all values equal).
fn for_width(range: u64) -> usize {
    if range == 0 {
        0
    } else if range <= u8::MAX as u64 {
        1
    } else if range <= u16::MAX as u64 {
        2
    } else if range <= u32::MAX as u64 {
        4
    } else {
        8
    }
}

fn rle_runs_i64(v: &[i64]) -> usize {
    let mut runs = 0;
    let mut prev: Option<i64> = None;
    for &x in v {
        if prev != Some(x) {
            runs += 1;
            prev = Some(x);
        }
    }
    runs
}

/// Encode one column chunk's values, choosing the cheapest encoding.
/// Returns the chosen encoding (the tag is also written into the block).
pub(crate) fn encode_values(out: &mut Vec<u8>, values: ChunkValues<'_>) -> Encoding {
    match values {
        ChunkValues::I64(v) => encode_i64(out, v),
        ChunkValues::F64(v) => {
            out.push(Encoding::Plain as u8);
            for &x in v {
                put_f64(out, x);
            }
            Encoding::Plain
        }
        ChunkValues::Bool(v) => encode_bool(out, v),
        ChunkValues::Str(d) => encode_str(out, d),
    }
}

fn encode_i64(out: &mut Vec<u8>, v: &[i64]) -> Encoding {
    let n = v.len();
    let plain_cost = 8 * n;
    let (min, max) = v
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let (for_cost, width) = if n == 0 {
        (usize::MAX, 0)
    } else {
        let range = (max as i128 - min as i128) as u64;
        let w = for_width(range);
        (8 + 1 + w * n, w)
    };
    let runs = rle_runs_i64(v);
    let rle_cost = 4 + runs * 12;

    if n > 0 && rle_cost < plain_cost && rle_cost <= for_cost {
        out.push(Encoding::Rle as u8);
        put_u32(out, runs as u32);
        let mut i = 0;
        while i < n {
            let val = v[i];
            let mut j = i + 1;
            while j < n && v[j] == val {
                j += 1;
            }
            put_u32(out, (j - i) as u32);
            put_i64(out, val);
            i = j;
        }
        Encoding::Rle
    } else if n > 0 && for_cost < plain_cost {
        out.push(Encoding::For as u8);
        put_i64(out, min);
        out.push(width as u8);
        for &x in v {
            let delta = (x as i128 - min as i128) as u64;
            out.extend_from_slice(&delta.to_le_bytes()[..width]);
        }
        Encoding::For
    } else {
        out.push(Encoding::Plain as u8);
        for &x in v {
            put_i64(out, x);
        }
        Encoding::Plain
    }
}

fn encode_bool(out: &mut Vec<u8>, v: &[bool]) -> Encoding {
    // Runs of identical bools are common (sorted/clustered data); compare
    // against the 1-bit packing.
    let runs = {
        let mut runs = 0;
        let mut prev: Option<bool> = None;
        for &x in v {
            if prev != Some(x) {
                runs += 1;
                prev = Some(x);
            }
        }
        runs
    };
    let rle_cost = 4 + runs * 5;
    let pack_cost = v.len().div_ceil(8);
    if !v.is_empty() && rle_cost < pack_cost {
        out.push(Encoding::Rle as u8);
        put_u32(out, runs as u32);
        let mut i = 0;
        while i < v.len() {
            let val = v[i];
            let mut j = i + 1;
            while j < v.len() && v[j] == val {
                j += 1;
            }
            put_u32(out, (j - i) as u32);
            out.push(val as u8);
            i = j;
        }
        Encoding::Rle
    } else {
        out.push(Encoding::BitPack as u8);
        out.extend_from_slice(&pack_bits(v));
        Encoding::BitPack
    }
}

fn encode_str(out: &mut Vec<u8>, d: &LocalDict<'_>) -> Encoding {
    let n = d.len();
    let idx_width: usize = if d.entries.len() <= u8::MAX as usize + 1 {
        1
    } else if d.entries.len() <= u16::MAX as usize + 1 {
        2
    } else {
        4
    };
    let plain_cost: usize = d
        .indices
        .iter()
        .map(|&i| 4 + d.entries[i as usize].len())
        .sum();
    let dict_cost: usize =
        4 + d.entries.iter().map(|s| 4 + s.len()).sum::<usize>() + 1 + idx_width * n;
    if n > 0 && dict_cost < plain_cost {
        out.push(Encoding::Dict as u8);
        put_u32(out, d.entries.len() as u32);
        for s in &d.entries {
            put_bytes(out, s.as_bytes());
        }
        out.push(idx_width as u8);
        for &i in &d.indices {
            out.extend_from_slice(&i.to_le_bytes()[..idx_width]);
        }
        Encoding::Dict
    } else {
        out.push(Encoding::Plain as u8);
        for &i in &d.indices {
            put_bytes(out, d.entries[i as usize].as_bytes());
        }
        Encoding::Plain
    }
}

/// What a string column decodes to: codes into the table's footer
/// dictionary, or rows of a padded matrix `width` bytes wide.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StrForm<'a> {
    Coded(&'a Arc<StrDict>),
    Padded(usize),
}

fn format_err<T>(msg: String) -> Result<T> {
    Err(StoreError::Format(msg))
}

/// A stored string of `len` bytes must fit the footer width.
fn check_width(len: usize, width: usize) -> Result<()> {
    if len > width {
        return format_err(format!(
            "string of {len} bytes is wider than the column's {width}"
        ));
    }
    Ok(())
}

/// `value`'s code in `dict`: its trimmed bytes, found by binary search
/// (the entries are sorted).
fn code_of(dict: &StrDict, value: &[u8]) -> Result<u32> {
    check_width(value.len(), dict.width())?;
    let end = value.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
    let value = &value[..end];
    let (mut lo, mut hi) = (0u32, dict.len() as u32);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match dict.trimmed(mid).cmp(value) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    format_err(format!(
        "string {:?} is missing from the footer dictionary",
        String::from_utf8_lossy(value)
    ))
}

/// The `rows` narrow indices of a `Dict` block, each checked against the
/// block's `n_dict` entries.
fn dict_indices(cur: &mut Cursor<'_>, rows: usize, n_dict: usize) -> Result<Vec<u32>> {
    let width = cur.u8()? as usize;
    let raw = cur.take_rows(rows, width)?;
    let idx: Vec<u32> = match width {
        1 => raw.iter().map(|&b| b as u32).collect(),
        2 => raw
            .chunks_exact(2)
            .map(|b| u16::from_le_bytes([b[0], b[1]]) as u32)
            .collect(),
        4 => raw
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect(),
        other => return format_err(format!("bad dict index width {other}")),
    };
    match idx.iter().max() {
        Some(&max) if max as usize >= n_dict => {
            format_err(format!("dict index {max} out of range {n_dict}"))
        }
        _ => Ok(idx),
    }
}

/// A `Plain` or `Dict` string block as `form` asks.
fn decode_str(
    cur: &mut Cursor<'_>,
    enc: Encoding,
    rows: usize,
    form: StrForm<'_>,
) -> Result<Tensor> {
    // A plain row, and a dict row's index, take at least one byte.
    if rows > cur.remaining() {
        return format_err(format!("{rows} string rows in a truncated block"));
    }
    let mut entries: Vec<&[u8]> = Vec::new();
    if enc == Encoding::Dict {
        let n_dict = cur.u32()? as usize;
        // Each entry takes at least its 4-byte length.
        if n_dict > cur.remaining() / 4 {
            return format_err(format!("{n_dict} dict entries in a truncated block"));
        }
        entries.reserve(n_dict);
        for _ in 0..n_dict {
            entries.push(cur.bytes()?);
        }
    }
    match form {
        StrForm::Coded(dict) => {
            let codes = if enc == Encoding::Dict {
                let global = entries
                    .iter()
                    .map(|e| code_of(dict, e))
                    .collect::<Result<Vec<u32>>>()?;
                let mut codes = dict_indices(cur, rows, entries.len())?;
                for c in &mut codes {
                    *c = global[*c as usize];
                }
                codes
            } else {
                let mut codes = Vec::with_capacity(rows);
                for _ in 0..rows {
                    codes.push(code_of(dict, cur.bytes()?)?);
                }
                codes
            };
            Ok(Tensor::from_coded(codes, Arc::clone(dict)))
        }
        StrForm::Padded(width) => {
            let m = width.max(1);
            let mut out = vec![
                0u8;
                rows.checked_mul(m).ok_or_else(|| {
                    StoreError::Format(format!("{rows} rows of {m} bytes overflow"))
                })?
            ];
            if enc == Encoding::Dict {
                for e in &entries {
                    check_width(e.len(), width)?;
                    utf8(e)?;
                }
                let idx = dict_indices(cur, rows, entries.len())?;
                for (row, &i) in out.chunks_exact_mut(m).zip(&idx) {
                    let e = entries[i as usize];
                    row[..e.len()].copy_from_slice(e);
                }
            } else {
                // All-ASCII bytes, lengths included, hold only valid rows.
                let ascii = cur.rest().is_ascii();
                for row in out.chunks_exact_mut(m) {
                    let s = cur.bytes()?;
                    check_width(s.len(), width)?;
                    if !ascii {
                        utf8(s)?;
                    }
                    row[..s.len()].copy_from_slice(s);
                }
            }
            Ok(Tensor::from_u8_matrix(out, rows, m))
        }
    }
}

/// Run lengths must add up to the chunk's rows; checked before each run
/// is expanded, so a corrupt length cannot allocate past them.
fn check_run(decoded: usize, len: usize, rows: usize) -> Result<()> {
    if len > rows - decoded {
        return format_err(format!(
            "rle run of {len} overruns the chunk's {rows} rows at row {decoded}"
        ));
    }
    Ok(())
}

/// Decode one column chunk's value section into the tensor the executor
/// consumes. `strings` says what a string column decodes to.
pub(crate) fn decode_values(
    cur: &mut Cursor<'_>,
    ty: LogicalType,
    rows: usize,
    strings: StrForm<'_>,
) -> Result<Tensor> {
    let enc = Encoding::from_tag(cur.u8()?)?;
    match (ty, enc) {
        (LogicalType::Int64 | LogicalType::Date, Encoding::Plain) => {
            let raw = cur.take_rows(rows, 8)?;
            let mut v = vec![0i64; rows];
            tqp_tensor::simd::decode_i64_le(raw, &mut v);
            Ok(Tensor::from_i64(v))
        }
        (LogicalType::Int64 | LogicalType::Date, Encoding::For) => {
            let min = cur.i64()?;
            let width = cur.u8()? as usize;
            if width > 8 {
                return format_err(format!("bad FOR width {width}"));
            }
            if width == 0 {
                return Ok(Tensor::from_i64(vec![min; rows]));
            }
            let raw = cur.take_rows(rows, width)?;
            let mut v = vec![0i64; rows];
            tqp_tensor::simd::decode_for(raw, width, min, &mut v);
            Ok(Tensor::from_i64(v))
        }
        (LogicalType::Int64 | LogicalType::Date, Encoding::Rle) => {
            let runs = cur.u32()? as usize;
            let mut v = Vec::with_capacity(rows);
            for _ in 0..runs {
                let len = cur.u32()? as usize;
                let val = cur.i64()?;
                check_run(v.len(), len, rows)?;
                tqp_tensor::simd::splat_i64(&mut v, val, len);
            }
            if v.len() != rows {
                return format_err(format!("rle decoded {} rows, expected {rows}", v.len()));
            }
            Ok(Tensor::from_i64(v))
        }
        (LogicalType::Float64, Encoding::Plain) => {
            let raw = cur.take_rows(rows, 8)?;
            let mut v = vec![0.0f64; rows];
            tqp_tensor::simd::decode_f64_le(raw, &mut v);
            Ok(Tensor::from_f64(v))
        }
        (LogicalType::Bool, Encoding::BitPack) => {
            let packed = cur.take(rows.div_ceil(8))?;
            Ok(Tensor::from_bool(unpack_bits(packed, rows)))
        }
        (LogicalType::Bool, Encoding::Rle) => {
            let runs = cur.u32()? as usize;
            let mut v = Vec::with_capacity(rows);
            for _ in 0..runs {
                let len = cur.u32()? as usize;
                let val = cur.u8()? != 0;
                check_run(v.len(), len, rows)?;
                v.extend(std::iter::repeat_n(val, len));
            }
            if v.len() != rows {
                return format_err(format!("rle decoded {} rows, expected {rows}", v.len()));
            }
            Ok(Tensor::from_bool(v))
        }
        (LogicalType::Str, Encoding::Plain | Encoding::Dict) => decode_str(cur, enc, rows, strings),
        (ty, enc) => format_err(format!("encoding {enc:?} invalid for column type {ty:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAD: StrForm<'static> = StrForm::Padded(0);

    /// Encode `values`, check the encoding chosen, decode them back.
    fn roundtrip(
        values: ChunkValues<'_>,
        ty: LogicalType,
        expect: Encoding,
        rows: usize,
    ) -> Tensor {
        roundtrip_as(values, ty, expect, rows, PAD)
    }

    fn roundtrip_as(
        values: ChunkValues<'_>,
        ty: LogicalType,
        expect: Encoding,
        rows: usize,
        form: StrForm<'_>,
    ) -> Tensor {
        let mut buf = Vec::new();
        let enc = encode_values(&mut buf, values);
        assert_eq!(enc, expect, "encoding choice for {values:?}");
        let mut cur = Cursor::new(&buf);
        let back = decode_values(&mut cur, ty, rows, form).unwrap();
        assert_eq!(cur.remaining(), 0, "trailing bytes");
        back
    }

    fn str_buf(values: &[String]) -> StrBuf {
        let mut b = StrBuf::new();
        values.iter().for_each(|s| b.push(s));
        b
    }

    /// `block` decoded as `ty` — a format error, never a panic.
    fn rejects(block: &[u8], ty: LogicalType, rows: usize, form: StrForm<'_>) {
        match decode_values(&mut Cursor::new(block), ty, rows, form) {
            Err(StoreError::Format(_)) => {}
            other => panic!("{block:?} as {ty:?}: expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn int_for_roundtrip() {
        let v: Vec<i64> = (1000..2000).collect();
        let back = roundtrip(
            ChunkValues::I64(&v),
            LogicalType::Int64,
            Encoding::For,
            1000,
        );
        assert_eq!(back.as_i64(), v.as_slice());
    }

    #[test]
    fn int_rle_roundtrip() {
        let mut v = vec![7i64; 500];
        v.extend(vec![-3i64; 500]);
        let back = roundtrip(
            ChunkValues::I64(&v),
            LogicalType::Int64,
            Encoding::Rle,
            1000,
        );
        assert_eq!(back.as_i64(), v.as_slice());
    }

    #[test]
    fn int_plain_on_incompressible() {
        let v: Vec<i64> = (0..100)
            .map(|i| i64::MIN / 2 + i * (i64::MAX / 200))
            .collect();
        let back = roundtrip(
            ChunkValues::I64(&v),
            LogicalType::Int64,
            Encoding::Plain,
            100,
        );
        assert_eq!(back.as_i64(), v.as_slice());
    }

    #[test]
    fn int_extremes() {
        let v = vec![i64::MIN, i64::MAX, 0, -1, 1];
        let mut buf = Vec::new();
        encode_values(&mut buf, ChunkValues::I64(&v));
        let back = decode_values(&mut Cursor::new(&buf), LogicalType::Int64, 5, PAD).unwrap();
        assert_eq!(back.as_i64(), v.as_slice());
    }

    #[test]
    fn float_roundtrip_bit_exact() {
        let v = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            1.5e300,
            f64::NAN,
        ];
        let back = roundtrip(
            ChunkValues::F64(&v),
            LogicalType::Float64,
            Encoding::Plain,
            6,
        );
        for (a, b) in back.as_f64().iter().zip(&v) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bool_bitpack_and_rle() {
        let v: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let back = roundtrip(
            ChunkValues::Bool(&v),
            LogicalType::Bool,
            Encoding::BitPack,
            100,
        );
        assert_eq!(back.as_bool(), v.as_slice());
        let v = vec![true; 1000];
        let back = roundtrip(
            ChunkValues::Bool(&v),
            LogicalType::Bool,
            Encoding::Rle,
            1000,
        );
        assert_eq!(back.as_bool(), v.as_slice());
    }

    /// Both string encodings decode to the padded matrix of the same rows,
    /// and to the codes `dict::encode` gives them.
    #[test]
    fn string_dict_and_plain() {
        let low: Vec<String> = (0..300).map(|i| format!("cat{}", i % 4)).collect();
        let high: Vec<String> = (0..50).map(|i| format!("unique value {i}")).collect();
        for (values, expect) in [(low, Encoding::Dict), (high, Encoding::Plain)] {
            let rows = str_buf(&values);
            let d = LocalDict::build(&rows, 0..values.len());
            let refs: Vec<&str> = values.iter().map(String::as_str).collect();
            let width = refs.iter().map(|s| s.len()).max().unwrap();
            let padded = roundtrip_as(
                ChunkValues::Str(&d),
                LogicalType::Str,
                expect,
                values.len(),
                StrForm::Padded(width),
            );
            let want = Tensor::from_strings(&refs, 1);
            assert_eq!(padded.as_u8(), want.as_u8());
            assert_eq!(padded.shape(), want.shape());
            let coded = tqp_tensor::dict::encode(&refs, 1).unwrap();
            let (want_codes, dict) = coded.coded().unwrap();
            let back = roundtrip_as(
                ChunkValues::Str(&d),
                LogicalType::Str,
                expect,
                values.len(),
                StrForm::Coded(dict),
            );
            let (codes, back_dict) = back.coded().unwrap();
            assert_eq!(codes, want_codes);
            assert!(Arc::ptr_eq(back_dict, dict));
        }
    }

    #[test]
    fn local_dict_keeps_first_appearance_order() {
        let values: Vec<String> = ["b", "a", "b", "", "a\0", "a"].map(String::from).into();
        let rows = str_buf(&values);
        let d = LocalDict::build(&rows, 1..6);
        assert_eq!(d.entries, ["a", "b", "", "a\0"]);
        assert_eq!(d.indices, [0, 1, 2, 3, 0]);
    }

    #[test]
    fn validity_roundtrip() {
        let bits: Vec<bool> = (0..37).map(|i| i % 5 != 0).collect();
        let mut buf = Vec::new();
        encode_validity(&mut buf, Some(&bits));
        let back = decode_validity(&mut Cursor::new(&buf), 37).unwrap();
        assert_eq!(back, Some(bits));
        // All-valid collapses to the absent marker.
        let mut buf = Vec::new();
        encode_validity(&mut buf, Some(&[true, true]));
        assert_eq!(buf, vec![0]);
        assert_eq!(decode_validity(&mut Cursor::new(&buf), 2).unwrap(), None);
    }

    #[test]
    fn corrupt_blocks_error_not_panic() {
        let mut buf = Vec::new();
        encode_values(&mut buf, ChunkValues::I64(&[1, 2, 3]));
        // Truncation.
        rejects(&buf[..buf.len() - 1], LogicalType::Int64, 3, PAD);
        // Wrong type for the tag.
        rejects(&buf, LogicalType::Str, 3, PAD);
        // Unknown tag.
        rejects(&[99u8], LogicalType::Int64, 0, PAD);
        // Row counts whose byte size overflows.
        rejects(
            &[Encoding::Plain as u8],
            LogicalType::Float64,
            usize::MAX,
            PAD,
        );
        // A run longer than the chunk, before anything is expanded.
        let mut rle = vec![Encoding::Rle as u8];
        put_u32(&mut rle, 1);
        put_u32(&mut rle, u32::MAX);
        put_i64(&mut rle, 7);
        rejects(&rle, LogicalType::Int64, 10, PAD);
        let mut rle = vec![Encoding::Rle as u8];
        put_u32(&mut rle, 1);
        put_u32(&mut rle, u32::MAX);
        rle.push(1);
        rejects(&rle, LogicalType::Bool, 10, PAD);

        // String blocks: `plain(rows)` and `dict(entries, index width, indices)`.
        let plain = |rows: &[&[u8]]| {
            let mut b = vec![Encoding::Plain as u8];
            rows.iter().for_each(|r| put_bytes(&mut b, r));
            b
        };
        let dict = |entries: &[&[u8]], width: u8, idx: &[u8]| {
            let mut b = vec![Encoding::Dict as u8];
            put_u32(&mut b, entries.len() as u32);
            entries.iter().for_each(|e| put_bytes(&mut b, e));
            b.push(width);
            b.extend_from_slice(idx);
            b
        };
        let footer = Arc::new(StrDict::from_sorted(&[b"a", b"b"], 4).unwrap());
        let coded = StrForm::Coded(&footer);
        let str_ty = LogicalType::Str;
        // Well-formed blocks decode in both forms.
        for block in [plain(&[b"a", b"b\0"]), dict(&[b"b", b"a"], 1, &[1, 0])] {
            for form in [coded, StrForm::Padded(4)] {
                assert!(decode_values(&mut Cursor::new(&block), str_ty, 2, form).is_ok());
            }
        }
        for form in [coded, StrForm::Padded(4)] {
            // A string wider than the footer width.
            rejects(&plain(&[b"abcde"]), str_ty, 1, form);
            rejects(&dict(&[b"abcde"], 1, &[0]), str_ty, 1, form);
            // Dictionary indices out of range, or of a width never written.
            rejects(&dict(&[b"a"], 1, &[1]), str_ty, 1, form);
            rejects(&dict(&[b"a"], 2, &[0, 1]), str_ty, 1, form);
            rejects(&dict(&[b"a"], 3, &[0, 0, 0]), str_ty, 1, form);
            rejects(&dict(&[b"a"], 9, &[0; 9]), str_ty, 1, form);
            // An entry count the block cannot hold.
            let mut huge = vec![Encoding::Dict as u8];
            put_u32(&mut huge, u32::MAX);
            rejects(&huge, str_ty, 1, form);
        }
        // Invalid UTF-8, in a Plain and in a Dict block.
        rejects(&plain(&[b"\xff\xfe"]), str_ty, 1, StrForm::Padded(4));
        rejects(&dict(&[b"\xc3"], 1, &[0]), str_ty, 1, StrForm::Padded(4));
        // A Plain row, or a Dict entry, missing from the footer dictionary
        // (invalid UTF-8 can only be missing from it).
        rejects(&plain(&[b"a", b"c"]), str_ty, 2, coded);
        rejects(&dict(&[b"a", b"c"], 1, &[0, 0]), str_ty, 2, coded);
        rejects(&plain(&[b"\xff"]), str_ty, 1, coded);
    }
}
