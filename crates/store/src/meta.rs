//! Footer metadata: schema, per-chunk layout + zone maps, table stats,
//! string dictionaries — serialization shared by the writer and reader.

use std::sync::Arc;

use tqp_data::stats::{ColumnStats, TableStats};
use tqp_data::{Field, LogicalType, Schema};
use tqp_tensor::dict::StrDict;
use tqp_tensor::Scalar;

use crate::encode::{put_bytes, put_f64, put_i64, put_u32, put_u64, utf8, Cursor};
use crate::{Result, StoreError};
use tqp_data::zone::ZoneMap;

/// Footer entry for one column of one chunk.
#[derive(Debug, Clone)]
pub struct ColChunkMeta {
    /// Absolute file offset of the column block.
    pub offset: u64,
    /// Block length in bytes.
    pub len: u64,
    pub zone: ZoneMap,
}

/// Footer entry for one chunk.
#[derive(Debug, Clone)]
pub struct ChunkMeta {
    pub rows: u64,
    pub cols: Vec<ColChunkMeta>,
}

fn ty_tag(ty: LogicalType) -> u8 {
    match ty {
        LogicalType::Bool => 0,
        LogicalType::Int64 => 1,
        LogicalType::Float64 => 2,
        LogicalType::Date => 3,
        LogicalType::Str => 4,
    }
}

fn ty_from_tag(tag: u8) -> Result<LogicalType> {
    Ok(match tag {
        0 => LogicalType::Bool,
        1 => LogicalType::Int64,
        2 => LogicalType::Float64,
        3 => LogicalType::Date,
        4 => LogicalType::Str,
        other => return Err(StoreError::Format(format!("unknown type tag {other}"))),
    })
}

/// Scalar payload typed by the column's logical type (dates as i64 ns).
fn put_scalar(out: &mut Vec<u8>, ty: LogicalType, v: &Scalar) {
    match (ty, v) {
        (LogicalType::Bool, Scalar::Bool(b)) => out.push(*b as u8),
        (LogicalType::Int64 | LogicalType::Date, Scalar::I64(x)) => put_i64(out, *x),
        (LogicalType::Float64, Scalar::F64(x)) => put_f64(out, *x),
        (LogicalType::Str, Scalar::Str(s)) => put_bytes(out, s.as_bytes()),
        (ty, v) => panic!("stat scalar {v:?} does not match column type {ty:?}"),
    }
}

fn read_scalar(cur: &mut Cursor<'_>, ty: LogicalType) -> Result<Scalar> {
    Ok(match ty {
        LogicalType::Bool => Scalar::Bool(cur.u8()? != 0),
        LogicalType::Int64 | LogicalType::Date => Scalar::I64(cur.i64()?),
        LogicalType::Float64 => Scalar::F64(cur.f64()?),
        LogicalType::Str => Scalar::Str(cur.str()?.to_owned()),
    })
}

fn put_minmax(out: &mut Vec<u8>, ty: LogicalType, min: &Option<Scalar>, max: &Option<Scalar>) {
    match (min, max) {
        (Some(lo), Some(hi)) => {
            out.push(1);
            put_scalar(out, ty, lo);
            put_scalar(out, ty, hi);
        }
        _ => out.push(0),
    }
}

fn read_minmax(cur: &mut Cursor<'_>, ty: LogicalType) -> Result<(Option<Scalar>, Option<Scalar>)> {
    if cur.u8()? == 0 {
        return Ok((None, None));
    }
    Ok((Some(read_scalar(cur, ty)?), Some(read_scalar(cur, ty)?)))
}

/// The parsed footer.
pub struct Footer {
    pub schema: Schema,
    pub chunk_rows: u64,
    pub str_widths: Vec<u32>,
    pub rows: u64,
    pub chunks: Vec<ChunkMeta>,
    pub stats: TableStats,
    /// Per column: the dictionary every chunk of a string column decodes
    /// its codes into, when the column holds at most
    /// [`tqp_tensor::dict::MAX_ENTRIES`] distinct trimmed values.
    pub dicts: Vec<Option<Arc<StrDict>>>,
}

/// Serialize the footer.
pub fn encode_footer(f: &Footer) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, f.schema.len() as u32);
    for field in &f.schema.fields {
        put_bytes(&mut out, field.name.as_bytes());
        out.push(ty_tag(field.ty));
    }
    put_u64(&mut out, f.chunk_rows);
    for &w in &f.str_widths {
        put_u32(&mut out, w);
    }
    put_u64(&mut out, f.rows);
    put_u64(&mut out, f.chunks.len() as u64);
    for chunk in &f.chunks {
        put_u64(&mut out, chunk.rows);
        for (col, field) in chunk.cols.iter().zip(&f.schema.fields) {
            put_u64(&mut out, col.offset);
            put_u64(&mut out, col.len);
            put_minmax(&mut out, field.ty, &col.zone.min, &col.zone.max);
            put_u64(&mut out, col.zone.null_count);
            put_u32(&mut out, col.zone.distinct);
        }
    }
    for (cs, field) in f.stats.columns.iter().zip(&f.schema.fields) {
        put_minmax(&mut out, field.ty, &cs.min, &cs.max);
        put_u64(&mut out, cs.null_count as u64);
        put_u64(&mut out, cs.distinct as u64);
    }
    for (dict, field) in f.dicts.iter().zip(&f.schema.fields) {
        if field.ty != LogicalType::Str {
            continue;
        }
        match dict {
            None => out.push(0),
            Some(d) => {
                out.push(1);
                put_u32(&mut out, d.len() as u32);
                for code in 0..d.len() as u32 {
                    put_bytes(&mut out, d.trimmed(code));
                }
            }
        }
    }
    out
}

/// A string column's footer dictionary, checked: entries UTF-8, and what
/// [`StrDict::from_sorted`] accepts for the column's width.
fn read_dict(cur: &mut Cursor<'_>, width: usize) -> Result<Option<Arc<StrDict>>> {
    match cur.u8()? {
        0 => return Ok(None),
        1 => {}
        other => return Err(StoreError::Format(format!("bad dictionary tag {other}"))),
    }
    let n = cur.u32()? as usize;
    // Each entry takes at least its 4-byte length.
    if n > cur.remaining() / 4 {
        return Err(StoreError::Format(format!(
            "{n} dictionary entries in a truncated footer"
        )));
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(utf8(cur.bytes()?)?.as_bytes());
    }
    let dict = StrDict::from_sorted(&entries, width.max(1))
        .map_err(|e| StoreError::Format(format!("footer dictionary: {e}")))?;
    Ok(Some(Arc::new(dict)))
}

/// Parse the footer of a `file_bytes`-byte file. A string column is no
/// wider than the file that holds its strings.
pub fn decode_footer(buf: &[u8], file_bytes: u64) -> Result<Footer> {
    let mut cur = Cursor::new(buf);
    let ncols = cur.u32()? as usize;
    let mut fields = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = cur.str()?.to_owned();
        let ty = ty_from_tag(cur.u8()?)?;
        fields.push(Field::new(name, ty));
    }
    let schema = Schema::new(fields);
    let chunk_rows = cur.u64()?;
    let mut str_widths = Vec::with_capacity(ncols);
    for c in 0..ncols {
        let width = cur.u32()?;
        if width as u64 > file_bytes {
            return Err(StoreError::Format(format!(
                "column {c} claims strings of {width} bytes in a {file_bytes}-byte file"
            )));
        }
        str_widths.push(width);
    }
    let rows = cur.u64()?;
    let n_chunks = cur.u64()? as usize;
    let mut chunks = Vec::with_capacity(n_chunks);
    for _ in 0..n_chunks {
        let rows = cur.u64()?;
        let mut cols = Vec::with_capacity(ncols);
        for field in &schema.fields {
            let offset = cur.u64()?;
            let len = cur.u64()?;
            let (min, max) = read_minmax(&mut cur, field.ty)?;
            let null_count = cur.u64()?;
            let distinct = cur.u32()?;
            cols.push(ColChunkMeta {
                offset,
                len,
                zone: ZoneMap {
                    min,
                    max,
                    null_count,
                    distinct,
                },
            });
        }
        chunks.push(ChunkMeta { rows, cols });
    }
    let mut columns = Vec::with_capacity(ncols);
    for field in &schema.fields {
        let (min, max) = read_minmax(&mut cur, field.ty)?;
        let null_count = cur.u64()? as usize;
        let distinct = cur.u64()? as usize;
        columns.push(ColumnStats {
            min,
            max,
            null_count,
            distinct,
        });
    }
    let mut dicts = Vec::with_capacity(ncols);
    for (field, &width) in schema.fields.iter().zip(&str_widths) {
        dicts.push(match field.ty {
            LogicalType::Str => read_dict(&mut cur, width as usize)?,
            _ => None,
        });
    }
    if cur.remaining() != 0 {
        return Err(StoreError::Format(format!(
            "{} trailing bytes after footer",
            cur.remaining()
        )));
    }
    Ok(Footer {
        schema,
        chunk_rows,
        str_widths,
        rows,
        chunks,
        stats: TableStats {
            rows: rows as usize,
            columns,
        },
        dicts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The size of the file the test footers sit in.
    const FILE: u64 = 1 << 20;

    /// A one-column string footer whose dictionary section is `dict`.
    fn footer_with(dict: &[u8]) -> Vec<u8> {
        let footer = Footer {
            schema: Schema::new(vec![Field::new("s", LogicalType::Str)]),
            chunk_rows: 8,
            str_widths: vec![3],
            rows: 0,
            chunks: Vec::new(),
            stats: TableStats {
                rows: 0,
                columns: vec![ColumnStats {
                    min: None,
                    max: None,
                    null_count: 0,
                    distinct: 0,
                }],
            },
            dicts: vec![None],
        };
        let mut bytes = encode_footer(&footer);
        assert_eq!(
            bytes.pop(),
            Some(0),
            "the dictionary section ends the footer"
        );
        bytes.extend_from_slice(dict);
        bytes
    }

    fn dict_section(entries: &[&[u8]]) -> Vec<u8> {
        let mut out = vec![1];
        put_u32(&mut out, entries.len() as u32);
        entries.iter().for_each(|e| put_bytes(&mut out, e));
        out
    }

    #[test]
    fn footer_dictionaries_round_trip() {
        let f = decode_footer(&footer_with(&dict_section(&[b"", b"ab", b"abc"])), FILE).unwrap();
        let d = f.dicts[0].as_ref().unwrap();
        assert_eq!((d.len(), d.width()), (3, 3));
        assert_eq!(d.trimmed(1), b"ab");
        assert_eq!(
            encode_footer(&f),
            footer_with(&dict_section(&[b"", b"ab", b"abc"]))
        );
        assert!(decode_footer(&footer_with(&[0]), FILE).unwrap().dicts[0].is_none());
    }

    #[test]
    fn hostile_footer_dictionaries_are_format_errors() {
        let many: Vec<Vec<u8>> = (0..=tqp_tensor::dict::MAX_ENTRIES)
            .map(|i| format!("{i:03x}").into_bytes())
            .collect();
        let many: Vec<&[u8]> = many.iter().map(Vec::as_slice).collect();
        let mut huge = vec![1];
        put_u32(&mut huge, u32::MAX);
        for (what, section) in [
            ("unsorted", dict_section(&[b"b", b"a"])),
            ("duplicated", dict_section(&[b"a", b"a"])),
            ("longer than MAX_ENTRIES", dict_section(&many)),
            ("wider than the column", dict_section(&[b"abcd"])),
            ("not trimmed", dict_section(&[b"a\0"])),
            ("invalid UTF-8", dict_section(&[b"\xff"])),
            ("truncated", huge),
            ("bad tag", vec![2]),
        ] {
            assert!(
                matches!(
                    decode_footer(&footer_with(&section), FILE),
                    Err(StoreError::Format(_))
                ),
                "{what}"
            );
        }
    }
}
