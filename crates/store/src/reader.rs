//! The store reader: opens a table file, parses the footer, and decodes
//! chunks on demand — **chunk-at-a-time** into the tensors the execution
//! layer consumes, never materializing the file whole unless a caller
//! explicitly concatenates every chunk.

use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tqp_data::stats::TableStats;
use tqp_data::{LogicalType, Schema};
use tqp_tensor::dict::StrDict;
use tqp_tensor::Tensor;

use crate::encode::{decode_validity, decode_values, Cursor, StrForm};
use crate::meta::{decode_footer, ChunkMeta, Footer};
use crate::{Result, StoreError, FORMAT_VERSION, MAGIC};
use tqp_data::zone::ZoneMap;

/// One decoded column chunk: a value tensor plus optional validity.
pub type DecodedColumn = (Tensor, Option<Tensor>);

/// An opened stored table: footer metadata in memory, chunk payloads on
/// disk. `Send + Sync`; chunk decodes open their own file handle, so the
/// executor fans decodes out across worker threads freely.
pub struct StoredTable {
    path: PathBuf,
    schema: Schema,
    chunk_rows: usize,
    rows: usize,
    str_widths: Vec<u32>,
    chunks: Vec<ChunkMeta>,
    stats: TableStats,
    /// Each string column's footer dictionary, shared by every decoded
    /// chunk of the column.
    dicts: Vec<Option<Arc<StrDict>>>,
    file_bytes: u64,
}

impl std::fmt::Debug for StoredTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoredTable")
            .field("path", &self.path)
            .field("rows", &self.rows)
            .field("chunks", &self.chunks.len())
            .field("chunk_rows", &self.chunk_rows)
            .finish()
    }
}

impl StoredTable {
    /// Open an existing store file (reads header + footer only).
    pub fn open(path: &Path) -> Result<StoredTable> {
        let mut file = std::fs::File::open(path)?;
        let file_bytes = file.seek(SeekFrom::End(0))?;
        let mut head = [0u8; 8];
        if file_bytes < 20 {
            return Err(StoreError::Format(format!(
                "{} is too small to be a store file",
                path.display()
            )));
        }
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut head)?;
        if &head[..4] != MAGIC {
            return Err(StoreError::Format(format!(
                "{} has bad magic (not a tqp-store file)",
                path.display()
            )));
        }
        let version = u32::from_le_bytes(head[4..8].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(StoreError::Format(format!(
                "store format version {version} unsupported (this build reads version {FORMAT_VERSION})"
            )));
        }
        let mut tail = [0u8; 12];
        file.seek(SeekFrom::End(-12))?;
        file.read_exact(&mut tail)?;
        if &tail[8..] != MAGIC {
            return Err(StoreError::Format(format!(
                "{} is truncated (missing trailing magic)",
                path.display()
            )));
        }
        let footer_off = u64::from_le_bytes(tail[..8].try_into().unwrap());
        if footer_off < 8 || footer_off > file_bytes - 12 {
            return Err(StoreError::Format(format!(
                "footer offset {footer_off} out of range"
            )));
        }
        let mut buf = vec![0u8; (file_bytes - 12 - footer_off) as usize];
        file.seek(SeekFrom::Start(footer_off))?;
        file.read_exact(&mut buf)?;
        let footer = decode_footer(&buf, file_bytes)?;
        // Every block lies between the header and the footer, and the
        // chunks add up to the table.
        for (i, chunk) in footer.chunks.iter().enumerate() {
            for (c, col) in chunk.cols.iter().enumerate() {
                if col.offset < 8
                    || col
                        .offset
                        .checked_add(col.len)
                        .is_none_or(|end| end > footer_off)
                {
                    return Err(StoreError::Format(format!(
                        "chunk {i} column {c}: block at {} of {} bytes lies outside the data section",
                        col.offset, col.len
                    )));
                }
            }
        }
        let chunk_rows = footer
            .chunks
            .iter()
            .try_fold(0u64, |acc, c| acc.checked_add(c.rows));
        if chunk_rows != Some(footer.rows) {
            return Err(StoreError::Format(format!(
                "chunk rows add up to {chunk_rows:?}, the footer says {}",
                footer.rows
            )));
        }
        StoredTable::from_footer(path.to_path_buf(), footer, file_bytes)
    }

    /// Build from an in-memory footer (the writer's `finish` path).
    pub(crate) fn from_footer(
        path: PathBuf,
        footer: Footer,
        file_bytes: u64,
    ) -> Result<StoredTable> {
        Ok(StoredTable {
            path,
            schema: footer.schema,
            chunk_rows: footer.chunk_rows as usize,
            rows: footer.rows as usize,
            str_widths: footer.str_widths,
            chunks: footer.chunks,
            stats: footer.stats,
            dicts: footer.dicts,
            file_bytes,
        })
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Nominal rows per chunk (the last chunk may be shorter).
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Rows in chunk `i`.
    pub fn chunk_len(&self, i: usize) -> usize {
        self.chunks[i].rows as usize
    }

    /// Zone map of column `col` in chunk `i`.
    pub fn zone(&self, i: usize, col: usize) -> &ZoneMap {
        &self.chunks[i].cols[col].zone
    }

    /// Whole-table statistics from the footer.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// On-disk size in bytes (compression accounting).
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Table-wide maximum string byte width of column `col` (0 for
    /// non-string columns) — the width every decoded chunk pads to, so
    /// chunk concatenation is bit-identical to whole-table ingestion.
    pub fn str_width(&self, col: usize) -> usize {
        self.str_widths[col] as usize
    }

    /// What string column `col` decodes to: codes into its footer
    /// dictionary, or padded rows.
    fn str_form(&self, col: usize) -> StrForm<'_> {
        match &self.dicts[col] {
            Some(dict) => StrForm::Coded(dict),
            None => StrForm::Padded(self.str_width(col)),
        }
    }

    /// Decode the given columns of chunk `i` (schema order preserved
    /// within the projection). A string column with a footer dictionary
    /// decodes to codes into it, shared by every chunk; any other string
    /// column to a matrix padded to its table-wide width.
    pub fn decode_chunk(&self, i: usize, cols: &[usize]) -> Result<Vec<DecodedColumn>> {
        let chunk = &self.chunks[i];
        let rows = chunk.rows as usize;
        let mut file = std::fs::File::open(&self.path)?;
        let mut out = Vec::with_capacity(cols.len());
        for &c in cols {
            let meta = &chunk.cols[c];
            let mut buf = vec![0u8; meta.len as usize];
            file.seek(SeekFrom::Start(meta.offset))?;
            file.read_exact(&mut buf)?;
            let mut cur = Cursor::new(&buf);
            let validity = decode_validity(&mut cur, rows)?;
            let tensor = decode_values(&mut cur, self.schema.fields[c].ty, rows, self.str_form(c))?;
            if cur.remaining() != 0 {
                return Err(StoreError::Format(format!(
                    "chunk {i} column {c}: {} trailing bytes",
                    cur.remaining()
                )));
            }
            out.push((tensor, validity.map(Tensor::from_bool)));
        }
        Ok(out)
    }

    /// Zero-row tensors of the right dtype/width for the given columns
    /// (the shape of a fully-pruned or empty-table scan).
    pub fn empty_columns(&self, cols: &[usize]) -> Vec<DecodedColumn> {
        cols.iter()
            .map(|&c| {
                let t = match self.schema.fields[c].ty {
                    LogicalType::Bool => Tensor::from_bool(vec![]),
                    LogicalType::Int64 | LogicalType::Date => Tensor::from_i64(vec![]),
                    LogicalType::Float64 => Tensor::from_f64(vec![]),
                    LogicalType::Str => match self.str_form(c) {
                        StrForm::Coded(dict) => Tensor::from_coded(vec![], Arc::clone(dict)),
                        StrForm::Padded(width) => Tensor::from_strings(&[], width),
                    },
                };
                (t, None)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::encode_footer;
    use crate::writer::{store_csv, store_frame, StoreWriter};
    use tqp_data::frame::df;
    use tqp_data::ingest::{column_to_tensor, frame_to_tensors};
    use tqp_data::Column;
    use tqp_tensor::Scalar;

    fn tmpdir() -> PathBuf {
        let d = std::env::temp_dir().join(format!("tqp_store_test_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_frame(n: i64) -> tqp_data::DataFrame {
        df(vec![
            ("id", Column::from_i64((0..n).collect())),
            (
                "flag",
                Column::from_bool((0..n).map(|i| i % 3 == 0).collect()),
            ),
            (
                "price",
                Column::from_f64((0..n).map(|i| (i as f64) * 0.25 - 10.0).collect()),
            ),
            (
                "day",
                Column::from_date_ns((0..n).map(|i| (i % 30) * 86_400_000_000_000).collect()),
            ),
            (
                "name",
                Column::from_str((0..n).map(|i| format!("name-{}", i % 7)).collect()),
            ),
        ])
    }

    /// Decode every chunk and compare against whole-table ingestion —
    /// the bit-exactness contract the executor relies on.
    fn assert_bit_exact(table: &StoredTable, frame: &tqp_data::DataFrame) {
        let reference = frame_to_tensors(frame);
        let ncols = frame.ncols();
        let all: Vec<usize> = (0..ncols).collect();
        let mut row = 0usize;
        for i in 0..table.n_chunks() {
            let decoded = table.decode_chunk(i, &all).unwrap();
            for (c, (t, validity)) in decoded.iter().enumerate() {
                assert!(validity.is_none(), "frame data has no NULLs");
                let r = &reference.tensors[c];
                assert_eq!(t.dtype(), r.dtype(), "col {c}");
                assert_eq!(t.row_width(), r.row_width(), "col {c} width");
                for k in 0..t.nrows() {
                    assert_eq!(t.get(k), r.get(row + k), "col {c} row {}", row + k);
                }
            }
            row += table.chunk_len(i);
        }
        assert_eq!(row, frame.nrows());
    }

    #[test]
    fn frame_roundtrip_multi_chunk() {
        let dir = tmpdir();
        let frame = sample_frame(2500);
        let path = dir.join("roundtrip.tqps");
        let table = store_frame(&frame, &path, 700).unwrap();
        assert_eq!(table.nrows(), 2500);
        assert_eq!(table.n_chunks(), 4);
        assert_eq!(table.chunk_len(3), 400);
        assert_bit_exact(&table, &frame);
        // Re-open from disk: identical metadata, identical decode.
        let reopened = StoredTable::open(&path).unwrap();
        assert_eq!(reopened.nrows(), table.nrows());
        assert_eq!(reopened.stats(), table.stats());
        assert_bit_exact(&reopened, &frame);
    }

    #[test]
    fn csv_streaming_ingest_matches_frame_path() {
        let dir = tmpdir();
        let frame = sample_frame(1203);
        let csv_path = dir.join("ingest.csv");
        tqp_data::csv::write_csv(&frame, &csv_path).unwrap();
        let table = store_csv(&csv_path, frame.schema(), &dir.join("ingest.tqps"), 256).unwrap();
        assert_eq!(table.nrows(), 1203);
        assert_eq!(table.n_chunks(), 5);
        // CSV float formatting is %.4 — rebuild the frame through the
        // same round-trip for value comparison.
        let reread = tqp_data::csv::read_csv(frame.schema(), &csv_path).unwrap();
        assert_bit_exact(&table, &reread);
        // Streamed stats equal whole-frame stats on the same data.
        assert_eq!(table.stats(), &tqp_data::stats::frame_stats(&reread));
    }

    #[test]
    fn zone_maps_reflect_chunk_ranges() {
        let dir = tmpdir();
        let frame = df(vec![("v", Column::from_i64((0..1000).collect()))]);
        let table = store_frame(&frame, &dir.join("zones.tqps"), 100).unwrap();
        assert_eq!(table.n_chunks(), 10);
        for i in 0..10 {
            let z = table.zone(i, 0);
            assert_eq!(z.min, Some(Scalar::I64(i as i64 * 100)));
            assert_eq!(z.max, Some(Scalar::I64(i as i64 * 100 + 99)));
            assert_eq!(z.null_count, 0);
            assert_eq!(z.distinct, 100);
        }
    }

    #[test]
    fn validity_roundtrip_through_file() {
        let dir = tmpdir();
        let schema = Schema::new(vec![
            tqp_data::Field::new("x", LogicalType::Int64),
            tqp_data::Field::new("s", LogicalType::Str),
        ]);
        let path = dir.join("nulls.tqps");
        let mut w = StoreWriter::create(&path, &schema, 4).unwrap();
        let xs = Column::from_i64(vec![1, 0, 3, 0, 5, 6]);
        let ss = Column::from_str(vec![
            "a".into(),
            "".into(),
            "c".into(),
            "".into(),
            "e".into(),
            "f".into(),
        ]);
        let vx = vec![true, false, true, false, true, true];
        w.append_columns(&[xs, ss], &[Some(vx.clone()), Some(vx.clone())])
            .unwrap();
        let table = w.finish().unwrap();
        assert_eq!(table.n_chunks(), 2);
        // Chunk 0 has the NULLs; chunk 1 is all-valid.
        assert_eq!(table.zone(0, 0).null_count, 2);
        assert_eq!(table.zone(0, 0).min, Some(Scalar::I64(1)));
        assert_eq!(table.zone(1, 0).null_count, 0);
        let d0 = table.decode_chunk(0, &[0, 1]).unwrap();
        let v0 = d0[0].1.as_ref().unwrap();
        assert_eq!(v0.as_bool(), &[true, false, true, false]);
        assert!(d0[1].1.is_some());
        let d1 = table.decode_chunk(1, &[0]).unwrap();
        assert!(d1[0].1.is_none());
        assert_eq!(table.stats().columns[0].null_count, 2);
    }

    #[test]
    fn empty_table() {
        let dir = tmpdir();
        let frame = sample_frame(0);
        let table = store_frame(&frame, &dir.join("empty.tqps"), 16).unwrap();
        assert_eq!(table.nrows(), 0);
        assert_eq!(table.n_chunks(), 0);
        let empty = table.empty_columns(&[0, 4]);
        assert_eq!(empty[0].0.nrows(), 0);
        assert_eq!(empty[0].0.dtype(), tqp_tensor::DType::I64);
        assert_eq!(empty[1].0.dtype(), tqp_tensor::DType::U8);
    }

    #[test]
    fn version_and_corruption_checks() {
        let dir = tmpdir();
        let frame = sample_frame(10);
        let path = dir.join("vers.tqps");
        store_frame(&frame, &path, 8).unwrap();
        // Not a store file.
        let junk = dir.join("junk.tqps");
        std::fs::write(&junk, b"definitely not a store file, but long enough").unwrap();
        assert!(matches!(
            StoredTable::open(&junk),
            Err(StoreError::Format(_))
        ));
        // A future version, and a version 1 file (no footer
        // dictionaries), are rejected with a message naming both versions.
        for version in [99u32, 1] {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            let bumped = dir.join(format!("v{version}.tqps"));
            std::fs::write(&bumped, &bytes).unwrap();
            match StoredTable::open(&bumped) {
                Err(StoreError::Format(msg)) => {
                    assert!(
                        msg.contains(&format!("version {version} "))
                            && msg.contains(&format!("version {FORMAT_VERSION}")),
                        "{msg}"
                    );
                }
                other => panic!("expected format error, got {other:?}"),
            }
        }
        // Truncation loses the trailing magic.
        let cut = dir.join("cut.tqps");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&cut, &bytes[..bytes.len() - 4]).unwrap();
        assert!(StoredTable::open(&cut).is_err());
    }

    /// `path` with its footer rewritten by `edit`, as `out`.
    fn rewrite_footer(path: &Path, out: &Path, edit: impl FnOnce(&mut Footer)) {
        let bytes = std::fs::read(path).unwrap();
        let footer_off =
            u64::from_le_bytes(bytes[bytes.len() - 12..bytes.len() - 4].try_into().unwrap());
        let mut footer = decode_footer(
            &bytes[footer_off as usize..bytes.len() - 12],
            bytes.len() as u64,
        )
        .unwrap();
        edit(&mut footer);
        let mut file = bytes[..footer_off as usize].to_vec();
        file.extend_from_slice(&encode_footer(&footer));
        file.extend_from_slice(&footer_off.to_le_bytes());
        file.extend_from_slice(MAGIC);
        std::fs::write(out, file).unwrap();
    }

    #[test]
    fn hostile_footers_are_format_errors() {
        let dir = tmpdir();
        let path = dir.join("hostile.tqps");
        let table = store_frame(&sample_frame(40), &path, 16).unwrap();
        assert!(table.dicts[4].is_some(), "seven names are coded");
        let all: Vec<usize> = (0..5).collect();
        let bad = dir.join("hostile_edit.tqps");
        // Checked when the file opens.
        type Edit = Box<dyn FnOnce(&mut Footer)>;
        let at_open: [(&str, Edit); 4] = [
            (
                "block past the footer",
                Box::new(|f| f.chunks[1].cols[2].len = u64::MAX),
            ),
            (
                "block inside the header",
                Box::new(|f| f.chunks[0].cols[0].offset = 3),
            ),
            ("rows that do not add up", Box::new(|f| f.rows += 1)),
            (
                "strings wider than the file",
                Box::new(|f| f.str_widths[4] = u32::MAX),
            ),
        ];
        for (what, edit) in at_open {
            rewrite_footer(&path, &bad, edit);
            assert!(
                matches!(StoredTable::open(&bad), Err(StoreError::Format(_))),
                "{what}"
            );
        }
        // Checked when a chunk decodes: a stored value the footer
        // dictionary lacks, and a string wider than the footer width.
        rewrite_footer(&path, &bad, |f| {
            let d = f.dicts[4].as_ref().unwrap();
            let kept: Vec<&[u8]> = (1..d.len() as u32).map(|c| d.trimmed(c)).collect();
            f.dicts[4] = Some(Arc::new(StrDict::from_sorted(&kept, d.width()).unwrap()));
        });
        let t = StoredTable::open(&bad).unwrap();
        assert!(matches!(
            t.decode_chunk(0, &all),
            Err(StoreError::Format(_))
        ));
        rewrite_footer(&path, &bad, |f| {
            f.dicts[4] = None;
            f.str_widths[4] = 3;
        });
        let t = StoredTable::open(&bad).unwrap();
        assert!(matches!(
            t.decode_chunk(0, &all),
            Err(StoreError::Format(_))
        ));
        rewrite_footer(&path, &bad, |f| f.str_widths[4] = 3);
        assert!(matches!(
            StoredTable::open(&bad),
            Err(StoreError::Format(_))
        ));
    }

    /// `stored` is exactly `want`: the same form, width and rows, and when
    /// coded, the same entries and codes.
    fn assert_same_tensor(stored: &Tensor, want: &Tensor, ctx: &str) {
        assert_eq!(stored.shape(), want.shape(), "{ctx}: shape");
        match (stored.coded(), want.coded()) {
            (Some((codes, dict)), Some((want_codes, want_dict))) => {
                assert_eq!(dict.width(), want_dict.width(), "{ctx}: width");
                assert_eq!(dict.len(), want_dict.len(), "{ctx}: entries");
                for c in 0..dict.len() as u32 {
                    assert_eq!(dict.row(c), want_dict.row(c), "{ctx}: entry {c}");
                }
                assert_eq!(codes, want_codes, "{ctx}: codes");
            }
            (None, None) => assert_eq!(stored.as_u8(), want.as_u8(), "{ctx}: bytes"),
            (got, wanted) => panic!(
                "{ctx}: stored coded {}, in memory coded {}",
                got.is_some(),
                wanted.is_some()
            ),
        }
    }

    /// A stored string column decodes to the tensor `column_to_tensor`
    /// builds over the same rows, at the dictionary cap and past it, at
    /// any chunk size, and every chunk of a coded column shares one
    /// dictionary, so concatenation keeps the codes.
    #[test]
    fn stored_strings_decode_to_the_in_memory_tensor() {
        let dir = tmpdir();
        let cap = tqp_tensor::dict::MAX_ENTRIES;
        let distinct =
            |n: usize| -> Vec<String> { (0..n).map(|i| format!("v{}", (i * 7919) % n)).collect() };
        let nul: Vec<String> = ["x", "x\0", "", "y\0\0", "x", "yy"]
            .iter()
            .cycle()
            .take(40)
            .map(|s| s.to_string())
            .collect();
        let placeholders: Vec<String> = (0..30).map(|i| format!("p{}", i % 5)).collect();
        let nulls: Vec<bool> = (0..30).map(|i| i % 4 != 1).collect();
        let cases = [
            ("at the cap", distinct(cap), None),
            ("past the cap", distinct(cap + 1), None),
            ("trailing NULs", nul, None),
            ("all empty", vec![String::new(); 25], None),
            ("NULL placeholders", placeholders, Some(nulls)),
        ];
        for (what, values, validity) in &cases {
            let schema = Schema::new(vec![tqp_data::Field::new("s", LogicalType::Str)]);
            let column = Column::from_str(values.clone());
            let want = column_to_tensor(&column);
            assert_eq!(want.coded().is_some(), *what != "past the cap", "{what}");
            for chunk_rows in [1, 7, 4096] {
                let ctx = format!("{what}, chunks of {chunk_rows}");
                let path = dir.join("parity.tqps");
                let mut w = StoreWriter::create(&path, &schema, chunk_rows).unwrap();
                w.append_columns(
                    std::slice::from_ref(&column),
                    std::slice::from_ref(validity),
                )
                .unwrap();
                w.finish().unwrap();
                let table = StoredTable::open(&path).unwrap();
                let chunks: Vec<Tensor> = (0..table.n_chunks())
                    .map(|i| table.decode_chunk(i, &[0]).unwrap().remove(0).0)
                    .collect();
                if let Some((_, dict)) = want.coded().and(chunks[0].coded()) {
                    for t in &chunks {
                        assert!(
                            Arc::ptr_eq(t.coded().unwrap().1, dict),
                            "{ctx}: one dictionary"
                        );
                    }
                }
                let refs: Vec<&Tensor> = chunks.iter().collect();
                assert_same_tensor(&tqp_tensor::index::concat(&refs), &want, &ctx);
            }
        }
    }

    /// CSV cells holding line breaks, `""` escapes and commas survive
    /// `write_csv` → `store_csv` → decode.
    #[test]
    fn csv_cells_with_line_breaks_survive_the_store() {
        let dir = tmpdir();
        let frame = df(vec![
            ("id", Column::from_i64((0..9).collect())),
            (
                "s",
                Column::from_str(
                    (0..9)
                        .map(|i| match i % 3 {
                            0 => format!("line\nbreak {i}"),
                            1 => format!("say \"\"{i}\"\", then, \"go\""),
                            _ => format!("\r\n{i}\n"),
                        })
                        .collect(),
                ),
            ),
        ]);
        let csv_path = dir.join("newlines.csv");
        tqp_data::csv::write_csv(&frame, &csv_path).unwrap();
        let table = store_csv(&csv_path, frame.schema(), &dir.join("newlines.tqps"), 4).unwrap();
        assert_eq!(table.nrows(), 9);
        assert_bit_exact(&table, &frame);
    }

    #[test]
    fn projection_decodes_only_requested_columns() {
        let dir = tmpdir();
        let frame = sample_frame(300);
        let table = store_frame(&frame, &dir.join("proj.tqps"), 128).unwrap();
        let cols = table.decode_chunk(0, &[2, 4]).unwrap();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].0.dtype(), tqp_tensor::DType::F64);
        assert_eq!(cols[0].0.get(0), Scalar::F64(-10.0));
        assert_eq!(cols[1].0.str_at(0), "name-0");
    }

    #[test]
    fn compression_beats_plain_on_typical_data() {
        let dir = tmpdir();
        // Clustered ints + low-cardinality strings: both should compress.
        let n = 20_000i64;
        let frame = df(vec![
            (
                "k",
                Column::from_i64((0..n).map(|i| 1000 + i % 251).collect()),
            ),
            (
                "cat",
                Column::from_str((0..n).map(|i| format!("category-{}", i % 5)).collect()),
            ),
        ]);
        let table = store_frame(&frame, &dir.join("comp.tqps"), 4096).unwrap();
        let plain_bytes = (n as u64) * 8 + (n as u64) * (4 + "category-0".len() as u64);
        assert!(
            table.file_bytes() < plain_bytes / 2,
            "file {} vs plain {plain_bytes}",
            table.file_bytes()
        );
        assert_bit_exact(&table, &frame);
    }
}
