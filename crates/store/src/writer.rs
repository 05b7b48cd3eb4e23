//! The streaming store writer: encodes whole chunks straight from the
//! appended rows, buffers only the remainder below a chunk, picks a
//! per-column encoding, tracks zone maps, table statistics and each string
//! column's distinct values, and finalizes the footer. Memory high-water
//! is one chunk — ingesting a CSV never materializes the table.

use std::collections::HashSet;
use std::io::{Seek, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tqp_data::stats::{ColumnStatsBuilder, StatsBuilder};
use tqp_data::{Column, ColumnBuf, DataFrame, LogicalType, Schema};
use tqp_tensor::dict::{StrDict, MAX_ENTRIES};
use tqp_tensor::Scalar;

use crate::encode::{encode_validity, encode_values, ChunkValues, LocalDict};
use crate::meta::{encode_footer, ChunkMeta, ColChunkMeta, Footer};
use crate::reader::StoredTable;
use crate::{Result, DEFAULT_CHUNK_ROWS, FORMAT_VERSION, MAGIC};
use tqp_data::zone::ZoneMap;

/// A streaming writer for one table file.
pub struct StoreWriter {
    file: std::io::BufWriter<std::fs::File>,
    path: PathBuf,
    schema: Schema,
    chunk_rows: usize,
    /// Next write offset (header already written).
    offset: u64,
    /// Rows appended since the last chunk, fewer than `chunk_rows`.
    pending: Vec<ColumnBuf>,
    /// Pending validity per column: `None` = all pending rows valid.
    validity: Vec<Option<Vec<bool>>>,
    buffered: usize,
    chunks: Vec<ChunkMeta>,
    stats: StatsBuilder,
    str_widths: Vec<u32>,
    /// Each string column's distinct trimmed values so far, while there
    /// are at most `MAX_ENTRIES` (`None` past that, and for other types).
    distinct: Vec<Option<HashSet<Vec<u8>>>>,
}

impl StoreWriter {
    /// Create (truncating) a store file for `schema`, writing a chunk
    /// every `chunk_rows` appended rows.
    pub fn create(path: &Path, schema: &Schema, chunk_rows: usize) -> Result<StoreWriter> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(MAGIC)?;
        file.write_all(&FORMAT_VERSION.to_le_bytes())?;
        let ncols = schema.len();
        Ok(StoreWriter {
            file,
            path: path.to_path_buf(),
            schema: schema.clone(),
            chunk_rows: chunk_rows.max(1),
            offset: 8,
            pending: schema.fields.iter().map(|f| ColumnBuf::new(f.ty)).collect(),
            validity: vec![None; ncols],
            buffered: 0,
            chunks: Vec::new(),
            stats: StatsBuilder::new(ncols),
            str_widths: vec![0; ncols],
            distinct: schema
                .fields
                .iter()
                .map(|f| (f.ty == LogicalType::Str).then(HashSet::new))
                .collect(),
        })
    }

    /// The default chunk size.
    pub fn create_default(path: &Path, schema: &Schema) -> Result<StoreWriter> {
        StoreWriter::create(path, schema, DEFAULT_CHUNK_ROWS)
    }

    /// Append a frame (all rows valid).
    pub fn append_frame(&mut self, frame: &DataFrame) -> Result<()> {
        assert_eq!(
            frame.schema(),
            &self.schema,
            "appended frame schema mismatch"
        );
        let cols: Vec<Column> = frame.columns().to_vec();
        self.append_columns(&cols, &vec![None; cols.len()])
    }

    /// Append columns with optional per-column validity (for NULL-bearing
    /// producers and tests; `Column` itself cannot carry NULLs, so values
    /// at invalid positions are placeholders and decode as written). Rows
    /// pass through the pending buffers a chunk at a time.
    pub fn append_columns(
        &mut self,
        columns: &[Column],
        validity: &[Option<Vec<bool>>],
    ) -> Result<()> {
        assert_eq!(columns.len(), self.schema.len(), "column arity mismatch");
        assert_eq!(columns.len(), validity.len(), "validity arity mismatch");
        let n = columns.first().map_or(0, |c| c.len());
        for (i, (col, val)) in columns.iter().zip(validity).enumerate() {
            assert_eq!(col.len(), n, "ragged append");
            assert_eq!(
                col.logical_type(),
                self.schema.fields[i].ty,
                "column {i} type mismatch"
            );
            if let Some(v) = val {
                assert_eq!(v.len(), n, "validity length mismatch");
            }
        }
        let mut lo = 0;
        while lo < n {
            let hi = n.min(lo + self.chunk_rows - self.buffered);
            for (c, (col, val)) in columns.iter().zip(validity).enumerate() {
                self.pending[c].extend_from_column(col, lo..hi);
                let val = val.as_deref().map(|v| &v[lo..hi]);
                buffer_validity(&mut self.validity[c], self.buffered, val, hi - lo);
            }
            self.buffered += hi - lo;
            if self.buffered == self.chunk_rows {
                self.flush_pending()?;
            }
            lo = hi;
        }
        Ok(())
    }

    /// Append all-valid rows held in column buffers (what
    /// [`tqp_data::csv::CsvChunks`] yields). Whole chunks are encoded
    /// straight from `columns`; only the rows that top up an earlier
    /// remainder, or start the next one, are copied.
    pub fn append_buffers(&mut self, columns: &[ColumnBuf]) -> Result<()> {
        assert_eq!(columns.len(), self.schema.len(), "column arity mismatch");
        let n = columns.first().map_or(0, ColumnBuf::len);
        for (i, col) in columns.iter().enumerate() {
            assert_eq!(col.len(), n, "ragged append");
            assert_eq!(
                col.logical_type(),
                self.schema.fields[i].ty,
                "column {i} type mismatch"
            );
        }
        let mut lo = 0;
        if self.buffered > 0 {
            lo = n.min(self.chunk_rows - self.buffered);
            self.buffer_rows(columns, 0..lo)?;
        }
        let all_valid = vec![None; columns.len()];
        while n - lo >= self.chunk_rows {
            self.write_chunk(columns, lo..lo + self.chunk_rows, &all_valid)?;
            lo += self.chunk_rows;
        }
        self.buffer_rows(columns, lo..n)
    }

    /// Copy all-valid rows `range` of `columns` into the pending buffers,
    /// writing the chunk they complete.
    fn buffer_rows(&mut self, columns: &[ColumnBuf], range: Range<usize>) -> Result<()> {
        for (c, col) in columns.iter().enumerate() {
            self.pending[c].extend_from(col, range.clone());
            buffer_validity(&mut self.validity[c], self.buffered, None, range.len());
        }
        self.buffered += range.len();
        if self.buffered == self.chunk_rows {
            self.flush_pending()?;
        }
        Ok(())
    }

    /// Write the pending rows as one chunk and empty the buffers.
    fn flush_pending(&mut self) -> Result<()> {
        let pending = std::mem::take(&mut self.pending);
        let validity = std::mem::replace(&mut self.validity, vec![None; pending.len()]);
        let views: Vec<Option<&[bool]>> = validity.iter().map(|v| v.as_deref()).collect();
        let written = self.write_chunk(&pending, 0..self.buffered, &views);
        self.pending = pending;
        self.pending.iter_mut().for_each(ColumnBuf::clear);
        self.buffered = 0;
        written
    }

    /// Encode and write rows `range` of `columns` as one chunk;
    /// `validity[c]` covers the chunk's rows.
    fn write_chunk(
        &mut self,
        columns: &[ColumnBuf],
        range: Range<usize>,
        validity: &[Option<&[bool]>],
    ) -> Result<()> {
        let n = range.len();
        let mut cols = Vec::with_capacity(columns.len());
        for (c, col) in columns.iter().enumerate() {
            let chunk_validity = validity[c].filter(|v| v.contains(&false));
            let local;
            let values = match col {
                ColumnBuf::Int64(v) | ColumnBuf::Date(v) => ChunkValues::I64(&v[range.clone()]),
                ColumnBuf::Float64(v) => ChunkValues::F64(&v[range.clone()]),
                ColumnBuf::Bool(v) => ChunkValues::Bool(&v[range.clone()]),
                ColumnBuf::Str(v) => {
                    local = LocalDict::build(v, range.clone());
                    self.note_strings(c, &local);
                    ChunkValues::Str(&local)
                }
            };
            let zb = chunk_stats(values, chunk_validity);
            self.stats.columns[c].merge(&zb);
            let chunk_stats = zb.finish();
            let zone = ZoneMap {
                min: chunk_stats.min,
                max: chunk_stats.max,
                null_count: chunk_stats.null_count as u64,
                distinct: chunk_stats.distinct.min(u32::MAX as usize) as u32,
            };

            // Encode the block: validity section then value section.
            let mut block = Vec::new();
            encode_validity(&mut block, chunk_validity);
            encode_values(&mut block, values);
            self.file.write_all(&block)?;
            cols.push(ColChunkMeta {
                offset: self.offset,
                len: block.len() as u64,
                zone,
            });
            self.offset += block.len() as u64;
        }
        self.stats.rows += n;
        self.chunks.push(ChunkMeta {
            rows: n as u64,
            cols,
        });
        Ok(())
    }

    /// Fold a string chunk's values into column `c`'s width and distinct
    /// set. Placeholders at NULL rows count for both, as they do when the
    /// same rows are coded in memory.
    fn note_strings(&mut self, c: usize, local: &LocalDict<'_>) {
        for s in &local.entries {
            self.str_widths[c] = self.str_widths[c].max(s.len() as u32);
        }
        let Some(set) = &mut self.distinct[c] else {
            return;
        };
        for s in &local.entries {
            let trimmed = s.trim_end_matches('\0').as_bytes();
            if !set.contains(trimmed) {
                set.insert(trimmed.to_vec());
            }
            if set.len() > MAX_ENTRIES {
                self.distinct[c] = None;
                return;
            }
        }
    }

    /// Write the tail chunk and the footer, and return the opened table
    /// (metadata from memory — no re-read).
    pub fn finish(mut self) -> Result<StoredTable> {
        if self.buffered > 0 {
            self.flush_pending()?;
        }
        let dicts = self
            .distinct
            .iter()
            .zip(&self.str_widths)
            .map(|(set, &width)| {
                let mut entries: Vec<&[u8]> = set.as_ref()?.iter().map(Vec::as_slice).collect();
                entries.sort_unstable();
                let dict = StrDict::from_sorted(&entries, (width as usize).max(1))
                    .expect("distinct trimmed values form a dictionary");
                Some(Arc::new(dict))
            })
            .collect();
        let footer = Footer {
            schema: self.schema,
            chunk_rows: self.chunk_rows as u64,
            str_widths: self.str_widths,
            rows: self.stats.rows as u64,
            chunks: self.chunks,
            stats: self.stats.finish(),
            dicts,
        };
        let bytes = encode_footer(&footer);
        self.file.write_all(&bytes)?;
        self.file.write_all(&self.offset.to_le_bytes())?;
        self.file.write_all(MAGIC)?;
        self.file.flush()?;
        let file_bytes = self.file.get_mut().stream_position()?;
        StoredTable::from_footer(self.path, footer, file_bytes)
    }
}

/// Extend a column's pending validity by `n` rows (`val` = `None`: all
/// valid), materializing it only once a NULL arrives; `had` rows are
/// already pending.
fn buffer_validity(pending: &mut Option<Vec<bool>>, had: usize, val: Option<&[bool]>, n: usize) {
    if let Some(p) = pending {
        match val {
            Some(v) => p.extend_from_slice(v),
            None => p.extend(std::iter::repeat_n(true, n)),
        }
    } else if let Some(v) = val.filter(|v| v.contains(&false)) {
        let mut bits = vec![true; had];
        bits.extend_from_slice(v);
        *pending = Some(bits);
    }
}

/// Zone-map statistics of one chunk's valid values. A string chunk
/// observes each distinct value once when no row is NULL: the statistics
/// are sets (min, max, a sketch of hashes), so that equals observing every
/// row.
fn chunk_stats(values: ChunkValues<'_>, validity: Option<&[bool]>) -> ColumnStatsBuilder {
    let mut zb = ColumnStatsBuilder::new();
    let valid = |i: usize| validity.is_none_or(|v| v[i]);
    match values {
        ChunkValues::I64(v) => v
            .iter()
            .enumerate()
            .filter(|&(i, _)| valid(i))
            .for_each(|(_, &x)| zb.update_i64(x)),
        ChunkValues::F64(v) => v
            .iter()
            .enumerate()
            .filter(|&(i, _)| valid(i))
            .for_each(|(_, &x)| zb.update_f64(x)),
        ChunkValues::Bool(v) => {
            for b in [false, true] {
                if (0..v.len()).any(|i| v[i] == b && valid(i)) {
                    zb.update(&Scalar::Bool(b));
                }
            }
        }
        ChunkValues::Str(d) => match validity {
            None => d.entries.iter().for_each(|s| zb.update_str(s)),
            Some(v) => d
                .indices
                .iter()
                .zip(v)
                .filter(|&(_, &ok)| ok)
                .for_each(|(&k, _)| zb.update_str(d.entries[k as usize])),
        },
    }
    let nulls = validity.map_or(0, |v| v.iter().filter(|&&ok| !ok).count());
    zb.add_nulls(nulls);
    zb
}

/// Stream a CSV file into a store file chunk-by-chunk (the no-whole-table
/// ingestion path): parsed column buffers go straight to the writer, with
/// no `String` per cell. Returns the opened table.
pub fn store_csv(
    csv_path: &Path,
    schema: &Schema,
    out_path: &Path,
    chunk_rows: usize,
) -> Result<StoredTable> {
    let mut w = StoreWriter::create(out_path, schema, chunk_rows)?;
    for block in tqp_data::csv::CsvChunks::open(schema, csv_path, chunk_rows)? {
        w.append_buffers(&block?)?;
    }
    w.finish()
}

/// Store an in-memory frame (test/bench convenience; the chunk layout is
/// identical to streaming the same rows).
pub fn store_frame(frame: &DataFrame, out_path: &Path, chunk_rows: usize) -> Result<StoredTable> {
    let mut w = StoreWriter::create(out_path, frame.schema(), chunk_rows)?;
    w.append_frame(frame)?;
    w.finish()
}

impl std::fmt::Debug for StoreWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreWriter")
            .field("path", &self.path)
            .field("chunk_rows", &self.chunk_rows)
            .field("buffered", &self.buffered)
            .field("chunks", &self.chunks.len())
            .finish()
    }
}
