//! Stored-table scans: zone-map pruning pre-pass + chunk-at-a-time decode
//! through the shared morsel scheduler.
//!
//! A `tqp-store` table arrives at the VM as chunks with per-column
//! [`ZoneMap`]s. Before decoding anything, the scan inspects the compiled
//! filter that consumes it (when one directly follows in the pipeline
//! segment): every conjunct whose compiled form is `CompareConst` or
//! `IsNull` over a bare column load is evaluated **against the zone maps**
//! — a chunk no row of which can satisfy some conjunct is skipped without
//! touching its bytes. Surviving chunks decode in parallel via
//! [`crate::sched::map_tasks`] and concatenate **in chunk order**.
//!
//! ## Determinism under pruning
//!
//! Pruning only ever removes rows the filter was about to drop, so the
//! post-filter row sequence is identical to the in-memory path's. The one
//! place raw (pre-filter) geometry leaks into results is the fused
//! partitioned aggregation, whose float partials merge per scan-morsel:
//! the scan therefore reports a [`ScanLayout`] mapping pruned row
//! coordinates back to **original** row offsets, and the aggregation
//! route carves its morsels in original coordinates (pruned gaps become
//! empty partials — merge identities). Partial grouping is then
//! bit-identical to an unpruned in-memory scan of the same table at every
//! worker count.

use std::sync::{Arc, OnceLock};

use tqp_store::{StoredTable, ZoneMap};
use tqp_tensor::{Scalar, Tensor};

use crate::batch::Batch;
use crate::expr::to_cmp;
use crate::exprprog::{ExprOp, ExprProgram};

/// Pruned-scan coordinate map: which original row ranges survived.
#[derive(Debug, Clone)]
pub struct ScanLayout {
    /// Rows the unpruned table holds.
    pub original_rows: usize,
    /// Kept ranges as `(original_start, len)`, ascending, non-adjacent
    /// gaps = pruned chunks.
    kept: Vec<(usize, usize)>,
    /// Cumulative kept rows before each range (same length as `kept`).
    prefix: Vec<usize>,
}

impl ScanLayout {
    /// Build from kept ranges in ascending original order.
    pub fn new(original_rows: usize, kept: Vec<(usize, usize)>) -> ScanLayout {
        let mut prefix = Vec::with_capacity(kept.len());
        let mut acc = 0usize;
        for &(_, len) in &kept {
            prefix.push(acc);
            acc += len;
        }
        ScanLayout {
            original_rows,
            kept,
            prefix,
        }
    }

    /// An identity layout (nothing pruned).
    pub fn identity(rows: usize) -> ScanLayout {
        ScanLayout::new(rows, vec![(0, rows)])
    }

    /// Number of kept rows strictly before original row `orig`.
    fn kept_before(&self, orig: usize) -> usize {
        // Last range starting at or before `orig`.
        match self.kept.partition_point(|&(start, _)| start <= orig) {
            0 => 0,
            i => {
                let (start, len) = self.kept[i - 1];
                self.prefix[i - 1] + (orig - start).min(len)
            }
        }
    }

    /// Map an original row range `[lo, hi)` to pruned coordinates. The
    /// kept rows of an original range are contiguous in pruned space
    /// because pruning removes whole ranges and preserves order.
    pub fn project(&self, lo: usize, hi: usize) -> (usize, usize) {
        (self.kept_before(lo), self.kept_before(hi))
    }

    /// Total kept rows.
    pub fn kept_rows(&self) -> usize {
        self.prefix
            .last()
            .map_or(0, |&p| p + self.kept.last().unwrap().1)
    }
}

/// One zone-testable conjunct extracted from a compiled filter.
#[derive(Debug, Clone)]
pub enum PrunePred {
    /// `column <op> constant` (the compiled `CompareConst` fast path).
    Cmp {
        /// Stored-table column index (scan projection already applied).
        col: usize,
        op: tqp_tensor::ops::CmpOp,
        value: Scalar,
    },
    /// `column IS [NOT] NULL`.
    Null { col: usize, negated: bool },
}

impl PrunePred {
    /// Could any row of the chunk behind `zone` satisfy this conjunct?
    fn may_match(&self, zone: &ZoneMap, rows: u64) -> bool {
        match self {
            PrunePred::Cmp { op, value, .. } => zone.may_match_compare(*op, value),
            PrunePred::Null { negated, .. } => zone.may_match_is_null(*negated, rows),
        }
    }

    /// The stored-table column this predicate tests.
    fn col(&self) -> usize {
        match self {
            PrunePred::Cmp { col, .. } | PrunePred::Null { col, .. } => *col,
        }
    }
}

/// Extract the zone-testable conjuncts of a compiled filter. Every output
/// of the program is one conjunct; only outputs whose defining op is a
/// `CompareConst`/`IsNull` over a direct `LoadColumn` participate —
/// anything else (arithmetic, LIKE, OR-trees, CASE) is left to the real
/// filter. `projection` maps scan-batch column indexes back to stored
/// columns. Programs still carrying unbound parameter slots yield nothing
/// (their constants are placeholders).
pub fn prunable_conjuncts(prog: &ExprProgram, projection: Option<&[usize]>) -> Vec<PrunePred> {
    if !prog.params.is_empty() {
        return Vec::new();
    }
    let table_col = |scan_col: usize| -> usize {
        match projection {
            Some(p) => p[scan_col],
            None => scan_col,
        }
    };
    let mut out = Vec::new();
    for &reg in &prog.outputs {
        match &prog.ops[reg] {
            ExprOp::CompareConst { op, src, value } => {
                if let ExprOp::LoadColumn { index, .. } = &prog.ops[*src] {
                    if let Some(cmp) = to_cmp(*op) {
                        out.push(PrunePred::Cmp {
                            col: table_col(*index),
                            op: cmp,
                            value: value.clone(),
                        });
                    }
                }
            }
            ExprOp::IsNull { src, negated } => {
                if let ExprOp::LoadColumn { index, .. } = &prog.ops[*src] {
                    out.push(PrunePred::Null {
                        col: table_col(*index),
                        negated: *negated,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Outcome of opening a stored scan as a stream: the (lazy) chunk stream,
/// the coordinate layout, and pruning counters. Nothing is decoded yet.
pub struct StreamScan {
    pub stream: StoredStream,
    pub layout: ScanLayout,
    pub chunks_scanned: u64,
    pub chunks_pruned: u64,
}

/// Open a stored scan **without decoding anything**: the zone-map prune
/// pass runs eagerly (it is metadata-only), decode is deferred to
/// [`StoredStream::slice`] — morsel-sized batches are handed straight to
/// the pipeline segment, chunk by chunk, with **no whole-scan
/// concatenation**. On the pruned path this eliminates the old
/// decode-then-concat copy entirely: a morsel inside one chunk is a plain
/// `slice_rows` of that chunk's decoded batch.
pub fn open_stream(table: &Arc<StoredTable>, cols: &[usize], preds: &[PrunePred]) -> StreamScan {
    let n_chunks = table.n_chunks();
    let mut keep: Vec<usize> = Vec::with_capacity(n_chunks);
    let mut kept_ranges: Vec<(usize, usize)> = Vec::with_capacity(n_chunks);
    let mut bounds: Vec<usize> = vec![0];
    let mut orig = 0usize;
    let mut kept_rows = 0usize;
    for c in 0..n_chunks {
        let rows = table.chunk_len(c);
        let survives = preds
            .iter()
            .all(|p| p.may_match(table.zone(c, p.col()), rows as u64));
        if survives {
            keep.push(c);
            kept_ranges.push((orig, rows));
            kept_rows += rows;
            bounds.push(kept_rows);
        }
        orig += rows;
    }
    let layout = ScanLayout::new(table.nrows(), kept_ranges);
    let chunks_pruned = (n_chunks - keep.len()) as u64;
    let chunks_scanned = keep.len() as u64;
    let cache = (0..keep.len()).map(|_| OnceLock::new()).collect();
    StreamScan {
        stream: StoredStream {
            table: Arc::clone(table),
            cols: cols.to_vec(),
            keep,
            bounds,
            cache,
        },
        layout,
        chunks_scanned,
        chunks_pruned,
    }
}

/// A lazily-decoding view over the surviving chunks of a pruned stored
/// scan, addressed in **pruned** row coordinates (the same coordinates
/// [`ScanLayout::project`] produces).
///
/// Each chunk decodes at most once, on first touch, into a cached
/// [`Batch`]; tensors are reference-counted, so handing slices of it to
/// morsel workers shares the decoded buffers instead of copying them.
pub struct StoredStream {
    table: Arc<StoredTable>,
    cols: Vec<usize>,
    /// Surviving chunk indexes, ascending.
    keep: Vec<usize>,
    /// Pruned-coordinate start of each kept chunk (length `keep + 1`;
    /// chunk `k` covers pruned rows `[bounds[k], bounds[k+1])`).
    bounds: Vec<usize>,
    /// Lazily decoded chunks (thread-safe: morsel workers may race to
    /// decode, exactly one wins and the rest share its batch).
    cache: Vec<OnceLock<Batch>>,
}

impl StoredStream {
    /// Total rows the stream exposes (pruned coordinates).
    pub fn nrows(&self) -> usize {
        *self.bounds.last().expect("bounds never empty")
    }

    /// The decoded batch of kept-chunk `k`, decoding on first touch.
    fn chunk(&self, k: usize) -> &Batch {
        // Chunk boundary: streaming consumers check their query's token
        // before paying for another decode.
        crate::sched::check_cancelled();
        self.cache[k].get_or_init(|| {
            let decoded = self
                .table
                .decode_chunk(self.keep[k], &self.cols)
                .unwrap_or_else(|e| {
                    panic!("decoding chunk {} of {:?}: {e}", self.keep[k], self.table)
                });
            decoded_to_batch(decoded)
        })
    }

    /// An empty batch with the scan's column shapes.
    fn empty(&self) -> Batch {
        decoded_to_batch(self.table.empty_columns(&self.cols))
    }

    /// Materialize pruned rows `[lo, hi)` as one batch. A morsel inside a
    /// single chunk — the common case, since agg morsels (16 Ki) divide
    /// the chunk size (64 Ki) — is one `slice_rows` of the cached decode;
    /// boundary-spanning morsels concatenate the few pieces involved.
    pub fn slice(&self, lo: usize, hi: usize) -> Batch {
        if lo >= hi {
            return self.empty();
        }
        // Last chunk starting at or before `lo`.
        let first = self.bounds.partition_point(|&b| b <= lo) - 1;
        let mut pieces = Vec::new();
        let mut k = first;
        while k < self.keep.len() && self.bounds[k] < hi {
            let c_lo = self.bounds[k];
            let c_hi = self.bounds[k + 1];
            let piece = self
                .chunk(k)
                .slice_rows(lo.max(c_lo) - c_lo, hi.min(c_hi) - c_lo);
            if pieces.is_empty() && hi <= c_hi {
                return piece; // entirely inside one chunk: zero concat
            }
            pieces.push(piece);
            k += 1;
        }
        Batch::vcat_all(pieces)
    }

    /// Decode everything into one batch (the non-streaming consumers:
    /// barrier ops reading the whole scan, and metered runs, which decode
    /// on one worker). Chunks decode fanned out over the shared pool and
    /// concatenate in chunk order.
    pub fn into_batch(self, workers: usize) -> Batch {
        if self.keep.is_empty() {
            return self.empty();
        }
        let parts: Vec<Batch> = crate::sched::map_tasks(self.keep.len(), workers, |k| {
            // Reuse any chunk a streaming consumer already decoded.
            match self.cache[k].get() {
                Some(b) => b.clone(),
                None => {
                    let decoded = self
                        .table
                        .decode_chunk(self.keep[k], &self.cols)
                        .unwrap_or_else(|e| {
                            panic!("decoding chunk {} of {:?}: {e}", self.keep[k], self.table)
                        });
                    decoded_to_batch(decoded)
                }
            }
        });
        Batch::vcat_all(parts)
    }
}

/// What a `Scan` op hands to the rest of the pipeline: either a fully
/// materialized batch (in-memory tables, metered runs) or a lazy stored
/// stream that decodes chunk-at-a-time as morsels pull on it.
pub enum ScanSource {
    Whole(Batch),
    Stream(StoredStream),
}

impl ScanSource {
    /// Rows the source exposes (pruned coordinates for streams).
    pub fn nrows(&self) -> usize {
        match self {
            ScanSource::Whole(b) => b.nrows(),
            ScanSource::Stream(s) => s.nrows(),
        }
    }

    /// Materialize rows `[lo, hi)`.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Batch {
        match self {
            ScanSource::Whole(b) => b.slice_rows(lo, hi),
            ScanSource::Stream(s) => s.slice(lo, hi),
        }
    }

    /// Materialize the whole source as one batch.
    pub fn into_batch(self, workers: usize) -> Batch {
        match self {
            ScanSource::Whole(b) => b,
            ScanSource::Stream(s) => s.into_batch(workers),
        }
    }
}

/// Materialize a whole stored table as one tensor table (the row-engine
/// oracle's path — sequential, unpruned).
pub fn materialize(table: &StoredTable) -> tqp_data::ingest::TensorTable {
    let cols: Vec<usize> = (0..table.schema().len()).collect();
    let mut per_col: Vec<Vec<Tensor>> = vec![Vec::new(); cols.len()];
    for c in 0..table.n_chunks() {
        let decoded = table
            .decode_chunk(c, &cols)
            .unwrap_or_else(|e| panic!("decoding chunk {c} of {table:?}: {e}"));
        for (slot, (tensor, validity)) in per_col.iter_mut().zip(decoded) {
            assert!(
                validity.is_none(),
                "cannot materialize a NULL-bearing stored table as a frame"
            );
            slot.push(tensor);
        }
    }
    let tensors: Vec<Tensor> = if table.n_chunks() == 0 {
        table
            .empty_columns(&cols)
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    } else {
        per_col
            .into_iter()
            .map(|mut parts| {
                // Single-chunk tables (and single survivors after pruning)
                // hand the decoded tensor through without a copy.
                if parts.len() == 1 {
                    return parts.pop().expect("one part");
                }
                let refs: Vec<&Tensor> = parts.iter().collect();
                tqp_tensor::index::concat(&refs)
            })
            .collect()
    };
    tqp_data::ingest::TensorTable {
        schema: table.schema().clone(),
        tensors,
    }
}

fn decoded_to_batch(decoded: Vec<tqp_store::DecodedColumn>) -> Batch {
    let mut columns = Vec::with_capacity(decoded.len());
    let mut validity = Vec::with_capacity(decoded.len());
    for (t, v) in decoded {
        columns.push(t);
        validity.push(v);
    }
    Batch::with_validity(columns, validity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_projection() {
        // Original 100 rows; kept [10, 30) and [60, 80).
        let l = ScanLayout::new(100, vec![(10, 20), (60, 20)]);
        assert_eq!(l.kept_rows(), 40);
        assert_eq!(l.project(0, 10), (0, 0));
        assert_eq!(l.project(0, 100), (0, 40));
        assert_eq!(l.project(10, 30), (0, 20));
        assert_eq!(l.project(15, 65), (5, 25));
        assert_eq!(l.project(30, 60), (20, 20));
        assert_eq!(l.project(70, 90), (30, 40));
    }

    #[test]
    fn identity_layout() {
        let l = ScanLayout::identity(50);
        assert_eq!(l.project(7, 31), (7, 31));
        assert_eq!(l.kept_rows(), 50);
    }
}
