//! Table scans: one zone-map pruning pre-pass and one [`ScanSource`] for
//! an in-memory and a stored table alike.
//!
//! A `tqp-store` table arrives at the VM as chunks with per-column
//! [`ZoneMap`]s; an in-memory [`TensorTable`] as
//! [`ZONE_BLOCK_ROWS`]-row blocks whose zones it builds on first use.
//! Before reading anything, the scan inspects the compiled filter that
//! consumes it (when one directly follows in the pipeline segment): every
//! conjunct whose compiled form is `CompareConst` or `IsNull` over a bare
//! column load is evaluated **against the zone maps** ([`prune_chunks`])
//! — a chunk no row of which can satisfy some conjunct is skipped without
//! touching its bytes. Surviving pieces are fetched as morsels pull on
//! them: in-memory blocks are row ranges of the table's tensors, stored
//! chunks decode once each, in parallel via [`crate::sched::map_tasks`],
//! and concatenate **in chunk order**.
//!
//! ## Determinism under pruning
//!
//! Pruning only ever removes rows the filter was about to drop, so the
//! post-filter row sequence is identical to the unpruned scan's. The one
//! place raw (pre-filter) geometry leaks into results is the fused
//! partitioned aggregation, whose float partials merge per scan-morsel:
//! the scan therefore reports a [`ScanLayout`] mapping pruned row
//! coordinates back to **original** row offsets, and the aggregation
//! route carves its morsels in original coordinates (pruned gaps become
//! empty partials — merge identities). Partial grouping is then
//! bit-identical to an unpruned scan of the same table, in memory or on
//! disk, at every worker count.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use tqp_data::ingest::TensorTable;
use tqp_data::zone::{ZoneMap, ZONE_BLOCK_ROWS};
use tqp_store::StoredTable;
use tqp_tensor::{Scalar, Tensor};

use crate::batch::Batch;
use crate::expr::to_cmp;
use crate::exprprog::{ExprOp, ExprProgram};
use crate::{ScanStats, TableSource};

/// Pruned-scan coordinate map: which original row ranges survived.
#[derive(Debug, Clone)]
pub struct ScanLayout {
    /// Rows the unpruned table holds.
    pub original_rows: usize,
    /// Kept ranges as `(original_start, len)`, ascending; the gaps
    /// between them are pruned chunks.
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

    /// The same kept rows with adjacent ranges merged into one.
    fn coalesced(self) -> ScanLayout {
        let mut kept: Vec<(usize, usize)> = Vec::with_capacity(self.kept.len());
        for (start, len) in self.kept {
            match kept.last_mut() {
                Some((s, l)) if *s + *l == start => *l += len,
                _ => kept.push((start, len)),
            }
        }
        ScanLayout::new(self.original_rows, kept)
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
        /// Table column index (scan projection already applied).
        col: usize,
        op: tqp_tensor::ops::CmpOp,
        value: Scalar,
    },
    /// `column IS [NOT] NULL`.
    Null { col: usize, negated: bool },
    /// A conjunct folded to constant FALSE or NULL (a comparison with a
    /// NULL-bound parameter): no row of any chunk satisfies it.
    Never,
}

impl PrunePred {
    /// Could any of the `rows` rows of a chunk satisfy this conjunct?
    /// `zone(col)` is the chunk's zone of table column `col`, if it has
    /// one; a column without zones keeps every chunk.
    fn may_match<'z>(&self, zone: impl Fn(usize) -> Option<&'z ZoneMap>, rows: u64) -> bool {
        match self {
            PrunePred::Cmp { col, op, value } => {
                zone(*col).is_none_or(|z| z.may_match_compare(*op, value))
            }
            PrunePred::Null { col, negated } => {
                zone(*col).is_none_or(|z| z.may_match_is_null(*negated, rows))
            }
            PrunePred::Never => false,
        }
    }
}

/// Extract the zone-testable conjuncts of a compiled filter. Every output
/// of the program is one conjunct; only outputs whose defining op is a
/// `CompareConst`/`IsNull` over a direct `LoadColumn`, or a FALSE/NULL
/// constant, participate — anything else (arithmetic, LIKE, OR-trees,
/// CASE) is left to the real filter. `projection` maps scan-batch column
/// indexes back to table columns. Programs still carrying unbound
/// parameter slots yield nothing (their constants are placeholders).
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
            ExprOp::LoadConst {
                value: Scalar::Null | Scalar::Bool(false),
                ..
            } => out.push(PrunePred::Never),
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

/// Keep the chunks of a scan that could hold a row its filter keeps: a
/// chunk survives unless some conjunct in `preds` is provably false for
/// every row of it. The table's rows split into consecutive chunks of
/// `chunk_lens`; `zone(chunk, column)` is that chunk's zone for a column,
/// or `None` when the column has none (its conjuncts keep every chunk).
/// Returns the kept chunk indexes, ascending, and the layout with one
/// kept range per kept chunk. Metadata only: no row is read.
fn prune_chunks<'z>(
    original_rows: usize,
    chunk_lens: impl IntoIterator<Item = usize>,
    zone: impl Fn(usize, usize) -> Option<&'z ZoneMap>,
    preds: &[PrunePred],
) -> (Vec<usize>, ScanLayout) {
    let mut keep = Vec::new();
    let mut kept_ranges = Vec::new();
    let mut orig = 0usize;
    for (c, rows) in chunk_lens.into_iter().enumerate() {
        let survives = preds
            .iter()
            .all(|p| p.may_match(|col| zone(c, col), rows as u64));
        if survives {
            keep.push(c);
            kept_ranges.push((orig, rows));
        }
        orig += rows;
    }
    (keep, ScanLayout::new(original_rows, kept_ranges))
}

/// What a `Scan` op hands to the rest of the pipeline, for an in-memory
/// and a stored table alike: the kept pieces of the table, addressed in
/// **pruned** row coordinates (those [`ScanLayout::project`] produces).
///
/// Kept range `k` of the layout is one piece. An in-memory piece is a row
/// range of the table's batch (adjacent kept blocks coalesce into one
/// range); a stored piece is one kept chunk, decoded at most once, on
/// first touch. Tensors are reference-counted, so morsel workers share
/// the table's or the decoded chunk's buffers instead of copying them.
pub struct ScanSource {
    layout: ScanLayout,
    fetch: Fetch,
}

/// Where a [`ScanSource`]'s pieces come from.
enum Fetch {
    /// The in-memory table's scanned columns, whole.
    Mem(Batch),
    /// A stored table's kept chunks (`chunks[k]` is piece `k`'s index)
    /// and their decode-once cache: morsel workers may race to decode a
    /// chunk, exactly one wins and the rest share its batch.
    Stored {
        table: Arc<StoredTable>,
        cols: Vec<usize>,
        chunks: Vec<usize>,
        cache: Vec<OnceLock<Batch>>,
    },
}

impl ScanSource {
    /// Open a scan of `table` over `projection` (`None` = every column):
    /// the zone tests of `preds` run here, over the chunks of a stored
    /// table or the [`ZONE_BLOCK_ROWS`]-row blocks of an in-memory one,
    /// and nothing is read or decoded yet. Also returns the chunks kept
    /// and pruned.
    pub fn open(
        table: &TableSource,
        projection: Option<&[usize]>,
        preds: &[PrunePred],
    ) -> (ScanSource, ScanStats) {
        let (source, n_chunks, kept) = match table {
            TableSource::Mem(tt) => {
                let n = tt.nrows();
                let blocks = (0..n)
                    .step_by(ZONE_BLOCK_ROWS)
                    .map(|lo| ZONE_BLOCK_ROWS.min(n - lo));
                let zone = |b: usize, col: usize| tt.zones(col).map(|z| &z[b]);
                let (kept, layout) = prune_chunks(n, blocks, zone, preds);
                let tensors = match projection {
                    Some(p) => p.iter().map(|&i| tt.tensors[i].clone()).collect(),
                    None => tt.tensors.clone(),
                };
                let source = ScanSource {
                    layout: layout.coalesced(),
                    fetch: Fetch::Mem(Batch::new(tensors)),
                };
                (source, n.div_ceil(ZONE_BLOCK_ROWS), kept.len())
            }
            TableSource::Stored(st) => {
                let chunk_lens = (0..st.n_chunks()).map(|c| st.chunk_len(c));
                let zone = |c: usize, col: usize| Some(st.zone(c, col));
                let (chunks, layout) = prune_chunks(st.nrows(), chunk_lens, zone, preds);
                let kept = chunks.len();
                let source = ScanSource {
                    layout,
                    fetch: Fetch::Stored {
                        table: Arc::clone(st),
                        cols: projection
                            .map_or_else(|| (0..st.schema().len()).collect(), <[usize]>::to_vec),
                        cache: (0..kept).map(|_| OnceLock::new()).collect(),
                        chunks,
                    },
                };
                (source, st.n_chunks(), kept)
            }
        };
        let stats = ScanStats {
            chunks_scanned: kept as u64,
            chunks_pruned: (n_chunks - kept) as u64,
        };
        (source, stats)
    }

    /// The map from pruned back to original row coordinates.
    pub fn layout(&self) -> &ScanLayout {
        &self.layout
    }

    /// Rows the source exposes (pruned coordinates).
    pub fn nrows(&self) -> usize {
        self.layout.kept_rows()
    }

    /// Piece `k`: the batch holding it and the row of that batch where it
    /// starts. A stored piece decodes here on first touch.
    fn piece(&self, k: usize) -> (&Batch, usize) {
        match &self.fetch {
            Fetch::Mem(batch) => (batch, self.layout.kept[k].0),
            Fetch::Stored {
                table,
                cols,
                chunks,
                cache,
            } => {
                // Chunk boundary: streaming consumers check their query's
                // token before paying for another decode.
                crate::sched::check_cancelled();
                let chunk = cache[k].get_or_init(|| match table.decode_chunk(chunks[k], cols) {
                    Ok(decoded) => decoded_to_batch(decoded),
                    // A chunk that fails to decode aborts the query with a
                    // `Failed` naming the chunk and table.
                    Err(e) => crate::sched::fail(format!(
                        "decoding chunk {} of {}: {e}",
                        chunks[k],
                        table.path().display()
                    )),
                });
                (chunk, 0)
            }
        }
    }

    /// An empty batch with the scan's column shapes.
    fn empty(&self) -> Batch {
        match &self.fetch {
            Fetch::Mem(batch) => batch.slice_rows(0, 0),
            Fetch::Stored { table, cols, .. } => decoded_to_batch(table.empty_columns(cols)),
        }
    }

    /// Materialize pruned rows `[lo, hi)` as one batch: one
    /// [`Batch::vcat_ranges`] over the pieces the range touches, so a
    /// morsel is one copy of its rows, and a range that covers one whole
    /// piece's batch is that batch, shared.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Batch {
        if lo >= hi {
            return self.empty();
        }
        let prefix = &self.layout.prefix;
        // Last piece starting at or before `lo`.
        let first = prefix.partition_point(|&p| p <= lo) - 1;
        let pieces: Vec<(&Batch, Range<usize>)> = (first..prefix.len())
            .take_while(|&k| prefix[k] < hi)
            .map(|k| {
                let (batch, base) = self.piece(k);
                let (start, len) = (prefix[k], self.layout.kept[k].1);
                let range = lo.max(start) - start + base..hi.min(start + len) - start + base;
                (batch, range)
            })
            .collect();
        Batch::vcat_ranges(&pieces)
    }

    /// Materialize the whole source as one batch (a segment too small to
    /// chunk). Stored chunks decode fanned out over the shared pool
    /// first; an unpruned in-memory scan is the table's batch, shared.
    pub fn into_batch(self, workers: usize) -> Batch {
        if let Fetch::Stored { chunks, .. } = &self.fetch {
            crate::sched::map_tasks(chunks.len(), workers, |k| {
                self.piece(k);
            });
        }
        self.slice_rows(0, self.nrows())
    }
}

/// Materialize a whole stored table as one tensor table (the row-engine
/// oracle's path — sequential, unpruned). A chunk that fails to decode,
/// or a NULL the tensor table cannot hold, is the error, naming the chunk.
pub fn materialize(table: &StoredTable) -> Result<TensorTable, String> {
    let cols: Vec<usize> = (0..table.schema().len()).collect();
    let mut per_col: Vec<Vec<Tensor>> = vec![Vec::new(); cols.len()];
    for c in 0..table.n_chunks() {
        let decoded = table
            .decode_chunk(c, &cols)
            .map_err(|e| format!("decoding chunk {c} of {}: {e}", table.path().display()))?;
        for (slot, (tensor, validity)) in per_col.iter_mut().zip(decoded) {
            if validity.is_some() {
                return Err(format!(
                    "chunk {c} of {} holds NULLs, which a tensor table cannot",
                    table.path().display()
                ));
            }
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
    Ok(TensorTable::new(table.schema().clone(), tensors))
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
    use tqp_data::{Field, LogicalType, Schema};
    use tqp_tensor::ops::CmpOp;

    /// An in-memory table of one `I64` column `k = 0..n`.
    fn keys(n: i64) -> TensorTable {
        let schema = Schema::new(vec![Field::new("k", LogicalType::Int64)]);
        TensorTable::new(schema, vec![Tensor::from_i64((0..n).collect())])
    }

    fn cmp(op: CmpOp, v: i64) -> PrunePred {
        PrunePred::Cmp {
            col: 0,
            op,
            value: Scalar::I64(v),
        }
    }

    #[test]
    fn unpruned_in_memory_scan_shares_the_table_and_a_morsel_is_one_slice() {
        let table = keys(5000);
        let (scan, stats) = ScanSource::open(&TableSource::Mem(table.clone()), None, &[]);
        let counts = (stats.chunks_scanned, stats.chunks_pruned);
        assert_eq!(counts, (5, 0));
        assert_eq!(scan.layout().kept, vec![(0, 5000)], "blocks coalesce");
        let morsel = scan.slice_rows(100, 3000);
        assert_eq!(
            morsel.columns[0].as_i64(),
            &(100..3000).collect::<Vec<_>>()[..]
        );
        let whole = scan.into_batch(2);
        let ptr = |t: &Tensor| t.as_i64().as_ptr();
        assert_eq!(ptr(&whole.columns[0]), ptr(&table.tensors[0]), "zero-copy");
    }

    #[test]
    fn pruned_in_memory_scan_keeps_the_blocks_that_may_match() {
        let table = TableSource::Mem(keys(5000));
        // 2 100 <= k < 3 000 lies in block 2 (rows 2 048..3 072).
        let (scan, stats) =
            ScanSource::open(&table, None, &[cmp(CmpOp::Ge, 2100), cmp(CmpOp::Lt, 3000)]);
        assert_eq!((stats.chunks_scanned, stats.chunks_pruned), (1, 4));
        assert_eq!(scan.layout().project(0, 5000), (0, 1024));
        let rows = scan.into_batch(1);
        assert_eq!(
            rows.columns[0].as_i64(),
            &(2048..3072).collect::<Vec<_>>()[..]
        );
        // Blocks 0, 1 and 4 hold keys below 5 000, blocks 2 and 3 above:
        // two pieces, and a morsel across the gap joins them.
        let k: Vec<i64> = (0..2048).chain(10_000..12_048).chain(2048..2952).collect();
        let schema = Schema::new(vec![Field::new("k", LogicalType::Int64)]);
        let gapped = TableSource::Mem(TensorTable::new(schema, vec![Tensor::from_i64(k)]));
        let (scan, _) = ScanSource::open(&gapped, None, &[cmp(CmpOp::Lt, 5000)]);
        assert_eq!(scan.layout().kept, vec![(0, 2048), (4096, 904)]);
        let morsel = scan.slice_rows(2000, 2100);
        assert_eq!(
            morsel.columns[0].as_i64(),
            &(2000..2100).collect::<Vec<_>>()[..]
        );
        let (scan, stats) = ScanSource::open(&table, None, &[PrunePred::Never]);
        assert_eq!((stats.chunks_scanned, stats.chunks_pruned), (0, 5));
        assert_eq!(scan.into_batch(1).nrows(), 0);
    }

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
        let l = ScanLayout::new(50, vec![(0, 50)]);
        assert_eq!(l.project(7, 31), (7, 31));
        assert_eq!(l.kept_rows(), 50);
    }
}
