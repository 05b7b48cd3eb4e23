//! Table ⇄ tensor conversion — the paper's §2.1 data representation.
//!
//! * numeric (`Int64`/`Float64`) and `Bool` columns → rank-1 tensors sharing
//!   the DataFrame's buffer (**zero-copy**);
//! * `Date` columns → `I64` epoch-nanosecond tensors (already stored that
//!   way, so also zero-copy here; the paper counts dates as "conversion"
//!   because Pandas stores datetime64 differently);
//! * `Str` columns → `(n × m)` string matrices, `m` = max byte length in
//!   the column (conversion), in one of two forms chosen by a constant rule
//!   on the data: a column with at most [`tqp_tensor::dict::MAX_ENTRIES`]
//!   distinct values becomes **dictionary-coded** (`u32` codes into a
//!   sorted dictionary; distinct values are counted exactly, and counting
//!   stops past the cap), any other column a right-zero-padded UTF-8 byte
//!   matrix.
//!
//! The reverse direction materializes query results back into a
//! [`DataFrame`] for display and for differential testing against the
//! baseline engine.

use std::sync::{Arc, OnceLock};

use tqp_tensor::{DType, Footprint, Tensor};

use crate::column::{Column, LogicalType};
use crate::frame::{DataFrame, Field, Schema};
use crate::zone::ZoneMap;

/// A table converted to TQP's tensor format: one tensor per column plus the
/// originating schema, and per column a zone map of every
/// [`crate::zone::ZONE_BLOCK_ROWS`]-row block, built the first time a scan asks for it
/// ([`TensorTable::zones`]). Clones share the tensors and the zones.
#[derive(Debug, Clone)]
pub struct TensorTable {
    pub schema: Schema,
    /// One tensor per schema column. The zones describe these tensors:
    /// build a new table ([`TensorTable::new`]) rather than replace one.
    pub tensors: Vec<Tensor>,
    zones: Arc<[OnceLock<Option<Vec<ZoneMap>>>]>,
}

impl TensorTable {
    /// A table over `tensors`, one per field of `schema`; no zone is
    /// built yet.
    pub fn new(schema: Schema, tensors: Vec<Tensor>) -> TensorTable {
        let zones = tensors.iter().map(|_| OnceLock::new()).collect();
        TensorTable {
            schema,
            tensors,
            zones,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.tensors.first().map_or(0, |t| t.nrows())
    }

    /// The zone of each [`crate::zone::ZONE_BLOCK_ROWS`]-row block of column `col`
    /// (`None` when its tensor kind has none, see [`ZoneMap::blocks`]).
    /// Built once, on the first call: a column no scan filters never pays.
    pub fn zones(&self, col: usize) -> Option<&[ZoneMap]> {
        self.zones[col]
            .get_or_init(|| ZoneMap::blocks(&self.tensors[col]))
            .as_deref()
    }

    /// Tensor of the column named `name`.
    pub fn tensor(&self, name: &str) -> Option<&Tensor> {
        self.schema.index_of(name).map(|i| &self.tensors[i])
    }

    /// Bytes the table's tensors keep resident, by buffer kind.
    pub fn footprint(&self) -> Footprint {
        self.tensors
            .iter()
            .map(Tensor::footprint)
            .fold(Footprint::default(), |a, b| a + b)
    }
}

/// Convert one column into its tensor representation.
pub fn column_to_tensor(col: &Column) -> Tensor {
    match col {
        Column::Bool(v) => Tensor::from_bool_shared(Arc::clone(v)),
        Column::Int64(v) => Tensor::from_i64_shared(Arc::clone(v)),
        Column::Float64(v) => Tensor::from_f64_shared(Arc::clone(v)),
        Column::Date(v) => Tensor::from_i64_shared(Arc::clone(v)),
        Column::Str(v) => {
            let refs: Vec<&str> = v.iter().map(|s| s.as_str()).collect();
            tqp_tensor::dict::encode(&refs, 1).unwrap_or_else(|| Tensor::from_strings(&refs, 1))
        }
    }
}

/// Convert a whole frame (the `TQP.ingest(df)` step of the demo notebooks).
pub fn frame_to_tensors(frame: &DataFrame) -> TensorTable {
    TensorTable::new(
        frame.schema().clone(),
        frame.columns().iter().map(column_to_tensor).collect(),
    )
}

/// Convert a tensor back into a column of logical type `ty`.
///
/// Aggregation kernels compute in `F64`/`I64`; this function re-applies the
/// logical type (e.g. a `Date` column returning from a MIN aggregate arrives
/// as `I64` nanoseconds).
pub fn tensor_to_column(t: &Tensor, ty: LogicalType) -> Column {
    match ty {
        LogicalType::Bool => Column::from_bool(t.as_bool().to_vec()),
        LogicalType::Int64 => {
            Column::from_i64(t.cast(DType::I64).expect("int result cast").to_i64_vec())
        }
        LogicalType::Float64 => {
            Column::from_f64(t.cast(DType::F64).expect("f64 cast").to_f64_vec())
        }
        LogicalType::Date => {
            Column::from_date_ns(t.cast(DType::I64).expect("date cast").to_i64_vec())
        }
        LogicalType::Str => {
            let n = t.nrows();
            Column::from_str((0..n).map(|i| t.str_at(i)).collect())
        }
    }
}

/// Materialize a tensor table back into a `DataFrame`.
pub fn tensors_to_frame(table: &TensorTable) -> DataFrame {
    frame_of(table.schema.clone(), &table.tensors)
}

/// Build a frame from tensors plus explicit fields (used by executors whose
/// output schema is computed by the planner).
pub fn frame_from_tensors(fields: Vec<Field>, tensors: Vec<Tensor>) -> DataFrame {
    frame_of(Schema::new(fields), &tensors)
}

fn frame_of(schema: Schema, tensors: &[Tensor]) -> DataFrame {
    let cols = schema
        .fields
        .iter()
        .zip(tensors)
        .map(|(f, t)| tensor_to_column(t, f.ty))
        .collect();
    DataFrame::new(schema, cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::df;

    #[test]
    fn numeric_ingestion_is_zero_copy() {
        let frame = df(vec![("x", Column::from_f64(vec![1.0, 2.0]))]);
        let t = frame_to_tensors(&frame);
        let col_ptr = match frame.column(0) {
            Column::Float64(v) => v.as_ptr(),
            _ => unreachable!(),
        };
        assert_eq!(
            t.tensors[0].as_f64().as_ptr(),
            col_ptr,
            "must share the buffer"
        );
    }

    #[test]
    fn date_ingestion_is_epoch_ns() {
        let ns = crate::dates::parse_to_ns("1994-01-01").unwrap();
        let frame = df(vec![("d", Column::from_date_ns(vec![ns]))]);
        let t = frame_to_tensors(&frame);
        assert_eq!(t.tensors[0].dtype(), DType::I64);
        assert_eq!(t.tensors[0].as_i64(), &[ns]);
    }

    #[test]
    fn string_ingestion_codes_low_cardinality_and_pads_the_rest() {
        let frame = df(vec![(
            "s",
            Column::from_str(vec!["ab".into(), "wxyz".into()]),
        )]);
        let t = frame_to_tensors(&frame);
        let st = &t.tensors[0];
        assert!(st.coded().is_some());
        assert_eq!(st.shape(), &[2, 4]);
        assert_eq!(st.str_at(0), "ab");
        assert_eq!(st.str_at(1), "wxyz");
        // One distinct value past the cap: padded, same shape rule.
        let many: Vec<String> = (0..=tqp_tensor::dict::MAX_ENTRIES)
            .map(|i| format!("v{i}"))
            .collect();
        let t = frame_to_tensors(&df(vec![("s", Column::from_str(many.clone()))]));
        assert!(t.tensors[0].coded().is_none());
        assert_eq!(t.tensors[0].str_at(7), many[7]);
    }

    #[test]
    fn roundtrip_all_types() {
        let frame = df(vec![
            ("b", Column::from_bool(vec![true, false])),
            ("i", Column::from_i64(vec![5, -1])),
            ("f", Column::from_f64(vec![0.5, 1.5])),
            ("d", Column::from_date_ns(vec![0, 86_400_000_000_000])),
            ("s", Column::from_str(vec!["x".into(), "".into()])),
        ]);
        let back = tensors_to_frame(&frame_to_tensors(&frame));
        assert_eq!(back.schema(), frame.schema());
        for c in 0..frame.ncols() {
            for r in 0..frame.nrows() {
                assert_eq!(back.column(c).get(r), frame.column(c).get(r));
            }
        }
    }

    #[test]
    fn tensor_lookup_by_name() {
        let frame = df(vec![("a", Column::from_i64(vec![1]))]);
        let t = frame_to_tensors(&frame);
        assert!(t.tensor("a").is_some());
        assert!(t.tensor("zz").is_none());
        assert_eq!(t.nrows(), 1);
    }
}
