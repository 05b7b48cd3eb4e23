//! # tqp-data — columnar frames, datasets, and tensor ingestion
//!
//! The data layer of the TQP reproduction, standing in for the Python
//! ecosystem pieces the paper leans on:
//!
//! * [`frame`] — a small columnar `DataFrame` (the Pandas/Arrow stand-in)
//!   with typed [`column::Column`]s;
//! * [`ingest`] — the paper's §2.1 data representation: numeric columns map
//!   zero-copy to `(n)` tensors, dates to `I64` epoch-nanosecond tensors,
//!   strings to `(n × m)` right-zero-padded UTF-8 byte matrices;
//! * [`tpch`] — a deterministic dbgen-style generator for all eight TPC-H
//!   tables at any scale factor, plus the 22 query texts;
//! * [`datasets`] — the Fisher Iris table (embedded, public domain) and a
//!   synthetic Amazon-reviews generator for the paper's Scenario 3;
//! * [`csv`] — schema-aware CSV import/export;
//! * [`zone`] — per-chunk min/max zone maps and the pruning rules over
//!   them, for stored chunks and in-memory blocks alike;
//! * [`dates`] — proleptic-Gregorian date math (civil ↔ epoch days ↔ epoch
//!   nanoseconds, `INTERVAL` arithmetic).

pub mod column;
pub mod csv;
pub mod datasets;
pub mod dates;
pub mod frame;
pub mod ingest;
pub mod stats;
pub mod tpch;
pub mod zone;

pub use column::{Column, ColumnBuf, LogicalType, StrBuf};
pub use frame::{DataFrame, Field, Schema};
pub use stats::{ColumnStats, StatsBuilder, TableStats};
