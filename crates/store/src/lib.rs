//! # tqp-store — persistent chunked columnar table storage
//!
//! The storage leg of the TQP reproduction: tables live on disk in a
//! versioned columnar format written in fixed-row-count **chunks**, each
//! column chunk independently compressed with a lightweight encoding and
//! decodable straight into the tensor batches the execution layer runs on
//! (paper §2.1's "relational data in tensor-friendly columnar form",
//! extended end-to-end to disk). Design cues from TensorBase's Rust
//! columnar engine: append-only chunk blocks, a self-describing footer,
//! per-chunk zone maps.
//!
//! ## File layout (format version 2)
//!
//! ```text
//! ┌────────────────────────────────────────────────────────┐
//! │ magic "TQPS" · version u32                             │
//! ├────────────────────────────────────────────────────────┤
//! │ chunk 0: col 0 block · col 1 block · …                 │
//! │ chunk 1: …                                             │  appended
//! │ …                                                      │  streaming
//! ├────────────────────────────────────────────────────────┤
//! │ footer: schema · nominal chunk rows · string widths ·  │
//! │   per chunk {rows, per column {offset, len, zone map}} │
//! │   · table stats · per string column: dictionary or 0   │
//! ├────────────────────────────────────────────────────────┤
//! │ footer offset u64 · magic "TQPS"                       │
//! └────────────────────────────────────────────────────────┘
//! ```
//!
//! A **column block** is a validity section (absent, or a bit-packed
//! bitmap) followed by one encoded value section:
//!
//! | encoding  | types      | payload                                     |
//! |-----------|------------|---------------------------------------------|
//! | plain     | all        | raw LE values / `len`-prefixed UTF-8        |
//! | FoR       | int, date  | min + byte-width + packed deltas            |
//! | RLE       | int, date, bool | `(run length, value)` pairs            |
//! | dict      | string     | distinct values + narrow indices            |
//! | bit-pack  | bool, validity | 1 bit per row                           |
//!
//! The writer picks the cheapest encoding per column chunk by exact byte
//! cost, so incompressible data degrades to plain, never worse.
//!
//! ## Footer dictionaries (new in version 2)
//!
//! A string column with at most [`tqp_tensor::dict::MAX_ENTRIES`]
//! distinct values (trimmed of trailing NULs, placeholders at NULL rows
//! included) carries them in the footer, sorted by bytes — the rule and
//! order in-memory ingestion (`tqp_data::ingest::column_to_tensor`)
//! applies. The blocks keep their version 1 layout; the dictionary is
//! written once the writer has seen every row. [`StoredTable::open`]
//! builds one shared [`tqp_tensor::dict::StrDict`] per such column, and
//! every chunk of it decodes to `u32` codes into that dictionary: a dict
//! block maps its few entries to codes once, a plain block looks each row
//! up. Every other string column decodes straight into its padded byte
//! matrix. No path makes a `String` per row, and a version 1 file is
//! rejected.
//!
//! ## Zone maps and statistics
//!
//! Every column chunk records a [`ZoneMap`] (min/max over non-NULL
//! values, NULL count, distinct estimate; the type lives in `tqp-data`,
//! which builds the same zones for in-memory tables); the footer also carries a
//! whole-table [`tqp_data::TableStats`] produced by the same
//! [`tqp_data::StatsBuilder`] the in-memory registration path uses — the
//! chunk-merged result is **identical** to a one-pass computation, which
//! keeps store-backed and frame-backed sessions compiling identical plans.
//! Scans consult zone maps to skip whole chunks before decoding
//! (`tqp-exec`'s pruning pre-pass); the decision rule is
//! [`ZoneMap::may_match_compare`] / [`ZoneMap::may_match_is_null`] —
//! "could any row of this chunk satisfy the conjunct?" — which is
//! conservative by construction, so pruning never changes results.
//!
//! ## Determinism contract
//!
//! Chunk decode is bit-exact: a coded column's chunks share the table's
//! one dictionary, so concatenating them keeps the codes, and a padded
//! column's chunks pad to the **table-wide** maximum byte width recorded
//! in the footer. Either way the concatenated chunks are exactly the
//! tensors whole-table ingestion builds — same form, entries, width and
//! codes — and the executor's morsel/chunk fan-out (in chunk order) stays
//! byte-identical to the in-memory scan path at any worker count.
//! Hostile bytes — a string wider than the footer width, invalid UTF-8,
//! an index out of range, a value missing from the footer dictionary, a
//! malformed dictionary — decode to [`StoreError::Format`], never a
//! panic.

mod encode;
mod meta;
mod reader;
mod writer;

pub use encode::Encoding;
pub use reader::{DecodedColumn, StoredTable};
pub use tqp_data::zone::ZoneMap;
pub use writer::{store_csv, store_frame, StoreWriter};

/// Current file-format version. Readers reject any other version with an
/// error naming both (same policy as the program artifact).
pub const FORMAT_VERSION: u32 = 2;

/// File magic, leading and trailing.
pub const MAGIC: &[u8; 4] = b"TQPS";

/// Default rows per chunk: small enough that a 16-column chunk of wide
/// strings stays a few MB (bounded ingest memory), large enough that the
/// per-chunk decode/zone-map overhead is noise on a scan.
pub const DEFAULT_CHUNK_ROWS: usize = 65_536;

/// Errors raised by the storage layer.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    /// Structural problem in a store file (bad magic, version mismatch,
    /// truncated footer, corrupt block).
    Format(String),
    /// CSV ingestion failure.
    Csv(tqp_data::csv::CsvError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Format(msg) => write!(f, "store format error: {msg}"),
            StoreError::Csv(e) => write!(f, "store csv ingest error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<tqp_data::csv::CsvError> for StoreError {
    fn from(e: tqp_data::csv::CsvError) -> Self {
        StoreError::Csv(e)
    }
}

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, StoreError>;
