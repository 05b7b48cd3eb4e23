//! Minimal schema-aware CSV import/export (the Pandas `read_csv` stand-in
//! used by the examples to persist generated TPC-H tables). Quoting
//! follows RFC 4180, so a cell may hold commas, quotes and line breaks.

use std::io::{BufWriter, Read, Write};
use std::path::Path;

use crate::column::ColumnBuf;
use crate::dates;
use crate::frame::{DataFrame, Field, Schema};

/// Errors raised while reading CSV data.
#[derive(Debug)]
pub enum CsvError {
    Io(std::io::Error),
    /// A cell failed to parse as the schema's type.
    Parse {
        line: usize,
        column: String,
        value: String,
    },
    /// Wrong number of cells in a row.
    Arity {
        line: usize,
        expected: usize,
        got: usize,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "csv io error: {e}"),
            CsvError::Parse {
                line,
                column,
                value,
            } => {
                write!(
                    f,
                    "csv parse error at line {line}, column {column}: {value:?}"
                )
            }
            CsvError::Arity {
                line,
                expected,
                got,
            } => {
                write!(f, "csv line {line}: expected {expected} cells, got {got}")
            }
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

fn escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_owned()
    }
}

/// Write a frame as CSV with a header row.
pub fn write_csv(frame: &DataFrame, path: &Path) -> Result<(), CsvError> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let header: Vec<String> = frame
        .schema()
        .fields
        .iter()
        .map(|f| escape(&f.name))
        .collect();
    writeln!(out, "{}", header.join(","))?;
    for i in 0..frame.nrows() {
        let row: Vec<String> = frame
            .columns()
            .iter()
            .map(|c| escape(&c.display(i)))
            .collect();
        match row.join(",") {
            // A lone empty cell would be a blank line, which the reader
            // skips: quote it.
            line if line.is_empty() => writeln!(out, "\"\"")?,
            line => writeln!(out, "{line}")?,
        }
    }
    out.flush()?;
    Ok(())
}

/// Bytes the reader asks the file for at a time.
const BLOCK_BYTES: usize = 1 << 20;

/// One cell of a record: its raw byte span, relative to the record's
/// start, and whether it holds a quote (and so needs unquoting).
#[derive(Debug, Clone, Copy)]
struct Cell {
    start: usize,
    end: usize,
    quoted: bool,
}

/// Index of the first comma, double quote or line feed in `input` at or
/// after `i` (`input.len()` when there is none), eight bytes at a time.
fn next_special(input: &[u8], mut i: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    // High bit set in the first byte of `w` equal to `b` (bytes above it
    // may be false positives; the lowest is exact).
    let has = |w: u64, b: u8| {
        let x = w ^ (ONES * b as u64);
        x.wrapping_sub(ONES) & !x & HIGHS
    };
    while let Some(word) = input.get(i..i + 8) {
        let w = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let hits = has(w, b',') | has(w, b'"') | has(w, b'\n');
        if hits != 0 {
            return i + hits.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    while i < input.len() && !matches!(input[i], b',' | b'"' | b'\n') {
        i += 1;
    }
    i
}

fn count_newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// Split the record at the front of `input` into `cells`, following RFC
/// 4180: a double quote opens a quoted stretch in which commas and line
/// breaks are data and `""` is one quote. Returns the bytes the record
/// spans (its line break included) and the line breaks it holds, or
/// `None` when `input` ends before the record does and more input may
/// follow (`!eof`). A `\r` before the closing line break is dropped.
fn split_record(input: &[u8], eof: bool, cells: &mut Vec<Cell>) -> Option<(usize, usize)> {
    cells.clear();
    if input.is_empty() {
        return None;
    }
    let (mut start, mut quoted, mut newlines) = (0, false, 0);
    let mut i = next_special(input, 0);
    while i < input.len() {
        match input[i] {
            b',' => {
                cells.push(Cell {
                    start,
                    end: i,
                    quoted,
                });
                (start, quoted) = (i + 1, false);
                i += 1;
            }
            b'\n' => {
                let end = if i > start && input[i - 1] == b'\r' {
                    i - 1
                } else {
                    i
                };
                cells.push(Cell { start, end, quoted });
                return Some((i + 1, newlines + 1));
            }
            _ => {
                // A quoted stretch runs to the first quote not doubled.
                quoted = true;
                let mut j = i + 1;
                loop {
                    let Some(q) = input[j..].iter().position(|&b| b == b'"') else {
                        if !eof {
                            return None;
                        }
                        newlines += count_newlines(&input[j..]);
                        j = input.len();
                        break;
                    };
                    newlines += count_newlines(&input[j..j + q]);
                    j += q + 1;
                    // A quote as the last byte read closes the stretch
                    // for now; the record is then incomplete until more
                    // input or the end of the file decides.
                    if input.get(j) != Some(&b'"') {
                        break;
                    }
                    j += 1;
                }
                i = j;
            }
        }
        i = next_special(input, i);
    }
    if !eof {
        return None;
    }
    cells.push(Cell {
        start,
        end: input.len(),
        quoted,
    });
    Some((input.len(), newlines))
}

/// The content of a quoted cell: quotes removed, `""` read as one quote.
fn unquote(raw: &[u8], out: &mut Vec<u8>) {
    out.clear();
    let mut in_quotes = false;
    let mut i = 0;
    while i < raw.len() {
        match raw[i] {
            b'"' if in_quotes && raw.get(i + 1) == Some(&b'"') => {
                out.push(b'"');
                i += 1;
            }
            b'"' => in_quotes = !in_quotes,
            b => out.push(b),
        }
        i += 1;
    }
}

/// Parse one cell into its column's buffer. `line` is where the record
/// starts, for the error.
fn push_cell(col: &mut ColumnBuf, field: &Field, cell: &[u8], line: usize) -> Result<(), CsvError> {
    let err = || CsvError::Parse {
        line,
        column: field.name.clone(),
        value: String::from_utf8_lossy(cell).into_owned(),
    };
    let text = std::str::from_utf8(cell).map_err(|_| err())?;
    match col {
        ColumnBuf::Bool(v) => v.push(text.eq_ignore_ascii_case("true")),
        ColumnBuf::Int64(v) => v.push(text.parse().map_err(|_| err())?),
        ColumnBuf::Float64(v) => v.push(text.parse().map_err(|_| err())?),
        ColumnBuf::Date(v) => v.push(dates::parse_to_ns(text).ok_or_else(err)?),
        ColumnBuf::Str(v) => v.push(text),
    }
    Ok(())
}

/// Streaming CSV reader yielding blocks of at most `chunk_rows` rows as
/// typed column buffers — the ingestion path `tqp-store` uses to build a
/// table **without ever materializing it whole**, and the parser behind
/// [`read_csv`]. It reads the file a block of bytes at a time and parses
/// cells straight from those bytes: numbers from their slices, strings
/// into a [`crate::StrBuf`]. The header record is skipped, and so are
/// empty lines; memory high-water is one block of rows.
pub struct CsvChunks {
    file: std::fs::File,
    schema: Schema,
    chunk_rows: usize,
    /// Bytes read and not yet parsed are `buf[pos..]`.
    buf: Vec<u8>,
    pos: usize,
    eof: bool,
    /// 1-based line number of `buf[pos]`.
    line: usize,
    /// Cells of the record last split.
    cells: Vec<Cell>,
    /// A quoted cell's content.
    unquoted: Vec<u8>,
    done: bool,
}

impl CsvChunks {
    /// Open a CSV file for chunked reading against a known schema.
    pub fn open(schema: &Schema, path: &Path, chunk_rows: usize) -> Result<CsvChunks, CsvError> {
        let mut chunks = CsvChunks {
            file: std::fs::File::open(path)?,
            schema: schema.clone(),
            chunk_rows: chunk_rows.max(1),
            buf: Vec::new(),
            pos: 0,
            eof: false,
            line: 1,
            cells: Vec::new(),
            unquoted: Vec::new(),
            done: false,
        };
        let _header = chunks.next_record()?;
        Ok(chunks)
    }

    /// Split the next record into `self.cells`, reading more of the file
    /// until it is whole. Returns its start in `buf` and its first line.
    fn next_record(&mut self) -> Result<Option<(usize, usize)>, CsvError> {
        loop {
            let start = self.pos;
            if let Some((len, newlines)) =
                split_record(&self.buf[start..], self.eof, &mut self.cells)
            {
                let line = self.line;
                self.pos += len;
                self.line += newlines;
                return Ok(Some((start, line)));
            }
            if self.eof {
                return Ok(None);
            }
            self.fill()?;
        }
    }

    /// Drop the parsed bytes and read the next block of the file: at
    /// least as many bytes as a record cut short already holds, so one
    /// record longer than a block is rescanned a logarithmic number of
    /// times.
    fn fill(&mut self) -> Result<(), CsvError> {
        self.buf.drain(..self.pos);
        self.pos = 0;
        let have = self.buf.len();
        self.buf.resize(have + BLOCK_BYTES.max(have), 0);
        let n = loop {
            match self.file.read(&mut self.buf[have..]) {
                Ok(n) => break n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        };
        self.buf.truncate(have + n);
        self.eof = n == 0;
        Ok(())
    }

    fn read_chunk(&mut self) -> Result<Option<Vec<ColumnBuf>>, CsvError> {
        let ncols = self.schema.len();
        let mut columns: Vec<ColumnBuf> = self
            .schema
            .fields
            .iter()
            .map(|f| ColumnBuf::new(f.ty))
            .collect();
        let mut rows = 0usize;
        while rows < self.chunk_rows {
            let Some((start, line)) = self.next_record()? else {
                self.done = true;
                break;
            };
            let record = &self.buf[start..self.pos];
            if let [Cell {
                start: 0,
                end: 0,
                quoted: false,
            }] = self.cells[..]
            {
                continue; // an empty line
            }
            if self.cells.len() != ncols {
                return Err(CsvError::Arity {
                    line,
                    expected: ncols,
                    got: self.cells.len(),
                });
            }
            for ((col, field), cell) in columns.iter_mut().zip(&self.schema.fields).zip(&self.cells)
            {
                let raw = &record[cell.start..cell.end];
                let bytes = if cell.quoted {
                    unquote(raw, &mut self.unquoted);
                    &self.unquoted[..]
                } else {
                    raw
                };
                push_cell(col, field, bytes, line)?;
            }
            rows += 1;
        }
        Ok((rows > 0).then_some(columns))
    }
}

impl Iterator for CsvChunks {
    type Item = Result<Vec<ColumnBuf>, CsvError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.read_chunk() {
            Ok(Some(columns)) => Some(Ok(columns)),
            Ok(None) => None,
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Read a CSV file against a known schema (the header row is skipped).
/// Materializes the whole table; use [`CsvChunks`] for streaming
/// ingestion.
pub fn read_csv(schema: &Schema, path: &Path) -> Result<DataFrame, CsvError> {
    let columns = match CsvChunks::open(schema, path, usize::MAX)?.next() {
        Some(block) => block?,
        None => schema.fields.iter().map(|f| ColumnBuf::new(f.ty)).collect(),
    };
    let columns = columns.into_iter().map(ColumnBuf::into_column).collect();
    Ok(DataFrame::new(schema.clone(), columns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, LogicalType};
    use crate::frame::df;
    use tqp_tensor::Scalar;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tqp_csv_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn cells(line: &str) -> Vec<String> {
        let mut cells = Vec::new();
        let (len, _) = split_record(line.as_bytes(), true, &mut cells).unwrap();
        assert_eq!(len, line.len());
        let mut scratch = Vec::new();
        cells
            .iter()
            .map(|c| {
                let raw = &line.as_bytes()[c.start..c.end];
                if c.quoted {
                    unquote(raw, &mut scratch);
                    String::from_utf8(scratch.clone()).unwrap()
                } else {
                    String::from_utf8(raw.to_vec()).unwrap()
                }
            })
            .collect()
    }

    #[test]
    fn roundtrip_with_quoting() {
        let frame = df(vec![
            ("id", Column::from_i64(vec![1, 2])),
            (
                "comment",
                Column::from_str(vec!["plain".into(), "has, comma and \"quote\"".into()]),
            ),
            ("when", Column::from_date_ns(vec![0, 86_400_000_000_000])),
        ]);
        let path = tmp("roundtrip.csv");
        write_csv(&frame, &path).unwrap();
        let back = read_csv(frame.schema(), &path).unwrap();
        assert_eq!(back.nrows(), 2);
        assert_eq!(back.column(1).get(1), frame.column(1).get(1));
        assert_eq!(back.column(2).get(1), frame.column(2).get(1));
    }

    #[test]
    fn record_splitting_cases() {
        assert_eq!(cells("a,b,c"), ["a", "b", "c"]);
        assert_eq!(cells("\"a,b\",c\n"), ["a,b", "c"]);
        assert_eq!(cells("\"he said \"\"hi\"\"\",x"), ["he said \"hi\"", "x"]);
        assert_eq!(cells("\"two\nlines\",x\r\n"), ["two\nlines", "x"]);
        assert_eq!(cells("\"\"\"\",\"\""), ["\"", ""]);
        assert_eq!(cells("\n"), [""]);
        // A record cut short is incomplete until the input ends.
        let mut scratch = Vec::new();
        assert_eq!(split_record(b"a,\"b\nc", false, &mut scratch), None);
        assert_eq!(split_record(b"a,\"b\"", false, &mut scratch), None);
        assert_eq!(split_record(b"a,b", false, &mut scratch), None);
        assert_eq!(
            split_record(b"a,\"b\nc\"\nd", false, &mut scratch),
            Some((8, 2))
        );
    }

    /// Cells holding line breaks, `""` escapes and commas read back
    /// whole, and the lines errors name count every physical line.
    #[test]
    fn one_column_empty_string_round_trips() {
        let frame = df(vec![(
            "s",
            Column::from_str(vec!["a".into(), "".into(), "b".into()]),
        )]);
        let path = tmp("one_empty.csv");
        write_csv(&frame, &path).unwrap();
        let back = read_csv(frame.schema(), &path).unwrap();
        assert_eq!(back.nrows(), 3);
        for r in 0..3 {
            assert_eq!(back.row(r), frame.row(r), "row {r}");
        }
    }

    #[test]
    fn quoted_line_breaks_round_trip() {
        let frame = df(vec![
            ("id", Column::from_i64(vec![1, 2, 3, 4])),
            (
                "s",
                Column::from_str(vec![
                    "a\nb".into(),
                    "say \"hi\",\r\nthen \"\"bye\"\"".into(),
                    "ends in cr\r".into(),
                    "\n\n".into(),
                ]),
            ),
        ]);
        let path = tmp("newlines.csv");
        write_csv(&frame, &path).unwrap();
        let back = read_csv(frame.schema(), &path).unwrap();
        assert_eq!(back.nrows(), 4);
        for r in 0..4 {
            assert_eq!(back.row(r), frame.row(r), "row {r}");
        }
        for chunk_rows in [1, 3] {
            let mut rows = 0;
            for block in CsvChunks::open(frame.schema(), &path, chunk_rows).unwrap() {
                let block = block.unwrap();
                let ColumnBuf::Str(s) = &block[1] else {
                    panic!("string column")
                };
                for (i, v) in s.iter().enumerate() {
                    assert_eq!(Scalar::Str(v.into()), frame.column(1).get(rows + i));
                }
                rows += s.len();
            }
            assert_eq!(rows, 4);
        }
        // Line 1 is the header, record 1 spans lines 2-3, record 2 lines
        // 4-5; the bad cell sits on line 6 and the short record on line 7.
        std::fs::write(&path, "id,s\n1,\"a\nb\"\n2,\"c\nd\"\nx,e\n3\n").unwrap();
        match read_csv(frame.schema(), &path) {
            Err(CsvError::Parse {
                line,
                column,
                value,
            }) => {
                assert_eq!((line, column.as_str(), value.as_str()), (6, "id", "x"));
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        std::fs::write(&path, "id,s\n1,\"a\nb\"\n\n2,\"c\nd\"\n3\n").unwrap();
        assert!(matches!(
            read_csv(frame.schema(), &path),
            Err(CsvError::Arity {
                line: 7,
                expected: 2,
                got: 1
            })
        ));
    }

    /// Records cut by the reader's block boundaries — quoted line breaks
    /// and `""` escapes among them, and one cell longer than two blocks —
    /// read back as written.
    #[test]
    fn records_across_block_boundaries_round_trip() {
        let n = 120_000i64;
        let mut values: Vec<String> = (0..n)
            .map(|i| match i % 4 {
                0 => format!("plain value {i}"),
                1 => format!("quoted \"{i}\", with comma"),
                2 => format!("two\nlines {i}"),
                _ => String::new(),
            })
            .collect();
        values[10] = "long \"\"cell\"\"\n".repeat(200_000);
        let frame = df(vec![
            ("id", Column::from_i64((0..n).collect())),
            ("s", Column::from_str(values)),
        ]);
        let path = tmp("blocks.csv");
        write_csv(&frame, &path).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() > 6 * BLOCK_BYTES as u64);
        let back = read_csv(frame.schema(), &path).unwrap();
        assert_eq!(back.nrows(), n as usize);
        for r in 0..n as usize {
            assert_eq!(back.row(r), frame.row(r), "row {r}");
        }
    }

    #[test]
    fn chunked_reader_matches_whole_read() {
        let n = 1003i64;
        let frame = df(vec![
            ("id", Column::from_i64((0..n).collect())),
            (
                "s",
                Column::from_str((0..n).map(|i| format!("row {i}, quoted \"x\"")).collect()),
            ),
        ]);
        let path = tmp("chunked.csv");
        write_csv(&frame, &path).unwrap();
        let whole = read_csv(frame.schema(), &path).unwrap();
        let mut rows = 0usize;
        let mut n_chunks = 0usize;
        for chunk in CsvChunks::open(frame.schema(), &path, 100).unwrap() {
            let columns = chunk.unwrap().into_iter().map(ColumnBuf::into_column);
            let chunk = DataFrame::new(frame.schema().clone(), columns.collect());
            assert!(chunk.nrows() <= 100);
            for i in 0..chunk.nrows() {
                assert_eq!(chunk.row(i), whole.row(rows + i));
            }
            rows += chunk.nrows();
            n_chunks += 1;
        }
        assert_eq!(rows, n as usize);
        assert_eq!(n_chunks, 11);
    }

    #[test]
    fn chunked_reader_surfaces_parse_errors_once() {
        let path = tmp("chunked_bad.csv");
        std::fs::write(&path, "a\n1\nnope\n2\n").unwrap();
        let schema = Schema::new(vec![Field::new("a", LogicalType::Int64)]);
        let results: Vec<_> = CsvChunks::open(&schema, &path, 2).unwrap().collect();
        assert_eq!(results.len(), 1);
        assert!(matches!(results[0], Err(CsvError::Parse { line: 3, .. })));
    }

    #[test]
    fn invalid_utf8_is_a_parse_error() {
        let path = tmp("bad_utf8.csv");
        std::fs::write(&path, b"s\nok\nbad \xff\n").unwrap();
        let schema = Schema::new(vec![Field::new("s", LogicalType::Str)]);
        assert!(matches!(
            read_csv(&schema, &path),
            Err(CsvError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn arity_error() {
        let path = tmp("bad.csv");
        std::fs::write(&path, "a,b\n1\n").unwrap();
        let schema = Schema::new(vec![
            Field::new("a", LogicalType::Int64),
            Field::new("b", LogicalType::Int64),
        ]);
        assert!(matches!(
            read_csv(&schema, &path),
            Err(CsvError::Arity { line: 2, .. })
        ));
    }

    #[test]
    fn parse_error_reports_column() {
        let path = tmp("badparse.csv");
        std::fs::write(&path, "a\nnot_a_number\n").unwrap();
        let schema = Schema::new(vec![Field::new("a", LogicalType::Int64)]);
        match read_csv(&schema, &path) {
            Err(CsvError::Parse { column, .. }) => assert_eq!(column, "a"),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
