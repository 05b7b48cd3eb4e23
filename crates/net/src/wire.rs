//! Length-prefixed binary wire protocol.
//!
//! Every frame is `[u32 BE length][u8 opcode][payload]`, where `length`
//! counts the opcode byte plus the payload. Integers are big-endian;
//! strings are `[u32 len][utf8 bytes]`. The format is deliberately dumb:
//! no compression, no negotiation, one request in flight per connection
//! (plus the out-of-band [`Op::Cancel`] frame, which the server's reader
//! thread handles while a query is executing).

use std::io::{self, Read, Write};

use tqp_data::{Column, DataFrame, Field, LogicalType, Schema};
use tqp_tensor::Scalar;

/// Frame opcodes. Client → server requests are < 0x80; server → client
/// responses have the high bit set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// `[cfg][sql]` → [`Op::Prepared`].
    Prepare = 0x01,
    /// `[u64 stmt_id][u64 deadline_ms (u64::MAX = none)][u16 n]
    /// [Scalar × n]` → [`Op::Result`].
    Execute = 0x02,
    /// `[cfg][sql][u16 n][Scalar × n]` → [`Op::Result`] (prepare-through-
    /// cache + execute in one round trip).
    Query = 0x03,
    /// `[name][DataFrame]` → [`Op::Registered`].
    Register = 0x04,
    /// Empty payload; trips the cancellation token of whatever query this
    /// connection is executing. No direct response — the cancelled query
    /// itself answers with a retryable [`Op::Error`].
    Cancel = 0x05,
    /// Empty payload → [`Op::Stats`].
    Stats = 0x06,
    /// Empty payload → [`Op::ProfileReply`]: the trace of the **previous
    /// traced query on this connection** (queries run with `trace` on
    /// retain their trace server-side until the next one replaces it).
    Profile = 0x07,
    /// `[u64 stmt_id][u16 n_params]`.
    Prepared = 0x81,
    /// `[u64 wall_us][u64 rows][DataFrame]`.
    Result = 0x82,
    /// Empty payload.
    Registered = 0x83,
    /// `[u64 × 8]`: accepted, active, ok, failed, cancelled, rejected,
    /// inflight, peak_inflight (see `NetStats`), then `[str snapshot]` —
    /// the process metrics-registry snapshot as JSON (see
    /// `tqp_obs::Snapshot`).
    StatsReply = 0x84,
    /// `[u8 has_trace][str trace_json]`: the connection's last captured
    /// query trace (`has_trace` = 0 → no traced query ran yet, and the
    /// string is empty).
    ProfileReply = 0x85,
    /// `[u8 code][u8 retryable][message]` (see [`ErrorCode`]).
    Error = 0xEF,
}

impl Op {
    /// Decode an opcode byte.
    pub fn from_u8(b: u8) -> Option<Op> {
        Some(match b {
            0x01 => Op::Prepare,
            0x02 => Op::Execute,
            0x03 => Op::Query,
            0x04 => Op::Register,
            0x05 => Op::Cancel,
            0x06 => Op::Stats,
            0x07 => Op::Profile,
            0x81 => Op::Prepared,
            0x82 => Op::Result,
            0x83 => Op::Registered,
            0x84 => Op::StatsReply,
            0x85 => Op::ProfileReply,
            0xEF => Op::Error,
            _ => return None,
        })
    }
}

/// Typed error codes carried by [`Op::Error`] frames, mirroring
/// `TqpError` plus the two conditions only the network layer can raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Parse/bind failure — permanently bad SQL, never retryable.
    Compile = 1,
    /// Referenced table is not registered (retryable after REGISTER).
    UnknownTable = 2,
    /// Run-time failure, including deadline/cancellation aborts
    /// (retryable).
    Execution = 3,
    /// Malformed frame, unknown opcode, or oversized payload.
    Protocol = 4,
    /// Admission control rejected the query: too many in flight
    /// (retryable after backoff).
    Overloaded = 5,
}

impl ErrorCode {
    /// Decode an error-code byte.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::Compile,
            2 => ErrorCode::UnknownTable,
            3 => ErrorCode::Execution,
            4 => ErrorCode::Protocol,
            5 => ErrorCode::Overloaded,
            _ => return None,
        })
    }
}

/// Codec failures (distinct from transport `io::Error`s).
#[derive(Debug)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire protocol error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn bad(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

// ---------------------------------------------------------------------
// Primitive encoders/decoders over an in-memory payload buffer.
// ---------------------------------------------------------------------

/// Payload writer: appends big-endian primitives to a byte buffer.
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// Start a payload with the given opcode byte.
    pub fn new(op: Op) -> PayloadWriter {
        PayloadWriter {
            buf: vec![op as u8],
        }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Finish: prefix with the `[u32 len]` header and return the frame.
    pub fn frame(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.buf.len());
        out.extend_from_slice(&(self.buf.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.buf);
        out
    }
}

/// Payload reader: consumes big-endian primitives from a received frame.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Read a payload (the bytes after the opcode).
    pub fn new(buf: &'a [u8]) -> PayloadReader<'a> {
        PayloadReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(bad(format!(
                "truncated payload: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(u64::from_be_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }

    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("string payload is not UTF-8"))
    }

    /// Fail if unconsumed bytes remain (catches length mismatches early).
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(bad(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Frame transport.
// ---------------------------------------------------------------------

/// Write one finished frame to a stream.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Read one frame: returns `(opcode, payload)` — the payload excludes the
/// opcode byte. `Ok(None)` signals a clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> io::Result<Option<(Op, Vec<u8>)>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "zero-length frame (missing opcode)",
        ));
    }
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_frame}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let op = Op::from_u8(body[0]).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown opcode 0x{:02x}", body[0]),
        )
    })?;
    body.drain(..1);
    Ok(Some((op, body)))
}

// ---------------------------------------------------------------------
// Domain codecs.
// ---------------------------------------------------------------------

/// Encode a scalar parameter value.
pub fn write_scalar(w: &mut PayloadWriter, s: &Scalar) {
    match s {
        Scalar::Null => w.u8(0),
        Scalar::Bool(b) => {
            w.u8(1);
            w.u8(*b as u8);
        }
        // Narrow variants widen on the wire; the engine's parameter
        // binding is width-agnostic.
        Scalar::I32(v) => {
            w.u8(2);
            w.i64(*v as i64);
        }
        Scalar::I64(v) => {
            w.u8(2);
            w.i64(*v);
        }
        Scalar::F32(v) => {
            w.u8(3);
            w.f64(*v as f64);
        }
        Scalar::F64(v) => {
            w.u8(3);
            w.f64(*v);
        }
        Scalar::Str(s) => {
            w.u8(4);
            w.str(s);
        }
    }
}

/// Decode a scalar parameter value.
pub fn read_scalar(r: &mut PayloadReader) -> Result<Scalar, WireError> {
    Ok(match r.u8()? {
        0 => Scalar::Null,
        1 => Scalar::Bool(r.u8()? != 0),
        2 => Scalar::I64(r.i64()?),
        3 => Scalar::F64(r.f64()?),
        4 => Scalar::Str(r.str()?),
        t => return Err(bad(format!("unknown scalar tag {t}"))),
    })
}

fn type_tag(ty: LogicalType) -> u8 {
    match ty {
        LogicalType::Bool => 0,
        LogicalType::Int64 => 1,
        LogicalType::Float64 => 2,
        LogicalType::Date => 3,
        LogicalType::Str => 4,
    }
}

/// Encode a whole frame of columnar data: `[u32 ncols][u32 nrows]`, then
/// per column `[name][u8 type tag][rows × value]`.
pub fn write_dataframe(w: &mut PayloadWriter, df: &DataFrame) {
    w.u32(df.ncols() as u32);
    w.u32(df.nrows() as u32);
    for (i, field) in df.schema().fields.iter().enumerate() {
        w.str(&field.name);
        w.u8(type_tag(field.ty));
        match df.column(i) {
            Column::Bool(v) => {
                for b in v.iter() {
                    w.u8(*b as u8);
                }
            }
            Column::Int64(v) | Column::Date(v) => {
                for x in v.iter() {
                    w.i64(*x);
                }
            }
            Column::Float64(v) => {
                for x in v.iter() {
                    w.f64(*x);
                }
            }
            Column::Str(v) => {
                for s in v.iter() {
                    w.str(s);
                }
            }
        }
    }
}

/// Decode a columnar frame written by [`write_dataframe`].
pub fn read_dataframe(r: &mut PayloadReader) -> Result<DataFrame, WireError> {
    let ncols = r.u32()? as usize;
    let nrows = r.u32()? as usize;
    let mut fields = Vec::with_capacity(ncols);
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = r.str()?;
        let (ty, col) = match r.u8()? {
            0 => {
                let mut v = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    v.push(r.u8()? != 0);
                }
                (LogicalType::Bool, Column::from_bool(v))
            }
            1 => {
                let mut v = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    v.push(r.i64()?);
                }
                (LogicalType::Int64, Column::from_i64(v))
            }
            2 => {
                let mut v = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    v.push(r.f64()?);
                }
                (LogicalType::Float64, Column::from_f64(v))
            }
            3 => {
                let mut v = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    v.push(r.i64()?);
                }
                (LogicalType::Date, Column::from_date_ns(v))
            }
            4 => {
                let mut v = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    v.push(r.str()?);
                }
                (LogicalType::Str, Column::from_str(v))
            }
            t => return Err(bad(format!("unknown column type tag {t}"))),
        };
        fields.push(Field::new(name, ty));
        columns.push(col);
    }
    Ok(DataFrame::new(Schema::new(fields), columns))
}

/// Encode a query configuration: `[u8 backend][u8 device][u16 workers]
/// [u8 flags][u64 deadline_ms][u64 slow_query_ms]` (both `u64::MAX` =
/// none). Flag bits: 0 = zone-map pruning, 3 = SIMD, 4 = trace capture;
/// bits 1 and 2 are reserved (written as 0, ignored on read). Physical-plan
/// options stay at their defaults — they are compiler tuning, not a
/// client-facing contract.
pub fn write_config(w: &mut PayloadWriter, cfg: &tqp_core::QueryConfig) {
    w.u8(match cfg.backend {
        tqp_exec::Backend::Eager => 0,
        tqp_exec::Backend::Fused => 1,
        tqp_exec::Backend::Graph => 2,
        tqp_exec::Backend::Wasm => 3,
    });
    w.u8(match cfg.device {
        tqp_exec::Device::Cpu => 0,
        tqp_exec::Device::GpuSim => 1,
    });
    w.u16(cfg.workers.min(u16::MAX as usize) as u16);
    let flags = (cfg.prune_scans as u8) | (cfg.simd as u8) << 3 | (cfg.trace as u8) << 4;
    w.u8(flags);
    w.u64(encode_deadline(cfg.deadline));
    w.u64(cfg.slow_query_ms.unwrap_or(u64::MAX));
}

/// Deadline wire encoding: `u64::MAX` = none, anything else = whole
/// milliseconds (0 is a real, already-expired deadline — it must abort
/// the query, not silently mean "no deadline").
pub fn encode_deadline(d: Option<std::time::Duration>) -> u64 {
    d.map_or(u64::MAX, |d| {
        (d.as_millis().min(u64::MAX as u128 - 1)) as u64
    })
}

/// Inverse of [`encode_deadline`].
pub fn decode_deadline(ms: u64) -> Option<std::time::Duration> {
    (ms != u64::MAX).then(|| std::time::Duration::from_millis(ms))
}

/// Decode a query configuration.
pub fn read_config(r: &mut PayloadReader) -> Result<tqp_core::QueryConfig, WireError> {
    let backend = match r.u8()? {
        0 => tqp_exec::Backend::Eager,
        1 => tqp_exec::Backend::Fused,
        2 => tqp_exec::Backend::Graph,
        3 => tqp_exec::Backend::Wasm,
        b => return Err(bad(format!("unknown backend tag {b}"))),
    };
    let device = match r.u8()? {
        0 => tqp_exec::Device::Cpu,
        1 => tqp_exec::Device::GpuSim,
        d => return Err(bad(format!("unknown device tag {d}"))),
    };
    let workers = r.u16()? as usize;
    let flags = r.u8()?;
    let deadline = decode_deadline(r.u64()?);
    let slow = r.u64()?;
    let mut cfg = tqp_core::QueryConfig::default()
        .backend(backend)
        .device(device)
        .workers(workers.max(1));
    cfg.prune_scans = flags & 1 != 0;
    cfg.simd = flags & 8 != 0;
    cfg.trace = flags & 16 != 0;
    cfg.deadline = deadline;
    cfg.slow_query_ms = (slow != u64::MAX).then_some(slow);
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqp_data::frame::df;

    #[test]
    fn frames_roundtrip_through_a_byte_stream() {
        let mut w = PayloadWriter::new(Op::Query);
        w.str("select 1");
        w.u16(0);
        let frame = w.frame();
        let mut cursor = io::Cursor::new(frame);
        let (op, payload) = read_frame(&mut cursor, 1 << 20).unwrap().unwrap();
        assert_eq!(op, Op::Query);
        let mut r = PayloadReader::new(&payload);
        assert_eq!(r.str().unwrap(), "select 1");
        assert_eq!(r.u16().unwrap(), 0);
        r.finish().unwrap();
        // EOF at a frame boundary is a clean close…
        assert!(read_frame(&mut cursor, 1 << 20).unwrap().is_none());
    }

    #[test]
    fn oversized_and_malformed_frames_are_rejected() {
        let mut w = PayloadWriter::new(Op::Query);
        w.str(&"x".repeat(4096));
        let frame = w.frame();
        let err = read_frame(&mut io::Cursor::new(frame), 128).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Unknown opcode.
        let raw = [0u8, 0, 0, 1, 0x7F];
        let err = read_frame(&mut io::Cursor::new(raw.to_vec()), 1 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Truncated payload read.
        let mut r = PayloadReader::new(&[0, 0]);
        assert!(r.u64().is_err());
    }

    #[test]
    fn dataframes_roundtrip_bitwise() {
        let frame = df(vec![
            ("flag", Column::from_bool(vec![true, false, true])),
            ("id", Column::from_i64(vec![1, -2, i64::MAX])),
            ("v", Column::from_f64(vec![1.5, -0.0, f64::MIN_POSITIVE])),
            ("d", Column::from_date_ns(vec![0, 86_400_000_000_000, -1])),
            (
                "s",
                Column::from_str(vec!["".into(), "it's".into(), "naïve".into()]),
            ),
        ]);
        let mut w = PayloadWriter::new(Op::Result);
        write_dataframe(&mut w, &frame);
        let buf = w.frame();
        let (op, payload) = read_frame(&mut io::Cursor::new(buf), 1 << 20)
            .unwrap()
            .unwrap();
        assert_eq!(op, Op::Result);
        let mut r = PayloadReader::new(&payload);
        let back = read_dataframe(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.schema(), frame.schema());
        assert_eq!(back.nrows(), frame.nrows());
        for c in 0..frame.ncols() {
            for i in 0..frame.nrows() {
                // Scalar equality is bitwise for floats via to_bits below.
                match (frame.column(c).get(i), back.column(c).get(i)) {
                    (Scalar::F64(a), Scalar::F64(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits())
                    }
                    (a, b) => assert_eq!(a, b),
                }
            }
        }
    }

    #[test]
    fn scalars_and_configs_roundtrip() {
        let vals = [
            Scalar::Null,
            Scalar::Bool(true),
            Scalar::I64(-7),
            Scalar::F64(2.5),
            Scalar::Str("it's".into()),
        ];
        let mut w = PayloadWriter::new(Op::Execute);
        for v in &vals {
            write_scalar(&mut w, v);
        }
        let cfg = tqp_core::QueryConfig::default()
            .backend(tqp_exec::Backend::Fused)
            .workers(3)
            .deadline(std::time::Duration::from_millis(250))
            .trace(true)
            .slow_query_ms(75);
        write_config(&mut w, &cfg);
        let buf = w.frame();
        let (_, payload) = read_frame(&mut io::Cursor::new(buf), 1 << 20)
            .unwrap()
            .unwrap();
        let mut r = PayloadReader::new(&payload);
        for v in &vals {
            assert_eq!(&read_scalar(&mut r).unwrap(), v);
        }
        let back = read_config(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.backend, tqp_exec::Backend::Fused);
        assert_eq!(back.workers, 3);
        assert_eq!(back.deadline, Some(std::time::Duration::from_millis(250)));
        assert!(back.prune_scans && back.simd);
        assert!(back.trace);
        assert_eq!(back.slow_query_ms, Some(75));
    }

    /// Flag bits 1 and 2 (the retired fusion and hash-engine toggles) are
    /// written as 0 and ignored on read, so a peer that still sets them
    /// decodes to the same configuration.
    #[test]
    fn reserved_config_flag_bits() {
        let cfg = tqp_core::QueryConfig::default().trace(true);
        let mut w = PayloadWriter::new(Op::Execute);
        write_config(&mut w, &cfg);
        let (_, payload) = read_frame(&mut io::Cursor::new(w.frame()), 1 << 20)
            .unwrap()
            .unwrap();
        // [u8 backend][u8 device][u16 workers][u8 flags]…
        assert_eq!(
            payload[4], 0b1_1001,
            "prune + simd + trace, reserved bits clear"
        );
        let mut legacy = payload.to_vec();
        legacy[4] |= 0b110;
        let decode = |bytes: &[u8]| {
            let mut r = PayloadReader::new(bytes);
            let cfg = read_config(&mut r).unwrap();
            r.finish().unwrap();
            cfg
        };
        let (a, b) = (decode(&payload), decode(&legacy));
        assert_eq!(
            (a.prune_scans, a.simd, a.trace),
            (b.prune_scans, b.simd, b.trace)
        );
        assert_eq!(
            (a.workers, a.deadline, a.slow_query_ms),
            (b.workers, b.deadline, b.slow_query_ms)
        );
    }
}
