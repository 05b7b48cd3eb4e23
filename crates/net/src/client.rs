//! A small synchronous client for the wire protocol — what the
//! integration tests and the benchmark's serving workloads drive, and the
//! reference implementation for anyone speaking the protocol from elsewhere.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use tqp_core::QueryConfig;
use tqp_data::DataFrame;
use tqp_tensor::Scalar;

use crate::server::NetStats;
use crate::wire::{
    read_dataframe, read_frame, write_config, write_frame, write_scalar, ErrorCode, Op,
    PayloadReader, PayloadWriter, WireError,
};

/// Client-side failures: transport, codec, or a typed error frame from
/// the server.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (includes the server closing the connection).
    Io(std::io::Error),
    /// Malformed bytes from the server.
    Wire(String),
    /// The server answered with an [`Op::Error`] frame.
    Remote {
        code: ErrorCode,
        retryable: bool,
        message: String,
    },
}

impl NetError {
    /// True when the request may succeed if simply retried (overload,
    /// cancellation, post-registration reruns).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            NetError::Remote {
                retryable: true,
                ..
            }
        )
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Wire(m) => write!(f, "wire error: {m}"),
            NetError::Remote {
                code,
                retryable,
                message,
            } => write!(
                f,
                "server error ({code:?}, {}): {message}",
                if *retryable { "retryable" } else { "permanent" }
            ),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> NetError {
        NetError::Wire(e.0)
    }
}

/// A server-side prepared-statement handle (id namespace is private to
/// the connection that prepared it).
#[derive(Debug, Clone, Copy)]
pub struct RemoteStatement {
    pub id: u64,
    pub n_params: u16,
}

/// One query answer: the result frame plus the server-measured stats.
#[derive(Debug)]
pub struct RemoteResult {
    pub frame: DataFrame,
    /// Server-side execution wall time, microseconds.
    pub wall_us: u64,
    pub rows: u64,
}

/// A synchronous connection: one request in flight at a time, plus the
/// out-of-band [`Canceller`].
pub struct NetClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    max_frame: u32,
}

impl NetClient {
    /// Connect to a [`crate::NetServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<NetClient> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(NetClient {
            writer,
            reader,
            max_frame: crate::NetConfig::default().max_frame,
        })
    }

    /// A handle that can send CANCEL frames from another thread while
    /// this client is blocked waiting for a response. Do not race it with
    /// concurrent *request* writes from other threads — one requester at
    /// a time is the protocol's contract.
    pub fn canceller(&self) -> std::io::Result<Canceller> {
        Ok(Canceller {
            stream: self.writer.try_clone()?,
        })
    }

    fn rpc(&mut self, frame: Vec<u8>) -> Result<(Op, Vec<u8>), NetError> {
        write_frame(&mut self.writer, &frame)?;
        match read_frame(&mut self.reader, self.max_frame)? {
            Some(reply) => Ok(reply),
            None => Err(NetError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
        }
    }

    fn expect(&mut self, frame: Vec<u8>, want: Op) -> Result<Vec<u8>, NetError> {
        let (op, payload) = self.rpc(frame)?;
        if op == want {
            return Ok(payload);
        }
        if op == Op::Error {
            let mut r = PayloadReader::new(&payload);
            let code = ErrorCode::from_u8(r.u8()?)
                .ok_or_else(|| NetError::Wire("unknown error code".into()))?;
            let retryable = r.u8()? != 0;
            let message = r.str()?;
            return Err(NetError::Remote {
                code,
                retryable,
                message,
            });
        }
        Err(NetError::Wire(format!("expected {want:?}, got {op:?}")))
    }

    /// PREPARE: compile (through the server's shared cache) and pin a
    /// statement handle on this connection.
    pub fn prepare(&mut self, sql: &str, cfg: &QueryConfig) -> Result<RemoteStatement, NetError> {
        let mut w = PayloadWriter::new(Op::Prepare);
        write_config(&mut w, cfg);
        w.str(sql);
        let payload = self.expect(w.frame(), Op::Prepared)?;
        let mut r = PayloadReader::new(&payload);
        let stmt = RemoteStatement {
            id: r.u64()?,
            n_params: r.u16()?,
        };
        r.finish()?;
        Ok(stmt)
    }

    /// EXECUTE a prepared handle, optionally under a per-request deadline.
    pub fn execute(
        &mut self,
        stmt: &RemoteStatement,
        params: &[Scalar],
        deadline: Option<Duration>,
    ) -> Result<RemoteResult, NetError> {
        let mut w = PayloadWriter::new(Op::Execute);
        w.u64(stmt.id);
        w.u64(crate::wire::encode_deadline(deadline));
        w.u16(params.len() as u16);
        for p in params {
            write_scalar(&mut w, p);
        }
        let payload = self.expect(w.frame(), Op::Result)?;
        decode_result(&payload)
    }

    /// QUERY: prepare-through-cache + execute in one round trip. A
    /// deadline rides in `cfg.deadline`.
    pub fn query(
        &mut self,
        sql: &str,
        cfg: &QueryConfig,
        params: &[Scalar],
    ) -> Result<RemoteResult, NetError> {
        let mut w = PayloadWriter::new(Op::Query);
        write_config(&mut w, cfg);
        w.str(sql);
        w.u16(params.len() as u16);
        for p in params {
            write_scalar(&mut w, p);
        }
        let payload = self.expect(w.frame(), Op::Result)?;
        decode_result(&payload)
    }

    /// REGISTER (or replace) a table server-side.
    pub fn register_table(&mut self, name: &str, frame: &DataFrame) -> Result<(), NetError> {
        let mut w = PayloadWriter::new(Op::Register);
        w.str(name);
        crate::wire::write_dataframe(&mut w, frame);
        let payload = self.expect(w.frame(), Op::Registered)?;
        PayloadReader::new(&payload).finish()?;
        Ok(())
    }

    /// Fetch the server's aggregate front-end metrics.
    pub fn stats(&mut self) -> Result<NetStats, NetError> {
        self.stats_full().map(|(s, _)| s)
    }

    /// STATS: front-end counters plus the process metrics-registry
    /// snapshot (counters/gauges/histograms under `exec.*`, `simd.*`,
    /// `cache.*`, `net.*`, `sched.*`).
    pub fn stats_full(&mut self) -> Result<(NetStats, tqp_obs::Snapshot), NetError> {
        let payload = self.expect(PayloadWriter::new(Op::Stats).frame(), Op::StatsReply)?;
        let mut r = PayloadReader::new(&payload);
        let stats = NetStats {
            accepted: r.u64()?,
            active: r.u64()?,
            queries_ok: r.u64()?,
            queries_failed: r.u64()?,
            cancelled: r.u64()?,
            overload_rejected: r.u64()?,
            inflight: r.u64()?,
            peak_inflight: r.u64()?,
        };
        let snap_json = r.str()?;
        r.finish()?;
        let doc = tqp_json::Json::parse(&snap_json)
            .map_err(|e| NetError::Wire(format!("bad snapshot JSON: {e}")))?;
        let snapshot = tqp_obs::Snapshot::from_json(&doc)
            .map_err(|e| NetError::Wire(format!("bad snapshot document: {e}")))?;
        Ok((stats, snapshot))
    }

    /// PROFILE: fetch the trace of the previous traced query on this
    /// connection (`Ok(None)` when no traced query ran yet). Run queries
    /// with `cfg.trace` on (QUERY, or PREPARE + EXECUTE) to capture one.
    pub fn profile(&mut self) -> Result<Option<tqp_obs::QueryTrace>, NetError> {
        let payload = self.expect(PayloadWriter::new(Op::Profile).frame(), Op::ProfileReply)?;
        let mut r = PayloadReader::new(&payload);
        let has_trace = r.u8()? != 0;
        let trace_json = r.str()?;
        r.finish()?;
        if !has_trace {
            return Ok(None);
        }
        let doc = tqp_json::Json::parse(&trace_json)
            .map_err(|e| NetError::Wire(format!("bad trace JSON: {e}")))?;
        let trace = tqp_obs::QueryTrace::from_json(&doc)
            .map_err(|e| NetError::Wire(format!("bad trace document: {e}")))?;
        Ok(Some(trace))
    }
}

fn decode_result(payload: &[u8]) -> Result<RemoteResult, NetError> {
    let mut r = PayloadReader::new(payload);
    let wall_us = r.u64()?;
    let rows = r.u64()?;
    let frame = read_dataframe(&mut r)?;
    r.finish()?;
    Ok(RemoteResult {
        frame,
        wall_us,
        rows,
    })
}

/// Out-of-band cancellation handle (see [`NetClient::canceller`]).
pub struct Canceller {
    stream: TcpStream,
}

impl Canceller {
    /// Ask the server to abort whatever query this connection is
    /// executing. Fire-and-forget: the cancelled query itself answers
    /// with a retryable error frame.
    pub fn cancel(&mut self) -> std::io::Result<()> {
        write_frame(&mut self.stream, &PayloadWriter::new(Op::Cancel).frame())
    }
}
