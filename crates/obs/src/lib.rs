//! # tqp-obs — the unified observability layer
//!
//! One process-wide metrics registry plus the per-query trace types that
//! every other crate reports into. Three instrument kinds live behind a
//! dotted namespace (`exec.*`, `simd.*`, `cache.*`, `net.*`, `sched.*`):
//!
//! - [`Counter`] — monotonically increasing `u64`.
//! - [`Gauge`] — signed instantaneous value (queue depths, in-flight).
//! - [`Histogram`] — fixed power-of-two microsecond buckets with
//!   p50/p95/p99 estimation from the bucket bounds.
//!
//! Instrument handles are `Arc`-backed atomics: registration takes a
//! mutex once, after which every update is a single relaxed atomic RMW.
//! The registry is always on.
//!
//! The crate also owns the cross-layer observability plumbing that must
//! be shared between `tqp-core` and `tqp-net` without a dependency cycle:
//! the [`QueryTrace`] document (JSON round-trippable through `tqp-json`
//! so it can ride the wire), the global [slow-query ring buffer]
//! (`record_slow_query`), and the process trace-id counter.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use tqp_json::{Json, JsonError};

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// Monotonic counter handle. Cheap to clone; clones share the cell.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value handle (queue depth, in-flight requests).
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` holds observations with value
/// `<= 2^i` microseconds (bucket 0 additionally absorbs zero), and the
/// final bucket is the overflow (+Inf) bucket.
pub const HISTOGRAM_BUCKETS: usize = 28;

struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCell {
    fn new() -> HistogramCell {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Fixed-bucket latency histogram handle (microsecond domain).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCell>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramCell::new()))
    }
}

/// Upper bound (inclusive, microseconds) of bucket `i`; the last bucket
/// is unbounded.
pub fn bucket_bound(i: usize) -> u64 {
    1u64 << i
}

fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        return 0;
    }
    let idx = 64 - (v - 1).leading_zeros() as usize;
    idx.min(HISTOGRAM_BUCKETS - 1)
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation (microseconds).
    #[inline]
    pub fn observe(&self, v: u64) {
        let cell = &*self.0;
        cell.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let cell = &*self.0;
        let buckets: Vec<u64> = cell
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = cell.count.load(Ordering::Relaxed);
        let sum = cell.sum.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets,
            count,
            sum,
        }
    }
}

/// Point-in-time copy of one histogram's buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) observation counts.
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Quantile estimate: the upper bound of the bucket where the
    /// cumulative count first reaches `q * count`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_bound(i);
            }
        }
        bucket_bound(self.buckets.len().saturating_sub(1))
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The process-wide instrument table. Names are dotted
/// (`exec.queries`, `net.query_us`); the Prometheus exporter rewrites
/// them to `tqp_exec_queries` style.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get-or-create a counter. Callers cache the returned handle; the
    /// mutex is only on this registration path.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.histograms.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Point-in-time copy of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The global registry every layer reports into.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

/// Point-in-time copy of the whole registry, JSON round-trippable so the
/// extended STATS wire reply can carry it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Gauge value by name (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "counters",
                Json::Arr(
                    self.counters
                        .iter()
                        .map(|(k, v)| {
                            Json::obj(vec![
                                ("name", Json::str(k)),
                                ("value", Json::I64(*v as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Arr(
                    self.gauges
                        .iter()
                        .map(|(k, v)| {
                            Json::obj(vec![("name", Json::str(k)), ("value", Json::I64(*v))])
                        })
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Arr(
                    self.histograms
                        .iter()
                        .map(|(k, h)| {
                            Json::obj(vec![
                                ("name", Json::str(k)),
                                ("count", Json::I64(h.count as i64)),
                                ("sum", Json::I64(h.sum as i64)),
                                (
                                    "buckets",
                                    Json::Arr(
                                        h.buckets.iter().map(|&b| Json::I64(b as i64)).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Snapshot, JsonError> {
        let mut snap = Snapshot::default();
        for item in doc.field("counters")?.as_arr().unwrap_or(&[]) {
            snap.counters.push((
                item.field("name")?.as_str().unwrap_or("").to_string(),
                item.field("value")?.as_i64().unwrap_or(0) as u64,
            ));
        }
        for item in doc.field("gauges")?.as_arr().unwrap_or(&[]) {
            snap.gauges.push((
                item.field("name")?.as_str().unwrap_or("").to_string(),
                item.field("value")?.as_i64().unwrap_or(0),
            ));
        }
        for item in doc.field("histograms")?.as_arr().unwrap_or(&[]) {
            let buckets = item
                .field("buckets")?
                .as_arr()
                .unwrap_or(&[])
                .iter()
                .map(|b| b.as_i64().unwrap_or(0) as u64)
                .collect();
            snap.histograms.push((
                item.field("name")?.as_str().unwrap_or("").to_string(),
                HistogramSnapshot {
                    buckets,
                    count: item.field("count")?.as_i64().unwrap_or(0) as u64,
                    sum: item.field("sum")?.as_i64().unwrap_or(0) as u64,
                },
            ));
        }
        Ok(snap)
    }

    /// Render in Prometheus text exposition format. Dotted names become
    /// `tqp_`-prefixed underscore names; histograms emit cumulative
    /// `_bucket{le=...}` series plus `_sum`/`_count`.
    pub fn prometheus_text(&self) -> String {
        fn metric_name(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 4);
            out.push_str("tqp_");
            for ch in name.chars() {
                if ch.is_ascii_alphanumeric() {
                    out.push(ch);
                } else {
                    out.push('_');
                }
            }
            out
        }
        let mut out = String::new();
        for (name, value) in &self.counters {
            let m = metric_name(name);
            out.push_str(&format!("# TYPE {m} counter\n{m} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let m = metric_name(name);
            out.push_str(&format!("# TYPE {m} gauge\n{m} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let m = metric_name(name);
            out.push_str(&format!("# TYPE {m} histogram\n"));
            let mut cum = 0u64;
            for (i, &c) in h.buckets.iter().enumerate() {
                cum += c;
                if i + 1 == h.buckets.len() {
                    out.push_str(&format!("{m}_bucket{{le=\"+Inf\"}} {cum}\n"));
                } else {
                    out.push_str(&format!("{m}_bucket{{le=\"{}\"}} {cum}\n", bucket_bound(i)));
                }
            }
            out.push_str(&format!("{m}_sum {}\n{m}_count {}\n", h.sum, h.count));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Per-query traces
// ---------------------------------------------------------------------------

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique trace id (monotonic from 1).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// One profiler span carried inside a [`QueryTrace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    pub name: String,
    pub category: String,
    pub start_us: u64,
    pub dur_us: u64,
    pub rows: u64,
    pub bytes: u64,
    /// Morsel/chunk count for parallel segment spans (0 = sequential).
    pub chunks: u64,
}

/// Per-program-op attribution row: spans keyed `…@op{idx}` summed by op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    pub op_index: u64,
    pub name: String,
    pub calls: u64,
    pub total_us: u64,
    pub rows: u64,
    pub bytes: u64,
    /// Model time inside this op's `PREDICT` calls (part of `total_us`).
    pub predict_us: u64,
    /// Rows those calls scored.
    pub predict_rows: u64,
}

/// The full per-query observability document: what `EXPLAIN ANALYZE`
/// renders from in-process and what the wire `PROFILE` frame ships.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryTrace {
    pub trace_id: u64,
    pub sql: String,
    pub backend: String,
    pub workers: u64,
    pub wall_us: u64,
    pub rows: u64,
    pub chunks_scanned: u64,
    pub chunks_pruned: u64,
    /// SIMD kernel-family dispatch counts for this query
    /// (`hash`/`filter`/`gather`/`reduce`/`decode`).
    pub simd_dispatch: Vec<(String, u64)>,
    pub spans: Vec<TraceSpan>,
    pub ops: Vec<OpTrace>,
}

/// Parse the program-op index out of a stable span key
/// (`HashProbe@op3` → 3). Returns `None` for non-operator spans.
pub fn op_index_of(span_name: &str) -> Option<u64> {
    let (_, idx) = span_name.rsplit_once("@op")?;
    idx.parse().ok()
}

impl QueryTrace {
    /// Fold the span list into per-op attribution rows, ordered by op
    /// index. Spans without an `@op{idx}` key are left out.
    pub fn build_ops(&mut self) {
        let mut by_op: BTreeMap<u64, OpTrace> = BTreeMap::new();
        for span in &self.spans {
            let Some(idx) = op_index_of(&span.name) else {
                continue;
            };
            let name = span
                .name
                .rsplit_once("@op")
                .map(|(n, _)| n.to_string())
                .unwrap_or_default();
            let entry = by_op.entry(idx).or_insert_with(|| OpTrace {
                op_index: idx,
                name,
                calls: 0,
                total_us: 0,
                rows: 0,
                bytes: 0,
                predict_us: 0,
                predict_rows: 0,
            });
            entry.calls += 1;
            entry.total_us += span.dur_us;
            entry.rows += span.rows;
            entry.bytes += span.bytes;
        }
        self.ops = by_op.into_values().collect();
    }

    /// Charge `PREDICT` work (model µs, rows scored) to the op at
    /// `op_index`, after [`QueryTrace::build_ops`].
    pub fn add_predict(&mut self, op_index: u64, us: u64, rows: u64) {
        if let Some(op) = self.ops.iter_mut().find(|o| o.op_index == op_index) {
            op.predict_us += us;
            op.predict_rows += rows;
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("trace_id", Json::I64(self.trace_id as i64)),
            ("sql", Json::str(&self.sql)),
            ("backend", Json::str(&self.backend)),
            ("workers", Json::I64(self.workers as i64)),
            ("wall_us", Json::I64(self.wall_us as i64)),
            ("rows", Json::I64(self.rows as i64)),
            ("chunks_scanned", Json::I64(self.chunks_scanned as i64)),
            ("chunks_pruned", Json::I64(self.chunks_pruned as i64)),
            (
                "simd_dispatch",
                Json::Arr(
                    self.simd_dispatch
                        .iter()
                        .map(|(k, v)| {
                            Json::obj(vec![
                                ("kernel", Json::str(k)),
                                ("count", Json::I64(*v as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("name", Json::str(&s.name)),
                                ("cat", Json::str(&s.category)),
                                ("start_us", Json::I64(s.start_us as i64)),
                                ("dur_us", Json::I64(s.dur_us as i64)),
                                ("rows", Json::I64(s.rows as i64)),
                                ("bytes", Json::I64(s.bytes as i64)),
                                ("chunks", Json::I64(s.chunks as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "ops",
                Json::Arr(
                    self.ops
                        .iter()
                        .map(|o| {
                            Json::obj(vec![
                                ("op_index", Json::I64(o.op_index as i64)),
                                ("name", Json::str(&o.name)),
                                ("calls", Json::I64(o.calls as i64)),
                                ("total_us", Json::I64(o.total_us as i64)),
                                ("rows", Json::I64(o.rows as i64)),
                                ("bytes", Json::I64(o.bytes as i64)),
                                ("predict_us", Json::I64(o.predict_us as i64)),
                                ("predict_rows", Json::I64(o.predict_rows as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<QueryTrace, JsonError> {
        let mut trace = QueryTrace {
            trace_id: doc.field("trace_id")?.as_i64().unwrap_or(0) as u64,
            sql: doc.field("sql")?.as_str().unwrap_or("").to_string(),
            backend: doc.field("backend")?.as_str().unwrap_or("").to_string(),
            workers: doc.field("workers")?.as_i64().unwrap_or(0) as u64,
            wall_us: doc.field("wall_us")?.as_i64().unwrap_or(0) as u64,
            rows: doc.field("rows")?.as_i64().unwrap_or(0) as u64,
            chunks_scanned: doc.field("chunks_scanned")?.as_i64().unwrap_or(0) as u64,
            chunks_pruned: doc.field("chunks_pruned")?.as_i64().unwrap_or(0) as u64,
            ..QueryTrace::default()
        };
        for item in doc.field("simd_dispatch")?.as_arr().unwrap_or(&[]) {
            trace.simd_dispatch.push((
                item.field("kernel")?.as_str().unwrap_or("").to_string(),
                item.field("count")?.as_i64().unwrap_or(0) as u64,
            ));
        }
        for item in doc.field("spans")?.as_arr().unwrap_or(&[]) {
            trace.spans.push(TraceSpan {
                name: item.field("name")?.as_str().unwrap_or("").to_string(),
                category: item.field("cat")?.as_str().unwrap_or("").to_string(),
                start_us: item.field("start_us")?.as_i64().unwrap_or(0) as u64,
                dur_us: item.field("dur_us")?.as_i64().unwrap_or(0) as u64,
                rows: item.field("rows")?.as_i64().unwrap_or(0) as u64,
                bytes: item.field("bytes")?.as_i64().unwrap_or(0) as u64,
                chunks: item.field("chunks")?.as_i64().unwrap_or(0) as u64,
            });
        }
        for item in doc.field("ops")?.as_arr().unwrap_or(&[]) {
            trace.ops.push(OpTrace {
                op_index: item.field("op_index")?.as_i64().unwrap_or(0) as u64,
                name: item.field("name")?.as_str().unwrap_or("").to_string(),
                calls: item.field("calls")?.as_i64().unwrap_or(0) as u64,
                total_us: item.field("total_us")?.as_i64().unwrap_or(0) as u64,
                rows: item.field("rows")?.as_i64().unwrap_or(0) as u64,
                bytes: item.field("bytes")?.as_i64().unwrap_or(0) as u64,
                // Absent in documents from builds without PREDICT
                // attribution.
                predict_us: item.get("predict_us").and_then(Json::as_i64).unwrap_or(0) as u64,
                predict_rows: item.get("predict_rows").and_then(Json::as_i64).unwrap_or(0) as u64,
            });
        }
        Ok(trace)
    }

    /// Chrome-trace (`chrome://tracing`) export of the span list.
    pub fn chrome_trace(&self) -> String {
        let events: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(&s.name)),
                    ("cat", Json::str(&s.category)),
                    ("ph", Json::str("X")),
                    ("ts", Json::I64(s.start_us as i64)),
                    ("dur", Json::I64(s.dur_us as i64)),
                    ("pid", Json::I64(1)),
                    ("tid", Json::I64(1)),
                    (
                        "args",
                        Json::obj(vec![
                            ("rows", Json::I64(s.rows as i64)),
                            ("bytes", Json::I64(s.bytes as i64)),
                            ("chunks", Json::I64(s.chunks as i64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![("traceEvents", Json::Arr(events))]).to_string_pretty()
    }
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

/// Capacity of the slow-query ring buffer; the oldest entry is evicted
/// once full.
pub const SLOW_LOG_CAPACITY: usize = 128;

/// One slow-query record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    pub trace_id: u64,
    pub sql: String,
    pub wall_us: u64,
    pub rows: u64,
    /// The threshold (milliseconds) that was exceeded.
    pub threshold_ms: u64,
}

static SLOW_LOG: OnceLock<Mutex<VecDeque<SlowQuery>>> = OnceLock::new();

fn slow_log() -> &'static Mutex<VecDeque<SlowQuery>> {
    SLOW_LOG.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// Append to the process slow-query ring buffer.
pub fn record_slow_query(entry: SlowQuery) {
    let mut log = slow_log().lock().unwrap();
    if log.len() >= SLOW_LOG_CAPACITY {
        log.pop_front();
    }
    log.push_back(entry);
}

/// Snapshot of the ring buffer, oldest first.
pub fn slow_queries() -> Vec<SlowQuery> {
    slow_log().lock().unwrap().iter().cloned().collect()
}

/// Drop all slow-query entries (test isolation).
pub fn clear_slow_queries() {
    slow_log().lock().unwrap().clear();
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let mut prev = 0;
        for v in 0..10_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev || bucket_bound(idx) >= v.max(1));
            assert!(v <= bucket_bound(idx) || idx == HISTOGRAM_BUCKETS - 1);
            prev = idx;
        }
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1100);
        assert!(snap.p50() >= 20 && snap.p50() <= 64);
        assert!(snap.p99() >= 1000);
    }

    #[test]
    fn registry_handles_share_state() {
        let a = registry().counter("test.shared");
        let b = registry().counter("test.shared");
        a.add(3);
        b.add(4);
        assert_eq!(registry().counter("test.shared").get(), 7);
    }

    #[test]
    fn snapshot_json_round_trip() {
        let h = registry().histogram("test.snapjson_us");
        h.observe(42);
        registry().gauge("test.snapjson_gauge").set(-5);
        let snap = registry().snapshot();
        let parsed = tqp_json::Json::parse(&snap.to_json().to_string()).unwrap();
        let back = Snapshot::from_json(&parsed).unwrap();
        assert_eq!(back.gauge("test.snapjson_gauge"), -5);
        assert_eq!(back.histogram("test.snapjson_us").unwrap().count, 1);
        assert_eq!(back.histogram("test.snapjson_us").unwrap().sum, 42);
    }

    #[test]
    fn prometheus_text_line_format() {
        let reg = Registry::new();
        reg.counter("exec.queries").add(7);
        reg.gauge("sched.queue_depth").set(2);
        reg.histogram("net.query_us").observe(100);
        let text = reg.snapshot().prometheus_text();
        assert!(text.contains("# TYPE tqp_exec_queries counter"));
        assert!(text.contains("tqp_exec_queries 7"));
        assert!(text.contains("tqp_sched_queue_depth 2"));
        assert!(text.contains("tqp_net_query_us_count 1"));
        assert!(text.contains("tqp_net_query_us_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    fn trace_json_round_trip() {
        let mut trace = QueryTrace {
            trace_id: 9,
            sql: "select 1".into(),
            backend: "Fused".into(),
            workers: 4,
            wall_us: 1234,
            rows: 10,
            chunks_scanned: 8,
            chunks_pruned: 3,
            simd_dispatch: vec![("filter".into(), 2)],
            spans: vec![TraceSpan {
                name: "Filter@op1".into(),
                category: "op".into(),
                start_us: 5,
                dur_us: 50,
                rows: 10,
                bytes: 80,
                chunks: 4,
            }],
            ops: vec![],
        };
        trace.build_ops();
        trace.add_predict(1, 30, 10);
        assert_eq!(trace.ops.len(), 1);
        assert_eq!(trace.ops[0].op_index, 1);
        assert_eq!(trace.ops[0].name, "Filter");
        assert_eq!(
            (trace.ops[0].predict_us, trace.ops[0].predict_rows),
            (30, 10)
        );
        let parsed = tqp_json::Json::parse(&trace.to_json().to_string()).unwrap();
        let back = QueryTrace::from_json(&parsed).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn op_index_parsing() {
        assert_eq!(op_index_of("HashProbe@op3"), Some(3));
        assert_eq!(op_index_of("Scan@op0"), Some(0));
        assert_eq!(op_index_of("GraphLoad"), None);
        assert_eq!(op_index_of("weird@opx"), None);
    }

    #[test]
    fn slow_log_ring_evicts() {
        clear_slow_queries();
        for i in 0..(SLOW_LOG_CAPACITY as u64 + 10) {
            record_slow_query(SlowQuery {
                trace_id: i,
                sql: format!("q{i}"),
                wall_us: i,
                rows: 0,
                threshold_ms: 0,
            });
        }
        let log = slow_queries();
        assert_eq!(log.len(), SLOW_LOG_CAPACITY);
        assert_eq!(log[0].trace_id, 10);
        clear_slow_queries();
    }
}
