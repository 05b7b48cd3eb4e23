//! # tqp-profile — profiler, traces, and executor-graph export
//!
//! The stand-in for the paper's TensorBoard/PyTorch-Profiler integration
//! (Scenario 1, Figures 2 and 4):
//!
//! * [`Profiler`] records per-operator spans (wall time, rows, bytes);
//! * [`Profiler::breakdown`] renders the Figure-2 "runtime breakdown of the
//!   top operators" table with text bar charts;
//! * [`Profiler::chrome_trace`] exports a `chrome://tracing` /
//!   Perfetto-compatible JSON trace (the artifact TensorBoard renders);
//! * [`graph::DotGraph`] emits Graphviz DOT for executor graphs (Figure 4's
//!   interactive query-graph view).

pub mod graph;

use std::collections::BTreeMap;
use std::time::Instant;

use parking_lot::Mutex;

/// Canonical span key for a program operator: `{name}@op{idx}` — spans are
/// keyed by the op's **program index**, so the same logical operator
/// appearing twice in a program aggregates separately. Every VM formats
/// its span names through these helpers so trace consumers can rely on
/// one scheme.
pub fn op_key(name: &str, idx: usize) -> String {
    format!("{name}@op{idx}")
}

/// Span key for a morsel-parallel operator execution. Identical to
/// [`op_key`]: the key deliberately does **not** embed the morsel count,
/// so the same operator aggregates under one stable key across worker
/// counts and batch sizes — the chunk count rides in [`Span::chunks`]
/// metadata instead (see [`Profiler::record_chunks`]).
pub fn op_key_par(name: &str, idx: usize) -> String {
    op_key(name, idx)
}

/// One recorded operator span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Operator name (e.g. `Filter@op2`, `HashJoin(Inner)@op5`; see
    /// [`op_key`]).
    pub name: String,
    /// Coarse category (`relational`, `ml`, `transfer`, `compile`,
    /// `expr` for compiled-expression kernel loops).
    pub category: String,
    /// Start offset since profiler creation, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Output rows produced (0 when not applicable).
    pub rows: u64,
    /// Bytes moved/produced (feeds the device cost model reports).
    pub bytes: u64,
    /// Morsel/chunk count for parallel segment executions (0 when the
    /// span ran sequentially). Metadata only — never part of the key.
    pub chunks: u64,
}

/// Thread-safe span recorder.
pub struct Profiler {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// PREDICT work per program op index: `(µs, rows)`.
    predict: Mutex<BTreeMap<usize, (u64, u64)>>,
    enabled: bool,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// A recording profiler.
    pub fn new() -> Profiler {
        Profiler {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            predict: Mutex::new(BTreeMap::new()),
            enabled: true,
        }
    }

    /// A no-op profiler (recording disabled; near-zero overhead).
    pub fn disabled() -> Profiler {
        Profiler {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            predict: Mutex::new(BTreeMap::new()),
            enabled: false,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record a span measured externally.
    pub fn record(
        &self,
        name: &str,
        category: &str,
        start_us: u64,
        dur_us: u64,
        rows: u64,
        bytes: u64,
    ) {
        self.record_chunks(name, category, start_us, dur_us, rows, bytes, 0);
    }

    /// Record a span with an explicit morsel/chunk count (parallel
    /// segment executions; sequential spans use [`Profiler::record`]).
    #[allow(clippy::too_many_arguments)]
    pub fn record_chunks(
        &self,
        name: &str,
        category: &str,
        start_us: u64,
        dur_us: u64,
        rows: u64,
        bytes: u64,
        chunks: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.lock().push(Span {
            name: name.to_string(),
            category: category.to_string(),
            start_us,
            dur_us,
            rows,
            bytes,
            chunks,
        });
    }

    /// Charge PREDICT work — model time and rows scored — to program op
    /// `op`. It sits inside the op's own span rather than beside it, so it
    /// is kept apart from the spans; charges to one op add up.
    pub fn record_predict(&self, op: usize, us: u64, rows: u64) {
        if !self.enabled {
            return;
        }
        let mut predict = self.predict.lock();
        let e = predict.entry(op).or_default();
        e.0 += us;
        e.1 += rows;
    }

    /// PREDICT work per program op as `(op, µs, rows)`, by op index.
    pub fn predict(&self) -> Vec<(usize, u64, u64)> {
        self.predict
            .lock()
            .iter()
            .map(|(&op, &(us, rows))| (op, us, rows))
            .collect()
    }

    /// Time a closure and record it; returns the closure result.
    pub fn time<T>(
        &self,
        name: &str,
        category: &str,
        rows_bytes: impl FnOnce(&T) -> (u64, u64),
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.epoch.elapsed().as_micros() as u64;
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed().as_micros() as u64;
        let (rows, bytes) = rows_bytes(&out);
        self.record(name, category, start, dur, rows, bytes);
        out
    }

    /// Microseconds since this profiler was created.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Snapshot of all recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }

    /// Clear recorded spans and PREDICT charges.
    pub fn reset(&self) {
        self.spans.lock().clear();
        self.predict.lock().clear();
    }

    /// Aggregate spans by operator name: (name, calls, total_us, rows).
    pub fn aggregate(&self) -> Vec<OpStats> {
        use std::collections::HashMap;
        let mut agg: HashMap<String, OpStats> = HashMap::new();
        for s in self.spans.lock().iter() {
            let e = agg.entry(s.name.clone()).or_insert_with(|| OpStats {
                name: s.name.clone(),
                category: s.category.clone(),
                calls: 0,
                total_us: 0,
                rows: 0,
                bytes: 0,
            });
            e.calls += 1;
            e.total_us += s.dur_us;
            e.rows += s.rows;
            e.bytes += s.bytes;
        }
        let mut v: Vec<OpStats> = agg.into_values().collect();
        v.sort_by_key(|s| std::cmp::Reverse(s.total_us));
        v
    }

    /// Figure-2 style text table: top operators by self time with a bar
    /// chart of the share of total runtime.
    pub fn breakdown(&self, top: usize) -> String {
        let stats = self.aggregate();
        let total: u64 = stats.iter().map(|s| s.total_us).sum();
        let total = total.max(1);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>6} {:>12} {:>12} {:>7}  {}\n",
            "operator", "calls", "time (us)", "rows", "%", "share"
        ));
        out.push_str(&"-".repeat(92));
        out.push('\n');
        for s in stats.iter().take(top) {
            let pct = 100.0 * s.total_us as f64 / total as f64;
            let bar = "#".repeat((pct / 4.0).round() as usize);
            out.push_str(&format!(
                "{:<28} {:>6} {:>12} {:>12} {:>6.1}%  {}\n",
                truncate(&s.name, 28),
                s.calls,
                s.total_us,
                s.rows,
                pct,
                bar
            ));
        }
        out
    }

    /// Chrome-trace JSON (open in `chrome://tracing` or Perfetto — the same
    /// artifact the PyTorch profiler feeds to TensorBoard).
    pub fn chrome_trace(&self) -> String {
        use tqp_json::Json;
        let spans = self.spans.lock();
        let events: Vec<Json> = spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name.as_str())),
                    ("cat", Json::str(s.category.as_str())),
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

/// Aggregated per-operator statistics.
#[derive(Debug, Clone)]
pub struct OpStats {
    pub name: String,
    pub category: String,
    pub calls: u64,
    pub total_us: u64,
    pub rows: u64,
    pub bytes: u64,
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_aggregate() {
        let p = Profiler::new();
        p.record("Filter", "relational", 0, 100, 10, 80);
        p.record("Filter", "relational", 100, 50, 5, 40);
        p.record("Join", "relational", 150, 300, 7, 56);
        let agg = p.aggregate();
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].name, "Join"); // sorted by time desc
        assert_eq!(agg[1].calls, 2);
        assert_eq!(agg[1].total_us, 150);
        assert_eq!(agg[1].rows, 15);
    }

    #[test]
    fn timed_closure_records() {
        let p = Profiler::new();
        let out = p.time(
            "op",
            "relational",
            |v: &Vec<i32>| (v.len() as u64, 0),
            || vec![1, 2, 3],
        );
        assert_eq!(out.len(), 3);
        let spans = p.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].rows, 3);
    }

    #[test]
    fn disabled_profiler_is_silent() {
        let p = Profiler::disabled();
        p.record("x", "y", 0, 1, 0, 0);
        let _ = p.time("z", "c", |_: &i32| (0, 0), || 1);
        assert!(p.spans().is_empty());
        assert!(!p.is_enabled());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let p = Profiler::new();
        p.record("Scan(lineitem)", "relational", 5, 42, 1000, 8000);
        let trace = p.chrome_trace();
        let v = tqp_json::Json::parse(&trace).unwrap();
        let event = v.get("traceEvents").and_then(|e| e.at(0)).unwrap();
        assert_eq!(
            event.get("name").and_then(tqp_json::Json::as_str),
            Some("Scan(lineitem)")
        );
        assert_eq!(event.get("dur").and_then(tqp_json::Json::as_i64), Some(42));
    }

    #[test]
    fn chrome_trace_escapes_quotes_and_backslashes() {
        let p = Profiler::new();
        // Operator labels can embed LIKE patterns with quotes and escapes.
        let name = r#"Filter(name LIKE "%a\_b%")"#;
        p.record_chunks(name, r#"cat"\"#, 0, 7, 3, 24, 4);
        let trace = p.chrome_trace();
        let v = tqp_json::Json::parse(&trace).unwrap();
        let event = v.get("traceEvents").and_then(|e| e.at(0)).unwrap();
        assert_eq!(
            event.get("name").and_then(tqp_json::Json::as_str),
            Some(name)
        );
        assert_eq!(
            event.get("cat").and_then(tqp_json::Json::as_str),
            Some(r#"cat"\"#)
        );
        assert_eq!(
            event
                .get("args")
                .and_then(|a| a.get("chunks"))
                .and_then(tqp_json::Json::as_i64),
            Some(4)
        );
    }

    #[test]
    fn op_keys_are_stable_across_chunk_counts() {
        assert_eq!(op_key("HashProbe", 3), "HashProbe@op3");
        assert_eq!(op_key_par("HashProbe", 3), op_key("HashProbe", 3));
    }

    #[test]
    fn breakdown_renders() {
        let p = Profiler::new();
        p.record("BigOp", "relational", 0, 900, 1, 1);
        p.record("SmallOp", "relational", 900, 100, 1, 1);
        let table = p.breakdown(10);
        assert!(table.contains("BigOp"));
        assert!(table.contains("90.0%"));
    }

    #[test]
    fn reset_clears() {
        let p = Profiler::new();
        p.record("a", "b", 0, 1, 0, 0);
        p.record_predict(3, 10, 100);
        p.reset();
        assert!(p.spans().is_empty());
        assert!(p.predict().is_empty());
    }

    #[test]
    fn predict_charges_add_up_per_op() {
        let p = Profiler::new();
        p.record_predict(4, 10, 100);
        p.record_predict(2, 1, 5);
        p.record_predict(4, 7, 50);
        assert_eq!(p.predict(), vec![(2, 1, 5), (4, 17, 150)]);
        let off = Profiler::disabled();
        off.record_predict(4, 10, 100);
        assert!(off.predict().is_empty());
    }
}
