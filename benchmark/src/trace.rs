//! Harness spans for the traced run: one span around every call the harness
//! makes into a layer, kept in memory and written when the run ends as a
//! chrome trace (`chrome://tracing`, Perfetto) plus a `layers` table of self
//! time. Spans inside the program are a later change; the program's own
//! `QueryTrace` operator spans are attached under the call that produced
//! them, which is as deep as attribution goes today.

use std::time::Instant;

use tqp_json::Json;
use tqp_obs::QueryTrace;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// The crate the call went into (`sql`, `ir`, `exec`, `net`, ...), or
    /// `harness` for the benchmark's own work.
    pub layer: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// Spans of one statement execution or request share an identifier.
    pub request: u64,
    /// One of the program's own operator spans, attached under the call
    /// that returned them. They can overlap (two workers), so a layer table
    /// counts the time they cover together, not each one's duration.
    pub attached: bool,
}

/// Layer name of the program's attached operator spans.
const OP_LAYER: &str = "exec.op";

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    /// The span that closed last.
    closed: Option<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            closed: None,
            request: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_nanos() as f64 / 1e3
    }

    /// Start the next request: spans opened from here on carry its id.
    pub fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    /// Run `f` inside a span and return its result with the span's duration
    /// in microseconds.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_us,
            end_us: start_us,
            parent: self.stack.last().copied(),
            request: self.request,
            attached: false,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_us = self.now_us();
        self.spans[id].end_us = end_us;
        self.closed = Some(id);
        (out, end_us - start_us)
    }

    /// Attach the program's operator spans as children of the span that
    /// just closed (the call that returned `trace`), shifted to start where
    /// it started.
    pub fn attach_query_trace(&mut self, trace: &QueryTrace) {
        let parent = self.closed.expect("a span has closed");
        let base = self.spans[parent].start_us;
        let t0 = trace.spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        for s in &trace.spans {
            let start_us = base + (s.start_us - t0) as f64;
            self.spans.push(Span {
                name: s.name.clone(),
                layer: OP_LAYER,
                start_us,
                end_us: start_us + s.dur_us as f64,
                parent: Some(parent),
                request: self.spans[parent].request,
                attached: true,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer: each span's duration minus the part of it its
    /// children cover. Attached operator spans may overlap one another, so
    /// their layer gets the time they cover together inside their parent;
    /// that way the table sums to the duration of the root spans exactly.
    pub fn layer_self_times(&self) -> Vec<(&'static str, f64, usize)> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        // True for a span whose children are attached operator spans; the
        // harness's own spans never share a parent with them.
        let mut parent_of_ops = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
                parent_of_ops[p] |= s.attached;
            }
        }
        let mut table: Vec<(&'static str, f64, usize)> = Vec::new();
        let mut add = |layer: &'static str, us: f64, spans: usize| match table
            .iter_mut()
            .find(|(l, _, _)| *l == layer)
        {
            Some(row) => {
                row.1 += us;
                row.2 += spans;
            }
            None => table.push((layer, us, spans)),
        };
        for (i, s) in self.spans.iter().enumerate() {
            if s.attached {
                add(OP_LAYER, 0.0, 1);
                continue;
            }
            let kids = &mut children[i];
            kids.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("span times are not NaN"));
            let mut covered = 0.0;
            let mut cursor = s.start_us;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_us));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            add(s.layer, (s.end_us - s.start_us - covered).max(0.0), 1);
            if parent_of_ops[i] {
                add(OP_LAYER, covered, 0);
            }
        }
        table
    }

    pub fn to_json(&self) -> Json {
        let events = self.spans.iter().enumerate().map(|(i, s)| {
            Json::obj(vec![
                ("name", Json::str(s.name.clone())),
                ("cat", Json::str(s.layer)),
                ("ph", Json::str("X")),
                ("ts", Json::F64(s.start_us)),
                ("dur", Json::F64(s.end_us - s.start_us)),
                ("pid", Json::I64(1)),
                // Operator spans get their own track so overlapping workers
                // do not hide one another under the harness's calls.
                ("tid", Json::I64(if s.attached { 2 } else { 1 })),
                (
                    "args",
                    Json::obj(vec![
                        ("id", Json::I64(i as i64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::I64(p as i64)),
                        ),
                        ("request", Json::I64(s.request as i64)),
                    ]),
                ),
            ])
        });
        let layers = self.layer_self_times().into_iter().map(|(l, us, n)| {
            Json::obj(vec![
                ("layer", Json::str(l)),
                ("self_us", Json::F64(us)),
                ("spans", Json::I64(n as i64)),
            ])
        });
        Json::obj(vec![
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::arr(events)),
            ("layers", Json::arr(layers)),
        ])
    }

    /// Write the trace of `workload` under `out/`; a run that cannot write
    /// it still reports its metrics.
    pub fn write(&self, workload: &str) {
        let path = crate::verify::out_dir().join(format!("{workload}.trace.json"));
        let written = std::fs::create_dir_all(crate::verify::out_dir())
            .and_then(|()| std::fs::write(&path, self.to_json().to_string()));
        if let Err(e) = written {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_root() {
        let mut t = Tracer::new();
        t.next_request();
        t.span("harness", "statement", |t| {
            t.span("sql", "parse", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("exec", "run", |_| {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 1));
        let root = spans[0].end_us - spans[0].start_us;
        let table = t.layer_self_times();
        let total: f64 = table.iter().map(|(_, us, _)| us).sum();
        assert!(
            (total - root).abs() < 1.0,
            "self times {total} vs root {root}"
        );
        let sql = table.iter().find(|(l, _, _)| *l == "sql").unwrap();
        assert!(sql.1 >= 2_000.0);
        let doc = Json::parse(&t.to_json().to_string()).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(doc.get("layers").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut t = Tracer::new();
        t.span("exec", "run", |_| {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        let trace = QueryTrace {
            spans: vec![
                tqp_obs::TraceSpan {
                    name: "Filter@op1".into(),
                    category: "op".into(),
                    start_us: 100,
                    dur_us: 2_000,
                    rows: 0,
                    bytes: 0,
                    chunks: 0,
                },
                tqp_obs::TraceSpan {
                    name: "Filter@op1".into(),
                    category: "op".into(),
                    start_us: 100,
                    dur_us: 2_000,
                    rows: 0,
                    bytes: 0,
                    chunks: 0,
                },
            ],
            ..QueryTrace::default()
        };
        t.attach_query_trace(&trace);
        let table = t.layer_self_times();
        let exec = table.iter().find(|(l, _, _)| *l == "exec").unwrap();
        let ops = table.iter().find(|(l, _, _)| *l == OP_LAYER).unwrap();
        let run = t.spans()[0].end_us - t.spans()[0].start_us;
        assert!((exec.1 - (run - 2_000.0)).abs() < 1.0);
        // Two overlapping 2 ms operators cover 2 ms, and the table sums to
        // the root span.
        assert!((ops.1 - 2_000.0).abs() < 1.0 && ops.2 == 2);
        assert!((exec.1 + ops.1 - run).abs() < 1.0);
    }
}
