//! The benchmark's vocabulary: workload, statement, class and metric names,
//! and the one JSON line a run prints. `BENCHMARK.json` lists the same
//! names; `tests/contract.rs` holds the two together.

use tqp_json::Json;

pub const WORKLOADS: [&str; 4] = ["tpch_power", "scan_predict", "serve_point", "serve_mixed"];

/// `scan_predict`'s statements in pass order; the last one is the write.
pub const SCAN_STATEMENTS: [&str; 9] = [
    "scan_slice",
    "scan_full",
    "scan_q1wide",
    "scan_like",
    "scan_topk",
    "predict_gbt",
    "predict_linear",
    "predict_text",
    "ingest_100k",
];

/// `serve_mixed`'s request classes; `serve_point` uses the first only.
pub const CLASSES: [&str; 4] = ["point", "adhoc", "wide", "q6param"];

pub fn tpch_statements() -> Vec<String> {
    (1..=22).map(|n| format!("q{n:02}")).collect()
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse before a change is rejected.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. Every workload reports all five: an
/// operation is one statement execution (analytic workloads) or one request
/// (serving workloads), a class is a statement or a request class.
///
/// Bounds come from the A/A table in `AA.md`: three times the widest
/// run-to-run spread seen for the metric on any workload, capped at the
/// contract's 0.25. One bound serves all four workloads, so `tpch_power`,
/// the noisiest on this host, sets the three timing bounds.
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    vec![
        // Operations per second. Analytic: statements / sum of best-of-passes
        // times. Serving: quiet-quartile rate of verified completed requests.
        bounded("ops_per_s", "1/s", "higher", 0.25),
        // Geometric mean over classes of the class's quiet latency
        // (best-of-passes time, or quiet-quartile p50).
        bounded("lat_geomean_us", "us", "lower", 0.25),
        // The latency 95 % of operations stay under: the lower quartile over
        // windows (passes) of the in-window p95 over all operations.
        bounded("lat_p95_us", "us", "lower", 0.25),
        // Median over the run's set-ups of: generate, ingest, train, load the
        // oracle, connect, prepare, verify a sample, warm up.
        bounded("setup_s", "s", "lower", 0.25),
        // VmHWM at exit.
        bounded("peak_rss_mb", "MB", "lower", 0.2),
    ]
}

/// One number per layer boundary, from `--trace 1` runs only. Ungated: they
/// say where an end-to-end move came from. A metric that a workload does
/// not exercise reads 0 there.
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = Vec::new();
    // Best-of-passes time of each statement: the breakdown of ops_per_s and
    // lat_geomean_us on the two analytic workloads.
    for s in tpch_statements() {
        m.push(def(format!("stmt.{s}_ms"), "ms", "lower"));
    }
    for s in SCAN_STATEMENTS {
        m.push(def(format!("stmt.{s}_ms"), "ms", "lower"));
    }
    // The cells the issue listed per workload, kept here because the
    // contract wants every end-to-end metric on every workload.
    m.push(def("e2e.query_total_s", "s", "lower"));
    m.push(def("e2e.predict_total_s", "s", "lower"));
    m.push(def("e2e.ingest_mb_s", "MB/s", "higher"));
    // Compile pipeline, by subtraction of timed public calls.
    m.push(def("sql.parse_us", "us", "lower"));
    m.push(def("ir.plan_us", "us", "lower"));
    m.push(def("exec.lower_us", "us", "lower"));
    m.push(def("core.compile_us", "us", "lower"));
    m.push(def("core.prepare_us", "us", "lower"));
    for c in CLASSES {
        m.push(def(format!("core.execute_us.{c}"), "us", "lower"));
    }
    // Operator time from the program's own QueryTrace, one traced pass.
    for op in OP_KINDS {
        m.push(def(format!("exec.op.{op}_us"), "us", "lower"));
    }
    m.push(def("exec.unattributed_share", "ratio", "lower"));
    m.push(def("sched.sections", "count", "lower"));
    m.push(def("sched.helper_tasks", "count", "higher"));
    m.push(def("sched.helper_share", "ratio", "higher"));
    m.push(def("sched.speedup_w2", "ratio", "higher"));
    for k in SIMD_FAMILIES {
        m.push(def(format!("tensor.simd.{k}"), "count", "higher"));
    }
    m.push(def("host.stream_gb_s", "GB/s", "higher"));
    m.push(def("exec.scan_full_gb_s", "GB/s", "higher"));
    m.push(def("exec.scan_full_roofline_share", "ratio", "higher"));
    m.push(def("store.ingest_mb_s", "MB/s", "higher"));
    m.push(def("store.bytes_per_csv_byte", "ratio", "lower"));
    m.push(def("store.open_us", "us", "lower"));
    m.push(def("store.decode_mb_s", "MB/s", "higher"));
    for s in ["scan_slice", "scan_full", "scan_q1wide"] {
        m.push(def(
            format!("store.chunks_pruned_share.{s}"),
            "ratio",
            "higher",
        ));
    }
    m.push(def("ml.gbt_ns_per_row", "ns", "lower"));
    m.push(def("ml.linear_ns_per_row", "ns", "lower"));
    m.push(def("ml.text_ns_per_row", "ns", "lower"));
    m.push(def("ml.share_of_predict", "ratio", "lower"));
    m.push(def("serve.hit_us", "us", "lower"));
    m.push(def("serve.miss_us", "us", "lower"));
    for c in CLASSES {
        m.push(def(format!("serve.execute_us.{c}"), "us", "lower"));
    }
    m.push(def("cache.hits", "count", "higher"));
    m.push(def("cache.misses", "count", "lower"));
    m.push(def("cache.evictions", "count", "lower"));
    m.push(def("cache.hit_share", "ratio", "higher"));
    for part in ["rtt_us", "overhead_us", "codec_us", "result_bytes"] {
        for c in CLASSES {
            let unit = if part == "result_bytes" { "B" } else { "us" };
            m.push(def(format!("net.{part}.{c}"), unit, "lower"));
        }
    }
    m.push(def("net.server_p50_us", "us", "lower"));
    m.push(def("net.rtt_1conn_p50_us", "us", "lower"));
    m.push(def("net.lat_p99_us", "us", "lower"));
    m.push(def("net.lat_p999_us", "us", "lower"));
    m.push(def("net.overloaded", "count", "lower"));
    m.push(def("proc.cpu_ms_per_op", "ms", "lower"));
    m.push(def("proc.vol_ctx_switches_per_op", "count", "lower"));
    m.push(def("data.gen_s", "s", "lower"));
    m.push(def("data.csv_write_s", "s", "lower"));
    m.push(def("baseline.power_total_s", "s", "lower"));
    m.push(def("baseline.speedup", "ratio", "higher"));
    m.push(def("trace.overhead_ratio", "ratio", "lower"));
    m.push(def("raw.query_total_median_s", "s", "lower"));
    m.push(def("raw.qps_all", "1/s", "higher"));
    m.push(def("raw.lat_p50_us", "us", "lower"));
    m.push(def("raw.windows_dropped", "count", "lower"));
    m
}

/// Operator kinds the program's trace is folded into.
pub const OP_KINDS: [&str; 8] = [
    "scan",
    "filter",
    "project",
    "join_build",
    "join_probe",
    "agg",
    "sort",
    "predict",
];

pub const SIMD_FAMILIES: [&str; 5] = ["hash", "filter", "gather", "reduce", "decode"];

/// `--list`: the names as `BENCHMARK.json` holds them.
pub fn catalog_json() -> Json {
    let defs = |list: Vec<MetricDef>| {
        Json::arr(list.into_iter().map(|d| {
            let mut pairs = vec![
                ("name", Json::str(d.name)),
                ("unit", Json::str(d.unit)),
                ("better", Json::str(d.better)),
            ];
            if let Some(b) = d.bound {
                pairs.push(("bound", Json::F64(b)));
            }
            Json::obj(pairs)
        }))
    };
    Json::obj(vec![
        (
            "workloads",
            Json::arr(WORKLOADS.iter().map(|w| Json::str(*w))),
        ),
        ("end_to_end", defs(end_to_end())),
        ("per_layer", defs(per_layer())),
    ])
}

/// What one run reports: the contract's last line of standard output.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: Vec<(String, f64)>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The result line: exactly the metrics of `defs`, in their order. A
    /// per-layer metric the workload did not set reads 0; a missing
    /// end-to-end metric is a harness bug.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        for (name, _) in &self.values {
            assert!(
                defs.iter().any(|d| d.name == *name),
                "metric {name} is not in the catalog"
            );
        }
        let metrics = defs
            .iter()
            .map(|d| {
                let value = match (self.get(&d.name), d.bound) {
                    (Some(v), _) => v,
                    (None, None) => 0.0,
                    (None, Some(_)) => panic!("end-to-end metric {} was not measured", d.name),
                };
                assert!(value.is_finite(), "metric {} is {value}", d.name);
                (
                    d.name.clone(),
                    Json::obj(vec![
                        ("value", Json::F64(value)),
                        ("unit", Json::str(d.unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::I64(self.attempted as i64)),
            ("failed", Json::I64(self.failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_well_formed_unique_and_within_the_caps() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        names.extend(e2e.iter().chain(&layers).map(|d| d.name.clone()));
        for n in &names {
            assert!(ok(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for d in e2e.iter().chain(&layers) {
            assert!(d.unit.len() <= 16 && ["lower", "higher"].contains(&d.better));
        }
        assert!(e2e
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
    }

    #[test]
    fn report_prints_exactly_the_catalog() {
        let mut r = Report {
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        for d in end_to_end() {
            r.set(d.name, 1.5);
        }
        let line = r.to_json(&end_to_end()).to_string();
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("no metrics object")
        };
        assert_eq!(metrics.len(), end_to_end().len());
        // Per-layer metrics a workload does not exercise read 0.
        let layers = Report::default().to_json(&per_layer());
        assert_eq!(
            layers
                .get("metrics")
                .unwrap()
                .get("sql.parse_us")
                .unwrap()
                .get("value"),
            Some(&Json::F64(0.0))
        );
    }
}
