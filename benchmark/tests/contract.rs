//! The benchmark and its contract stay together: `BENCHMARK.json` names
//! what `tqp-benchmark --list` names, the build profile is the repo's, and a
//! run's last line of output is the object the driver reads.

use std::path::PathBuf;
use std::process::Command;

use tqp_benchmark::metrics;
use tqp_json::Json;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo")
        .to_path_buf()
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn list_equals_benchmark_json() {
    let out = Command::new(env!("CARGO_BIN_EXE_tqp-benchmark"))
        .arg("--list")
        .output()
        .expect("run --list");
    assert!(out.status.success());
    let listed = Json::parse(&String::from_utf8(out.stdout).unwrap()).expect("--list prints JSON");
    assert_eq!(listed, metrics::catalog_json());

    let spec = benchmark_json();
    assert_eq!(
        names(spec.get("workloads").unwrap()),
        metrics::WORKLOADS.map(String::from).to_vec()
    );
    // Metric entries carry exactly the catalog's keys and values.
    assert_eq!(spec.get("end_to_end"), listed.get("end_to_end"));
    assert_eq!(spec.get("per_layer"), listed.get("per_layer"));
}

#[test]
fn benchmark_json_keeps_to_its_own_directory() {
    let spec = benchmark_json();
    let Json::Obj(pairs) = &spec else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        spec.get("paths").unwrap().as_arr().unwrap(),
        [Json::str("benchmark")]
    );
    let command: Vec<&str> = spec
        .get("command")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|a| a.as_str().unwrap())
        .collect();
    assert!(command.len() <= 32);
    // The only file of the repo the command names is inside `paths`.
    for arg in &command {
        assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
        if arg.contains('/') {
            assert!(arg.starts_with("benchmark/"), "{arg}");
        }
    }
    let seconds = spec.get("run_seconds").unwrap().as_i64().unwrap();
    assert!((1..=60).contains(&seconds));
    for w in spec.get("workloads").unwrap().as_arr().unwrap() {
        let why = w.get("why").and_then(Json::as_str).expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
}

/// The lines of a manifest's `[profile.release]` table, comments and blank
/// lines dropped.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap().trim().to_string())
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn release_profile_is_the_repos() {
    let root = std::fs::read_to_string(repo_root().join("Cargo.toml")).unwrap();
    let ours = std::fs::read_to_string(repo_root().join("benchmark/Cargo.toml")).unwrap();
    assert!(!release_profile(&root).is_empty());
    assert_eq!(release_profile(&ours), release_profile(&root));
}

/// Run one workload at smoke scale and return its last line, parsed.
fn smoke(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_tqp-benchmark"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn assert_result_line(result: &Json, defs: &[metrics::MetricDef], end_to_end: bool) {
    let Json::Obj(pairs) = result else {
        panic!("the result is an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").unwrap().as_i64().unwrap() >= 1);
    assert_eq!(result.get("failed").unwrap().as_i64(), Some(0));
    let Some(Json::Obj(got)) = result.get("metrics") else {
        panic!("metrics is an object")
    };
    let got_names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(got_names, want);
    for ((name, m), d) in got.iter().zip(defs) {
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit), "{name}");
        let v = m.get("value").and_then(Json::as_f64).expect("a number");
        assert!(v.is_finite(), "{name} = {v}");
        if end_to_end {
            assert!(v > 0.0, "end-to-end metric {name} is never 0, got {v}");
        }
    }
}

/// Every workload, both modes, at `--smoke` scale: the whole driver-facing
/// path, including the oracle check and the trace file.
#[test]
fn every_workload_prints_the_contract_line_in_both_modes() {
    for workload in metrics::WORKLOADS {
        assert_result_line(&smoke(workload, "0"), &metrics::end_to_end(), true);
        let traced = smoke(workload, "1");
        assert_result_line(&traced, &metrics::per_layer(), false);
        let trace_file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{workload}.trace.json"));
        let doc = Json::parse(&std::fs::read_to_string(&trace_file).expect("trace file"))
            .expect("the trace is JSON");
        // Layer self times decompose the wall time of the root spans.
        let roots: f64 = doc
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("args").unwrap().get("parent").unwrap().is_null())
            .map(|e| e.get("dur").unwrap().as_f64().unwrap())
            .sum();
        let layers: f64 = doc
            .get("layers")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|l| l.get("self_us").unwrap().as_f64().unwrap())
            .sum();
        assert!(
            roots > 0.0 && (layers / roots - 1.0).abs() < 0.01,
            "{layers} vs {roots}"
        );
    }
}

#[test]
fn an_unknown_workload_prints_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_tqp-benchmark"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
