//! Metrics-registry properties: merge-order invariance and exposition
//! format; and the query trace's JSON encoding (what `PROFILE` ships).
//!
//! The registry is the always-on layer under `exec.*`/`net.*`/`cache.*`,
//! fed concurrently by worker threads. Its correctness contract is that
//! **aggregation is order-free**: per-worker deltas applied in any
//! interleaving produce the same snapshot as a single-threaded replay.
//! The exposition contract is that `prometheus_text` always emits valid
//! line format, whatever metric names and values are registered.

use proptest::prelude::*;
use tqp_json::Json;
use tqp_repro::obs::{OpTrace, QueryTrace, Registry, Snapshot, TraceSpan};

/// Deterministic Fisher–Yates from a seed (the shim has no shuffle).
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        // SplitMix64 step — cheap, well distributed.
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        items.swap(i, (z as usize) % (i + 1));
    }
}

/// The characters a trace's text fields are drawn from: quotes,
/// backslashes, control characters and non-ASCII among them.
const CHARS: [char; 14] = [
    'a', 'Z', '7', '@', '(', '"', '\\', '\n', '\u{1}', ' ', 'é', 'ß', '→', '😀',
];

fn text(picks: &[usize]) -> String {
    picks.iter().map(|&i| CHARS[i % CHARS.len()]).collect()
}

/// A decoded trace, or the decode error's message.
fn decode(doc: &str) -> Result<QueryTrace, String> {
    let doc = Json::parse(doc).map_err(|e| e.to_string())?;
    QueryTrace::from_json(&doc).map_err(|e| e.to_string())
}

const METRICS: &[&str] = &["exec.rows", "exec.chunks", "net.queries_ok", "cache.hits"];
const HISTS: &[&str] = &["exec.query_us", "net.query_us"];

/// Apply one worker's delta batch: counter bumps and histogram
/// observations, selected by index.
fn apply(reg: &Registry, deltas: &[(u8, u64)]) {
    for &(which, v) in deltas {
        let w = which as usize;
        if w < METRICS.len() {
            reg.counter(METRICS[w]).add(v);
        } else {
            reg.histogram(HISTS[w - METRICS.len()]).observe(v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Per-worker deltas merged in any interleaving == sequential replay.
    #[test]
    fn registry_merge_is_order_free(
        workers in prop::collection::vec(
            prop::collection::vec((0u8..6, 0u64..1_000_000), 0..20),
            1..5,
        ),
        seed in 0u64..u64::MAX,
    ) {
        // Sequential, worker-by-worker replay.
        let seq = Registry::new();
        for w in &workers {
            apply(&seq, w);
        }

        // The same deltas, globally shuffled across workers.
        let mut flat: Vec<(u8, u64)> = workers.iter().flatten().copied().collect();
        shuffle(&mut flat, seed);
        let merged = Registry::new();
        apply(&merged, &flat);

        prop_assert_eq!(seq.snapshot(), merged.snapshot());
    }

    // Snapshots survive the JSON wire encoding (what STATS ships).
    #[test]
    fn snapshot_json_roundtrip(
        deltas in prop::collection::vec((0u8..6, 0u64..1_000_000), 0..40),
    ) {
        let reg = Registry::new();
        apply(&reg, &deltas);
        let snap = reg.snapshot();
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        prop_assert_eq!(snap, back);
    }

    // A trace survives the JSON wire encoding (what PROFILE ships), text
    // fields with quotes, backslashes and non-ASCII included.
    #[test]
    fn query_trace_json_roundtrip(
        sql in prop::collection::vec(0usize..14, 0..16),
        spans in prop::collection::vec(
            (prop::collection::vec(0usize..14, 0..12), any::<u64>(), any::<u64>()),
            0..6,
        ),
        nums in prop::collection::vec(any::<u64>(), 6..7),
    ) {
        let trace = QueryTrace {
            trace_id: nums[0],
            sql: text(&sql),
            backend: text(&sql[sql.len() / 2..]),
            workers: nums[1],
            wall_us: nums[2],
            rows: nums[3],
            chunks_scanned: nums[4],
            chunks_pruned: nums[5],
            simd_dispatch: spans.iter().map(|(n, a, _)| (text(n), *a)).collect(),
            spans: spans
                .iter()
                .map(|(n, a, b)| TraceSpan {
                    name: text(n),
                    category: text(&n[n.len() / 2..]),
                    start_us: *a,
                    dur_us: *b,
                    rows: a ^ b,
                    bytes: a.wrapping_add(*b),
                    chunks: a.rotate_left(7),
                })
                .collect(),
            ops: spans
                .iter()
                .enumerate()
                .map(|(i, (n, a, b))| OpTrace {
                    op_index: i as u64,
                    name: text(n),
                    calls: *a,
                    total_us: *b,
                    rows: a ^ b,
                    bytes: a.wrapping_sub(*b),
                    predict_us: b / 2,
                    predict_rows: a / 3,
                })
                .collect(),
        };
        let back = decode(&trace.to_json().to_string());
        prop_assert_eq!(back, Ok(trace));
    }

    // Every non-comment exposition line is `name value` with a numeric
    // value and a legal metric name — the Prometheus text line format.
    #[test]
    fn prometheus_text_is_line_format_clean(
        deltas in prop::collection::vec((0u8..6, 0u64..1_000_000), 0..40),
    ) {
        let reg = Registry::new();
        apply(&reg, &deltas);
        let text = reg.snapshot().prometheus_text();
        for line in text.lines() {
            if line.is_empty() || line.starts_with("# ") {
                continue;
            }
            let (name, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| TestCaseError::fail(format!("no value: {line:?}")))?;
            // Metric name (with optional {labels} suffix, e.g. quantiles).
            let bare = name.split('{').next().unwrap();
            prop_assert!(
                !bare.is_empty()
                    && bare.chars().next().unwrap().is_ascii_alphabetic()
                    && bare
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in {line:?}"
            );
            if name.contains('{') {
                prop_assert!(name.ends_with('}'), "unclosed labels in {line:?}");
            }
            prop_assert!(
                value.parse::<f64>().is_ok(),
                "non-numeric value in {line:?}"
            );
        }
    }
}

/// A field that is present with the wrong type is an error naming the
/// field, at the top level and inside spans and ops alike; only an op's
/// `predict_us`/`predict_rows` may be absent.
#[test]
fn query_trace_rejects_a_field_of_the_wrong_type() {
    let trace = QueryTrace {
        sql: "select 1".into(),
        wall_us: 7,
        spans: vec![TraceSpan {
            name: "Scan(t)@op0".into(),
            category: "relational".into(),
            start_us: 1,
            dur_us: 5,
            rows: 3,
            bytes: 24,
            chunks: 0,
        }],
        ops: vec![OpTrace {
            op_index: 0,
            name: "Scan(t)".into(),
            calls: 1,
            total_us: 5,
            rows: 3,
            bytes: 24,
            predict_us: 2,
            predict_rows: 3,
        }],
        ..QueryTrace::default()
    };
    let good = trace.to_json().to_string();
    assert_eq!(decode(&good), Ok(trace.clone()));
    for (from, to, field) in [
        ("\"wall_us\":7", "\"wall_us\":\"7\"", "wall_us"),
        ("\"sql\":\"select 1\"", "\"sql\":1", "sql"),
        ("\"dur_us\":5", "\"dur_us\":5.5", "dur_us"),
        ("\"cat\":\"relational\"", "\"cat\":null", "cat"),
        ("\"name\":\"Scan(t)\"", "\"name\":[]", "name"),
        ("\"predict_us\":2", "\"predict_us\":\"2\"", "predict_us"),
        ("\"spans\":[", "\"spans\":\"\",\"x\":[", "spans"),
    ] {
        let bad = good.replacen(from, to, 1);
        assert_ne!(bad, good, "{from} is not in {good}");
        let err = decode(&bad).expect_err(&bad);
        assert!(err.contains(&format!("{field:?}")), "{err}");
    }
    let old = good.replacen(",\"predict_us\":2,\"predict_rows\":3", "", 1);
    assert_ne!(old, good);
    let ops = decode(&old).unwrap().ops;
    assert_eq!((ops[0].predict_us, ops[0].predict_rows), (0, 0));
}
