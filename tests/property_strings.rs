//! Coded ≡ padded: the two tensor forms of a string column give the same
//! result bytes on every operator and backend, and both match the
//! `tqp-baseline` row engine.
//!
//! Each dataset is one string column `k1` at a chosen number of distinct
//! values — 1, 7, 4 096 and 4 097, either side of the dictionary cut —
//! drawn beside the empty string, `"x\0"` next to `"x"` (trailing NULs are
//! padding in both forms) and non-ASCII UTF-8; a second low-cardinality
//! column `k2`, a high-cardinality column `h` that stays padded in every
//! form, integer columns, and a dimension table `u` whose string key
//! overlaps `k1` at other widths. NULL strings come from a left join.
//!
//! The same frames are executed from three storages: every string column
//! padded (built with `Tensor::from_strings`), as ingest stores them
//! (coded where the rule says so), and mixed (`t` as ingested, `u`
//! padded). Results must be equal row for row across the three — group
//! order is first appearance, whatever the form — and equal as a multiset
//! to the row engine, which reads the frames with trailing NULs trimmed
//! (the value both tensor forms hold).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tqp_repro::baseline::RowEngine;
use tqp_repro::core::Session;
use tqp_repro::data::frame::df;
use tqp_repro::data::ingest::{frame_to_tensors, TensorTable};
use tqp_repro::data::stats::frame_stats;
use tqp_repro::data::{Column, DataFrame};
use tqp_repro::exec::{Backend, ExecConfig, Executor, Storage, TableSource};
use tqp_repro::ir::{compile_sql, Catalog, PhysicalOptions};
use tqp_repro::ml::ModelRegistry;
use tqp_repro::profile::Profiler;
use tqp_tensor::Tensor;

const ROWS: usize = 5000;

/// Values of `k1` with `ndv` distinct trimmed values: the corner cases
/// first, then generated ones; `"x\0"` rides along as a second spelling of
/// `"x"`.
fn pool(ndv: usize) -> Vec<String> {
    let corners = ["x", "", "é", "日本語", "naïve café", "zz"];
    let mut out: Vec<String> = corners.iter().take(ndv).map(|s| s.to_string()).collect();
    let mut i = 0;
    while out.len() < ndv {
        out.push(format!("v{i:04}"));
        i += 1;
    }
    if ndv > 1 {
        out.push("x\0".to_string());
    }
    out
}

fn frames(ndv: usize, seed: u64) -> HashMap<String, DataFrame> {
    let mut rng = StdRng::seed_from_u64(seed);
    let vals = pool(ndv);
    // Every value at least once, then random draws.
    let k1: Vec<String> = (0..ROWS)
        .map(|i| {
            let j = if i < vals.len() {
                i
            } else {
                rng.gen_range(0..vals.len())
            };
            vals[j].clone()
        })
        .collect();
    let k2_vals = ["AIR", "REG AIR", "é", ""];
    let k2: Vec<String> = (0..ROWS)
        .map(|_| k2_vals[rng.gen_range(0..k2_vals.len())].to_string())
        .collect();
    let h: Vec<String> = (0..ROWS).map(|i| format!("h{}", (i * 7) % 4500)).collect();
    let t = df(vec![
        ("id", Column::from_i64((0..ROWS as i64).collect())),
        ("k1", Column::from_str(k1)),
        ("k2", Column::from_str(k2)),
        ("h", Column::from_str(h)),
        (
            "g",
            Column::from_i64((0..ROWS).map(|_| rng.gen_range(0..5)).collect()),
        ),
        (
            "v",
            Column::from_i64((0..ROWS).map(|_| rng.gen_range(-50..50)).collect()),
        ),
    ]);
    // Every other value of `k1`, padded wider by values `t` never holds.
    let mut uk: Vec<String> = vals.iter().step_by(2).cloned().collect();
    uk.push("only in u, and wider than the rest".to_string());
    let w = (0..uk.len() as i64).collect();
    let u = df(vec![
        ("uk", Column::from_str(uk)),
        ("w", Column::from_i64(w)),
    ]);
    HashMap::from([("t".to_string(), t), ("u".to_string(), u)])
}

/// The frame with trailing NULs trimmed from every string: what both
/// tensor forms store, and so what the row engine must read.
fn trimmed(frame: &DataFrame) -> DataFrame {
    let cols = frame
        .columns()
        .iter()
        .map(|c| match c {
            Column::Str(v) => Column::from_str(
                v.iter()
                    .map(|s| s.trim_end_matches('\0').to_string())
                    .collect(),
            ),
            other => other.clone(),
        })
        .collect();
    DataFrame::new(frame.schema().clone(), cols)
}

/// Every string column in the padded form.
fn padded(frame: &DataFrame) -> TableSource {
    let tensors = frame
        .columns()
        .iter()
        .map(|c| match c {
            Column::Str(v) => {
                let refs: Vec<&str> = v.iter().map(|s| s.as_str()).collect();
                Tensor::from_strings(&refs, 1)
            }
            other => tqp_repro::data::ingest::column_to_tensor(other),
        })
        .collect();
    TableSource::Mem(TensorTable {
        schema: frame.schema().clone(),
        tensors,
    })
}

fn ingested(frame: &DataFrame) -> TableSource {
    TableSource::Mem(frame_to_tensors(frame))
}

const QUERIES: &[&str] = &[
    "select id from t where k1 = 'x' order by id",
    "select id from t where k1 <> 'x' and k2 = '' order by id",
    "select id, k1 from t where k1 < 'v0003' order by id",
    "select id from t where k1 >= 'é' or k1 = '' order by id",
    "select id from t where k1 in ('x', '', '日本語', 'v0002', 'absent') order by id",
    "select id from t where k1 not in ('x', 'v0001') and k2 in ('AIR', 'é') order by id",
    "select id from t where k1 like '%a%' or k1 like 'v00_1' order by id",
    "select id from t where k1 not like 'v%' order by id",
    // GROUP BY on 1-3 keys: coded, padded (`h`) and int keys mixed; no
    // ORDER BY, so first-appearance group order is compared across forms.
    "select k1, count(*) as c, sum(v) as s from t group by k1",
    "select k1, k2, count(*) as c, min(v) as m from t group by k1, k2",
    "select k2, h, g, count(*) as c from t where id < 1500 group by k2, h, g",
    "select k1, g, k2, sum(v) as s from t group by k1, g, k2 order by k1, g, k2",
    // ORDER BY, top-k, MIN/MAX, COUNT(DISTINCT).
    "select k1, k2, id from t order by k1 desc, k2, id",
    "select k1, k2, id from t order by k2, k1 desc, id limit 37",
    "select g, min(k1) as lo, max(k1) as hi, max(k2) as k from t group by g",
    "select min(k1) as lo, max(k1) as hi, count(distinct k1) as n from t",
    "select g, count(distinct k1) as n1, count(distinct k2) as n2 from t group by g",
    // Joins: another dictionary (or a padded side in the mixed storage),
    // one dictionary on both sides, semi/anti joins.
    "select t.id, u.w from t, u where t.k1 = u.uk order by t.id",
    "select a.id, b.v from t a, t b where a.id = b.id and a.k1 = b.k1 and a.v > 40 order by a.id",
    "select id from t where k1 in (select uk from u where w > 1) order by id",
    "select id from t where k1 not in (select uk from u) and v > 45 order by id",
    // NULL strings: unmatched left-join rows; MIN/MAX of an all-NULL
    // group is the empty string.
    "select t.g, min(u.uk) as lo, max(u.uk) as hi, count(u.uk) as n, count(*) as c \
     from t left join u on t.k1 = u.uk group by t.g order by t.g",
    "select t.k2, max(u.uk) as hi, count(u.uk) as n from t left join u \
     on t.k1 = u.uk and u.w < 0 group by t.k2 order by t.k2",
];

/// `(backend, workers)` — every backend at workers 1 and 4 (the scalar
/// Wasm VM is single-threaded).
fn configs() -> Vec<(Backend, usize)> {
    vec![
        (Backend::Eager, 1),
        (Backend::Eager, 4),
        (Backend::Fused, 1),
        (Backend::Fused, 4),
        (Backend::Graph, 1),
        (Backend::Graph, 4),
        (Backend::Wasm, 1),
    ]
}

fn rows(frame: &DataFrame) -> Vec<String> {
    (0..frame.nrows())
        .map(|i| format!("{:?}", frame.row(i)))
        .collect()
}

fn check_dataset(ndv: usize, seed: u64) {
    let frames = frames(ndv, seed);
    let mut catalog = Catalog::new();
    for (name, f) in &frames {
        catalog.register_with_stats(name, f.schema().clone(), frame_stats(f));
    }
    let storages: Vec<(&str, Storage)> = vec![
        (
            "padded",
            frames.iter().map(|(n, f)| (n.clone(), padded(f))).collect(),
        ),
        (
            "coded",
            frames
                .iter()
                .map(|(n, f)| (n.clone(), ingested(f)))
                .collect(),
        ),
        (
            "mixed",
            frames
                .iter()
                .map(|(n, f)| (n.clone(), if n == "u" { padded(f) } else { ingested(f) }))
                .collect(),
        ),
    ];
    // The cut: `k1` is coded exactly when it has at most 4 096 values.
    let TableSource::Mem(t) = &storages[1].1["t"] else {
        unreachable!("in-memory storage")
    };
    let k1 = t.tensor("k1").expect("k1");
    assert_eq!(k1.coded().is_some(), ndv <= 4096, "ndv {ndv}");
    assert!(t.tensor("h").expect("h").coded().is_none());

    let oracle_frames: HashMap<String, DataFrame> = frames
        .iter()
        .map(|(n, f)| (n.clone(), trimmed(f)))
        .collect();
    let models = ModelRegistry::new();
    let profiler = Profiler::disabled();
    for sql in QUERIES {
        let plan =
            compile_sql(sql, &catalog, &PhysicalOptions).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
        let mut expect = rows(&RowEngine::new(&oracle_frames, &models).execute(&plan));
        expect.sort();
        for (backend, workers) in configs() {
            let cfg = ExecConfig {
                backend,
                workers,
                ..ExecConfig::default()
            };
            let exec = Executor::compile(&plan, cfg, &models).unwrap();
            let mut first: Option<Vec<String>> = None;
            for (form, storage) in &storages {
                let got = rows(&exec.run(storage, &profiler).0);
                let what = format!("ndv {ndv}, {backend:?} w={workers}, {form}: {sql}");
                match &first {
                    None => {
                        let mut sorted = got.clone();
                        sorted.sort();
                        assert_eq!(sorted, expect, "oracle mismatch — {what}");
                        first = Some(got);
                    }
                    Some(reference) => assert_eq!(&got, reference, "forms differ — {what}"),
                }
            }
        }
    }
}

#[test]
fn one_distinct_value() {
    check_dataset(1, 11);
}

#[test]
fn seven_distinct_values() {
    check_dataset(7, 12);
}

#[test]
fn distinct_values_at_the_dictionary_cap() {
    check_dataset(4096, 13);
}

#[test]
fn distinct_values_past_the_dictionary_cap() {
    check_dataset(4097, 14);
}

/// `storage.resident_bytes` splits a session's in-memory column data by
/// form: coded columns as codes plus dictionaries, the high-cardinality
/// column as padded bytes. (No other test in this binary registers a
/// table, so the process-wide gauges are this test's own.)
#[test]
fn resident_bytes_split_by_form() {
    let mut s = Session::new();
    s.register_table("t", frames(7, 5)["t"].clone());
    let bytes = s.storage()["t"].resident_bytes();
    assert_eq!(bytes.codes, 2 * ROWS * 4, "k1 and k2 are coded");
    assert!(bytes.dict > 0);
    assert_eq!(bytes.padded, ROWS * "h4499".len(), "h stays padded");
    assert_eq!(bytes.numeric, 3 * ROWS * 8);
    let snap = tqp_repro::obs::registry().snapshot();
    assert_eq!(snap.gauge("storage.resident_bytes"), bytes.total() as i64);
    assert_eq!(
        snap.gauge("storage.resident_bytes.padded"),
        bytes.padded as i64
    );
    assert_eq!(
        snap.gauge("storage.resident_bytes.codes"),
        bytes.codes as i64
    );
    assert_eq!(snap.gauge("storage.resident_bytes.dict"), bytes.dict as i64);
}
