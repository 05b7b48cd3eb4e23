//! Hash-engine benchmark: the vectorized flat-arena path vs the legacy
//! `HashMap` path, on the three hash-table hot sites:
//!
//! * **build** — `join::build_table_par` over the TPC-H join keys
//!   (`orders.o_orderkey`: unique; `lineitem.l_orderkey`: ~4 rows/key),
//!   with and without the catalog's distinct-count directory hint;
//! * **probe** — `join::probe_table` of `lineitem.l_orderkey` against a
//!   prebuilt `orders` table (the Q3/Q4/Q12 shape), timing lookup + pair
//!   emission over slim single-column batches so the hash engine, not
//!   payload gather, dominates;
//! * **group-by** — a full high-cardinality aggregation query
//!   (`group by l_orderkey`) through the session with `flat_hash`
//!   toggled, covering the open-addressed group lookup end to end.
//!
//! Both paths must produce identical results (hard parity failure
//! otherwise): build tables compare by distinct/entry counts, probe
//! outputs and query frames by order-sensitive value checksums — the
//! flat-vs-map bitwise-identity contract, measured, not assumed.
//!
//! The process exits non-zero if the flat path is slower than 1.25x the
//! map path on any build/probe site — the CI regression gate (same noise
//! margin rationale as `expr_bench`).
//!
//! Writes `BENCH_join.json` (format `tqp-bench-join` v1): one record per
//! (site, workers) — median of `TQP_RUNS` runs after as many warm-ups, at
//! SF `TQP_SF`, worker counts from `TQP_WORKERS`.
//!
//! ```bash
//! TQP_SF=0.05 TQP_RUNS=3 TQP_WORKERS=1,4 \
//!     cargo run --release -p tqp-bench --bin join_bench
//! ```

use tqp_bench::{
    batch_checksum, fmt_ns, frame_checksum, key_batch, median_ns, runs, scale_factor, tpch_session,
    worker_counts,
};
use tqp_core::QueryConfig;
use tqp_exec::join;
use tqp_ir::plan::JoinType;
use tqp_json::Json;
use tqp_ml::ModelRegistry;

struct SiteResult {
    site: &'static str,
    workers: usize,
    rows: usize,
    map_ns: u64,
    flat_ns: u64,
}

fn main() {
    let session = tpch_session();
    let models = ModelRegistry::new();
    let workers_list = worker_counts();
    println!(
        "join_bench: SF {}, {} run(s), workers {:?} — flat arena vs HashMap hash engine",
        scale_factor(),
        runs(),
        workers_list
    );

    let orders_keys = key_batch(&session, "orders", 0);
    let lineitem_keys = key_batch(&session, "lineitem", 0);
    let n_orders = orders_keys.nrows();
    let n_lineitem = lineitem_keys.nrows();

    let mut results: Vec<SiteResult> = Vec::new();
    let mut gated: Vec<String> = Vec::new();

    println!(
        "\n  {:<16} {:>7} {:>9} {:>13} {:>13} {:>9}",
        "site", "workers", "rows", "hashmap", "flat", "speedup"
    );

    for &w in &workers_list {
        // -- build: unique keys (orders), duplicate-heavy keys (lineitem),
        //    and the hinted flat directory (exact distinct estimate).
        for (site, batch, distinct) in [
            ("build_unique", &orders_keys, None),
            ("build_dup", &lineitem_keys, None),
            ("build_unique_hinted", &orders_keys, Some(n_orders as u64)),
        ] {
            let map_t = join::build_table_par(batch, &[0], w, false, None);
            let flat_t = join::build_table_par(batch, &[0], w, true, distinct);
            assert_eq!(
                map_t.len(),
                flat_t.len(),
                "{site}: flat/map distinct-count parity"
            );
            let map_ns = median_ns(|| {
                std::hint::black_box(join::build_table_par(batch, &[0], w, false, None));
            });
            let flat_ns = median_ns(|| {
                std::hint::black_box(join::build_table_par(batch, &[0], w, true, distinct));
            });
            record(
                &mut results,
                &mut gated,
                site,
                w,
                batch.nrows(),
                map_ns,
                flat_ns,
                true,
            );
        }

        // -- probe: lineitem.l_orderkey against the orders build table.
        let on = [(0usize, 0usize)];
        let map_t = join::build_table_par(&orders_keys, &[0], w, false, None);
        let flat_t = join::build_table_par(&orders_keys, &[0], w, true, None);
        let probe = |t: &join::JoinTable| {
            join::probe_table(
                t,
                &lineitem_keys,
                &orders_keys,
                JoinType::Inner,
                &on,
                None,
                &models,
                w,
                false,
            )
        };
        assert_eq!(
            batch_checksum(&probe(&map_t)),
            batch_checksum(&probe(&flat_t)),
            "probe: flat/map output parity"
        );
        let map_ns = median_ns(|| {
            std::hint::black_box(probe(&map_t));
        });
        let flat_ns = median_ns(|| {
            std::hint::black_box(probe(&flat_t));
        });
        record(
            &mut results,
            &mut gated,
            "probe",
            w,
            n_lineitem,
            map_ns,
            flat_ns,
            true,
        );

        // -- group-by: high-cardinality hash aggregation end to end.
        let sql = "select l_orderkey, count(*) as cnt, sum(l_quantity) as qty \
                   from lineitem group by l_orderkey";
        let run_query = |flat: bool| {
            let q = session
                .compile(sql, QueryConfig::default().workers(w).flat_hash(flat))
                .expect("group-by query compiles");
            let (out, _) = q.run(&session).expect("group-by query runs");
            out
        };
        assert_eq!(
            frame_checksum(&run_query(false)),
            frame_checksum(&run_query(true)),
            "group_by: flat/map result parity"
        );
        let map_ns = median_ns(|| {
            std::hint::black_box(run_query(false));
        });
        let flat_ns = median_ns(|| {
            std::hint::black_box(run_query(true));
        });
        // Whole-query timing includes scan/sort overhead common to both
        // paths, so the group-by site is reported but not gated.
        record(
            &mut results,
            &mut gated,
            "group_by_query",
            w,
            n_lineitem,
            map_ns,
            flat_ns,
            false,
        );
    }

    let records: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("site", Json::str(r.site)),
                ("workers", Json::I64(r.workers as i64)),
                ("rows", Json::I64(r.rows as i64)),
                ("hashmap_ns", Json::I64(r.map_ns as i64)),
                ("flat_ns", Json::I64(r.flat_ns as i64)),
                (
                    "speedup_flat",
                    Json::F64(r.map_ns as f64 / r.flat_ns.max(1) as f64),
                ),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("format", Json::str("tqp-bench-join")),
        ("version", Json::I64(1)),
        ("scale_factor", Json::F64(scale_factor())),
        ("runs", Json::I64(runs() as i64)),
        ("results", Json::Arr(records)),
    ]);
    std::fs::write("BENCH_join.json", doc.to_string()).expect("write BENCH_join.json");
    println!("\nwrote BENCH_join.json");

    if !gated.is_empty() {
        eprintln!("flat hash engine slower than 1.25x the HashMap path:");
        for g in &gated {
            eprintln!("  {g}");
        }
        std::process::exit(1);
    }
}

#[allow(clippy::too_many_arguments)]
fn record(
    results: &mut Vec<SiteResult>,
    gated: &mut Vec<String>,
    site: &'static str,
    workers: usize,
    rows: usize,
    map_ns: u64,
    flat_ns: u64,
    gate: bool,
) {
    println!(
        "  {:<16} {:>7} {:>9} {:>13} {:>13} {:>8.2}x",
        site,
        workers,
        rows,
        fmt_ns(map_ns),
        fmt_ns(flat_ns),
        map_ns as f64 / flat_ns.max(1) as f64
    );
    // 25% noise margin, same rationale as expr_bench's gate: jitter on
    // shared runners must not flake, a real regression (flat path
    // accidentally disabled or quadratic) still trips it.
    if gate && flat_ns * 4 > map_ns * 5 {
        gated.push(format!(
            "{site} (workers {workers}, {rows} rows): flat {flat_ns} ns > 1.25x hashmap {map_ns} ns"
        ));
    }
    results.push(SiteResult {
        site,
        workers,
        rows,
        map_ns,
        flat_ns,
    });
}
