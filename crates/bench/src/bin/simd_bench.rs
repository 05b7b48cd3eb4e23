//! SIMD kernel-layer benchmark: the explicit vector tier
//! (`tqp_tensor::simd`) vs its scalar fallback, per kernel family and
//! end to end.
//!
//! * **micro sites** — the five rewired loop families measured directly
//!   over ingested TPC-H columns (plus synthetic encode payloads for the
//!   decode family): blockwise hashing, interval/compare filter masks,
//!   selection compaction + gathers, SUM/MIN/MAX/COUNT reductions, and
//!   frame-of-reference / bitmap / plain decode. Every site first runs
//!   both tiers once and hard-asserts bitwise-identical output (an FNV
//!   checksum over the result bits — the parity contract, measured, not
//!   assumed), then times each tier with `median_ns`.
//! * **end to end** — TPC-H Q1/Q6/Q19 through the session with
//!   `QueryConfig::simd` toggled, result frames checksum-compared.
//!
//! The process exits non-zero if the vector tier is slower than 1.25x
//! the scalar tier on any micro site above 10k rows (same noise margin
//! rationale as `expr_bench`). When the host (or
//! `TQP_SIMD=off`) pins the level to `scalar`, both measurements run the
//! same code, so the gate is skipped and the JSON records `level:
//! "scalar"` for the reader.
//!
//! Writes `BENCH_simd.json` (format `tqp-bench-simd` v1): one record per
//! site — median of `TQP_RUNS` runs after as many warm-ups, at SF
//! `TQP_SF`.
//!
//! ```bash
//! TQP_SF=0.05 TQP_RUNS=3 cargo run --release -p tqp-bench --bin simd_bench
//! ```

use tqp_bench::{fmt_ns, frame_checksum, key_batch, median_ns, runs, scale_factor, tpch_session};
use tqp_core::QueryConfig;
use tqp_data::tpch::queries;
use tqp_json::Json;
use tqp_tensor::simd::{self, CmpF64, CmpI64};

struct SiteResult {
    family: &'static str,
    site: String,
    rows: usize,
    scalar_ns: u64,
    simd_ns: u64,
    checksum: u64,
    gate: bool,
}

/// Order-sensitive FNV fold over raw 64-bit words — the micro-site
/// parity checksum (floats enter by bit pattern).
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    const P: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h = (h ^ w).wrapping_mul(P);
    }
    h
}

fn main() {
    let session = tpch_session();
    let level = simd::level();
    println!(
        "simd_bench: SF {}, {} run(s), level {} — explicit SIMD tier vs scalar fallback",
        scale_factor(),
        runs(),
        level.name()
    );
    // Micro sites call the dispatchers directly; make sure a previous
    // in-process `simd(false)` run hasn't left the layer disabled.
    simd::set_enabled(true);

    // Ingested TPC-H columns: the real value distributions the engine
    // hashes, filters, gathers and reduces.
    let orderkey_t = key_batch(&session, "lineitem", 0);
    let quantity_t = key_batch(&session, "lineitem", 4);
    let price_t = key_batch(&session, "lineitem", 5);
    let shipdate_t = key_batch(&session, "lineitem", 10);
    let orderkey = orderkey_t.columns[0].as_i64();
    let quantity = quantity_t.columns[0].as_f64();
    let price = price_t.columns[0].as_f64();
    let shipdate = shipdate_t.columns[0].as_i64();
    let rows = orderkey.len();

    let mut results: Vec<SiteResult> = Vec::new();
    let mut gated: Vec<String> = Vec::new();
    println!(
        "\n  {:<8} {:<22} {:>9} {:>13} {:>13} {:>9}",
        "family", "site", "rows", "scalar", "simd", "speedup"
    );

    // A one-year slice of the shipdate domain — the Q6 shape.
    let (dlo, dhi) = shipdate
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let year = ((dhi - dlo) / 7).max(1);
    let date_op = CmpI64::In(dlo + 2 * year, year as u64);

    // --- hash family ----------------------------------------------------
    {
        let mut a = vec![0u64; rows];
        let mut b = vec![0u64; rows];
        simd::scalar::hash_i64(orderkey, &mut a);
        simd::hash_i64(orderkey, &mut b);
        assert_eq!(fnv(a.iter().copied()), fnv(b.iter().copied()), "hash_i64");
        let scalar_ns = median_ns(|| simd::scalar::hash_i64(orderkey, &mut a));
        let simd_ns = median_ns(|| simd::hash_i64(orderkey, &mut b));
        record(
            &mut results,
            &mut gated,
            level,
            "hash",
            "hash_i64",
            rows,
            scalar_ns,
            simd_ns,
            fnv(b.iter().copied()),
            true,
        );

        simd::scalar::hash_combine_f64(&mut a, price);
        simd::hash_combine_f64(&mut b, price);
        assert_eq!(
            fnv(a.iter().copied()),
            fnv(b.iter().copied()),
            "hash_combine_f64"
        );
        let scalar_ns = median_ns(|| simd::scalar::hash_combine_f64(&mut a, price));
        let simd_ns = median_ns(|| simd::hash_combine_f64(&mut b, price));
        record(
            &mut results,
            &mut gated,
            level,
            "hash",
            "hash_combine_f64",
            rows,
            scalar_ns,
            simd_ns,
            fnv(b.iter().copied()),
            true,
        );
    }

    // --- filter family --------------------------------------------------
    let date_mask = {
        let mut a = vec![false; rows];
        let mut b = vec![false; rows];
        simd::scalar::mask_i64(date_op, shipdate, &mut a, false);
        simd::mask_i64(date_op, shipdate, &mut b, false);
        assert_eq!(a, b, "mask_i64");
        let scalar_ns = median_ns(|| simd::scalar::mask_i64(date_op, shipdate, &mut a, false));
        let simd_ns = median_ns(|| simd::mask_i64(date_op, shipdate, &mut b, false));
        record(
            &mut results,
            &mut gated,
            level,
            "filter",
            "mask_i64_interval",
            rows,
            scalar_ns,
            simd_ns,
            fnv(b.iter().map(|&x| x as u64)),
            true,
        );

        let qty_op = CmpF64::Lt(24.0);
        // `and`-mode over the date mask: the conjunct-fold shape.
        let mut c = a.clone();
        let mut d = b.clone();
        simd::scalar::mask_f64(qty_op, quantity, &mut c, true);
        simd::mask_f64(qty_op, quantity, &mut d, true);
        assert_eq!(c, d, "mask_f64");
        let scalar_ns = median_ns(|| simd::scalar::mask_f64(qty_op, quantity, &mut c, true));
        let simd_ns = median_ns(|| simd::mask_f64(qty_op, quantity, &mut d, true));
        record(
            &mut results,
            &mut gated,
            level,
            "filter",
            "mask_f64_and",
            rows,
            scalar_ns,
            simd_ns,
            fnv(d.iter().map(|&x| x as u64)),
            true,
        );
        d
    };

    // --- gather family --------------------------------------------------
    let sel = {
        let mut a = Vec::with_capacity(rows);
        let mut b = Vec::with_capacity(rows);
        simd::scalar::compact_indices_into(&date_mask, 0, &mut a);
        simd::compact_indices_into(&date_mask, 0, &mut b);
        assert_eq!(a, b, "compact_indices");
        let scalar_ns = median_ns(|| {
            a.clear();
            simd::scalar::compact_indices_into(&date_mask, 0, &mut a);
        });
        let simd_ns = median_ns(|| {
            b.clear();
            simd::compact_indices_into(&date_mask, 0, &mut b);
        });
        record(
            &mut results,
            &mut gated,
            level,
            "gather",
            "compact_indices",
            rows,
            scalar_ns,
            simd_ns,
            fnv(b.iter().map(|&x| x as u64)),
            true,
        );
        b
    };
    {
        let n = sel.len();
        let mut a = vec![0i64; n];
        let mut b = vec![0i64; n];
        simd::scalar::gather_i64(orderkey, &sel, &mut a);
        simd::gather_i64(orderkey, &sel, &mut b);
        assert_eq!(a, b, "gather_i64");
        let scalar_ns = median_ns(|| simd::scalar::gather_i64(orderkey, &sel, &mut a));
        let simd_ns = median_ns(|| simd::gather_i64(orderkey, &sel, &mut b));
        record(
            &mut results,
            &mut gated,
            level,
            "gather",
            "gather_i64",
            n,
            scalar_ns,
            simd_ns,
            fnv(b.iter().map(|&x| x as u64)),
            true,
        );

        assert_eq!(
            simd::scalar::count_true(&date_mask),
            simd::count_true(&date_mask),
            "count_true"
        );
        let scalar_ns = median_ns(|| {
            std::hint::black_box(simd::scalar::count_true(&date_mask));
        });
        let simd_ns = median_ns(|| {
            std::hint::black_box(simd::count_true(&date_mask));
        });
        record(
            &mut results,
            &mut gated,
            level,
            "gather",
            "count_true",
            rows,
            scalar_ns,
            simd_ns,
            simd::count_true(&date_mask) as u64,
            true,
        );
    }

    // --- reduce family --------------------------------------------------
    {
        let a = simd::scalar::sum_f64(price);
        let b = simd::sum_f64(price);
        assert_eq!(a.to_bits(), b.to_bits(), "sum_f64 bitwise");
        let scalar_ns = median_ns(|| {
            std::hint::black_box(simd::scalar::sum_f64(price));
        });
        let simd_ns = median_ns(|| {
            std::hint::black_box(simd::sum_f64(price));
        });
        record(
            &mut results,
            &mut gated,
            level,
            "reduce",
            "sum_f64",
            rows,
            scalar_ns,
            simd_ns,
            b.to_bits(),
            true,
        );

        let a = simd::scalar::min_f64(quantity);
        let b = simd::min_f64(quantity);
        assert_eq!(a.to_bits(), b.to_bits(), "min_f64 bitwise");
        let scalar_ns = median_ns(|| {
            std::hint::black_box(simd::scalar::min_f64(quantity));
        });
        let simd_ns = median_ns(|| {
            std::hint::black_box(simd::min_f64(quantity));
        });
        record(
            &mut results,
            &mut gated,
            level,
            "reduce",
            "min_f64",
            rows,
            scalar_ns,
            simd_ns,
            b.to_bits(),
            true,
        );

        assert_eq!(simd::scalar::sum_i64(orderkey), simd::sum_i64(orderkey));
        let scalar_ns = median_ns(|| {
            std::hint::black_box(simd::scalar::sum_i64(orderkey));
        });
        let simd_ns = median_ns(|| {
            std::hint::black_box(simd::sum_i64(orderkey));
        });
        record(
            &mut results,
            &mut gated,
            level,
            "reduce",
            "sum_i64",
            rows,
            scalar_ns,
            simd_ns,
            simd::sum_i64(orderkey) as u64,
            true,
        );
    }

    // --- decode family --------------------------------------------------
    {
        // Synthetic store payloads over the same row count: a width-2
        // frame-of-reference run (the shipdate shape), a packed validity
        // bitmap, and a plain little-endian i64 section.
        let mut state = 0x9E37_79B9u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let for_bytes: Vec<u8> = (0..rows * 2).map(|_| next() as u8).collect();
        let mut a = vec![0i64; rows];
        let mut b = vec![0i64; rows];
        simd::scalar::decode_for(&for_bytes, 2, dlo, &mut a);
        simd::decode_for(&for_bytes, 2, dlo, &mut b);
        assert_eq!(a, b, "decode_for");
        let scalar_ns = median_ns(|| simd::scalar::decode_for(&for_bytes, 2, dlo, &mut a));
        let simd_ns = median_ns(|| simd::decode_for(&for_bytes, 2, dlo, &mut b));
        record(
            &mut results,
            &mut gated,
            level,
            "decode",
            "decode_for_w2",
            rows,
            scalar_ns,
            simd_ns,
            fnv(b.iter().map(|&x| x as u64)),
            true,
        );

        let packed: Vec<u8> = (0..rows.div_ceil(8)).map(|_| next() as u8).collect();
        let mut a = vec![false; rows];
        let mut b = vec![false; rows];
        simd::scalar::unpack_bits_into(&packed, &mut a);
        simd::unpack_bits_into(&packed, &mut b);
        assert_eq!(a, b, "unpack_bits");
        let scalar_ns = median_ns(|| simd::scalar::unpack_bits_into(&packed, &mut a));
        let simd_ns = median_ns(|| simd::unpack_bits_into(&packed, &mut b));
        record(
            &mut results,
            &mut gated,
            level,
            "decode",
            "unpack_validity",
            rows,
            scalar_ns,
            simd_ns,
            fnv(b.iter().map(|&x| x as u64)),
            true,
        );

        let plain: Vec<u8> = orderkey.iter().flat_map(|&x| x.to_le_bytes()).collect();
        let mut a = vec![0i64; rows];
        let mut b = vec![0i64; rows];
        simd::scalar::decode_i64_le(&plain, &mut a);
        simd::decode_i64_le(&plain, &mut b);
        assert_eq!(a, b, "decode_i64_le");
        let scalar_ns = median_ns(|| simd::scalar::decode_i64_le(&plain, &mut a));
        let simd_ns = median_ns(|| simd::decode_i64_le(&plain, &mut b));
        record(
            &mut results,
            &mut gated,
            level,
            "decode",
            "decode_i64_plain",
            rows,
            scalar_ns,
            simd_ns,
            fnv(b.iter().map(|&x| x as u64)),
            true,
        );
    }

    // --- end to end: Q1 / Q6 / Q19 with the ExecConfig knob -------------
    for qn in [1usize, 6, 19] {
        let sql = queries::query(qn);
        let run_query = |on: bool| {
            let q = session
                .compile(sql, QueryConfig::default().simd(on))
                .unwrap_or_else(|e| panic!("Q{qn} compiles: {e}"));
            let (out, _) = q
                .run(&session)
                .unwrap_or_else(|e| panic!("Q{qn} runs: {e}"));
            out
        };
        let scalar_out = frame_checksum(&run_query(false));
        let simd_out = frame_checksum(&run_query(true));
        assert_eq!(scalar_out, simd_out, "Q{qn}: simd on/off result parity");
        let scalar_ns = median_ns(|| {
            std::hint::black_box(run_query(false));
        });
        let simd_ns = median_ns(|| {
            std::hint::black_box(run_query(true));
        });
        // Whole-query timing includes planning and sort overhead common
        // to both paths, so e2e sites are reported but not gated.
        record(
            &mut results,
            &mut gated,
            level,
            "e2e",
            &format!("q{qn}"),
            rows,
            scalar_ns,
            simd_ns,
            simd_out,
            false,
        );
    }
    simd::set_enabled(true);

    let records: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("family", Json::str(r.family)),
                ("site", Json::str(r.site.as_str())),
                ("rows", Json::I64(r.rows as i64)),
                ("scalar_ns", Json::I64(r.scalar_ns as i64)),
                ("simd_ns", Json::I64(r.simd_ns as i64)),
                (
                    "speedup_simd",
                    Json::F64(r.scalar_ns as f64 / r.simd_ns.max(1) as f64),
                ),
                ("checksum", Json::str(format!("{:016x}", r.checksum))),
                ("gated", Json::Bool(r.gate)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("format", Json::str("tqp-bench-simd")),
        ("version", Json::I64(1)),
        ("scale_factor", Json::F64(scale_factor())),
        ("runs", Json::I64(runs() as i64)),
        ("level", Json::str(level.name())),
        ("results", Json::Arr(records)),
    ]);
    std::fs::write("BENCH_simd.json", doc.to_string()).expect("write BENCH_simd.json");
    println!("\nwrote BENCH_simd.json (level {})", level.name());

    if !gated.is_empty() {
        eprintln!("SIMD tier slower than 1.25x the scalar fallback:");
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
    level: simd::Level,
    family: &'static str,
    site: &str,
    rows: usize,
    scalar_ns: u64,
    simd_ns: u64,
    checksum: u64,
    gate: bool,
) {
    println!(
        "  {:<8} {:<22} {:>9} {:>13} {:>13} {:>8.2}x",
        family,
        site,
        rows,
        fmt_ns(scalar_ns),
        fmt_ns(simd_ns),
        scalar_ns as f64 / simd_ns.max(1) as f64
    );
    // 25% noise margin, same rationale as the expr gate. Sites at
    // or below 10k rows and scalar-pinned hosts are reported, not gated
    // (on a scalar host both columns time the same code).
    if gate && level != simd::Level::Scalar && rows > 10_000 && simd_ns * 4 > scalar_ns * 5 {
        gated.push(format!(
            "{family}/{site} ({rows} rows): simd {simd_ns} ns > 1.25x scalar {scalar_ns} ns"
        ));
    }
    results.push(SiteResult {
        family,
        site: site.to_string(),
        rows,
        scalar_ns,
        simd_ns,
        checksum,
        gate,
    });
}
