//! Randomized differential fuzzing: seeded SQL generation over the TPC-H
//! schema, every generated query executed on all four tensor backends
//! and checked cell-for-cell against the `tqp-baseline` row-Volcano
//! oracle.
//!
//! The generator covers projections (arithmetic, CASE), filters
//! (comparisons, BETWEEN, LIKE, IN), comma-joins on the TPC-H foreign
//! keys and string equi-joins against a small `flags` table whose key
//! column is wider than the TPC-H flag columns it joins, GROUP BY with the
//! full aggregate set, DISTINCT, and ORDER BY.
//! On a mismatch the failing query is **shrunk** — filters, projections,
//! and clauses are removed while the failure reproduces — and the minimal
//! SQL plus the seed is printed so the case can be replayed with
//! `TQP_FUZZ_SEED`.
//!
//! **Stored-table mode**: every query additionally runs against a second
//! session whose TPC-H tables live in `tqp-store` files (chunked,
//! compressed, zone-map-pruned scans). Both sessions hold identical data
//! and identical catalog statistics, so they compile identical plans —
//! the stored run is asserted **bitwise** equal to the in-memory run,
//! not just value-tolerant.
//!
//! Budget knobs (CI pins them): `TQP_FUZZ_QUERIES` (default 40),
//! `TQP_FUZZ_SEED` (default 0xC0FFEE), `TQP_FUZZ_SF` (default 0.01).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::data::frame::df;
use tqp_repro::data::tpch::{TpchConfig, TpchData};
use tqp_repro::data::{Column, DataFrame};
use tqp_repro::exec::Backend;
use tqp_tensor::Scalar;

// ---------------------------------------------------------------------
// Schema metadata for generation
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Int,
    Float,
    /// String with a known low-cardinality value set.
    Enum(&'static [&'static str]),
    /// Free-form string (LIKE-only predicates).
    Text,
    Date,
}

struct Col {
    name: &'static str,
    kind: Kind,
}

const fn col(name: &'static str, kind: Kind) -> Col {
    Col { name, kind }
}

struct Source {
    /// FROM clause text.
    from: &'static str,
    /// Equi-join condition riding as the first WHERE conjunct (None for
    /// single tables).
    join: Option<&'static str>,
    cols: &'static [Col],
}

const LINEITEM_COLS: &[Col] = &[
    col("l_orderkey", Kind::Int),
    col("l_partkey", Kind::Int),
    col("l_suppkey", Kind::Int),
    col("l_linenumber", Kind::Int),
    col("l_quantity", Kind::Float),
    col("l_extendedprice", Kind::Float),
    col("l_discount", Kind::Float),
    col("l_returnflag", Kind::Enum(&["A", "N", "R"])),
    col("l_linestatus", Kind::Enum(&["O", "F"])),
    col("l_shipdate", Kind::Date),
    col("l_comment", Kind::Text),
];

const ORDERS_COLS: &[Col] = &[
    col("o_orderkey", Kind::Int),
    col("o_custkey", Kind::Int),
    col("o_totalprice", Kind::Float),
    col("o_orderdate", Kind::Date),
    col("o_orderstatus", Kind::Enum(&["O", "F", "P"])),
    col("o_shippriority", Kind::Int),
    col("o_comment", Kind::Text),
];

const PART_COLS: &[Col] = &[
    col("p_partkey", Kind::Int),
    col("p_size", Kind::Int),
    col("p_retailprice", Kind::Float),
    col("p_brand", Kind::Text),
    col("p_type", Kind::Text),
];

const CUSTOMER_COLS: &[Col] = &[
    col("c_custkey", Kind::Int),
    col("c_nationkey", Kind::Int),
    col("c_acctbal", Kind::Float),
    col("c_mktsegment", Kind::Text),
    col("c_phone", Kind::Text),
];

const JOIN_LO: &[Col] = &[
    col("l_quantity", Kind::Float),
    col("l_extendedprice", Kind::Float),
    col("l_discount", Kind::Float),
    col("l_returnflag", Kind::Enum(&["A", "N", "R"])),
    col("l_shipdate", Kind::Date),
    col("o_totalprice", Kind::Float),
    col("o_orderstatus", Kind::Enum(&["O", "F", "P"])),
    col("o_orderdate", Kind::Date),
    col("o_shippriority", Kind::Int),
];

const JOIN_OC: &[Col] = &[
    col("o_totalprice", Kind::Float),
    col("o_orderdate", Kind::Date),
    col("o_orderstatus", Kind::Enum(&["O", "F", "P"])),
    col("c_acctbal", Kind::Float),
    col("c_nationkey", Kind::Int),
    col("c_mktsegment", Kind::Text),
];

const JOIN_LP: &[Col] = &[
    col("l_quantity", Kind::Float),
    col("l_extendedprice", Kind::Float),
    col("l_shipdate", Kind::Date),
    col("p_size", Kind::Int),
    col("p_retailprice", Kind::Float),
    col("p_brand", Kind::Text),
];

/// `flags.f_flag` holds the one-letter TPC-H flags beside a two-letter
/// value, so it is wider than the columns it joins.
const FLAG_LABELS: &[&str] = &["accepted", "none", "returned", "open", "final", "wide"];

const JOIN_LF: &[Col] = &[
    col("l_quantity", Kind::Float),
    col("l_extendedprice", Kind::Float),
    col("l_returnflag", Kind::Enum(&["A", "N", "R"])),
    col("l_linestatus", Kind::Enum(&["O", "F"])),
    col("f_label", Kind::Enum(FLAG_LABELS)),
    col("f_weight", Kind::Int),
];

const JOIN_OF: &[Col] = &[
    col("o_totalprice", Kind::Float),
    col("o_orderdate", Kind::Date),
    col("o_orderstatus", Kind::Enum(&["O", "F", "P"])),
    col("f_flag", Kind::Enum(&["A", "O", "F", "XX"])),
    col("f_label", Kind::Enum(FLAG_LABELS)),
    col("f_weight", Kind::Int),
];

const SOURCES: &[Source] = &[
    Source {
        from: "lineitem",
        join: None,
        cols: LINEITEM_COLS,
    },
    Source {
        from: "orders",
        join: None,
        cols: ORDERS_COLS,
    },
    Source {
        from: "part",
        join: None,
        cols: PART_COLS,
    },
    Source {
        from: "customer",
        join: None,
        cols: CUSTOMER_COLS,
    },
    Source {
        from: "lineitem, orders",
        join: Some("l_orderkey = o_orderkey"),
        cols: JOIN_LO,
    },
    Source {
        from: "orders, customer",
        join: Some("o_custkey = c_custkey"),
        cols: JOIN_OC,
    },
    Source {
        from: "lineitem, part",
        join: Some("l_partkey = p_partkey"),
        cols: JOIN_LP,
    },
    Source {
        from: "lineitem, flags",
        join: Some("l_returnflag = f_flag"),
        cols: JOIN_LF,
    },
    Source {
        from: "orders, flags",
        join: Some("o_orderstatus = f_flag"),
        cols: JOIN_OF,
    },
];

/// The `flags` table of the string equi-join sources.
fn flags() -> DataFrame {
    let strs = |v: &[&str]| Column::from_str(v.iter().map(|s| s.to_string()).collect());
    df(vec![
        ("f_flag", strs(&["A", "N", "R", "O", "F", "XX"])),
        ("f_label", strs(FLAG_LABELS)),
        ("f_weight", Column::from_i64((1..=6).collect())),
    ])
}

const LIKE_PATTERNS: &[&str] = &["%a%", "%the%", "s%", "%5", "%r%e%", "B%"];

// ---------------------------------------------------------------------
// Query specs (structured so shrinking can remove pieces)
// ---------------------------------------------------------------------

#[derive(Clone)]
struct Spec {
    from: String,
    join: Option<String>,
    filters: Vec<String>,
    /// `(item_sql, alias)` select items; group keys first when grouped.
    select: Vec<(String, String)>,
    /// Number of leading select items that are group keys (0 = ungrouped).
    n_group_keys: usize,
    distinct: bool,
    order_by: Vec<String>,
    /// `LIMIT k`; set only with `order_by` naming every output alias, a
    /// total order on distinct rows, so the kept multiset is well defined.
    limit: Option<usize>,
}

impl Spec {
    fn to_sql(&self) -> String {
        let mut s = String::from("select ");
        if self.distinct {
            s.push_str("distinct ");
        }
        let items: Vec<String> = self
            .select
            .iter()
            .map(|(e, a)| format!("{e} as {a}"))
            .collect();
        s.push_str(&items.join(", "));
        s.push_str(&format!(" from {}", self.from));
        let conj: Vec<&String> = self.join.iter().chain(self.filters.iter()).collect();
        if !conj.is_empty() {
            s.push_str(" where ");
            let parts: Vec<&str> = conj.iter().map(|c| c.as_str()).collect();
            s.push_str(&parts.join(" and "));
        }
        if self.n_group_keys > 0 {
            let keys: Vec<&str> = self.select[..self.n_group_keys]
                .iter()
                .map(|(e, _)| e.as_str())
                .collect();
            s.push_str(&format!(" group by {}", keys.join(", ")));
        }
        if !self.order_by.is_empty() {
            s.push_str(&format!(" order by {}", self.order_by.join(", ")));
        }
        if let Some(k) = self.limit {
            s.push_str(&format!(" limit {k}"));
        }
        s
    }
}

fn rand_date(rng: &mut StdRng) -> String {
    format!(
        "date '{:04}-{:02}-{:02}'",
        rng.gen_range(1992i64..=1998),
        rng.gen_range(1i64..=12),
        rng.gen_range(1i64..=28)
    )
}

fn predicate(rng: &mut StdRng, c: &Col) -> String {
    let name = c.name;
    match c.kind {
        Kind::Int => match rng.gen_range(0u32..3) {
            0 => format!("{name} < {}", rng.gen_range(1i64..2000)),
            1 => format!("{name} >= {}", rng.gen_range(1i64..2000)),
            _ => format!(
                "{name} % {} = {}",
                rng.gen_range(2i64..9),
                rng.gen_range(0i64..2)
            ),
        },
        Kind::Float => match rng.gen_range(0u32..3) {
            0 => format!("{name} < {:.2}", rng.gen_range(0.0f64..2000.0)),
            1 => format!("{name} > {:.2}", rng.gen_range(0.0f64..100.0)),
            _ => {
                let lo = rng.gen_range(0.0f64..500.0);
                format!(
                    "{name} between {:.2} and {:.2}",
                    lo,
                    lo + rng.gen_range(1.0f64..500.0)
                )
            }
        },
        Kind::Enum(vals) => {
            if rng.gen_bool(0.5) || vals.len() < 2 {
                let v = vals[rng.gen_range(0usize..vals.len())];
                format!("{name} = '{v}'")
            } else {
                let a = vals[rng.gen_range(0usize..vals.len())];
                let b = vals[rng.gen_range(0usize..vals.len())];
                let not = if rng.gen_bool(0.2) { "not " } else { "" };
                format!("{name} {not}in ('{a}', '{b}')")
            }
        }
        Kind::Text => {
            let p = LIKE_PATTERNS[rng.gen_range(0usize..LIKE_PATTERNS.len())];
            let not = if rng.gen_bool(0.2) { "not " } else { "" };
            format!("{name} {not}like '{p}'")
        }
        Kind::Date => {
            let op = if rng.gen_bool(0.5) { "<" } else { ">=" };
            format!("{name} {op} {}", rand_date(rng))
        }
    }
}

/// A numeric-valued select expression over the source's columns.
fn numeric_expr(rng: &mut StdRng, src: &Source) -> Option<String> {
    let numerics: Vec<&Col> = src
        .cols
        .iter()
        .filter(|c| matches!(c.kind, Kind::Float | Kind::Int))
        .collect();
    if numerics.is_empty() {
        return None;
    }
    let a = numerics[rng.gen_range(0usize..numerics.len())];
    Some(match rng.gen_range(0u32..4) {
        0 => a.name.to_string(),
        1 => format!("{} * {:.2}", a.name, rng.gen_range(0.5f64..3.0)),
        2 => {
            let b = numerics[rng.gen_range(0usize..numerics.len())];
            format!("{} + {}", a.name, b.name)
        }
        _ => {
            // CASE projection (Q14 shape): predicate over any column.
            let pc = &src.cols[rng.gen_range(0usize..src.cols.len())];
            let mut r2 = StdRng::seed_from_u64(rng.gen_range(0u64..u64::MAX / 2));
            format!(
                "case when {} then {} else 0 end",
                predicate(&mut r2, pc),
                a.name
            )
        }
    })
}

fn generate(rng: &mut StdRng) -> Spec {
    let src = &SOURCES[rng.gen_range(0usize..SOURCES.len())];
    let mut filters = Vec::new();
    for _ in 0..rng.gen_range(0usize..=3) {
        let c = &src.cols[rng.gen_range(0usize..src.cols.len())];
        filters.push(predicate(rng, c));
    }

    let grouped = rng.gen_bool(0.45);
    let mut select: Vec<(String, String)> = Vec::new();
    let mut n_group_keys = 0;
    let mut distinct = false;
    if grouped {
        // 1-2 group keys over enum/int columns (NULL-free, low-ish
        // cardinality), then 1-3 aggregates.
        let keyable: Vec<&Col> = src
            .cols
            .iter()
            .filter(|c| matches!(c.kind, Kind::Enum(_) | Kind::Int))
            .collect();
        let n_keys = rng.gen_range(1usize..=2.min(keyable.len()));
        for k in 0..n_keys {
            let c = keyable[rng.gen_range(0usize..keyable.len())];
            select.push((c.name.to_string(), format!("k{k}")));
        }
        n_group_keys = n_keys;
        let n_aggs = rng.gen_range(1usize..=3);
        for a in 0..n_aggs {
            let agg = match rng.gen_range(0u32..6) {
                0 => "count(*)".to_string(),
                f => {
                    let arg = numeric_expr(rng, src).unwrap_or_else(|| "1".into());
                    let func = ["sum", "avg", "min", "max", "count"][(f as usize - 1) % 5];
                    format!("{func}({arg})")
                }
            };
            select.push((agg, format!("a{a}")));
        }
    } else {
        distinct = rng.gen_bool(0.15);
        let n_items = rng.gen_range(1usize..=4);
        for i in 0..n_items {
            let item = if rng.gen_bool(0.3) {
                numeric_expr(rng, src)
                    .unwrap_or_else(|| src.cols[rng.gen_range(0usize..src.cols.len())].name.into())
            } else {
                src.cols[rng.gen_range(0usize..src.cols.len())]
                    .name
                    .to_string()
            };
            select.push((item, format!("c{i}")));
        }
        if distinct {
            // DISTINCT over wide free-text rows explodes Wasm sandbox
            // copies for no coverage gain; keep it narrow.
            select.truncate(2);
        }
    }

    // ORDER BY a random subset of output aliases (multiset comparison
    // makes this cosmetically optional, but it exercises Sort lowering) —
    // or by every alias under a LIMIT, which exercises the top-k sort.
    let mut order_by = Vec::new();
    let mut limit = None;
    if rng.gen_bool(0.5) {
        let n = if rng.gen_bool(0.4) {
            limit = Some(rng.gen_range(0usize..=30));
            select.len()
        } else {
            rng.gen_range(1usize..=select.len())
        };
        for (_, alias) in select.iter().take(n) {
            let dir = if rng.gen_bool(0.3) { " desc" } else { "" };
            order_by.push(format!("{alias}{dir}"));
        }
    }

    Spec {
        from: src.from.to_string(),
        join: src.join.map(|j| j.to_string()),
        filters,
        select,
        n_group_keys,
        distinct,
        order_by,
        limit,
    }
}

// ---------------------------------------------------------------------
// Differential check + shrinking
// ---------------------------------------------------------------------

/// Canonicalize a frame into sorted rows of strings (floats rounded) —
/// same comparison the TPC-H differential suite uses.
fn canon(frame: &DataFrame) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = (0..frame.nrows())
        .map(|i| {
            frame
                .row(i)
                .into_iter()
                .map(|s| match s {
                    Scalar::F64(v) => format!("{:.4}", v),
                    Scalar::F32(v) => format!("{:.4}", v),
                    other => other.to_string(),
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

fn frames_match(got: &DataFrame, expect: &DataFrame) -> Result<(), String> {
    if got.nrows() != expect.nrows() {
        return Err(format!("row count {} vs {}", got.nrows(), expect.nrows()));
    }
    if got.ncols() != expect.ncols() {
        return Err(format!("col count {} vs {}", got.ncols(), expect.ncols()));
    }
    let g = canon(got);
    let e = canon(expect);
    for (i, (gr, er)) in g.iter().zip(&e).enumerate() {
        for (c, (gv, ev)) in gr.iter().zip(er).enumerate() {
            if gv == ev {
                continue;
            }
            if let (Ok(a), Ok(b)) = (gv.parse::<f64>(), ev.parse::<f64>()) {
                let tol = 1e-6 * b.abs().max(1.0);
                if (a - b).abs() <= tol {
                    continue;
                }
            }
            return Err(format!("row {i} col {c}: {gv:?} vs {ev:?}"));
        }
    }
    Ok(())
}

/// Every backend, on the planner's plan.
const BACKENDS: &[Backend] = &[
    Backend::Eager,
    Backend::Fused,
    Backend::Graph,
    Backend::Wasm,
];

/// The differential pair: the classic in-memory session plus a session
/// whose tables are `tqp-store` files over the same data.
struct Sessions {
    mem: Session,
    stored: Session,
}

/// Bitwise row equality (both sessions run the same plan, so order and
/// float bits must match exactly).
fn frames_bitwise(got: &DataFrame, expect: &DataFrame) -> Result<(), String> {
    if got.nrows() != expect.nrows() {
        return Err(format!("row count {} vs {}", got.nrows(), expect.nrows()));
    }
    for i in 0..got.nrows() {
        let (g, e) = (format!("{:?}", got.row(i)), format!("{:?}", expect.row(i)));
        if g != e {
            return Err(format!("row {i}: {g} vs {e}"));
        }
    }
    Ok(())
}

/// Run one query through the oracle and every backend — on both the
/// in-memory and the store-backed session; Err holds the first
/// divergence (or compile/run failure).
fn check(sessions: &Sessions, sql: &str) -> Result<(), String> {
    let expect = sessions
        .mem
        .sql_baseline(sql)
        .map_err(|e| format!("oracle failed: {e}"))?;
    for &backend in BACKENDS {
        let label = format!("{backend:?}");
        let cfg = QueryConfig::default().backend(backend);
        let q = sessions
            .mem
            .compile(sql, cfg)
            .map_err(|e| format!("[{label}] compile failed: {e}"))?;
        let (got, _) = q
            .run(&sessions.mem)
            .map_err(|e| format!("[{label}] run failed: {e}"))?;
        frames_match(&got, &expect).map_err(|e| format!("[{label}] {e}"))?;
        // Stored-table mode: same query over the tqp-store scan path,
        // bitwise against the in-memory tensor result.
        let sq = sessions
            .stored
            .compile(sql, cfg)
            .map_err(|e| format!("[{label}/store] compile failed: {e}"))?;
        let (sgot, _) = sq
            .run(&sessions.stored)
            .map_err(|e| format!("[{label}/store] run failed: {e}"))?;
        frames_bitwise(&sgot, &got).map_err(|e| format!("[{label}/store] {e}"))?;
    }
    Ok(())
}

/// Candidate one-step reductions of a failing spec.
fn candidates(s: &Spec) -> Vec<Spec> {
    let mut out = Vec::new();
    for i in 0..s.filters.len() {
        let mut c = s.clone();
        c.filters.remove(i);
        out.push(c);
    }
    if s.limit.is_some() {
        let mut c = s.clone();
        c.limit = None;
        out.push(c);
    }
    if !s.order_by.is_empty() {
        let mut c = s.clone();
        c.order_by.clear();
        c.limit = None;
        out.push(c);
    }
    if s.distinct {
        let mut c = s.clone();
        c.distinct = false;
        out.push(c);
    }
    // Drop trailing aggregates (keep ≥ 1 select item past the group keys
    // when grouped, ≥ 1 item overall otherwise).
    let min_items = if s.n_group_keys > 0 {
        s.n_group_keys + 1
    } else {
        1
    };
    if s.select.len() > min_items {
        let mut c = s.clone();
        c.select.pop();
        c.order_by.clear();
        c.limit = None;
        out.push(c);
    }
    out
}

fn shrink(sessions: &Sessions, spec: Spec) -> Spec {
    let mut cur = spec;
    loop {
        let mut reduced = None;
        for cand in candidates(&cur) {
            if check(sessions, &cand.to_sql()).is_err() {
                reduced = Some(cand);
                break;
            }
        }
        match reduced {
            Some(c) => cur = c,
            None => return cur,
        }
    }
}

/// Build the in-memory/store-backed session pair over identical data.
fn build_sessions(data: &TpchData) -> Sessions {
    let mut mem = Session::new();
    mem.register_tpch(data);
    mem.register_table("flags", flags());
    let dir = std::env::temp_dir().join(format!("tqp_fuzz_store_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut stored = Session::new();
    let flags = flags();
    for (name, frame) in data.tables().into_iter().chain([("flags", &flags)]) {
        let path = dir.join(format!("{name}.tqps"));
        let table = tqp_repro::store::store_frame(frame, &path, 2048)
            .unwrap_or_else(|e| panic!("storing {name}: {e}"));
        stored.register_stored_table(name, std::sync::Arc::new(table));
    }
    Sessions { mem, stored }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn randomized_queries_match_the_oracle_on_all_backends() {
    let seed = env_u64("TQP_FUZZ_SEED", 0xC0FFEE);
    let n_queries = env_u64("TQP_FUZZ_QUERIES", 40) as usize;
    let sf = env_f64("TQP_FUZZ_SF", 0.01);

    let data = TpchData::generate(&TpchConfig {
        scale_factor: sf,
        seed: 20_220_901,
    });
    let sessions = build_sessions(&data);

    let mut rng = StdRng::seed_from_u64(seed);
    for qi in 0..n_queries {
        let spec = generate(&mut rng);
        let sql = spec.to_sql();
        if let Err(err) = check(&sessions, &sql) {
            let minimal = shrink(&sessions, spec);
            let minimal_sql = minimal.to_sql();
            let minimal_err = check(&sessions, &minimal_sql).unwrap_err();
            panic!(
                "fuzz query {qi} diverged (seed {seed:#x}):\n  original: {sql}\n  \
                 error:    {err}\n  shrunk:   {minimal_sql}\n  shrunk error: {minimal_err}\n\
                 replay with TQP_FUZZ_SEED={seed}"
            );
        }
    }
}

/// The fuzzer's own harness must keep flagging genuine divergences: an
/// intentionally wrong "oracle" comparison fails, and shrinking reaches a
/// smaller failing spec.
#[test]
fn fuzz_harness_detects_and_shrinks_divergence() {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.002,
        seed: 1,
    });
    let mut session = Session::new();
    session.register_tpch(&data);
    let a = session.sql("select o_orderkey from orders").unwrap();
    let b = session
        .sql("select o_orderkey from orders where o_orderkey % 2 = 0")
        .unwrap();
    assert!(frames_match(&a, &a).is_ok());
    assert!(frames_match(&a, &b).is_err());
}
