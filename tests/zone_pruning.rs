//! Prepared statements prune from the run's parameters, on an in-memory
//! and on a stored table alike: the point lookup `serve_point` serves
//! reads one 1 024-row block of the SF 0.2 `customer` table (30 000 rows,
//! sorted on `c_custkey`), its neighbour in another block reads that
//! block, a NULL key reads none, and a key range reads the blocks it
//! overlaps. No pruning state is cached in the prepared program: every
//! execution prunes from its own values, and answers what the unpruned
//! scan answers.

use std::sync::Arc;

use tqp_repro::core::{PreparedQuery, QueryConfig, Session};
use tqp_repro::data::tpch::{TpchConfig, TpchData};
use tqp_repro::data::DataFrame;
use tqp_repro::exec::ExecStats;
use tqp_repro::store::store_frame;
use tqp_tensor::Scalar;

const POINT: &str = "select c_custkey, c_acctbal from customer where c_custkey = $1";
const RANGE: &str = "select c_custkey, c_acctbal from customer where c_custkey between $1 and $2";

/// Blocks of the 30 000-row table: 29 full ones and a 304-row tail.
const BLOCKS: u64 = 30;

/// `(in-memory, stored)` sessions over the same SF 0.2 `customer` table;
/// the store file is cut into 1 024-row chunks, the in-memory block size.
fn sessions() -> [(&'static str, Session); 2] {
    let customer = TpchData::generate(&TpchConfig {
        scale_factor: 0.2,
        seed: 7,
    })
    .customer;
    assert_eq!(customer.nrows(), 30_000);
    let dir = std::env::temp_dir().join(format!("tqp_zone_pruning_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stored = store_frame(&customer, &dir.join("customer.tqps"), 1024).unwrap();
    assert_eq!(stored.n_chunks() as u64, BLOCKS);
    let mut mem = Session::new();
    mem.register_table("customer", customer);
    let mut st = Session::new();
    st.register_stored_table("customer", Arc::new(stored));
    [("in-memory", mem), ("stored", st)]
}

fn run(s: &Session, q: &PreparedQuery, params: &[Scalar]) -> (DataFrame, ExecStats) {
    q.execute(s, params).unwrap()
}

fn assert_same(a: &DataFrame, b: &DataFrame, ctx: &str) {
    assert_eq!(a.nrows(), b.nrows(), "{ctx}: rows");
    for i in 0..a.nrows() {
        assert_eq!(
            format!("{:?}", a.row(i)),
            format!("{:?}", b.row(i)),
            "{ctx}: row {i}"
        );
    }
}

#[test]
fn point_lookup_reads_one_block_per_execution() {
    for (kind, s) in sessions() {
        let pruned = s.prepare(POINT, QueryConfig::default()).unwrap();
        let unpruned = s
            .prepare(POINT, QueryConfig::default().prune_scans(false))
            .unwrap();
        let analyze = s
            .prepare(&format!("explain analyze {POINT}"), QueryConfig::default())
            .unwrap();
        // Key k sits at row k - 1: keys 5 and 20 000 lie in blocks 0 and 19.
        for key in [5i64, 20_000, 5] {
            let ctx = format!("{kind}, c_custkey = {key}");
            let params = [Scalar::I64(key)];
            let (got, stats) = run(&s, &pruned, &params);
            assert_eq!(
                (stats.chunks_scanned, stats.chunks_pruned),
                (1, BLOCKS - 1),
                "{ctx}"
            );
            assert_eq!(got.nrows(), 1, "{ctx}");
            assert_eq!(got.row(0)[0], Scalar::I64(key), "{ctx}");
            let (want, full) = run(&s, &unpruned, &params);
            assert_eq!((full.chunks_scanned, full.chunks_pruned), (BLOCKS, 0));
            assert_same(&want, &got, &ctx);

            let (plan, _) = run(&s, &analyze, &params);
            let lines: Vec<String> = (0..plan.nrows())
                .map(|i| plan.row(i)[0].to_string())
                .collect();
            let scan = lines
                .iter()
                .find(|l| l.contains("Scan(customer)"))
                .unwrap_or_else(|| panic!("{ctx}: no scan line in {lines:?}"));
            assert!(scan.contains(", chunks=1"), "{ctx}: {scan}");
        }
    }
}

#[test]
fn null_key_reads_no_block() {
    for (kind, s) in sessions() {
        let q = s.prepare(POINT, QueryConfig::default()).unwrap();
        let (got, stats) = run(&s, &q, &[Scalar::Null]);
        assert_eq!(got.nrows(), 0, "{kind}");
        assert_eq!(
            (stats.chunks_scanned, stats.chunks_pruned),
            (0, BLOCKS),
            "{kind}"
        );
        // The same handle prunes from the next run's value again.
        let (got, stats) = run(&s, &q, &[Scalar::I64(1)]);
        assert_eq!(got.nrows(), 1, "{kind}");
        assert_eq!(stats.chunks_scanned, 1, "{kind}");
    }
}

#[test]
fn key_range_reads_the_blocks_it_overlaps() {
    for (kind, s) in sessions() {
        let pruned = s.prepare(RANGE, QueryConfig::default()).unwrap();
        let unpruned = s
            .prepare(RANGE, QueryConfig::default().prune_scans(false))
            .unwrap();
        // Rows 2 999..=5 199 span blocks 2..=5; rows 1 023..=1 024 straddle
        // the boundary of blocks 0 and 1; the tail block holds 29 696..
        for (lo, hi, blocks) in [
            (3_000i64, 5_200i64, 4u64),
            (1_024, 1_025, 2),
            (29_990, 40_000, 1),
            (40_000, 50_000, 0),
        ] {
            let ctx = format!("{kind}, between {lo} and {hi}");
            let params = [Scalar::I64(lo), Scalar::I64(hi)];
            let (got, stats) = run(&s, &pruned, &params);
            assert_eq!(
                (stats.chunks_scanned, stats.chunks_pruned),
                (blocks, BLOCKS - blocks),
                "{ctx}"
            );
            let (want, _) = run(&s, &unpruned, &params);
            assert_eq!(
                got.nrows() as i64,
                (hi.min(30_000) - lo + 1).max(0),
                "{ctx}"
            );
            assert_same(&want, &got, &ctx);
        }
    }
}
