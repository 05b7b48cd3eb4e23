//! Zone-map pruning of in-memory tables: random `I64`, `F64`, `Date` and
//! `Bool` columns, sorted and shuffled, seeded with NaN, ±0.0,
//! `i64::MIN`/`MAX` and values on 1 024-row block boundaries, are
//! filtered with every comparison operator through a prepared statement.
//! The pruned scan answers bitwise what the unpruned scan answers, on all
//! four backends at workers 1, 2 and 4; a constant below every value
//! prunes every block; the blocks' zones equal the zones the store
//! writer records for the same frame cut into 1 024-row chunks; and a
//! partitioned aggregation over a pruned in-memory scan is bitwise the
//! unpruned and the stored one at workers 1, 2, 4 and 7.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::TestRng;
use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::data::frame::df;
use tqp_repro::data::ingest::frame_to_tensors;
use tqp_repro::data::zone::ZONE_BLOCK_ROWS;
use tqp_repro::data::{Column, DataFrame};
use tqp_repro::exec::Backend;
use tqp_repro::store::store_frame;
use tqp_tensor::Scalar;

const BACKENDS: [Backend; 4] = [
    Backend::Eager,
    Backend::Fused,
    Backend::Graph,
    Backend::Wasm,
];

const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

const DAY_NS: i64 = 86_400_000_000_000;

fn tmp_path(tag: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tqp_property_zones_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}_{seed}.tqps"))
}

/// Debug text with floats as bits: NaN payloads and ±0.0 compare exactly.
fn bits(s: &Scalar) -> String {
    match s {
        Scalar::F64(v) => format!("f64:{:016x}", v.to_bits()),
        other => format!("{other:?}"),
    }
}

fn frame_bits(f: &DataFrame) -> Vec<Vec<String>> {
    (0..f.nrows())
        .map(|i| f.row(i).iter().map(bits).collect())
        .collect()
}

struct Gen {
    rng: TestRng,
}

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.rng.below(n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }

    /// Integers from a narrow band (duplicates), with both extremes once.
    fn ints(&mut self, n: usize) -> Vec<i64> {
        (0..n)
            .map(|i| match i {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => self.below(3 * n) as i64 - n as i64,
            })
            .collect()
    }

    fn floats(&mut self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| match self.below(12) {
                0 => f64::NAN,
                1 => 0.0,
                2 => -0.0,
                3 => f64::INFINITY,
                _ => (self.below(2000) as f64 - 1000.0) / 8.0,
            })
            .collect()
    }
}

/// A random table of `n` rows; `sorted` orders every column (floats by
/// `total_cmp`), otherwise the rows are shuffled.
fn gen_frame(g: &mut Gen, n: usize, sorted: bool) -> DataFrame {
    let mut k = g.ints(n);
    let mut f = g.floats(n);
    let mut d: Vec<i64> = (0..n)
        .map(|_| (8000 + g.below(400) as i64) * DAY_NS)
        .collect();
    let mut b: Vec<bool> = (0..n).map(|_| g.below(2) == 0).collect();
    if sorted {
        k.sort();
        f.sort_by(f64::total_cmp);
        d.sort();
        b.sort();
    } else {
        g.shuffle(&mut k);
        g.shuffle(&mut f);
    }
    df(vec![
        ("k", Column::from_i64(k)),
        ("f", Column::from_f64(f)),
        ("d", Column::from_date_ns(d)),
        ("b", Column::from_bool(b)),
    ])
}

/// Constants for column `c`: the values on both sides of every block
/// boundary, the extremes, and a random row's value.
fn probes(g: &mut Gen, frame: &DataFrame, c: usize) -> Vec<Scalar> {
    let n = frame.nrows();
    let col = frame.column(c);
    let mut out: Vec<Scalar> = (ZONE_BLOCK_ROWS..n)
        .step_by(ZONE_BLOCK_ROWS)
        .flat_map(|r| [col.get(r - 1), col.get(r)])
        .collect();
    out.push(col.get(g.below(n)));
    out.extend(match c {
        0 => vec![Scalar::I64(i64::MIN), Scalar::I64(i64::MAX)],
        1 => vec![
            Scalar::F64(f64::NAN),
            Scalar::F64(0.0),
            Scalar::F64(-0.0),
            Scalar::F64(f64::NEG_INFINITY),
        ],
        2 => vec![Scalar::I64(7000 * DAY_NS), Scalar::I64(9000 * DAY_NS)],
        _ => vec![Scalar::Bool(false), Scalar::Bool(true)],
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pruned_in_memory_scans_are_bitwise_unpruned(seed in any::<u64>()) {
        let mut g = Gen { rng: TestRng::new(seed) };
        let n = [1, 1023, 1024, 1025, 3 * 1024, 1 + g.below(5000)][g.below(6)];
        let sorted = g.below(2) == 0;
        let frame = gen_frame(&mut g, n, sorted);
        let blocks = n.div_ceil(ZONE_BLOCK_ROWS) as u64;

        // The blocks' zones are the store writer's chunk zones.
        let stored = store_frame(&frame, &tmp_path("zones", seed), ZONE_BLOCK_ROWS).unwrap();
        let table = frame_to_tensors(&frame);
        for c in 0..frame.ncols() {
            let zones = table.zones(c).expect("every column kind has zones");
            prop_assert_eq!(zones.len(), stored.n_chunks());
            for (chunk, z) in zones.iter().enumerate() {
                let s = stored.zone(chunk, c);
                let key = |z: &tqp_repro::store::ZoneMap| {
                    (z.min.as_ref().map(bits), z.max.as_ref().map(bits), z.null_count)
                };
                prop_assert_eq!(key(z), key(s), "column {} chunk {}", c, chunk);
            }
        }

        let mut s = Session::new();
        s.register_table("t", frame.clone());
        for (c, name) in ["k", "f", "d", "b"].into_iter().enumerate() {
            let values = probes(&mut g, &frame, c);
            for op in OPS {
                let value = values[g.below(values.len())].clone();
                let sql = format!("select k, f, d, b from t where {name} {op} $1");
                let params = [value.clone()];
                for backend in BACKENDS {
                    for workers in [1usize, 2, 4] {
                        let cfg = QueryConfig::default().backend(backend).workers(workers);
                        let ctx = format!("{sql} [{value:?}] {backend:?} workers={workers} n={n}");
                        let q = s.prepare(&sql, cfg).unwrap();
                        let (got, stats) = q.execute(&s, &params).unwrap();
                        let full = s.prepare(&sql, cfg.prune_scans(false)).unwrap();
                        let (want, unpruned) = full.execute(&s, &params).unwrap();
                        prop_assert_eq!(frame_bits(&got), frame_bits(&want), "{}", ctx);
                        prop_assert_eq!(stats.chunks_scanned + stats.chunks_pruned, blocks);
                        prop_assert_eq!((unpruned.chunks_scanned, unpruned.chunks_pruned), (blocks, 0));
                    }
                }
            }
        }

        // Below every value: every block prunes, and nothing is answered.
        let q = s
            .prepare("select k, f from t where k < $1", QueryConfig::default())
            .unwrap();
        let (got, stats) = q.execute(&s, &[Scalar::I64(i64::MIN)]).unwrap();
        prop_assert_eq!(got.nrows(), 0);
        prop_assert_eq!((stats.chunks_scanned, stats.chunks_pruned), (0, blocks));
        // On a sorted key, everything below the second block's first value
        // lies in the first block.
        if sorted && n > ZONE_BLOCK_ROWS {
            let first = frame.column(0).get(ZONE_BLOCK_ROWS);
            let (_, stats) = q.execute(&s, &[first]).unwrap();
            prop_assert_eq!((stats.chunks_scanned, stats.chunks_pruned), (1, blocks - 1));
        }
    }
}

/// A group-by whose groups outnumber half a morsel takes the partitioned
/// shape: every group folds its rows in input order inside one
/// partition, so the pruned in-memory scan, the unpruned one and the
/// stored one agree bitwise at every worker count although they cut the
/// rows into different morsels.
#[test]
fn partitioned_aggregation_over_pruned_blocks_is_bitwise() {
    let n = 100_000i64;
    let frame = df(vec![
        ("k", Column::from_i64((0..n).collect())),
        (
            "grp",
            Column::from_i64((0..n).map(|i| (i * 7919) % 20_011).collect()),
        ),
        (
            "v",
            Column::from_f64((0..n).map(|i| ((i % 9973) as f64) * 1e12 - 5e15).collect()),
        ),
    ]);
    let stored = store_frame(&frame, &tmp_path("partitioned", 0), 1000).unwrap();
    let mut mem = Session::new();
    mem.register_table("t", frame);
    let mut st = Session::new();
    st.register_stored_table("t", Arc::new(stored));

    let sql = "select grp, sum(v) as s, avg(v) as a, count(*) as c, count(distinct k) as d \
               from t where k >= 30000 and k < 91000 and grp <> 3 group by grp";
    let plan = mem.sql(&format!("explain {sql}")).unwrap();
    let text = format!("{:?}", plan.column(0));
    assert!(text.contains("HashAggregate(partitioned"), "{text}");
    for workers in [1usize, 2, 4, 7] {
        let cfg = QueryConfig::default().workers(workers);
        let (want, full) = mem
            .compile(sql, cfg.prune_scans(false))
            .unwrap()
            .run(&mem)
            .unwrap();
        assert_eq!(full.chunks_pruned, 0);
        let (pruned, stats) = mem.compile(sql, cfg).unwrap().run(&mem).unwrap();
        // Blocks 0..=28 lie below 30 000 and 89..=97 at or above 91 000.
        assert_eq!(
            (stats.chunks_scanned, stats.chunks_pruned),
            (60, 38),
            "workers={workers}"
        );
        assert_eq!(frame_bits(&pruned), frame_bits(&want), "workers={workers}");
        let (stored, _) = st.compile(sql, cfg).unwrap().run(&st).unwrap();
        assert_eq!(
            frame_bits(&stored),
            frame_bits(&want),
            "stored, workers={workers}"
        );
    }
}
