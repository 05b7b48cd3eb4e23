//! Correctness is part of the command: every result the benchmark times is
//! compared with an oracle that does not share the engine's kernels.
//!
//! Analytic statements are checked against digests produced by
//! `Session::sql_baseline` (the row engine). Those cost ~25 s per dataset at
//! SF 0.2, far more than a run may spend in set-up, so they are computed once
//! (`--regen-golden`) and committed under `golden/`, keyed by workload, scale
//! factor and data seed. Each file carries a fingerprint of the inputs it
//! was computed from; when the generator, the store or model training
//! changes the inputs, the fingerprint no longer matches and the oracle is
//! recomputed through the row engine and cached under `out/`.
//!
//! A digest is exact on every non-float cell and tolerant on floats: a
//! float column is compared by its sum to 1e-9 relative, so a later change
//! to summation order inside a kernel does not read as a wrong result.

use std::path::{Path, PathBuf};

use tqp_data::{Column, DataFrame};
use tqp_json::Json;

use crate::rng::{fnv_mix, FNV_OFFSET};

/// Relative tolerance on float column sums.
const FLOAT_TOLERANCE: f64 = 1e-9;

#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    pub rows: u64,
    /// Order-sensitive hash over every non-float cell, column by column.
    pub exact: u64,
    /// Sum of each float column, in column order.
    pub float_sums: Vec<f64>,
}

/// Fold a string into a running hash, length first so that `["ab","c"]`
/// and `["a","bc"]` differ.
fn mix_str(mut h: u64, s: &str) -> u64 {
    h = fnv_mix(h, s.len() as u64);
    for b in s.bytes() {
        h = fnv_mix(h, b as u64);
    }
    h
}

impl Digest {
    pub fn of(frame: &DataFrame) -> Digest {
        let mut exact = fnv_mix(FNV_OFFSET, frame.ncols() as u64);
        let mut float_sums = Vec::new();
        for col in frame.columns() {
            match col {
                Column::Float64(v) => float_sums.push(v.iter().sum()),
                Column::Int64(v) | Column::Date(v) => {
                    for &x in v.iter() {
                        exact = fnv_mix(exact, x as u64);
                    }
                }
                Column::Bool(v) => {
                    for &x in v.iter() {
                        exact = fnv_mix(exact, x as u64);
                    }
                }
                Column::Str(v) => {
                    for s in v.iter() {
                        exact = mix_str(exact, s);
                    }
                }
            }
        }
        Digest {
            rows: frame.nrows() as u64,
            exact,
            float_sums,
        }
    }

    /// True when `self` (measured) agrees with `oracle`.
    pub fn matches(&self, oracle: &Digest) -> bool {
        self.rows == oracle.rows
            && self.exact == oracle.exact
            && self.float_sums.len() == oracle.float_sums.len()
            && self
                .float_sums
                .iter()
                .zip(&oracle.float_sums)
                .all(|(a, b)| floats_agree(*a, *b))
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rows", Json::I64(self.rows as i64)),
            ("exact", Json::str(format!("{:016x}", self.exact))),
            (
                "float_sums",
                Json::arr(self.float_sums.iter().map(|v| Json::F64(*v))),
            ),
        ])
    }

    fn from_json(doc: &Json) -> Option<Digest> {
        Some(Digest {
            rows: doc.get("rows")?.as_i64()? as u64,
            exact: u64::from_str_radix(doc.get("exact")?.as_str()?, 16).ok()?,
            float_sums: doc
                .get("float_sums")?
                .as_arr()?
                .iter()
                .map(Json::as_f64)
                .collect::<Option<Vec<f64>>>()?,
        })
    }
}

pub fn floats_agree(a: f64, b: f64) -> bool {
    (a - b).abs() <= FLOAT_TOLERANCE * a.abs().max(b.abs()).max(1e-6)
}

/// Fingerprint of a table: row count plus a hash of every cell. Cheap
/// enough for set-up (one pass over the columns), and it moves whenever the
/// generator does.
pub fn frame_fingerprint(frame: &DataFrame) -> u64 {
    let d = Digest::of(frame);
    let mut h = fnv_mix(d.exact, d.rows);
    for s in d.float_sums {
        h = fnv_mix(h, s.to_bits());
    }
    h
}

/// The oracle of one workload at one `(scale factor, data seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Golden {
    /// Hash of the inputs the digests were computed from.
    pub fingerprint: u64,
    /// `(statement name, digest)` in statement order.
    pub statements: Vec<(String, Digest)>,
}

impl Golden {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "fingerprint",
                Json::str(format!("{:016x}", self.fingerprint)),
            ),
            (
                "statements",
                Json::Obj(
                    self.statements
                        .iter()
                        .map(|(n, d)| (n.clone(), d.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Option<Golden> {
        let fingerprint = u64::from_str_radix(doc.get("fingerprint")?.as_str()?, 16).ok()?;
        let Json::Obj(pairs) = doc.get("statements")? else {
            return None;
        };
        let statements = pairs
            .iter()
            .map(|(n, d)| Some((n.clone(), Digest::from_json(d)?)))
            .collect::<Option<Vec<_>>>()?;
        Some(Golden {
            fingerprint,
            statements,
        })
    }

    pub fn digest(&self, statement: &str) -> Option<&Digest> {
        self.statements
            .iter()
            .find(|(n, _)| n == statement)
            .map(|(_, d)| d)
    }
}

/// `benchmark/`, fixed when the binary is built; the driver builds and runs
/// in the same checkout.
pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Traces, the oracle cache and scratch files: ignored by git.
pub fn out_dir() -> PathBuf {
    benchmark_dir().join("out")
}

fn golden_file(dir: &Path, workload: &str, sf: f64, data_seed: u64) -> PathBuf {
    dir.join(format!("{workload}_sf{sf}_d{data_seed}.json"))
}

fn read_golden(path: &Path, fingerprint: u64) -> Option<Golden> {
    let text = std::fs::read_to_string(path).ok()?;
    let golden = Golden::from_json(&Json::parse(&text).ok()?)?;
    (golden.fingerprint == fingerprint).then_some(golden)
}

/// The oracle for `(workload, sf, data_seed)` whose inputs hash to
/// `fingerprint`: the committed file, else the cached one, else `compute`
/// (the row engine) — written to `golden/` when `regen`, to `out/` otherwise.
pub fn load_or_compute_golden(
    workload: &str,
    sf: f64,
    data_seed: u64,
    fingerprint: u64,
    regen: bool,
    compute: impl FnOnce() -> Vec<(String, Digest)>,
) -> Golden {
    let committed = golden_file(&benchmark_dir().join("golden"), workload, sf, data_seed);
    let cached = golden_file(&out_dir(), workload, sf, data_seed);
    if !regen {
        if let Some(g) =
            read_golden(&committed, fingerprint).or_else(|| read_golden(&cached, fingerprint))
        {
            return g;
        }
        eprintln!(
            "note: no oracle for {workload} sf={sf} data_seed={data_seed} with input \
             fingerprint {fingerprint:016x}; computing it with the row engine (slow, cached under out/)"
        );
    }
    let golden = Golden {
        fingerprint,
        statements: compute(),
    };
    let target = if regen { committed } else { cached };
    if let Some(dir) = target.parent() {
        std::fs::create_dir_all(dir).expect("create oracle directory");
    }
    std::fs::write(&target, golden.to_json().to_string_pretty() + "\n").expect("write oracle file");
    golden
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqp_data::frame::df;

    fn frame(ids: Vec<i64>, vals: Vec<f64>, names: Vec<&str>) -> DataFrame {
        df(vec![
            ("id", Column::from_i64(ids)),
            ("v", Column::from_f64(vals)),
            (
                "s",
                Column::from_str(names.into_iter().map(String::from).collect()),
            ),
        ])
    }

    #[test]
    fn digest_is_exact_on_keys_and_tolerant_on_float_order() {
        let a = Digest::of(&frame(vec![1, 2], vec![0.1, 0.2], vec!["ab", "c"]));
        // Same float sum reached in another order: last-bit differences pass.
        let b = Digest::of(&frame(vec![1, 2], vec![0.2, 0.1 + 1e-17], vec!["ab", "c"]));
        assert!(a.matches(&b));
        let wrong_key = Digest::of(&frame(vec![1, 3], vec![0.1, 0.2], vec!["ab", "c"]));
        let wrong_split = Digest::of(&frame(vec![1, 2], vec![0.1, 0.2], vec!["a", "bc"]));
        let wrong_sum = Digest::of(&frame(vec![1, 2], vec![0.1, 0.2001], vec!["ab", "c"]));
        let wrong_rows = Digest::of(&frame(vec![1], vec![0.3], vec!["abc"]));
        for d in [wrong_key, wrong_split, wrong_sum, wrong_rows] {
            assert!(!a.matches(&d), "{d:?}");
        }
    }

    #[test]
    fn golden_round_trips_through_json() {
        let g = Golden {
            fingerprint: 0xdead_beef_0123_4567,
            statements: vec![(
                "q01".into(),
                Digest {
                    rows: 4,
                    exact: u64::MAX,
                    float_sums: vec![1.0 / 3.0, 1e18],
                },
            )],
        };
        let text = g.to_json().to_string_pretty();
        assert_eq!(Golden::from_json(&Json::parse(&text).unwrap()), Some(g));
    }
}
