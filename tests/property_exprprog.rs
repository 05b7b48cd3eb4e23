//! Proptest parity suite for the compiled **ExprProgram** micro-IR:
//! random well-typed expression trees over every dtype (Int64, Float64,
//! Str, Bool, Date) with NULL-bearing (validity-masked) columns, asserted
//! **bitwise** equivalent between the compiled flat program and the legacy
//! tree interpreter — on both execution shapes:
//!
//! * vectorized: `exprprog::eval_all` vs `expr::eval` (value tensors
//!   compared bit-for-bit, validity masks exactly);
//! * scalar rows: `exprprog::eval_row_outputs` vs
//!   `tqp_baseline::eval::eval_expr` (exact `Scalar` equality, including
//!   NULL propagation).
//!
//! Worker-count invariance is covered two ways: expression evaluation is
//! asserted morsel-invariant (evaluating two slices and concatenating
//! equals evaluating the whole batch — morsels are exactly how worker
//! threads see batches), and the fused filter's register-compacting
//! stepper is asserted equivalent to the eager one-pass mask fold on
//! random conjunct sets. (Whole-query bitwise parity at workers 1 vs 4 is
//! locked in by `tests/parallel_parity.rs` on all 22 TPC-H queries.)

use proptest::prelude::*;
use proptest::TestRng;
use tqp_repro::data::LogicalType;
use tqp_repro::exec::batch::Batch;
use tqp_repro::exec::expr as tree;
use tqp_repro::exec::exprfuse;
use tqp_repro::exec::exprprog;
use tqp_repro::ir::expr::{BinOp, BoundExpr as E, ScalarFunc};
use tqp_repro::ml::ModelRegistry;
use tqp_tensor::{DType, Scalar, Tensor};

const N_ROWS: usize = 48;

/// Column layout of the test batch:
/// 0 id:Int64, 1 v:Float64, 2 s:Str, 3 flag:Bool,
/// 4 nv:Int64 (nullable), 5 d:Date, 6 nf:Float64 (nullable).
fn test_batch() -> Batch {
    let ids: Vec<i64> = (0..N_ROWS as i64).map(|i| (i * 7) % 23 - 5).collect();
    let vs: Vec<f64> = (0..N_ROWS)
        .map(|i| ((i * 13) % 97) as f64 * 1.5 - 40.0)
        .collect();
    let words = ["alpha", "ab", "abc", "beta", "bab", "", "cabal", "azc"];
    let ss: Vec<&str> = (0..N_ROWS).map(|i| words[i % words.len()]).collect();
    let flags: Vec<bool> = (0..N_ROWS).map(|i| i % 3 != 1).collect();
    let nvs: Vec<i64> = (0..N_ROWS as i64).map(|i| (i * 11) % 17).collect();
    let nv_valid: Vec<bool> = (0..N_ROWS).map(|i| i % 4 != 2).collect();
    let base = tqp_repro::data::dates::parse_to_ns("1994-03-15").unwrap();
    let ds: Vec<i64> = (0..N_ROWS as i64)
        .map(|i| base + i * 97 * 86_400_000_000_000)
        .collect();
    let nfs: Vec<f64> = (0..N_ROWS).map(|i| (i % 29) as f64 - 14.0).collect();
    let nf_valid: Vec<bool> = (0..N_ROWS).map(|i| i % 5 != 3).collect();
    Batch::with_validity(
        vec![
            Tensor::from_i64(ids),
            Tensor::from_f64(vs),
            Tensor::from_strings(&ss, 0),
            Tensor::from_bool(flags),
            Tensor::from_i64(nvs),
            Tensor::from_i64(ds),
            Tensor::from_f64(nfs),
        ],
        vec![
            None,
            None,
            None,
            None,
            Some(Tensor::from_bool(nv_valid)),
            None,
            Some(Tensor::from_bool(nf_valid)),
        ],
    )
}

/// The row-format mirror of the batch: invalid cells become `Scalar::Null`
/// (the row engine's NULL representation).
fn test_rows(batch: &Batch) -> Vec<Vec<Scalar>> {
    (0..batch.nrows())
        .map(|i| {
            (0..batch.ncols())
                .map(|c| {
                    let valid = batch.validity[c]
                        .as_ref()
                        .map(|m| m.as_bool()[i])
                        .unwrap_or(true);
                    if !valid {
                        return Scalar::Null;
                    }
                    let t = &batch.columns[c];
                    match t.dtype() {
                        DType::I64 => Scalar::I64(t.as_i64()[i]),
                        DType::F64 => Scalar::F64(t.as_f64()[i]),
                        DType::Bool => Scalar::Bool(t.as_bool()[i]),
                        DType::U8 => Scalar::Str(t.str_at(i)),
                        other => panic!("unexpected dtype {other:?}"),
                    }
                })
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------
// Random well-typed expression generation
// ---------------------------------------------------------------------

struct Gen {
    rng: TestRng,
}

impl Gen {
    fn pick(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }

    fn int_expr(&mut self, depth: usize) -> E {
        if depth == 0 {
            return match self.pick(4) {
                0 => E::col(0, LogicalType::Int64),
                1 => E::col(4, LogicalType::Int64), // nullable
                2 => E::lit_i64(self.pick(41) as i64 - 20),
                _ => E::col(0, LogicalType::Int64),
            };
        }
        match self.pick(7) {
            0..=2 => {
                let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod]
                    [self.pick(5) as usize];
                E::Binary {
                    op,
                    left: Box::new(self.int_expr(depth - 1)),
                    right: Box::new(self.int_expr(depth - 1)),
                    ty: LogicalType::Int64,
                }
            }
            3 => E::Neg(Box::new(self.int_expr(depth - 1))),
            4 => E::Func {
                func: ScalarFunc::Abs,
                args: vec![self.int_expr(depth - 1)],
                ty: LogicalType::Int64,
            },
            5 => E::Func {
                func: if self.pick(2) == 0 {
                    ScalarFunc::ExtractYear
                } else {
                    ScalarFunc::ExtractMonth
                },
                args: vec![E::col(5, LogicalType::Date)],
                ty: LogicalType::Int64,
            },
            _ => E::Case {
                branches: vec![(self.bool_expr(depth - 1), self.int_expr(depth - 1))],
                else_expr: Box::new(self.int_expr(depth - 1)),
                ty: LogicalType::Int64,
            },
        }
    }

    fn float_expr(&mut self, depth: usize) -> E {
        if depth == 0 {
            return match self.pick(3) {
                0 => E::col(1, LogicalType::Float64),
                1 => E::col(6, LogicalType::Float64), // nullable
                _ => E::lit_f64(self.pick(2000) as f64 / 16.0 - 60.0),
            };
        }
        match self.pick(6) {
            0..=2 => {
                let op = [BinOp::Add, BinOp::Sub, BinOp::Mul][self.pick(3) as usize];
                E::Binary {
                    op,
                    left: Box::new(self.float_expr(depth - 1)),
                    right: Box::new(self.float_expr(depth - 1)),
                    ty: LogicalType::Float64,
                }
            }
            3 => E::Neg(Box::new(self.float_expr(depth - 1))),
            4 => E::Func {
                func: ScalarFunc::Abs,
                args: vec![self.float_expr(depth - 1)],
                ty: LogicalType::Float64,
            },
            // Mixed-type CASE exercises the Coerce op (Int64 arm in a
            // Float64 CASE, like Q14's promo numerator).
            _ => E::Case {
                branches: vec![(
                    self.bool_expr(depth - 1),
                    if self.pick(2) == 0 {
                        self.float_expr(depth - 1)
                    } else {
                        self.int_expr(depth - 1)
                    },
                )],
                else_expr: Box::new(if self.pick(2) == 0 {
                    self.float_expr(depth - 1)
                } else {
                    self.int_expr(depth - 1)
                }),
                ty: LogicalType::Float64,
            },
        }
    }

    fn str_expr(&mut self, depth: usize) -> E {
        if depth == 0 || self.pick(3) == 0 {
            return match self.pick(3) {
                0 | 1 => E::col(2, LogicalType::Str),
                _ => E::lit_str(["ab", "beta", "z", ""][self.pick(4) as usize]),
            };
        }
        E::Func {
            func: ScalarFunc::Substring {
                start: 1 + self.pick(4) as i64,
                len: self.pick(6) as i64,
            },
            args: vec![self.str_expr(depth - 1)],
            ty: LogicalType::Str,
        }
    }

    fn bool_expr(&mut self, depth: usize) -> E {
        if depth == 0 {
            return match self.pick(3) {
                0 => E::col(3, LogicalType::Bool),
                1 => E::lit_bool(self.pick(2) == 0),
                _ => E::col(3, LogicalType::Bool),
            };
        }
        let cmp = [
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
        ][self.pick(6) as usize];
        match self.pick(8) {
            // Numeric comparisons — literal operands on either side
            // exercise the CompareConst fast path and its flip.
            0 | 1 => E::Binary {
                op: cmp,
                left: Box::new(self.numeric_expr(depth - 1)),
                right: Box::new(self.numeric_expr(depth - 1)),
                ty: LogicalType::Bool,
            },
            2 => E::Binary {
                op: cmp,
                left: Box::new(self.str_expr(depth - 1)),
                right: Box::new(self.str_expr(depth - 1)),
                ty: LogicalType::Bool,
            },
            3 => E::Binary {
                op: if self.pick(2) == 0 {
                    BinOp::And
                } else {
                    BinOp::Or
                },
                left: Box::new(self.bool_expr(depth - 1)),
                right: Box::new(self.bool_expr(depth - 1)),
                ty: LogicalType::Bool,
            },
            4 => E::Not(Box::new(self.bool_expr(depth - 1))),
            5 => E::Like {
                expr: Box::new(self.str_expr(depth - 1)),
                pattern: ["a%", "%b", "%ab%", "a_c%", "abc", "%", "b%a"][self.pick(7) as usize]
                    .to_string(),
                negated: self.pick(2) == 0,
            },
            6 => E::InList {
                expr: Box::new(self.int_expr(depth - 1)),
                list: (0..1 + self.pick(4))
                    .map(|_| Scalar::I64(self.pick(31) as i64 - 15))
                    .collect(),
                negated: self.pick(2) == 0,
            },
            _ => E::IsNull {
                expr: Box::new(match self.pick(3) {
                    0 => self.int_expr(depth - 1),
                    1 => self.float_expr(depth - 1),
                    _ => E::col(4, LogicalType::Int64),
                }),
                negated: self.pick(2) == 0,
            },
        }
    }

    fn numeric_expr(&mut self, depth: usize) -> E {
        if self.pick(2) == 0 {
            self.int_expr(depth)
        } else {
            self.float_expr(depth)
        }
    }

    fn any_expr(&mut self, depth: usize) -> E {
        match self.pick(4) {
            0 => self.int_expr(depth),
            1 => self.float_expr(depth),
            2 => self.str_expr(depth),
            _ => self.bool_expr(depth),
        }
    }
}

fn tensors_bit_equal(a: &Tensor, b: &Tensor) -> bool {
    if a.dtype() != b.dtype() || a.nrows() != b.nrows() {
        return false;
    }
    match a.dtype() {
        DType::I64 => a.as_i64() == b.as_i64(),
        DType::I32 => a.as_i32() == b.as_i32(),
        DType::Bool => a.as_bool() == b.as_bool(),
        DType::F64 => a
            .as_f64()
            .iter()
            .zip(b.as_f64())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        DType::F32 => a
            .as_f32()
            .iter()
            .zip(b.as_f32())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        DType::U8 => (0..a.nrows()).all(|i| a.str_row(i) == b.str_row(i)),
    }
}

fn validity_equal(a: &Option<Tensor>, b: &Option<Tensor>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => x.as_bool() == y.as_bool(),
        // A validity of all-true and no validity are semantically equal,
        // but the compiled form must reproduce the tree's representation
        // *exactly* — so this counts as a mismatch.
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Compiled vectorized evaluation is bitwise identical to the legacy
    // tree interpreter — values, dtypes, and validity masks — and
    // morsel-invariant (slice + concat == whole batch).
    #[test]
    fn compiled_matches_tree_interpreter_bitwise(seed in any::<u64>()) {
        let mut g = Gen { rng: TestRng::new(seed) };
        let exprs: Vec<E> = (0..3).map(|_| g.any_expr(3)).collect();
        let batch = test_batch();
        let models = ModelRegistry::new();
        let prog = exprprog::compile_exprs(&exprs);
        let compiled = exprprog::eval_all(&prog, &batch, &models);
        for (k, e) in exprs.iter().enumerate() {
            let (tv, tval) = tree::eval(e, &batch, &models);
            let (cv, cval) = &compiled[k];
            prop_assert!(
                tensors_bit_equal(&tv, cv),
                "value mismatch for {e:?}\nprogram:\n{}", prog.display()
            );
            prop_assert!(
                validity_equal(&tval, cval),
                "validity mismatch for {e:?}\nprogram:\n{}", prog.display()
            );
        }
        // Morsel invariance: evaluating two halves and concatenating is
        // bitwise the evaluation of the whole batch (this is exactly how
        // morsel-parallel workers see the data, so compiled expressions
        // cannot introduce worker-count-dependent results).
        let half = batch.nrows() / 2;
        let lo = batch.slice_rows(0, half);
        let hi = batch.slice_rows(half, batch.nrows());
        let out_lo = exprprog::eval_all(&prog, &lo, &models);
        let out_hi = exprprog::eval_all(&prog, &hi, &models);
        for k in 0..exprs.len() {
            let merged = tqp_tensor::index::concat(&[&out_lo[k].0, &out_hi[k].0]);
            prop_assert!(
                tensors_bit_equal(&compiled[k].0, &merged),
                "morsel variance for {:?}", exprs[k]
            );
        }
    }

    // The scalar row walk over the same flat ops matches the row-engine
    // tree interpreter exactly (three-valued logic, NULL propagation).
    #[test]
    fn compiled_row_walk_matches_row_interpreter(seed in any::<u64>()) {
        let mut g = Gen { rng: TestRng::new(seed) };
        let exprs: Vec<E> = (0..3).map(|_| g.any_expr(3)).collect();
        let batch = test_batch();
        let rows = test_rows(&batch);
        let prog = exprprog::compile_exprs(&exprs);
        let mut scratch = Vec::new();
        for row in &rows {
            let outs = exprprog::eval_row_outputs(&prog, row, &mut scratch);
            for (k, e) in exprs.iter().enumerate() {
                let oracle = tqp_baseline::eval::eval_expr(e, row);
                prop_assert_eq!(
                    &outs[k], &oracle,
                    "row mismatch for {:?}\nrow: {:?}\nprogram:\n{}",
                    e, row, prog.display()
                );
            }
        }
    }

    // The fused filter's register-compacting stepper selects exactly the
    // rows the eager one-pass mask fold selects, for every compaction
    // schedule (compact after conjunct k, for every k).
    #[test]
    fn fused_stepper_matches_eager_mask_fold(seed in any::<u64>()) {
        let mut g = Gen { rng: TestRng::new(seed) };
        let conjuncts: Vec<E> = (0..3).map(|_| g.bool_expr(2)).collect();
        let batch = test_batch();
        let models = ModelRegistry::new();
        let prog = exprprog::compile_exprs(&conjuncts);
        let eager_mask = exprprog::eval_conjuncts_eager(&prog, &batch, &models);
        // The fused-kernel mask (or its generic fallback for shapes the
        // specializer rejects) must be bitwise the eager fold.
        let fused_mask = exprfuse::conjunct_mask(&prog, &batch, &models);
        prop_assert_eq!(
            fused_mask.as_bool(), eager_mask.as_bool(),
            "fused kernel/eager divergence for {:?}\nprogram:\n{}",
            conjuncts, prog.display()
        );
        let eager_idx = tqp_tensor::index::mask_to_indices(&eager_mask);
        for compact_at in 0..conjuncts.len() {
            let mut ev = exprprog::FusedEval::new(&prog);
            let mut current = batch.slice_rows(0, batch.nrows());
            // Survivor row ids relative to the original batch.
            let mut live: Vec<i64> = (0..batch.nrows() as i64).collect();
            let mut acc: Option<Tensor> = None;
            for k in 0..conjuncts.len() {
                let mask = ev.step(&current, &models);
                let mask = match acc.take() {
                    Some(prev) => tqp_tensor::ops::and(&prev, &mask),
                    None => mask,
                };
                if k >= compact_at {
                    let idx = tqp_tensor::index::mask_to_indices(&mask);
                    live = idx.as_i64().iter().map(|&i| live[i as usize]).collect();
                    current = current.take(&idx);
                    ev.compact(&idx);
                } else {
                    acc = Some(mask);
                }
            }
            if let Some(mask) = acc {
                let idx = tqp_tensor::index::mask_to_indices(&mask);
                live = idx.as_i64().iter().map(|&i| live[i as usize]).collect();
            }
            prop_assert_eq!(
                &live, &eager_idx.as_i64().to_vec(),
                "fused/eager divergence (compact_at={}) for {:?}\nprogram:\n{}",
                compact_at, conjuncts, prog.display()
            );
        }
    }
}

/// Adversarial-float batch for the fused dense-mask path: columns
/// 0 i:Int64 (with `MIN`/`MAX` extremes), 1 f:Float64 (NaN, ±0.0, ±inf,
/// mixed exponents), 2 nf:Float64 nullable (same values, NULL-masked),
/// 3 b:Bool.
fn adversarial_batch() -> Batch {
    let n = N_ROWS;
    let iv: Vec<i64> = (0..n)
        .map(|k| match k % 9 {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => i64::MIN + 1,
            3 => i64::MAX - 1,
            4 => 0,
            _ => (k as i64 * 37) % 200 - 100,
        })
        .collect();
    let fv: Vec<f64> = (0..n)
        .map(|k| match k % 11 {
            0 => f64::NAN,
            1 => 0.0,
            2 => -0.0,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => 1e-300,
            6 => -1e300,
            7 => 5e-2,
            _ => (k as f64 - 20.0) * 1.75,
        })
        .collect();
    let bv: Vec<bool> = (0..n).map(|k| k % 3 != 1).collect();
    let nf_valid: Vec<bool> = (0..n).map(|k| k % 4 != 2).collect();
    Batch::with_validity(
        vec![
            Tensor::from_i64(iv),
            Tensor::from_f64(fv.clone()),
            Tensor::from_f64(fv),
            Tensor::from_bool(bv),
        ],
        vec![None, None, Some(Tensor::from_bool(nf_valid)), None],
    )
}

/// One random compare-against-constant conjunct over the adversarial
/// batch — the exact shape the fused kernel canonicalizes into merged
/// interval predicates. Constants include every interval-edge value the
/// canonicalizer special-cases.
fn adversarial_conjunct(g: &mut Gen) -> E {
    let cmp = [
        BinOp::Eq,
        BinOp::NotEq,
        BinOp::Lt,
        BinOp::LtEq,
        BinOp::Gt,
        BinOp::GtEq,
    ][g.pick(6) as usize];
    match g.pick(8) {
        0..=2 => {
            let c = [
                i64::MIN,
                i64::MIN + 1,
                -50,
                0,
                3,
                77,
                i64::MAX - 1,
                i64::MAX,
            ][g.pick(8) as usize];
            E::Binary {
                op: cmp,
                left: Box::new(E::col(0, LogicalType::Int64)),
                right: Box::new(E::lit_i64(c)),
                ty: LogicalType::Bool,
            }
        }
        3..=6 => {
            let c = [
                f64::NAN,
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1e-300,
                -1e300,
                5e-2,
                -7.25,
            ][g.pick(9) as usize];
            E::Binary {
                op: cmp,
                left: Box::new(E::col(
                    if g.pick(2) == 0 { 1 } else { 2 },
                    LogicalType::Float64,
                )),
                right: Box::new(E::lit_f64(c)),
                ty: LogicalType::Bool,
            }
        }
        _ => E::col(3, LogicalType::Bool),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // The fused kernel's canonicalized dense mask path — interval merging,
    // i64 MIN/MAX edges, NaN constants, ±0.0 bound ties, runtime validity
    // folds — is bitwise the eager unfused fold AND the tree
    // interpreter's mask, for random compare chains that repeatedly hit
    // the same columns (forcing interval merges and empty intervals).
    #[test]
    fn fused_dense_mask_matches_eager_and_tree(seed in any::<u64>()) {
        let mut g = Gen { rng: TestRng::new(seed) };
        let batch = adversarial_batch();
        let models = ModelRegistry::new();
        let n_conj = 1 + g.pick(5) as usize;
        let conjuncts: Vec<E> = (0..n_conj).map(|_| adversarial_conjunct(&mut g)).collect();
        let prog = exprprog::compile_exprs(&conjuncts);
        let fused = exprfuse::conjunct_mask(&prog, &batch, &models);
        let eager = exprprog::eval_conjuncts_eager(&prog, &batch, &models);
        prop_assert_eq!(
            fused.as_bool(), eager.as_bool(),
            "fused/eager divergence for {:?}\nprogram:\n{}", conjuncts, prog.display()
        );
        let mut tree_mask: Option<Tensor> = None;
        for c in &conjuncts {
            let m = tree::eval_mask(c, &batch, &models);
            tree_mask = Some(match tree_mask.take() {
                Some(prev) => tqp_tensor::ops::and(&prev, &m),
                None => m,
            });
        }
        let tree_mask = tree_mask.unwrap();
        prop_assert_eq!(
            eager.as_bool(), tree_mask.as_bool(),
            "eager/tree divergence for {:?}", conjuncts
        );
    }

    // Fused all-outputs evaluation (projections / aggregate inputs / sort
    // keys) is bitwise the generic per-op evaluation across every dtype
    // and validity layout the expression generator can produce.
    #[test]
    fn fused_outputs_match_generic_eval_all(seed in any::<u64>()) {
        let mut g = Gen { rng: TestRng::new(seed) };
        let exprs: Vec<E> = (0..3).map(|_| g.any_expr(3)).collect();
        let batch = test_batch();
        let models = ModelRegistry::new();
        let prog = exprprog::compile_exprs(&exprs);
        let generic = exprprog::eval_all(&prog, &batch, &models);
        let fused = exprfuse::eval_all(&prog, &batch, &models);
        for (k, e) in exprs.iter().enumerate() {
            prop_assert!(
                tensors_bit_equal(&generic[k].0, &fused[k].0),
                "fused output value mismatch for {e:?}\nprogram:\n{}", prog.display()
            );
            prop_assert!(
                validity_equal(&generic[k].1, &fused[k].1),
                "fused output validity mismatch for {e:?}\nprogram:\n{}", prog.display()
            );
        }
    }
}
