//! Proptest parity suite for the compiled **ExprProgram** micro-IR:
//! random well-typed expression trees over every dtype (Int64, Float64,
//! Str, Bool, Date) with NULL-bearing (validity-masked) columns. The
//! oracle is the row engine's tree walk, `tqp_baseline::eval::eval_expr`,
//! which shares no code with the compiler:
//!
//! * vectorized: `exprprog::eval_all` row by row against `eval_expr`.
//!   The compiled validity must be exactly the conservative validity a
//!   test-side walk of the tree derives (a result is NULL if any input it
//!   touched is; `IS NULL` is always valid), on every row; on every row
//!   that validity keeps, the value must be the row engine's, except on
//!   rows where the two define a node differently: an `IS NULL` operand
//!   or `CASE` condition that is conservatively NULL where the row engine
//!   has a value;
//! * scalar rows: `exprprog::eval_row_outputs` against `eval_expr`
//!   (exact `Scalar` equality, including NULL propagation);
//! * kernels: every specialized kernel (`exprfuse`, bound the way the
//!   Fused backend binds it) against the generic walk it replaces,
//!   bitwise, and the dense filter mask additionally against the row
//!   engine (with IEEE comparison where the row engine calls a NaN
//!   comparison NULL).
//!
//! Expression evaluation is also asserted morsel-invariant (evaluating two
//! slices and concatenating equals evaluating the whole batch — morsels
//! are exactly how worker threads see batches). Whole-query bitwise parity
//! at workers 1 vs 4, and across Eager, Fused and Graph, is locked in by
//! `tests/parallel_parity.rs` on all 22 TPC-H queries.

use proptest::prelude::*;
use proptest::TestRng;
use tqp_repro::data::LogicalType;
use tqp_repro::exec::batch::Batch;
use tqp_repro::exec::exprfuse::{self, Mode};
use tqp_repro::exec::exprprog;
use tqp_repro::ir::expr::{BinOp, BoundExpr as E, ScalarFunc};
use tqp_tensor::{DType, Scalar, Tensor};

use tqp_baseline::eval::eval_expr;

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
        // but a kernel must reproduce the generic walk's representation
        // *exactly* — so this counts as a mismatch.
        _ => false,
    }
}

/// Row `i` of a compiled output as the row engine would hold it.
fn cell(t: &Tensor, i: usize) -> Scalar {
    match t.dtype() {
        DType::I64 => Scalar::I64(t.as_i64()[i]),
        DType::F64 => Scalar::F64(t.as_f64()[i]),
        DType::Bool => Scalar::Bool(t.as_bool()[i]),
        DType::U8 => Scalar::Str(t.str_at(i)),
        other => panic!("unexpected dtype {other:?}"),
    }
}

/// Equal as SQL values. Floats compare as numbers (NaN equal to NaN): the
/// row engine keeps an integer from one arm of a Float64 `CASE` unwidened,
/// so its negation is `0` where the compiled walk has `-0.0`, and the sign
/// of that zero can survive later arithmetic.
fn same_value(compiled: &Scalar, oracle: &Scalar) -> bool {
    let num = |a: f64, b: f64| a == b || (a.is_nan() && b.is_nan());
    match (compiled, oracle) {
        (Scalar::F64(a), Scalar::F64(b)) => num(*a, *b),
        (Scalar::F64(a), Scalar::I64(b)) => num(*a, *b as f64),
        (a, b) => a == b,
    }
}

/// The validity the vectorized walk must give `e` over `batch`, derived
/// from the tree alone: a column carries its own validity, a non-NULL
/// literal and `IS NULL` are always valid, a `CASE` is valid where its
/// `ELSE` and every arm value are (conditions fold into the selection),
/// an integer `/` or `%` is valid where both operands are and the divisor
/// the walk computed is not 0 (a divisor with no 0 adds no validity), and
/// anything else is valid where all its children are. `None` means "no
/// validity tensor", which the walk must reproduce as such.
fn conservative_validity(e: &E, batch: &Batch) -> Option<Vec<bool>> {
    let and = |a: Option<Vec<bool>>, b: Option<Vec<bool>>| match (a, b) {
        (None, m) | (m, None) => m,
        (Some(x), Some(y)) => Some(x.iter().zip(&y).map(|(p, q)| *p && *q).collect()),
    };
    let all = |es: &[&E]| {
        es.iter()
            .fold(None, |acc, c| and(acc, conservative_validity(c, batch)))
    };
    match e {
        E::Column { index, .. } => batch.validity[*index]
            .as_ref()
            .map(|m| m.as_bool().to_vec()),
        E::Literal { value, .. } => value.is_null().then(|| vec![false; batch.nrows()]),
        E::IsNull { .. } => None,
        E::Case {
            branches,
            else_expr,
            ..
        } => {
            let mut arms: Vec<&E> = branches.iter().map(|(_, v)| v).collect();
            arms.push(else_expr);
            all(&arms)
        }
        E::Binary {
            op: BinOp::Div | BinOp::Mod,
            left,
            right,
            ty: LogicalType::Int64,
        } => {
            // The divisor as the walk computes it: where a `CASE` condition
            // is conservatively NULL, the row engine may pick another arm.
            let prog = exprprog::compile_exprs(std::slice::from_ref(&**right));
            let divisor = &exprprog::eval_all(&prog, batch)[0].0;
            let nonzero: Vec<bool> = divisor.as_i64().iter().map(|&d| d != 0).collect();
            let operands = all(&[&**left, &**right]);
            if nonzero.iter().all(|&v| v) {
                operands
            } else {
                and(operands, Some(nonzero))
            }
        }
        E::Binary { left, right, .. } => all(&[&**left, &**right]),
        E::Not(c) | E::Neg(c) | E::Like { expr: c, .. } | E::InList { expr: c, .. } => all(&[&**c]),
        E::Func { args, .. } | E::Predict { args, .. } => all(&args.iter().collect::<Vec<_>>()),
        other => panic!("the generator emits no {other:?}"),
    }
}

/// True when some node of `e` takes, on row `i`, a value the vectorized
/// walk defines differently from the row engine, so that row's value is
/// not compared: an `IS NULL` operand or `CASE` condition whose
/// conservative validity is not the row engine's NULL-ness (the
/// vectorized walk tests that validity, so `x IS NULL` is true where an
/// untaken `CASE` arm of `x` is NULL).
fn diverges(e: &E, batch: &Batch, row: &Vec<Scalar>, i: usize) -> bool {
    let nulls_differ = |x: &E| {
        let valid = conservative_validity(x, batch).is_none_or(|m| m[i]);
        valid == eval_expr(x, row).is_null()
    };
    let mut hit = false;
    e.visit(&mut |n| match n {
        E::IsNull { expr, .. } => hit |= nulls_differ(expr),
        E::Case { branches, .. } => hit |= branches.iter().any(|(c, _)| nulls_differ(c)),
        _ => {}
    });
    hit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Compiled vectorized evaluation has exactly the conservative validity
    // on every row, has the row engine's value on every row that validity
    // keeps and no defined divergence touches, and is morsel-invariant
    // (slice + concat == whole batch).
    #[test]
    fn compiled_matches_tree_interpreter_bitwise(seed in any::<u64>()) {
        let mut g = Gen { rng: TestRng::new(seed) };
        let exprs: Vec<E> = (0..3).map(|_| g.any_expr(3)).collect();
        let batch = test_batch();
        let rows = test_rows(&batch);
        let prog = exprprog::compile_exprs(&exprs);
        let compiled = exprprog::eval_all(&prog, &batch);
        for (k, e) in exprs.iter().enumerate() {
            let (cv, cval) = &compiled[k];
            let want = conservative_validity(e, &batch);
            prop_assert_eq!(
                cval.as_ref().map(|m| m.as_bool().to_vec()), want.clone(),
                "validity mismatch for {:?}\nprogram:\n{}", e, prog.display()
            );
            for (i, row) in rows.iter().enumerate() {
                if want.as_ref().is_some_and(|m| !m[i]) || diverges(e, &batch, row, i) {
                    continue;
                }
                let oracle = eval_expr(e, row);
                prop_assert!(
                    same_value(&cell(cv, i), &oracle),
                    "row {i}: {:?} vs oracle {oracle:?} for {e:?}\nprogram:\n{}",
                    cell(cv, i), prog.display()
                );
            }
        }
        // Morsel invariance: evaluating two halves and concatenating is
        // bitwise the evaluation of the whole batch (this is exactly how
        // morsel-parallel workers see the data, so compiled expressions
        // cannot introduce worker-count-dependent results).
        let half = batch.nrows() / 2;
        let lo = batch.slice_rows(0, half);
        let hi = batch.slice_rows(half, batch.nrows());
        let out_lo = exprprog::eval_all(&prog, &lo);
        let out_hi = exprprog::eval_all(&prog, &hi);
        for k in 0..exprs.len() {
            let merged = tqp_tensor::index::concat(&[&out_lo[k].0, &out_hi[k].0]);
            prop_assert!(
                tensors_bit_equal(&compiled[k].0, &merged),
                "morsel variance for {:?}", exprs[k]
            );
        }
    }

    // The scalar row walk over the same flat ops matches the row
    // engine's tree walk exactly (three-valued logic, NULL propagation).
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

    // A filter's bound kernel yields bitwise the eager one-pass mask fold
    // (for shapes the specializer rejects no kernel is bound and both
    // sides are the generic walk).
    #[test]
    fn fused_stepper_matches_eager_mask_fold(seed in any::<u64>()) {
        let mut g = Gen { rng: TestRng::new(seed) };
        let conjuncts: Vec<E> = (0..3).map(|_| g.bool_expr(2)).collect();
        let batch = test_batch();
        let mut prog = exprprog::compile_exprs(&conjuncts);
        let eager_mask = exprprog::eval_conjuncts_eager(&prog, &batch);
        exprfuse::bind(&mut prog, Mode::Mask);
        let fused_mask = exprfuse::conjunct_mask(&prog, &batch);
        prop_assert_eq!(
            fused_mask.as_bool(), eager_mask.as_bool(),
            "fused kernel/eager divergence for {:?}\nprogram:\n{}",
            conjuncts, prog.display()
        );
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

/// True when every column `e` reads is non-NULL on `row`.
fn null_free_inputs(e: &E, row: &[Scalar]) -> bool {
    let mut ok = true;
    e.visit(&mut |node| {
        if let E::Column { index, .. } = node {
            ok &= !row[*index].is_null();
        }
    });
    ok
}

/// An [`adversarial_conjunct`] comparison on `row` under IEEE 754, as the
/// tensor engines evaluate it: a NaN operand compares unequal to
/// everything, itself included, and is not ordered.
fn ieee_compare(c: &E, row: &[Scalar]) -> bool {
    let E::Binary {
        op, left, right, ..
    } = c
    else {
        panic!("not a comparison: {c:?}")
    };
    let (E::Column { index, .. }, E::Literal { value, .. }) = (&**left, &**right) else {
        panic!("not column-vs-constant: {c:?}")
    };
    let (a, b) = (row[*index].as_f64(), value.as_f64());
    match op {
        BinOp::Eq => a == b,
        BinOp::NotEq => a != b,
        BinOp::Lt => a < b,
        BinOp::LtEq => a <= b,
        BinOp::Gt => a > b,
        BinOp::GtEq => a >= b,
        other => panic!("not a comparison: {other:?}"),
    }
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
    // folds — is bitwise the eager unfused fold, for random compare chains
    // that repeatedly hit the same columns (forcing interval merges and
    // empty intervals). Both keep exactly the rows the row engine keeps;
    // where the row engine calls a comparison with a NaN operand NULL, the
    // conjunct is instead the IEEE comparison (`NaN <> x` is true), which
    // the tensor engines follow.
    #[test]
    fn fused_dense_mask_matches_eager_and_tree(seed in any::<u64>()) {
        let mut g = Gen { rng: TestRng::new(seed) };
        let batch = adversarial_batch();
        let n_conj = 1 + g.pick(5) as usize;
        let conjuncts: Vec<E> = (0..n_conj).map(|_| adversarial_conjunct(&mut g)).collect();
        let mut prog = exprprog::compile_exprs(&conjuncts);
        exprfuse::bind(&mut prog, Mode::Mask);
        prop_assert!(prog.kernel.is_some(), "compare chains always fuse");
        let fused = exprfuse::conjunct_mask(&prog, &batch);
        let eager = exprprog::eval_conjuncts_eager(&prog, &batch);
        prop_assert_eq!(
            fused.as_bool(), eager.as_bool(),
            "fused/eager divergence for {:?}\nprogram:\n{}", conjuncts, prog.display()
        );
        for (i, row) in test_rows(&batch).iter().enumerate() {
            let keep = conjuncts.iter().all(|c| match eval_expr(c, row) {
                Scalar::Bool(b) => b,
                Scalar::Null if null_free_inputs(c, row) => ieee_compare(c, row),
                _ => false,
            });
            prop_assert_eq!(
                eager.as_bool()[i], keep,
                "row {} differs from the row engine for {:?}", i, conjuncts
            );
        }
    }

    // Fused all-outputs evaluation (projections / aggregate inputs / sort
    // keys) is bitwise the generic per-op evaluation across every dtype
    // and validity layout the expression generator can produce.
    #[test]
    fn fused_outputs_match_generic_eval_all(seed in any::<u64>()) {
        let mut g = Gen { rng: TestRng::new(seed) };
        let exprs: Vec<E> = (0..3).map(|_| g.any_expr(3)).collect();
        let batch = test_batch();
        let mut prog = exprprog::compile_exprs(&exprs);
        let generic = exprprog::eval_all(&prog, &batch);
        exprfuse::bind(&mut prog, Mode::Outputs);
        let fused = exprfuse::eval_all(&prog, &batch);
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
