//! The **ExprProgram** micro-IR: scalar expressions compiled into flat,
//! register-based tensor-kernel sequences.
//!
//! The companion tech report (*Query Processing on Tensor Computation
//! Runtimes*) maps each scalar expression to a fixed sequence of tensor
//! kernels, so the shipped artifact is self-contained and runtime dispatch
//! is flat. This module is that layer for the reproduction: every
//! `BoundExpr` appearing in a [`crate::program::TensorProgram`] — filter
//! conjuncts, projections, join residuals, group-by keys, aggregate
//! inputs, sort keys, and `PREDICT` splice points — is compiled by
//! [`compile_exprs`] into an [`ExprProgram`] at lowering time. No backend
//! re-walks an expression *tree* per batch (or per row) anymore:
//!
//! * the vectorized VM runs the op list as a straight-line kernel loop
//!   over expression registers ([`eval_all`]), unless the backend bound a
//!   specialized kernel to the program ([`crate::exprfuse`]);
//! * the Wasm scalar interpreter walks the *same* flat ops row-at-a-time
//!   ([`eval_row`], with [`prepare_model_applies`] batching `PREDICT`);
//! * the v2 artifact encodes the compiled form natively
//!   ([`exprprog_to_json`] / [`exprprog_from_json`]).
//!
//! **Register discipline.** Register `r` is defined by op `ops[r]` (SSA
//! value numbering: one fresh register per op, `dst == index`), and every
//! op only reads smaller registers. A program carries multiple outputs —
//! one per source expression of the host operator — and the builder
//! memoizes structurally identical sub-expressions, so common
//! subexpressions are computed **once per batch** across all conjuncts /
//! projections / aggregate inputs of the same op (Q1's shared
//! `l_extendedprice * (1 - l_discount)` term, Q19's repeated column
//! loads).
//!
//! **Lowering-time passes.** [`compile_exprs`] constant-folds every
//! closed subtree through `tqp_ir::expr::eval_const` (`LIKE`/`CASE`
//! operands included) and pre-compiles `LIKE` patterns, so neither
//! happens per batch. Conjunct-level folding (dropping always-true
//! conjuncts, collapsing constant-false filters) lives in
//! `program::lower`, which owns the operator list.
//!
//! **Validity.** Vectorized evaluation carries conservative validity:
//! each register holds a `(value, Option<validity>)` pair, and a result
//! row is valid iff every input row it touched was valid (`IS NULL` is
//! always valid). Scalar (row) evaluation represents NULL as
//! `Scalar::Null`, matching `tqp_baseline::eval::eval_expr` three-valued
//! logic exactly. The two agree wherever no NULL enters an expression;
//! `tests/property_exprprog.rs` checks both against the row engine.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use tqp_baseline::Row;
use tqp_data::LogicalType;
use tqp_ir::expr::{eval_binary_scalar, eval_const, BinOp, BoundExpr, ScalarFunc};
use tqp_ir::json as irjson;
use tqp_json::Json;
use tqp_ml::Model;
use tqp_tensor::index::count_true;
use tqp_tensor::ops::{self, BinOp as TB, CmpOp};
use tqp_tensor::strings::{self, LikePattern};
use tqp_tensor::{DType, Scalar, Tensor};

use crate::batch::Batch;
use crate::expr::{
    coerce, extract_month_kernel, extract_year_kernel, merge_validity, to_cmp, Evaled,
};
use crate::exprfuse::Skeleton;

/// An expression register. Register `r` is defined by `ops[r]`.
pub type EReg = usize;

/// One flat expression op. The destination register is implicit: the op at
/// index `i` defines register `i` (SSA value numbering), which is what
/// makes builder-side common-subexpression reuse a hash lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprOp {
    /// Load input column `index` (value + validity).
    LoadColumn { index: usize, ty: LogicalType },
    /// Materialize a constant (broadcast at evaluation time). A NULL
    /// constant yields an all-invalid register.
    LoadConst { value: Scalar, ty: LogicalType },
    /// Arithmetic / comparison / AND / OR over two registers.
    Binary {
        op: BinOp,
        lhs: EReg,
        rhs: EReg,
        ty: LogicalType,
    },
    /// Comparison against a broadcast constant — the scalar fast path
    /// (never materializes the broadcast tensor). The operand order is
    /// normalized at compile time (`5 < x` becomes `x > 5`).
    CompareConst { op: BinOp, src: EReg, value: Scalar },
    /// Boolean negation.
    Not { src: EReg },
    /// Arithmetic negation.
    Neg { src: EReg },
    /// Coerce to the logical type's tensor dtype (CASE branch unification;
    /// dtype-checked at run time, a no-op when already right).
    Coerce { src: EReg, ty: LogicalType },
    /// `cond ? on_true : on_false` — the CASE building block. An invalid
    /// (NULL) condition row selects `on_false`.
    Select {
        cond: EReg,
        on_true: EReg,
        on_false: EReg,
        ty: LogicalType,
    },
    /// SQL LIKE. The pattern is compiled once at expression-compile time.
    Like {
        src: EReg,
        pattern: String,
        compiled: LikePattern,
        negated: bool,
    },
    /// Literal membership test.
    InList {
        src: EReg,
        list: Vec<Scalar>,
        negated: bool,
    },
    /// NULL test (consumes validity; its own result is always valid).
    IsNull { src: EReg, negated: bool },
    /// Scalar function call (all current functions are unary).
    Func {
        func: ScalarFunc,
        src: EReg,
        ty: LogicalType,
    },
    /// ML inference splice point (paper §3.3): gather the argument
    /// registers and run the bound model's tensor program inline.
    ModelApply {
        model: String,
        args: Vec<EReg>,
        ty: LogicalType,
        bound: BoundModel,
    },
}

/// The model a `ModelApply` runs, bound from its name once when the
/// program is lowered ([`crate::program::bind_models`]). Like
/// [`ExprProgram::kernel`] it is neither serialized nor part of equality,
/// and a parameter-patched clone shares it.
#[derive(Clone, Default)]
pub struct BoundModel(pub(crate) Option<Arc<dyn Model>>);

impl PartialEq for BoundModel {
    fn eq(&self, _: &BoundModel) -> bool {
        true
    }
}

impl std::fmt::Debug for BoundModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0.as_ref().map_or("unbound", |m| m.family()))
    }
}

impl ExprOp {
    /// Registers this op reads.
    pub fn srcs(&self) -> Vec<EReg> {
        match self {
            ExprOp::LoadColumn { .. } | ExprOp::LoadConst { .. } => vec![],
            ExprOp::Binary { lhs, rhs, .. } => vec![*lhs, *rhs],
            ExprOp::CompareConst { src, .. }
            | ExprOp::Not { src }
            | ExprOp::Neg { src }
            | ExprOp::Coerce { src, .. }
            | ExprOp::Like { src, .. }
            | ExprOp::InList { src, .. }
            | ExprOp::IsNull { src, .. }
            | ExprOp::Func { src, .. } => vec![*src],
            ExprOp::Select {
                cond,
                on_true,
                on_false,
                ..
            } => vec![*cond, *on_true, *on_false],
            ExprOp::ModelApply { args, .. } => args.clone(),
        }
    }

    /// Short mnemonic for display/profiling.
    pub fn name(&self) -> &'static str {
        match self {
            ExprOp::LoadColumn { .. } => "col",
            ExprOp::LoadConst { .. } => "const",
            ExprOp::Binary { .. } => "bin",
            ExprOp::CompareConst { .. } => "cmpc",
            ExprOp::Not { .. } => "not",
            ExprOp::Neg { .. } => "neg",
            ExprOp::Coerce { .. } => "coerce",
            ExprOp::Select { .. } => "select",
            ExprOp::Like { .. } => "like",
            ExprOp::InList { .. } => "in",
            ExprOp::IsNull { .. } => "isnull",
            ExprOp::Func { .. } => "func",
            ExprOp::ModelApply { .. } => "predict",
        }
    }
}

/// A prepared-statement parameter slot: a register whose defining op
/// holds a patchable constant for `$index+1` — either a `LoadConst`
/// (general uses) or a `CompareConst` (the `col <op> $n` scalar fast
/// path, which binding must not demote to a broadcast tensor compare).
/// Slots are deduplicated per (placeholder, use shape): a parameter
/// reused in structurally identical positions shares one CSE'd register,
/// so a single patch reaches every use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamSlot {
    /// 0-based parameter index (`$1` → 0).
    pub index: usize,
    /// Register whose defining op carries the patchable constant.
    pub reg: EReg,
    /// Compiled type of the slot — bound values are coerced onto it.
    pub ty: LogicalType,
}

/// A compiled expression bundle: flat op list + one output register per
/// source expression. `ops[r]` defines register `r`; ops only read smaller
/// registers, so a single forward pass evaluates everything.
#[derive(Debug, Clone)]
pub struct ExprProgram {
    pub ops: Vec<ExprOp>,
    /// Result register of each source expression, in source order.
    pub outputs: Vec<EReg>,
    /// Result logical type of each output.
    pub out_tys: Vec<LogicalType>,
    /// Prepared-statement parameter slots ([`ExprProgram::bind_params`]
    /// patches them). Empty for parameter-free programs.
    pub params: Vec<ParamSlot>,
    /// The specialized kernel bound when the program was lowered for a
    /// kernel backend ([`crate::exprfuse::bind_program`]); `None` means
    /// the generic walk evaluates it. Derived from the op shape, so it is
    /// neither serialized nor part of equality, and a parameter-patched
    /// clone shares it.
    pub kernel: Option<Arc<Skeleton>>,
}

impl PartialEq for ExprProgram {
    fn eq(&self, other: &ExprProgram) -> bool {
        self.ops == other.ops
            && self.outputs == other.outputs
            && self.out_tys == other.out_tys
            && self.params == other.params
    }
}

impl ExprProgram {
    /// Number of expression registers (== op count).
    pub fn n_regs(&self) -> usize {
        self.ops.len()
    }

    /// True when any op is an ML splice point.
    pub fn has_model_apply(&self) -> bool {
        self.ops
            .iter()
            .any(|o| matches!(o, ExprOp::ModelApply { .. }))
    }

    /// The constant an output folds to, if its defining op is a constant
    /// load (`program::lower` uses this for filter short-circuits).
    pub fn const_output(&self, k: usize) -> Option<&Scalar> {
        match &self.ops[self.outputs[k]] {
            ExprOp::LoadConst { value, .. } => Some(value),
            _ => None,
        }
    }

    /// True when some output is the constant `false` — a filter carrying
    /// one short-circuits to an empty batch without evaluating anything.
    pub fn has_const_false_output(&self) -> bool {
        (0..self.outputs.len()).any(|k| matches!(self.const_output(k), Some(Scalar::Bool(false))))
    }

    /// Conjunct boundaries for a mask kernel: `cuts[k]` is the end of the
    /// op range that must have run for `outputs[k]` to be readable, given
    /// all earlier ranges ran. Monotone by construction.
    pub fn output_cuts(&self) -> Vec<usize> {
        let mut cuts = Vec::with_capacity(self.outputs.len());
        let mut end = 0usize;
        for &r in &self.outputs {
            end = end.max(r + 1);
            cuts.push(end);
        }
        cuts
    }

    /// Number of parameter values an execution must supply (highest
    /// placeholder index referenced + 1); 0 for parameter-free programs.
    pub fn n_params(&self) -> usize {
        self.params.iter().map(|s| s.index + 1).max().unwrap_or(0)
    }

    /// Patch every parameter slot with its bound value (dtype-coerced onto
    /// the slot's compiled type), consuming the slot list — the result is
    /// an ordinary constant program. This is the re-binding fast path: no
    /// parse/bind/lower work, just constant-slot stores into a clone of
    /// the compiled program (re-binding always restarts from the pristine
    /// cached program).
    pub fn bind_params(&mut self, values: &[Scalar]) -> Result<(), String> {
        for k in 0..self.params.len() {
            let slot = self.params[k];
            let v = values.get(slot.index).ok_or_else(|| {
                format!(
                    "parameter ${} has no bound value ({} supplied)",
                    slot.index + 1,
                    values.len()
                )
            })?;
            let coerced = coerce_param(v, slot.ty, slot.index)?;
            if coerced.is_null() && matches!(self.ops[slot.reg], ExprOp::CompareConst { .. }) {
                // `col <op> NULL` is NULL for every row; the scalar fast
                // path cannot broadcast a NULL, so the comparison becomes
                // an all-NULL boolean constant (filters drop such rows —
                // SQL three-valued logic).
                self.ops[slot.reg] = ExprOp::LoadConst {
                    value: Scalar::Null,
                    ty: LogicalType::Bool,
                };
                continue;
            }
            match &mut self.ops[slot.reg] {
                ExprOp::LoadConst { value, .. } | ExprOp::CompareConst { value, .. } => {
                    *value = coerced
                }
                other => {
                    return Err(format!(
                        "param slot e{} is not a patchable constant (found {})",
                        slot.reg,
                        other.name()
                    ))
                }
            }
        }
        self.params.clear();
        Ok(())
    }

    /// Assembly-style listing (EXPLAIN for expression programs).
    pub fn display(&self) -> String {
        let mut out = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            let srcs: Vec<String> = op.srcs().iter().map(|r| format!("e{r}")).collect();
            out.push_str(&format!("  e{i} = {}({})\n", op.name(), srcs.join(", ")));
        }
        let outs: Vec<String> = self.outputs.iter().map(|r| format!("e{r}")).collect();
        out.push_str(&format!("  out [{}]\n", outs.join(", ")));
        out
    }
}

// ---------------------------------------------------------------------
// Compilation (lowering BoundExpr trees to flat programs)
// ---------------------------------------------------------------------

/// Compile a slice of expression trees into one shared [`ExprProgram`]
/// with one output per input expression. Performs lowering-time constant
/// folding (via `eval_const`) and common-subexpression reuse across the
/// whole slice via structural memoization.
pub fn compile_exprs(exprs: &[BoundExpr]) -> ExprProgram {
    let mut b = ExprBuilder {
        ops: Vec::new(),
        memo: HashMap::new(),
        params: Vec::new(),
    };
    let mut outputs = Vec::with_capacity(exprs.len());
    let mut out_tys = Vec::with_capacity(exprs.len());
    for e in exprs {
        let (r, ty) = b.lower(e);
        outputs.push(r);
        out_tys.push(ty);
    }
    ExprProgram {
        ops: b.ops,
        outputs,
        out_tys,
        params: b.params,
        kernel: None,
    }
}

/// Coerce a bound parameter value onto the slot's compiled logical type.
/// NULL binds to any type (the evaluators materialize a typed all-invalid
/// register); integers widen to Float64; dates accept epoch-ns integers
/// and `YYYY-MM-DD` strings.
fn coerce_param(value: &Scalar, ty: LogicalType, index: usize) -> Result<Scalar, String> {
    use LogicalType as T;
    if value.is_null() {
        return Ok(Scalar::Null);
    }
    let coerced = match (ty, value) {
        (T::Int64, Scalar::I64(_)) => Some(value.clone()),
        (T::Int64, Scalar::I32(v)) => Some(Scalar::I64(*v as i64)),
        (T::Float64, Scalar::F64(_)) => Some(value.clone()),
        (T::Float64, Scalar::F32(v)) => Some(Scalar::F64(*v as f64)),
        (T::Float64, Scalar::I64(v)) => Some(Scalar::F64(*v as f64)),
        (T::Float64, Scalar::I32(v)) => Some(Scalar::F64(*v as f64)),
        (T::Bool, Scalar::Bool(_)) => Some(value.clone()),
        (T::Str, Scalar::Str(_)) => Some(value.clone()),
        (T::Date, Scalar::I64(_)) => Some(value.clone()),
        (T::Date, Scalar::Str(s)) => tqp_data::dates::parse_to_ns(s).map(Scalar::I64),
        _ => None,
    };
    coerced.ok_or_else(|| {
        format!(
            "cannot bind {value:?} to parameter ${} of type {ty:?}",
            index + 1
        )
    })
}

/// Compile a single expression (join residuals, etc.).
pub fn compile_expr(e: &BoundExpr) -> ExprProgram {
    compile_exprs(std::slice::from_ref(e))
}

struct ExprBuilder {
    ops: Vec<ExprOp>,
    /// Structural key → defining register (hash-consing / CSE).
    memo: HashMap<String, EReg>,
    /// Patchable constant slots, one per distinct placeholder.
    params: Vec<ParamSlot>,
}

impl ExprBuilder {
    /// Append (or reuse) an op, returning its register.
    fn push(&mut self, op: ExprOp) -> EReg {
        // Child operands are already value-numbered registers, so the
        // debug form is a sound structural key.
        let key = format!("{op:?}");
        if let Some(&r) = self.memo.get(&key) {
            return r;
        }
        let r = self.ops.len();
        self.ops.push(op);
        self.memo.insert(key, r);
        r
    }

    /// A `CompareConst` whose constant is a parameter slot. Keyed by
    /// (placeholder, operator, operand register): identical parameter
    /// comparisons share one op, distinct parameters never merge.
    fn push_param_cmp(&mut self, op: BinOp, src: EReg, index: usize, ty: LogicalType) -> EReg {
        let key = format!("paramcmp#{index}#{op:?}#{src}");
        if let Some(&r) = self.memo.get(&key) {
            return r;
        }
        let r = self.ops.len();
        self.ops.push(ExprOp::CompareConst {
            op,
            src,
            value: placeholder_value(ty),
        });
        self.memo.insert(key, r);
        self.params.push(ParamSlot { index, reg: r, ty });
        r
    }

    fn coerced(&mut self, src: EReg, from: LogicalType, to: LogicalType) -> EReg {
        if from == to {
            return src;
        }
        self.push(ExprOp::Coerce { src, ty: to })
    }

    fn lower(&mut self, e: &BoundExpr) -> (EReg, LogicalType) {
        // Lowering-time constant folding: any closed subtree becomes one
        // constant load. NULL folds are left structural — the kernels
        // (e.g. integer division by zero) own those semantics.
        if !e.is_literal() {
            if let Some(v) = eval_const(e) {
                if !v.is_null() {
                    let ty = e.ty();
                    return (self.push(ExprOp::LoadConst { value: v, ty }), ty);
                }
            }
        }
        match e {
            BoundExpr::Column { index, ty } => (
                self.push(ExprOp::LoadColumn {
                    index: *index,
                    ty: *ty,
                }),
                *ty,
            ),
            BoundExpr::OuterRef { .. } => panic!("OuterRef survived decorrelation"),
            BoundExpr::Param { index, ty } => {
                // One patchable LoadConst per distinct placeholder. The
                // memo key is the placeholder itself — NOT the op's debug
                // form — so two different parameters never CSE together,
                // while every use of the same parameter shares one slot
                // (and one patch reaches all of them).
                let key = format!("param#{index}");
                if let Some(&r) = self.memo.get(&key) {
                    return (r, *ty);
                }
                let r = self.ops.len();
                self.ops.push(ExprOp::LoadConst {
                    value: placeholder_value(*ty),
                    ty: *ty,
                });
                self.memo.insert(key, r);
                self.params.push(ParamSlot {
                    index: *index,
                    reg: r,
                    ty: *ty,
                });
                (r, *ty)
            }
            BoundExpr::Literal { value, ty } => (
                self.push(ExprOp::LoadConst {
                    value: value.clone(),
                    ty: *ty,
                }),
                *ty,
            ),
            BoundExpr::Binary {
                op, left, right, ..
            } => {
                let ty = e.ty();
                if op.is_comparison() {
                    // Parameter comparisons keep the scalar fast path: the
                    // placeholder compiles into a patchable `CompareConst`
                    // instead of demoting to a broadcast-tensor compare.
                    if let BoundExpr::Param { index, ty: pty } = right.as_ref() {
                        let (l, _) = self.lower(left);
                        return (self.push_param_cmp(*op, l, *index, *pty), ty);
                    }
                    if let BoundExpr::Param { index, ty: pty } = left.as_ref() {
                        let (r, _) = self.lower(right);
                        return (self.push_param_cmp(flip_cmp(*op), r, *index, *pty), ty);
                    }
                    // Normalize literal comparisons to `reg op const`.
                    if let BoundExpr::Literal { value, .. } = right.as_ref() {
                        if !value.is_null() {
                            let (l, _) = self.lower(left);
                            return (
                                self.push(ExprOp::CompareConst {
                                    op: *op,
                                    src: l,
                                    value: value.clone(),
                                }),
                                ty,
                            );
                        }
                    }
                    if let BoundExpr::Literal { value, .. } = left.as_ref() {
                        if !value.is_null() {
                            let (r, _) = self.lower(right);
                            return (
                                self.push(ExprOp::CompareConst {
                                    op: flip_cmp(*op),
                                    src: r,
                                    value: value.clone(),
                                }),
                                ty,
                            );
                        }
                    }
                }
                let (l, _) = self.lower(left);
                let (r, _) = self.lower(right);
                (
                    self.push(ExprOp::Binary {
                        op: *op,
                        lhs: l,
                        rhs: r,
                        ty,
                    }),
                    ty,
                )
            }
            BoundExpr::Not(inner) => {
                let (s, _) = self.lower(inner);
                (self.push(ExprOp::Not { src: s }), LogicalType::Bool)
            }
            BoundExpr::Neg(inner) => {
                let (s, ty) = self.lower(inner);
                (self.push(ExprOp::Neg { src: s }), ty)
            }
            BoundExpr::Case {
                branches,
                else_expr,
                ty,
            } => {
                // Fold from the last branch backwards,
                // `select(cond, value, acc)`, coercing
                // every arm onto the result type.
                let (e_reg, e_ty) = self.lower(else_expr);
                let mut acc = self.coerced(e_reg, e_ty, *ty);
                for (cond, val) in branches.iter().rev() {
                    let (c, _) = self.lower(cond);
                    let (v, vty) = self.lower(val);
                    let v = self.coerced(v, vty, *ty);
                    acc = self.push(ExprOp::Select {
                        cond: c,
                        on_true: v,
                        on_false: acc,
                        ty: *ty,
                    });
                }
                (acc, *ty)
            }
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let (s, _) = self.lower(expr);
                (
                    self.push(ExprOp::Like {
                        src: s,
                        pattern: pattern.clone(),
                        compiled: LikePattern::compile(pattern),
                        negated: *negated,
                    }),
                    LogicalType::Bool,
                )
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let (s, _) = self.lower(expr);
                (
                    self.push(ExprOp::InList {
                        src: s,
                        list: list.clone(),
                        negated: *negated,
                    }),
                    LogicalType::Bool,
                )
            }
            BoundExpr::IsNull { expr, negated } => {
                let (s, _) = self.lower(expr);
                (
                    self.push(ExprOp::IsNull {
                        src: s,
                        negated: *negated,
                    }),
                    LogicalType::Bool,
                )
            }
            BoundExpr::Func { func, args, ty } => {
                let (s, _) = self.lower(&args[0]);
                (
                    self.push(ExprOp::Func {
                        func: *func,
                        src: s,
                        ty: *ty,
                    }),
                    *ty,
                )
            }
            BoundExpr::Predict { model, args, ty } => {
                let regs: Vec<EReg> = args.iter().map(|a| self.lower(a).0).collect();
                (
                    self.push(ExprOp::ModelApply {
                        model: model.clone(),
                        args: regs,
                        ty: *ty,
                        bound: BoundModel::default(),
                    }),
                    *ty,
                )
            }
            BoundExpr::ScalarSubquery { .. }
            | BoundExpr::InSubquery { .. }
            | BoundExpr::Exists { .. } => panic!("subquery survived decorrelation"),
        }
    }
}

/// True when a scalar's kind is what [`placeholder_value`] produces for
/// the logical type (artifact-load validation of parameter slots).
fn scalar_fits(value: &Scalar, ty: LogicalType) -> bool {
    matches!(
        (value, ty),
        (Scalar::Bool(_), LogicalType::Bool)
            | (Scalar::I64(_), LogicalType::Int64 | LogicalType::Date)
            | (Scalar::F64(_), LogicalType::Float64)
            | (Scalar::Str(_), LogicalType::Str)
    )
}

/// Pre-binding placeholder value for a parameter slot. Executing an
/// unbound program is guarded upstream (`tqp-core` refuses to run a
/// program with `n_params() > 0` until values are bound).
fn placeholder_value(ty: LogicalType) -> Scalar {
    match ty {
        LogicalType::Bool => Scalar::Bool(false),
        LogicalType::Int64 | LogicalType::Date => Scalar::I64(0),
        LogicalType::Float64 => Scalar::F64(0.0),
        LogicalType::Str => Scalar::Str(String::new()),
    }
}

fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other, // Eq / NotEq are symmetric
    }
}

// ---------------------------------------------------------------------
// Vectorized execution (the register VM's expression kernel loop)
// ---------------------------------------------------------------------

fn exec_vec_op(op: &ExprOp, regs: &[Option<Evaled>], batch: &Batch) -> Evaled {
    let n = batch.nrows();
    let reg = |r: EReg| -> &Evaled { regs[r].as_ref().expect("expr register live") };
    match op {
        ExprOp::LoadColumn { index, .. } => (
            batch.columns[*index].clone(),
            batch.validity[*index].clone(),
        ),
        ExprOp::LoadConst { value, ty } => {
            if value.is_null() {
                // NULL constants (NULL literals, NULL-bound parameters):
                // a typed all-invalid register — downstream ops merge the
                // validity, so every row the constant touches is NULL.
                return (
                    null_value_tensor(*ty, n),
                    Some(Tensor::from_bool(vec![false; n])),
                );
            }
            (Tensor::full(value, n), None)
        }
        ExprOp::Binary { op, lhs, rhs, .. } => {
            let (lv, lval) = reg(*lhs);
            let (rv, rval) = reg(*rhs);
            let mut validity = merge_validity(lval.clone(), rval.clone());
            // Integer `/` and `%` by zero are NULL, as on the row engine;
            // without a zero divisor the validity is left as it is.
            if matches!(op, BinOp::Div | BinOp::Mod) && lv.dtype().is_int() && rv.dtype().is_int() {
                let divisor = rv.cast(DType::I64).expect("integer cast");
                let nonzero = ops::compare_scalar(CmpOp::Ne, &divisor, &Scalar::I64(0));
                if count_true(&nonzero) < n {
                    validity = merge_validity(validity, Some(nonzero));
                }
            }
            let value = match op {
                BinOp::And => ops::and(lv, rv),
                BinOp::Or => ops::or(lv, rv),
                BinOp::Add => ops::binary(TB::Add, lv, rv),
                BinOp::Sub => ops::binary(TB::Sub, lv, rv),
                BinOp::Mul => ops::binary(TB::Mul, lv, rv),
                BinOp::Div => ops::binary(TB::Div, lv, rv),
                BinOp::Mod => ops::binary(TB::Mod, lv, rv),
                cmp => ops::compare(to_cmp(*cmp).expect("comparison"), lv, rv),
            };
            (value, validity)
        }
        ExprOp::CompareConst { op, src, value } => {
            let (v, val) = reg(*src);
            (
                ops::compare_scalar(to_cmp(*op).expect("comparison"), v, value),
                val.clone(),
            )
        }
        ExprOp::Not { src } => {
            let (v, val) = reg(*src);
            (ops::not(v), val.clone())
        }
        ExprOp::Neg { src } => {
            let (v, val) = reg(*src);
            (ops::neg(v), val.clone())
        }
        ExprOp::Coerce { src, ty } => {
            let (v, val) = reg(*src);
            (coerce(v.clone(), *ty), val.clone())
        }
        ExprOp::Select {
            cond,
            on_true,
            on_false,
            ..
        } => {
            let (c, cval) = reg(*cond);
            // Invalid condition = no match: fold into the condition.
            let c = match cval {
                Some(m) => ops::and(c, m),
                None => c.clone(),
            };
            let (tv, tval) = reg(*on_true);
            let (fv, fval) = reg(*on_false);
            (
                ops::where_select(&c, tv, fv),
                merge_validity(fval.clone(), tval.clone()),
            )
        }
        ExprOp::Like {
            src,
            compiled,
            negated,
            ..
        } => {
            let (v, val) = reg(*src);
            let mask = strings::like(v, compiled);
            let mask = if *negated { ops::not(&mask) } else { mask };
            (mask, val.clone())
        }
        ExprOp::InList { src, list, negated } => {
            let (v, val) = reg(*src);
            let mask = ops::in_list(v, list);
            let mask = if *negated { ops::not(&mask) } else { mask };
            (mask, val.clone())
        }
        ExprOp::IsNull { src, negated } => {
            let (_, val) = reg(*src);
            let mask = match val {
                Some(m) => ops::not(m), // invalid == NULL
                None => Tensor::from_bool(vec![false; n]),
            };
            let mask = if *negated { ops::not(&mask) } else { mask };
            (mask, None)
        }
        ExprOp::Func { func, src, .. } => {
            let (v, val) = reg(*src);
            let out = match func {
                ScalarFunc::ExtractYear => extract_year_kernel(v),
                ScalarFunc::ExtractMonth => extract_month_kernel(v),
                ScalarFunc::Substring { start, len } => {
                    strings::substring(v, *start as usize, *len as usize)
                }
                ScalarFunc::Abs => ops::abs(v),
            };
            (out, val.clone())
        }
        ExprOp::ModelApply { args, bound, .. } => {
            // The model sees the whole batch, placeholders in NULL rows
            // included; a row with a NULL argument predicts NULL.
            let inputs: Vec<Tensor> = args.iter().map(|&a| reg(a).0.clone()).collect();
            let validity = args
                .iter()
                .fold(None, |acc, &a| merge_validity(acc, reg(a).1.clone()));
            (run_model(bound, &inputs), validity)
        }
    }
}

/// Invoke a `PREDICT` model — the one call site every executor goes
/// through. Records the call's time and rows in the `ml.predict_us`
/// histogram and `ml.predict_rows` counter, and charges both to the
/// program op running it ([`crate::sched::charge_predict`]).
fn run_model(model: &BoundModel, inputs: &[Tensor]) -> Tensor {
    struct PredictMetrics {
        us: tqp_obs::Histogram,
        rows: tqp_obs::Counter,
    }
    static METRICS: std::sync::OnceLock<PredictMetrics> = std::sync::OnceLock::new();
    let model = model
        .0
        .as_deref()
        .expect("PREDICT models are bound at compile");
    let t0 = Instant::now();
    let out = model.predict(inputs);
    let elapsed = t0.elapsed();
    let rows = out.nrows() as u64;
    crate::sched::charge_predict(elapsed, rows);
    let m = METRICS.get_or_init(|| {
        let r = tqp_obs::registry();
        PredictMetrics {
            us: r.histogram("ml.predict_us"),
            rows: r.counter("ml.predict_rows"),
        }
    });
    m.us.observe(elapsed.as_micros() as u64);
    m.rows.add(rows);
    out
}

/// Placeholder values for an all-invalid (NULL) constant register, typed
/// so downstream kernels see the dtype they compiled against.
fn null_value_tensor(ty: LogicalType, n: usize) -> Tensor {
    match ty {
        LogicalType::Bool => Tensor::from_bool(vec![false; n]),
        LogicalType::Int64 | LogicalType::Date => Tensor::zeros(tqp_tensor::DType::I64, n),
        LogicalType::Float64 => Tensor::zeros(tqp_tensor::DType::F64, n),
        LogicalType::Str => {
            let refs: Vec<&str> = vec![""; n];
            Tensor::from_strings(&refs, 1)
        }
    }
}

/// Evaluate every output of the program over a batch (one straight-line
/// pass; shared subexpressions run once).
pub fn eval_all(prog: &ExprProgram, batch: &Batch) -> Vec<Evaled> {
    let mut regs: Vec<Option<Evaled>> = (0..prog.ops.len()).map(|_| None).collect();
    for (i, op) in prog.ops.iter().enumerate() {
        regs[i] = Some(exec_vec_op(op, &regs, batch));
    }
    prog.outputs
        .iter()
        .map(|&r| regs[r].clone().expect("output register written"))
        .collect()
}

/// Evaluate all conjuncts over the full batch and AND-fold them (with
/// validity: NULL = drop) into **one scratch mask buffer sized once per
/// batch** — the generic filter path (every Eager filter, and a Fused or
/// Graph filter without a kernel).
pub fn eval_conjuncts_eager(prog: &ExprProgram, batch: &Batch) -> Tensor {
    let outs = eval_all(prog, batch);
    let mut acc: Option<Vec<bool>> = None;
    for (v, val) in &outs {
        let vs = v.as_bool();
        match acc.as_mut() {
            None => {
                // First conjunct sizes the scratch buffer; every later
                // conjunct (and every validity mask) folds into it.
                let mut scratch = vs.to_vec();
                if let Some(m) = val {
                    for (a, &b) in scratch.iter_mut().zip(m.as_bool()) {
                        *a &= b;
                    }
                }
                acc = Some(scratch);
            }
            Some(scratch) => {
                for (a, &b) in scratch.iter_mut().zip(vs) {
                    *a &= b;
                }
                if let Some(m) = val {
                    for (a, &b) in scratch.iter_mut().zip(m.as_bool()) {
                        *a &= b;
                    }
                }
            }
        }
    }
    Tensor::from_bool(acc.unwrap_or_default())
}

// ---------------------------------------------------------------------
// Scalar (row-at-a-time) execution — the Wasm interpreter's inner loop
// ---------------------------------------------------------------------

/// Result logical type of every register (forward pass over the ops).
pub fn reg_types(prog: &ExprProgram) -> Vec<LogicalType> {
    let mut tys = Vec::with_capacity(prog.ops.len());
    for op in &prog.ops {
        let ty = match op {
            ExprOp::LoadColumn { ty, .. }
            | ExprOp::LoadConst { ty, .. }
            | ExprOp::Binary { ty, .. }
            | ExprOp::Coerce { ty, .. }
            | ExprOp::Select { ty, .. }
            | ExprOp::Func { ty, .. }
            | ExprOp::ModelApply { ty, .. } => *ty,
            ExprOp::CompareConst { .. }
            | ExprOp::Not { .. }
            | ExprOp::Like { .. }
            | ExprOp::InList { .. }
            | ExprOp::IsNull { .. } => LogicalType::Bool,
            ExprOp::Neg { src } => tys[*src],
        };
        tys.push(ty);
    }
    tys
}

/// Evaluate every register of the program over one row into `scratch`
/// (reused across rows: sized once, overwritten in place). Semantics match
/// `tqp_baseline::eval::eval_expr` three-valued logic exactly.
pub fn eval_row(prog: &ExprProgram, row: &Row, scratch: &mut Vec<Scalar>) {
    scratch.clear();
    scratch.reserve(prog.ops.len());
    for op in prog.ops.iter() {
        let v = exec_row_op(op, scratch, row);
        scratch.push(v);
    }
}

/// Evaluate one row and collect the program's outputs.
pub fn eval_row_outputs(prog: &ExprProgram, row: &Row, scratch: &mut Vec<Scalar>) -> Vec<Scalar> {
    eval_row(prog, row, scratch);
    prog.outputs.iter().map(|&r| scratch[r].clone()).collect()
}

/// Evaluate the program's outputs as filter conjuncts over one row,
/// short-circuiting: ops run only up to each conjunct's cut (`cuts` from
/// [`ExprProgram::output_cuts`], computed once per batch), and a conjunct
/// that is not `TRUE` (false or NULL) stops evaluation.
pub fn eval_row_conjuncts(
    prog: &ExprProgram,
    cuts: &[usize],
    row: &Row,
    scratch: &mut Vec<Scalar>,
) -> bool {
    scratch.clear();
    let mut pos = 0usize;
    for (k, &out) in prog.outputs.iter().enumerate() {
        while pos < cuts[k] {
            let v = exec_row_op(&prog.ops[pos], scratch, row);
            scratch.push(v);
            pos += 1;
        }
        if !matches!(scratch[out], Scalar::Bool(true)) {
            return false;
        }
    }
    true
}

fn exec_row_op(op: &ExprOp, regs: &[Scalar], row: &Row) -> Scalar {
    match op {
        ExprOp::LoadColumn { index, .. } => row[*index].clone(),
        ExprOp::LoadConst { value, .. } => value.clone(),
        ExprOp::Binary { op, lhs, rhs, .. } => {
            let l = &regs[*lhs];
            let r = &regs[*rhs];
            match op {
                // Kleene AND/OR: false/true dominate NULL.
                BinOp::And => match (l, r) {
                    (Scalar::Bool(false), _) | (_, Scalar::Bool(false)) => Scalar::Bool(false),
                    (Scalar::Bool(true), Scalar::Bool(true)) => Scalar::Bool(true),
                    _ => Scalar::Null,
                },
                BinOp::Or => match (l, r) {
                    (Scalar::Bool(true), _) | (_, Scalar::Bool(true)) => Scalar::Bool(true),
                    (Scalar::Bool(false), Scalar::Bool(false)) => Scalar::Bool(false),
                    _ => Scalar::Null,
                },
                _ => eval_binary_scalar(*op, l, r).unwrap_or(Scalar::Null),
            }
        }
        ExprOp::CompareConst { op, src, value } => {
            eval_binary_scalar(*op, &regs[*src], value).unwrap_or(Scalar::Null)
        }
        ExprOp::Not { src } => match &regs[*src] {
            Scalar::Bool(b) => Scalar::Bool(!b),
            _ => Scalar::Null,
        },
        ExprOp::Neg { src } => match &regs[*src] {
            Scalar::I64(v) => Scalar::I64(-v),
            Scalar::F64(v) => Scalar::F64(-v),
            Scalar::I32(v) => Scalar::I32(-v),
            Scalar::F32(v) => Scalar::F32(-v),
            _ => Scalar::Null,
        },
        // Row semantics: identity. Coerce exists to unify *tensor dtypes*
        // across CASE branches; boxed scalars need no unification, and the
        // row engine's tree walk (the Wasm oracle) never coerced — a
        // Float64 CASE may yield `I64` scalars, which every downstream
        // scalar op (arith promotion, `cmp_sql`, schema-typed
        // materialization) already handles.
        ExprOp::Coerce { src, .. } => regs[*src].clone(),
        ExprOp::Select {
            cond,
            on_true,
            on_false,
            ..
        } => {
            if matches!(regs[*cond], Scalar::Bool(true)) {
                regs[*on_true].clone()
            } else {
                regs[*on_false].clone()
            }
        }
        ExprOp::Like {
            src,
            compiled,
            negated,
            ..
        } => {
            let v = &regs[*src];
            if v.is_null() {
                return Scalar::Null;
            }
            Scalar::Bool(compiled.matches(v.as_str().as_bytes()) != *negated)
        }
        ExprOp::InList { src, list, negated } => {
            let v = &regs[*src];
            if v.is_null() {
                return Scalar::Null;
            }
            let found = list
                .iter()
                .any(|s| eval_binary_scalar(BinOp::Eq, v, s) == Some(Scalar::Bool(true)));
            Scalar::Bool(found != *negated)
        }
        ExprOp::IsNull { src, negated } => Scalar::Bool(regs[*src].is_null() != *negated),
        ExprOp::Func { func, src, .. } => {
            let v = &regs[*src];
            if v.is_null() {
                return Scalar::Null;
            }
            match func {
                ScalarFunc::ExtractYear => Scalar::I64(tqp_data::dates::extract_year(v.as_i64())),
                ScalarFunc::ExtractMonth => Scalar::I64(tqp_data::dates::extract_month(v.as_i64())),
                ScalarFunc::Substring { start, len } => {
                    let s = v.as_str();
                    let lo = ((*start - 1) as usize).min(s.len());
                    let hi = (lo + *len as usize).min(s.len());
                    Scalar::Str(s[lo..hi].to_string())
                }
                ScalarFunc::Abs => match v {
                    Scalar::I64(x) => Scalar::I64(x.abs()),
                    Scalar::F64(x) => Scalar::F64(x.abs()),
                    other => Scalar::F64(other.as_f64().abs()),
                },
            }
        }
        ExprOp::ModelApply { .. } => {
            panic!("ModelApply must be batch-prepared before row evaluation")
        }
    }
}

/// Batch-prepare every `ModelApply` in the program for row execution (the
/// "separate ML runtime" bridge of the Wasm sandbox): for each splice
/// point in op order, the argument registers are materialized into
/// tensors over all rows, the model is invoked **once**, the predictions
/// are appended to each row, and the op is rewritten into a column load.
/// Returns the (possibly widened) rows and the rewritten program.
pub fn prepare_model_applies(rows: Vec<Row>, prog: &ExprProgram) -> (Vec<Row>, ExprProgram) {
    if !prog.has_model_apply() {
        return (rows, prog.clone());
    }
    let mut prog = prog.clone();
    let mut rows = rows;
    let base = rows.first().map(|r| r.len()).unwrap_or(0);
    let tys = reg_types(&prog);
    let mut appended = 0usize;
    for i in 0..prog.ops.len() {
        let ExprOp::ModelApply { args, bound, .. } = prog.ops[i].clone() else {
            continue;
        };
        // Evaluate the argument registers for every row — but only the
        // ops the arguments transitively need, not the whole prefix
        // (sibling expressions would otherwise be evaluated per row here
        // and again in the main pass). Ops before `i` are already
        // rewritten (earlier splice points read appended columns), so
        // none of them is a splice point.
        let mut needed = vec![false; i];
        let mut stack = args.clone();
        while let Some(r) = stack.pop() {
            if !needed[r] {
                needed[r] = true;
                stack.extend(prog.ops[r].srcs());
            }
        }
        let mut scratch = Vec::with_capacity(i);
        let mut arg_rows: Vec<Vec<Scalar>> = Vec::with_capacity(rows.len());
        for row in &rows {
            scratch.clear();
            for (op, &need) in prog.ops[..i].iter().zip(&needed) {
                let v = if need {
                    exec_row_op(op, &scratch, row)
                } else {
                    Scalar::Null
                };
                scratch.push(v);
            }
            arg_rows.push(args.iter().map(|&a| scratch[a].clone()).collect());
        }
        // NULL arguments feed the model a placeholder (0 / ""), and their
        // rows predict NULL.
        let inputs: Vec<Tensor> = args
            .iter()
            .enumerate()
            .map(|(j, &a)| {
                if tys[a] == LogicalType::Str {
                    let vals: Vec<&str> = arg_rows
                        .iter()
                        .map(|r| match &r[j] {
                            Scalar::Null => "",
                            v => v.as_str(),
                        })
                        .collect();
                    Tensor::from_strings(&vals, 1)
                } else {
                    Tensor::from_f64(
                        arg_rows
                            .iter()
                            .map(|r| if r[j].is_null() { 0.0 } else { r[j].as_f64() })
                            .collect(),
                    )
                }
            })
            .collect();
        let preds = run_model(&bound, &inputs);
        let pv = preds.as_f64();
        assert_eq!(pv.len(), rows.len(), "model output arity mismatch");
        for ((row, args), &p) in rows.iter_mut().zip(&arg_rows).zip(pv) {
            let null = args.iter().any(Scalar::is_null);
            row.push(if null { Scalar::Null } else { Scalar::F64(p) });
        }
        prog.ops[i] = ExprOp::LoadColumn {
            index: base + appended,
            ty: LogicalType::Float64,
        };
        appended += 1;
    }
    (rows, prog)
}

// ---------------------------------------------------------------------
// Artifact codec (the v2 native expression encoding)
// ---------------------------------------------------------------------

/// Encode an [`ExprProgram`] for the v2 artifact.
pub fn exprprog_to_json(prog: &ExprProgram) -> Json {
    let reg = |r: EReg| Json::I64(r as i64);
    let regs = |rs: &[EReg]| Json::Arr(rs.iter().map(|&r| Json::I64(r as i64)).collect());
    let ops: Vec<Json> = prog
        .ops
        .iter()
        .map(|op| match op {
            ExprOp::LoadColumn { index, ty } => Json::obj(vec![
                ("k", Json::str("col")),
                ("index", Json::I64(*index as i64)),
                ("ty", irjson::type_to_json(*ty)),
            ]),
            ExprOp::LoadConst { value, ty } => Json::obj(vec![
                ("k", Json::str("const")),
                ("value", irjson::scalar_to_json(value)),
                ("ty", irjson::type_to_json(*ty)),
            ]),
            ExprOp::Binary { op, lhs, rhs, ty } => Json::obj(vec![
                ("k", Json::str("bin")),
                ("op", irjson::bin_op_to_json(*op)),
                ("lhs", reg(*lhs)),
                ("rhs", reg(*rhs)),
                ("ty", irjson::type_to_json(*ty)),
            ]),
            ExprOp::CompareConst { op, src, value } => Json::obj(vec![
                ("k", Json::str("cmp_const")),
                ("op", irjson::bin_op_to_json(*op)),
                ("src", reg(*src)),
                ("value", irjson::scalar_to_json(value)),
            ]),
            ExprOp::Not { src } => Json::obj(vec![("k", Json::str("not")), ("src", reg(*src))]),
            ExprOp::Neg { src } => Json::obj(vec![("k", Json::str("neg")), ("src", reg(*src))]),
            ExprOp::Coerce { src, ty } => Json::obj(vec![
                ("k", Json::str("coerce")),
                ("src", reg(*src)),
                ("ty", irjson::type_to_json(*ty)),
            ]),
            ExprOp::Select {
                cond,
                on_true,
                on_false,
                ty,
            } => Json::obj(vec![
                ("k", Json::str("select")),
                ("cond", reg(*cond)),
                ("on_true", reg(*on_true)),
                ("on_false", reg(*on_false)),
                ("ty", irjson::type_to_json(*ty)),
            ]),
            ExprOp::Like {
                src,
                pattern,
                negated,
                ..
            } => Json::obj(vec![
                ("k", Json::str("like")),
                ("src", reg(*src)),
                ("pattern", Json::str(pattern.as_str())),
                ("negated", Json::Bool(*negated)),
            ]),
            ExprOp::InList { src, list, negated } => Json::obj(vec![
                ("k", Json::str("in")),
                ("src", reg(*src)),
                (
                    "list",
                    Json::Arr(list.iter().map(irjson::scalar_to_json).collect()),
                ),
                ("negated", Json::Bool(*negated)),
            ]),
            ExprOp::IsNull { src, negated } => Json::obj(vec![
                ("k", Json::str("is_null")),
                ("src", reg(*src)),
                ("negated", Json::Bool(*negated)),
            ]),
            ExprOp::Func { func, src, ty } => Json::obj(vec![
                ("k", Json::str("func")),
                ("func", irjson::scalar_func_to_json(*func)),
                ("src", reg(*src)),
                ("ty", irjson::type_to_json(*ty)),
            ]),
            ExprOp::ModelApply {
                model, args, ty, ..
            } => Json::obj(vec![
                ("k", Json::str("predict")),
                ("model", Json::str(model.as_str())),
                ("args", regs(args)),
                ("ty", irjson::type_to_json(*ty)),
            ]),
        })
        .collect();
    let mut fields = vec![
        ("ops", Json::Arr(ops)),
        ("outputs", regs(&prog.outputs)),
        (
            "out_tys",
            Json::Arr(
                prog.out_tys
                    .iter()
                    .map(|&t| irjson::type_to_json(t))
                    .collect(),
            ),
        ),
    ];
    // Parameter slots ride in the artifact so a shipped prepared program
    // stays re-bindable; omitted entirely for parameter-free programs
    // (keeps pre-existing artifacts byte-stable).
    if !prog.params.is_empty() {
        fields.push((
            "params",
            Json::Arr(
                prog.params
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("index", Json::I64(s.index as i64)),
                            ("reg", Json::I64(s.reg as i64)),
                            ("ty", irjson::type_to_json(s.ty)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Json::obj(fields)
}

/// Decode error for expression programs.
fn bad<T>(message: impl Into<String>) -> Result<T, irjson::PlanJsonError> {
    Err(irjson::PlanJsonError {
        message: message.into(),
    })
}

fn reg_below(j: &Json, key: &str, bound: usize) -> Result<EReg, irjson::PlanJsonError> {
    match j.field(key)?.as_i64() {
        Some(v) if v >= 0 && (v as usize) < bound => Ok(v as usize),
        other => bad(format!(
            "expr op field {key:?} must reference an earlier register (< {bound}), got {other:?}"
        )),
    }
}

/// Decode an [`ExprProgram`], validating the register discipline (ops only
/// read earlier registers; outputs in range).
pub fn exprprog_from_json(j: &Json) -> Result<ExprProgram, irjson::PlanJsonError> {
    let raw_ops = j.field("ops")?.as_arr().ok_or(irjson::PlanJsonError {
        message: "expr ops must be an array".into(),
    })?;
    let mut ops = Vec::with_capacity(raw_ops.len());
    for (i, oj) in raw_ops.iter().enumerate() {
        let kind = oj.field("k")?.as_str().unwrap_or_default().to_string();
        let op = match kind.as_str() {
            "col" => ExprOp::LoadColumn {
                index: match oj.field("index")?.as_i64() {
                    Some(v) if v >= 0 => v as usize,
                    other => return bad(format!("bad column index {other:?}")),
                },
                ty: irjson::type_from_json(oj.field("ty")?)?,
            },
            "const" => ExprOp::LoadConst {
                // NULL constants of any type are valid: the evaluators
                // materialize a typed all-invalid register (NULL literals
                // and NULL-bound parameters both land here).
                value: irjson::scalar_from_json(oj.field("value")?)?,
                ty: irjson::type_from_json(oj.field("ty")?)?,
            },
            "bin" => ExprOp::Binary {
                op: irjson::bin_op_from_json(oj.field("op")?)?,
                lhs: reg_below(oj, "lhs", i)?,
                rhs: reg_below(oj, "rhs", i)?,
                ty: irjson::type_from_json(oj.field("ty")?)?,
            },
            "cmp_const" => {
                let value = irjson::scalar_from_json(oj.field("value")?)?;
                // Lowering only emits this fast path for non-NULL
                // literals; a NULL here cannot broadcast and would panic
                // the vectorized backends mid-query.
                if value.is_null() {
                    return bad("cmp_const value must not be NULL");
                }
                ExprOp::CompareConst {
                    op: irjson::bin_op_from_json(oj.field("op")?)?,
                    src: reg_below(oj, "src", i)?,
                    value,
                }
            }
            "not" => ExprOp::Not {
                src: reg_below(oj, "src", i)?,
            },
            "neg" => ExprOp::Neg {
                src: reg_below(oj, "src", i)?,
            },
            "coerce" => ExprOp::Coerce {
                src: reg_below(oj, "src", i)?,
                ty: irjson::type_from_json(oj.field("ty")?)?,
            },
            "select" => ExprOp::Select {
                cond: reg_below(oj, "cond", i)?,
                on_true: reg_below(oj, "on_true", i)?,
                on_false: reg_below(oj, "on_false", i)?,
                ty: irjson::type_from_json(oj.field("ty")?)?,
            },
            "like" => {
                let pattern = oj
                    .field("pattern")?
                    .as_str()
                    .unwrap_or_default()
                    .to_string();
                ExprOp::Like {
                    src: reg_below(oj, "src", i)?,
                    compiled: LikePattern::compile(&pattern),
                    pattern,
                    negated: oj.field("negated")?.as_bool().unwrap_or_default(),
                }
            }
            "in" => {
                let list = oj
                    .field("list")?
                    .as_arr()
                    .ok_or(irjson::PlanJsonError {
                        message: "in list must be an array".into(),
                    })?
                    .iter()
                    .map(irjson::scalar_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                // A NULL member cannot broadcast into the membership
                // compare (and was never executable vectorized): reject
                // at load rather than panicking mid-filter.
                if list.iter().any(Scalar::is_null) {
                    return bad("in list must not contain NULL");
                }
                ExprOp::InList {
                    src: reg_below(oj, "src", i)?,
                    list,
                    negated: oj.field("negated")?.as_bool().unwrap_or_default(),
                }
            }
            "is_null" => ExprOp::IsNull {
                src: reg_below(oj, "src", i)?,
                negated: oj.field("negated")?.as_bool().unwrap_or_default(),
            },
            "func" => ExprOp::Func {
                func: irjson::scalar_func_from_json(oj.field("func")?)?,
                src: reg_below(oj, "src", i)?,
                ty: irjson::type_from_json(oj.field("ty")?)?,
            },
            "predict" => ExprOp::ModelApply {
                model: oj.field("model")?.as_str().unwrap_or_default().to_string(),
                args: oj
                    .field("args")?
                    .as_arr()
                    .ok_or(irjson::PlanJsonError {
                        message: "predict args must be an array".into(),
                    })?
                    .iter()
                    .map(|a| match a.as_i64() {
                        Some(v) if v >= 0 && (v as usize) < i => Ok(v as usize),
                        other => bad(format!("bad predict arg register {other:?}")),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                ty: irjson::type_from_json(oj.field("ty")?)?,
                bound: BoundModel::default(),
            },
            other => return bad(format!("unknown expr op {other:?}")),
        };
        ops.push(op);
    }
    let outputs: Vec<EReg> = j
        .field("outputs")?
        .as_arr()
        .ok_or(irjson::PlanJsonError {
            message: "expr outputs must be an array".into(),
        })?
        .iter()
        .map(|v| match v.as_i64() {
            Some(x) if x >= 0 && (x as usize) < ops.len() => Ok(x as usize),
            other => bad(format!("expr output register out of range: {other:?}")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let out_tys: Vec<LogicalType> = j
        .field("out_tys")?
        .as_arr()
        .ok_or(irjson::PlanJsonError {
            message: "expr out_tys must be an array".into(),
        })?
        .iter()
        .map(irjson::type_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    if out_tys.len() != outputs.len() {
        return bad("expr outputs/out_tys length mismatch");
    }
    // Optional parameter-slot table; every slot must point at a LoadConst
    // (a mispointed slot would corrupt an arbitrary op at bind time).
    let mut params = Vec::new();
    if let Some(raw) = j.get("params") {
        let arr = raw.as_arr().ok_or(irjson::PlanJsonError {
            message: "expr params must be an array".into(),
        })?;
        for sj in arr {
            let index = match sj.field("index")?.as_i64() {
                Some(v) if v >= 0 => v as usize,
                other => return bad(format!("bad param index {other:?}")),
            };
            let reg = reg_below(sj, "reg", ops.len())?;
            let slot_ty = irjson::type_from_json(sj.field("ty")?)?;
            // The slot's declared type must agree with the op it patches —
            // otherwise a corrupt artifact defers type corruption from
            // load time to bind time (a Str scalar stored into an
            // Int64-typed constant would feed mistyped tensors to kernels
            // compiled against i64).
            match &ops[reg] {
                ExprOp::LoadConst { ty, .. } if *ty == slot_ty => {}
                ExprOp::CompareConst { value, .. } if scalar_fits(value, slot_ty) => {}
                ExprOp::LoadConst { ty, .. } => {
                    return bad(format!(
                        "param slot e{reg} declares type {slot_ty:?} but patches a \
                         {ty:?} constant"
                    ))
                }
                ExprOp::CompareConst { .. } => {
                    return bad(format!(
                        "param slot e{reg} declares type {slot_ty:?} but the compare \
                         constant holds a different scalar kind"
                    ))
                }
                _ => {
                    return bad(format!(
                        "param slot e{reg} is not a patchable constant load/compare"
                    ))
                }
            }
            params.push(ParamSlot {
                index,
                reg,
                ty: slot_ty,
            });
        }
    }
    Ok(ExprProgram {
        ops,
        outputs,
        out_tys,
        params,
        kernel: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqp_ir::expr::BoundExpr as E;

    fn batch() -> Batch {
        Batch::new(vec![
            Tensor::from_i64(vec![1, 2, 3, 4]),
            Tensor::from_f64(vec![10.0, 20.0, 30.0, 40.0]),
            Tensor::from_strings(&["PROMO A", "STD B", "PROMO C", "ECON D"], 0),
        ])
    }

    fn compile_eval(exprs: &[E]) -> Vec<Evaled> {
        eval_all(&compile_exprs(exprs), &batch())
    }

    #[test]
    fn arithmetic_compiles_to_flat_ops() {
        let e = E::Binary {
            op: BinOp::Mul,
            left: Box::new(E::col(1, LogicalType::Float64)),
            right: Box::new(E::lit_f64(2.0)),
            ty: LogicalType::Float64,
        };
        let outs = compile_eval(std::slice::from_ref(&e));
        assert_eq!(outs[0].0.as_f64(), &[20.0, 40.0, 60.0, 80.0]);
        assert!(outs[0].1.is_none());
    }

    #[test]
    fn literal_comparisons_use_the_const_fast_path_and_flip() {
        // 3 > a  must normalize to  a < 3.
        let e = E::Binary {
            op: BinOp::Gt,
            left: Box::new(E::lit_i64(3)),
            right: Box::new(E::col(0, LogicalType::Int64)),
            ty: LogicalType::Bool,
        };
        let prog = compile_expr(&e);
        assert!(
            matches!(prog.ops[1], ExprOp::CompareConst { op: BinOp::Lt, .. }),
            "{}",
            prog.display()
        );
        let outs = eval_all(&prog, &batch());
        assert_eq!(outs[0].0.as_bool(), &[true, true, false, false]);
    }

    #[test]
    fn constant_folding_collapses_closed_subtrees() {
        // a * (2 + 3)  →  LoadColumn, LoadConst(5), Binary(Mul): 3 ops.
        let e = E::Binary {
            op: BinOp::Mul,
            left: Box::new(E::col(0, LogicalType::Int64)),
            right: Box::new(E::Binary {
                op: BinOp::Add,
                left: Box::new(E::lit_i64(2)),
                right: Box::new(E::lit_i64(3)),
                ty: LogicalType::Int64,
            }),
            ty: LogicalType::Int64,
        };
        let prog = compile_expr(&e);
        assert_eq!(prog.ops.len(), 3, "{}", prog.display());
        assert!(matches!(
            prog.ops[1],
            ExprOp::LoadConst {
                value: Scalar::I64(5),
                ..
            }
        ));
    }

    #[test]
    fn cse_shares_subexpressions_across_outputs() {
        // Both outputs share `b * 2.0`; the program computes it once.
        let shared = E::Binary {
            op: BinOp::Mul,
            left: Box::new(E::col(1, LogicalType::Float64)),
            right: Box::new(E::lit_f64(2.0)),
            ty: LogicalType::Float64,
        };
        let e1 = E::Binary {
            op: BinOp::Add,
            left: Box::new(shared.clone()),
            right: Box::new(E::lit_f64(1.0)),
            ty: LogicalType::Float64,
        };
        let e2 = E::Binary {
            op: BinOp::Sub,
            left: Box::new(shared.clone()),
            right: Box::new(E::lit_f64(1.0)),
            ty: LogicalType::Float64,
        };
        let prog = compile_exprs(&[e1, e2]);
        let muls = prog
            .ops
            .iter()
            .filter(|o| matches!(o, ExprOp::Binary { op: BinOp::Mul, .. }))
            .count();
        assert_eq!(muls, 1, "{}", prog.display());
        let outs = eval_all(&prog, &batch());
        assert_eq!(outs[0].0.as_f64(), &[21.0, 41.0, 61.0, 81.0]);
        assert_eq!(outs[1].0.as_f64(), &[19.0, 39.0, 59.0, 79.0]);
    }

    #[test]
    fn case_like_chain_evaluates() {
        // Q14 numerator shape.
        let e = E::Case {
            branches: vec![(
                E::Like {
                    expr: Box::new(E::col(2, LogicalType::Str)),
                    pattern: "PROMO%".into(),
                    negated: false,
                },
                E::col(1, LogicalType::Float64),
            )],
            else_expr: Box::new(E::lit_i64(0)),
            ty: LogicalType::Float64,
        };
        let outs = compile_eval(std::slice::from_ref(&e));
        assert_eq!(outs[0].0.as_f64(), &[10.0, 0.0, 30.0, 0.0]);
    }

    #[test]
    fn validity_folds_into_masks_and_is_null() {
        let b = Batch::with_validity(
            vec![Tensor::from_i64(vec![1, 2, 3])],
            vec![Some(Tensor::from_bool(vec![true, false, true]))],
        );
        let e = E::Binary {
            op: BinOp::Gt,
            left: Box::new(E::col(0, LogicalType::Int64)),
            right: Box::new(E::lit_i64(0)),
            ty: LogicalType::Bool,
        };
        let prog = compile_expr(&e);
        let mask = eval_conjuncts_eager(&prog, &b);
        assert_eq!(mask.as_bool(), &[true, false, true]);
        let isnull = E::IsNull {
            expr: Box::new(E::col(0, LogicalType::Int64)),
            negated: false,
        };
        let outs = eval_all(&compile_expr(&isnull), &b);
        assert_eq!(outs[0].0.as_bool(), &[false, true, false]);
        assert!(outs[0].1.is_none());
    }

    #[test]
    fn row_eval_matches_baseline_eval_expr() {
        use tqp_baseline::eval::eval_expr;
        let row: Row = vec![Scalar::I64(5), Scalar::Str("PROMO X".into()), Scalar::Null];
        let exprs = vec![
            E::Binary {
                op: BinOp::Add,
                left: Box::new(E::col(2, LogicalType::Int64)),
                right: Box::new(E::lit_i64(1)),
                ty: LogicalType::Int64,
            },
            E::Like {
                expr: Box::new(E::col(1, LogicalType::Str)),
                pattern: "PROMO%".into(),
                negated: false,
            },
            E::IsNull {
                expr: Box::new(E::col(2, LogicalType::Int64)),
                negated: false,
            },
            E::Func {
                func: ScalarFunc::Substring { start: 1, len: 5 },
                args: vec![E::col(1, LogicalType::Str)],
                ty: LogicalType::Str,
            },
        ];
        let prog = compile_exprs(&exprs);
        let mut scratch = Vec::new();
        let outs = eval_row_outputs(&prog, &row, &mut scratch);
        for (o, e) in outs.iter().zip(&exprs) {
            assert_eq!(*o, eval_expr(e, &row), "{e:?}");
        }
    }

    #[test]
    fn codec_roundtrips_exactly() {
        let exprs = vec![
            E::Case {
                branches: vec![(
                    E::Like {
                        expr: Box::new(E::col(2, LogicalType::Str)),
                        pattern: "%B".into(),
                        negated: true,
                    },
                    E::col(1, LogicalType::Float64),
                )],
                else_expr: Box::new(E::lit_i64(0)),
                ty: LogicalType::Float64,
            },
            E::InList {
                expr: Box::new(E::col(0, LogicalType::Int64)),
                list: vec![Scalar::I64(1), Scalar::I64(3)],
                negated: false,
            },
            E::Func {
                func: ScalarFunc::Substring { start: 2, len: 3 },
                args: vec![E::col(2, LogicalType::Str)],
                ty: LogicalType::Str,
            },
        ];
        let prog = compile_exprs(&exprs);
        let j = exprprog_to_json(&prog);
        let text = j.to_string();
        let back = exprprog_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, prog);
    }

    #[test]
    fn codec_rejects_forward_register_reads() {
        let text = r#"{"ops":[{"k":"not","src":0}],"outputs":[0],"out_tys":["bool"]}"#;
        assert!(exprprog_from_json(&Json::parse(text).unwrap()).is_err());
    }

    #[test]
    fn codec_accepts_typed_null_constants() {
        // NULL constants materialize as typed all-invalid registers
        // (NULL-bound parameters need this for every logical type).
        for ty in ["int64", "float64", "str", "bool", "date"] {
            let text = format!(
                r#"{{"ops":[{{"k":"const","value":{{"t":"null"}},"ty":"{ty}"}}],
                     "outputs":[0],"out_tys":["{ty}"]}}"#
            );
            assert!(
                exprprog_from_json(&Json::parse(&text).unwrap()).is_ok(),
                "{ty}"
            );
        }
    }

    #[test]
    fn codec_rejects_param_slot_type_mismatch() {
        // A slot claiming Str over an Int64 constant would store a Str
        // scalar into an i64-typed register at bind time; fail at load.
        let text = r#"{"ops":[{"k":"const","value":{"t":"i64","v":0},"ty":"int64"}],
                       "outputs":[0],"out_tys":["int64"],
                       "params":[{"index":0,"reg":0,"ty":"str"}]}"#;
        let err = exprprog_from_json(&Json::parse(text).unwrap()).unwrap_err();
        assert!(err.message.contains("declares type"), "{}", err.message);
        let ok = r#"{"ops":[{"k":"const","value":{"t":"i64","v":0},"ty":"int64"}],
                     "outputs":[0],"out_tys":["int64"],
                     "params":[{"index":0,"reg":0,"ty":"int64"}]}"#;
        assert!(exprprog_from_json(&Json::parse(ok).unwrap()).is_ok());
    }

    #[test]
    fn codec_rejects_mispointed_param_slots() {
        // A slot must reference a patchable constant; anything else would
        // let a bind call overwrite an arbitrary op.
        let text = r#"{"ops":[{"k":"col","index":0,"ty":"int64"}],
                       "outputs":[0],"out_tys":["int64"],
                       "params":[{"index":0,"reg":0,"ty":"int64"}]}"#;
        let err = exprprog_from_json(&Json::parse(text).unwrap()).unwrap_err();
        assert!(
            err.message.contains("patchable constant"),
            "{}",
            err.message
        );
    }

    #[test]
    fn codec_rejects_null_broadcast_operands() {
        // NULL cmp_const values and NULL in-list members cannot broadcast
        // into a tensor; the vectorized backends would panic mid-query.
        let cmp = r#"{"ops":[{"k":"col","index":0,"ty":"int64"},
                             {"k":"cmp_const","op":"<","src":0,"value":{"t":"null"}}],
                      "outputs":[1],"out_tys":["bool"]}"#;
        let err = exprprog_from_json(&Json::parse(cmp).unwrap()).unwrap_err();
        assert!(err.message.contains("cmp_const"), "{}", err.message);
        let inlist = r#"{"ops":[{"k":"col","index":0,"ty":"int64"},
                                {"k":"in","src":0,
                                 "list":[{"t":"i64","v":1},{"t":"null"}],
                                 "negated":false}],
                         "outputs":[1],"out_tys":["bool"]}"#;
        let err = exprprog_from_json(&Json::parse(inlist).unwrap()).unwrap_err();
        assert!(err.message.contains("in list"), "{}", err.message);
    }

    #[test]
    fn const_false_output_detected() {
        let prog = compile_exprs(&[E::lit_bool(false)]);
        assert!(prog.has_const_false_output());
        let prog = compile_exprs(&[E::lit_bool(true)]);
        assert!(!prog.has_const_false_output());
    }
}
