//! **The kernel-specialization layer**: binding [`ExprProgram`]s to the
//! fused, type-monomorphized kernels in [`tqp_tensor::kernels`].
//!
//! Binding happens once per program, when it is lowered for a kernel
//! backend: [`crate::Executor::compile`] binds for `Backend::Fused`, and
//! [`crate::graphvm::load_artifact`] binds for `Backend::Graph` (whose
//! runs each load the artifact, so Graph binds on every run; a few
//! microseconds per query, next to the deserialization it follows).
//! [`bind_program`] runs the fusion pass over every expression site in the
//! mode its role implies — filter conjuncts and join residuals produce one
//! mask, projections, aggregate bundles and sort keys produce every
//! output — and stores the result in [`ExprProgram::kernel`]. A program
//! that matches the fusible shapes (conjunct chains of
//! `CompareConst`/`InList`/`IsNull`/`Like`, arithmetic chains like
//! `l_extendedprice * (1 - l_discount) * (1 + l_tax)`, `Coerce`+`Binary`
//! aggregate inputs) gets a [`FusedKernel`] whose execution is a single
//! chunked pass with no intermediate register tensors (see the `kernels`
//! module docs for the loop shape). Programs containing `CASE`, scalar
//! functions, `PREDICT`, NULL constants, or string-typed intermediate
//! registers get none, and so does every program on Eager and Wasm.
//!
//! **Constants are not shape.** A kernel reads its constants from a
//! per-execution [`ConstPool`] extracted from the live program, so a
//! prepared statement's parameter-patched clone shares its template's
//! kernel. When the live program no longer fits the kernel (a NULL bound
//! where the template held a value) or the batch's physical types differ
//! from the compiled ones, that call takes the generic walk.
//!
//! **Evaluation.** [`conjunct_mask`] and [`eval_all`] run the bound kernel
//! and fall back to the generic walk ([`exprprog::eval_conjuncts_eager`],
//! [`exprprog::eval_all`]) where there is none. Both give bitwise the same
//! result: `tests/property_exprprog.rs` compares every kernel against the
//! generic walk, and `tests/parallel_parity.rs` runs the 22 TPC-H queries
//! on Eager (no kernels) against Fused and Graph.

use std::sync::Arc;

use tqp_data::LogicalType;
use tqp_ir::expr::BinOp;
use tqp_tensor::kernels::{
    ColInput, ConstPool, FusedKernel, KConjunct, KOp, KOut, KOutValue, KSrc,
};
use tqp_tensor::ops::{self, BinOp as TB};
use tqp_tensor::{DType, Scalar, Tensor};

use crate::batch::Batch;
use crate::expr::{to_cmp, Evaled};
use crate::exprprog::{self, ExprOp, ExprProgram};
use crate::program::TensorProgram;

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

/// Evaluate all conjuncts of a filter program into one AND-folded mask
/// (validity folded in: NULL = drop): the bound kernel when there is one
/// and it fits, otherwise [`exprprog::eval_conjuncts_eager`].
pub fn conjunct_mask(prog: &ExprProgram, batch: &Batch) -> Tensor {
    kernel_mask(prog, batch).unwrap_or_else(|| exprprog::eval_conjuncts_eager(prog, batch))
}

/// Evaluate every output of a program (projections, aggregate inputs,
/// sort keys): the bound kernel when there is one and it fits, otherwise
/// [`exprprog::eval_all`].
pub fn eval_all(prog: &ExprProgram, batch: &Batch) -> Vec<Evaled> {
    kernel_outputs(prog, batch).unwrap_or_else(|| exprprog::eval_all(prog, batch))
}

/// Evaluation mode a kernel is specialized for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Filter conjuncts and join residuals: one AND-folded mask over all
    /// outputs.
    Mask,
    /// Projections, aggregate bundles and sort keys: every output
    /// materialized.
    Outputs,
}

/// Run the fusion pass once and store its kernel (or `None`) in `prog`.
pub fn bind(prog: &mut ExprProgram, mode: Mode) {
    prog.kernel = try_fuse(prog, mode).map(Arc::new);
}

/// Bind a kernel at every expression site of a lowered program, in the
/// mode the site's role implies.
pub fn bind_program(prog: &mut TensorProgram) {
    prog.for_each_exprprog_mut(bind);
}

// ---------------------------------------------------------------------
// Skeletons
// ---------------------------------------------------------------------

/// Where to fetch one constant-pool entry from the live program: the op
/// index plus the expected shape. Extraction happens per execution, after
/// parameter binding, so re-binds never recompile.
#[derive(Debug, Clone, Copy)]
enum ConstSpec {
    /// `CompareConst`/`LoadConst` integer → `i64s`.
    I64(usize),
    /// Float (or numeric compared against an f64 register) → `f64s`.
    F64(usize),
    /// Bool constant → `bools`.
    Bool(usize),
    /// String needle of a `CompareConst` → `strs`.
    Str(usize),
    /// All-integer `InList` members → `i64_lists`.
    I64List(usize),
    /// All-numeric `InList` members (f64 register) → `f64_lists`.
    F64List(usize),
    /// All-string `InList` members → `str_lists`.
    StrList(usize),
    /// Pre-compiled LIKE pattern → `likes`.
    Like(usize),
}

/// A compiled kernel plus the batch-binding metadata: which batch columns
/// feed which kernel channels, where constants come from, and which
/// columns' validity each output inherits.
#[derive(Debug)]
pub struct Skeleton {
    /// The mode the kernel was specialized for; it can only run in it.
    mode: Mode,
    kernel: FusedKernel,
    /// `(batch column, expected dtype)` per kernel column channel.
    cols: Vec<(usize, DType)>,
    /// Batch column per validity channel.
    vchans: Vec<usize>,
    const_specs: Vec<ConstSpec>,
    /// Validity-source batch columns per output (outputs mode).
    out_vcols: Vec<Vec<usize>>,
}

// ---------------------------------------------------------------------
// The fusion pass
// ---------------------------------------------------------------------

/// Class-tracked value of one expression register during lowering.
#[derive(Clone, Copy)]
enum RV {
    I64(KSrc),
    F64(KSrc),
    Bool(KSrc),
    /// A bare string column (channel index) — consumable only by string
    /// predicates and passthrough outputs.
    Str(usize),
}

/// Lowering state for [`try_fuse`].
#[derive(Default)]
struct Fuser {
    kops: Vec<KOp>,
    cols: Vec<(usize, DType)>,
    vchans: Vec<usize>,
    const_specs: Vec<ConstSpec>,
    n_i64: usize,
    n_f64: usize,
    n_bool: usize,
    n_strs: usize,
    n_i64_lists: usize,
    n_f64_lists: usize,
    n_str_lists: usize,
    n_likes: usize,
    n_const_i64: usize,
    n_const_f64: usize,
    n_const_bool: usize,
}

impl Fuser {
    fn channel(&mut self, col: usize, dt: DType) -> Option<usize> {
        if let Some(i) = self.cols.iter().position(|&(c, _)| c == col) {
            // A column read at two dtypes cannot happen (dtype is keyed
            // by the column), but keep the check exact.
            return (self.cols[i].1 == dt).then_some(i);
        }
        self.cols.push((col, dt));
        Some(self.cols.len() - 1)
    }

    fn vchannel(&mut self, col: usize) -> usize {
        if let Some(i) = self.vchans.iter().position(|&c| c == col) {
            return i;
        }
        self.vchans.push(col);
        self.vchans.len() - 1
    }

    fn i64_slot(&mut self) -> usize {
        self.n_i64 += 1;
        self.n_i64 - 1
    }
    fn f64_slot(&mut self) -> usize {
        self.n_f64 += 1;
        self.n_f64 - 1
    }
    fn bool_slot(&mut self) -> usize {
        self.n_bool += 1;
        self.n_bool - 1
    }

    /// Ensure a numeric register is f64, inserting the widening cast the
    /// generic path's `promote` would perform.
    fn widen_f64(&mut self, rv: RV) -> Option<KSrc> {
        match rv {
            RV::F64(s) => Some(s),
            RV::I64(s) => {
                let dst = self.f64_slot();
                self.kops.push(KOp::CastI64F64 { dst, src: s });
                Some(KSrc::Buf(dst))
            }
            _ => None,
        }
    }
}

/// Union of two sorted validity-source column lists.
fn vunion(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = a.to_vec();
    for &c in b {
        if !out.contains(&c) {
            out.push(c);
        }
    }
    out.sort_unstable();
    out
}

/// Attempt to specialize `prog` into a fused kernel. `None` = some op (or
/// type combination) is outside the fusible subset; the program keeps the
/// generic walk.
fn try_fuse(prog: &ExprProgram, mode: Mode) -> Option<Skeleton> {
    if prog.ops.is_empty() || prog.outputs.is_empty() {
        return None;
    }
    let mut f = Fuser::default();
    let mut rvs: Vec<RV> = Vec::with_capacity(prog.ops.len());
    // Validity-source batch columns per register (sorted).
    let mut vcols: Vec<Vec<usize>> = Vec::with_capacity(prog.ops.len());
    // Kernel-op count after lowering each expression op (for conjunct
    // cut mapping: expression cuts are in expression-op indices).
    let mut ends: Vec<usize> = Vec::with_capacity(prog.ops.len());

    for (i, op) in prog.ops.iter().enumerate() {
        let (rv, vc) = lower_op(&mut f, op, i, &rvs, &vcols)?;
        rvs.push(rv);
        vcols.push(vc);
        ends.push(f.kops.len());
    }

    let mut conjuncts = Vec::new();
    let mut outs = Vec::new();
    let mut out_vcols = Vec::new();
    match mode {
        Mode::Mask => {
            let cuts = prog.output_cuts();
            for (k, &r) in prog.outputs.iter().enumerate() {
                let vchans: Vec<usize> = vcols[r].iter().map(|&c| f.vchannel(c)).collect();
                let (reg, col) = match rvs[r] {
                    RV::Bool(KSrc::Buf(s)) => (Some(s), None),
                    RV::Bool(KSrc::Col(ch)) => (None, Some(ch)),
                    _ => return None, // non-bool conjunct cannot be a filter
                };
                conjuncts.push(KConjunct {
                    end: ends[cuts[k] - 1],
                    reg,
                    col,
                    vchans,
                });
            }
        }
        Mode::Outputs => {
            for &r in &prog.outputs {
                let spec = match rvs[r] {
                    RV::I64(KSrc::Buf(s)) => KOut::I64(s),
                    RV::F64(KSrc::Buf(s)) => KOut::F64(s),
                    RV::Bool(KSrc::Buf(s)) => KOut::Bool(s),
                    RV::I64(KSrc::Col(ch)) | RV::F64(KSrc::Col(ch)) | RV::Bool(KSrc::Col(ch)) => {
                        KOut::Col(ch)
                    }
                    RV::Str(ch) => KOut::Col(ch),
                };
                outs.push(spec);
                out_vcols.push(vcols[r].clone());
            }
        }
    }

    Some(Skeleton {
        mode,
        kernel: FusedKernel {
            ops: f.kops,
            n_i64: f.n_i64,
            n_f64: f.n_f64,
            n_bool: f.n_bool,
            conjuncts,
            outs,
        },
        cols: f.cols,
        vchans: f.vchans,
        const_specs: f.const_specs,
        out_vcols,
    })
}

/// Expected tensor dtype of a logical column type.
fn col_dtype(ty: LogicalType) -> DType {
    match ty {
        LogicalType::Bool => DType::Bool,
        LogicalType::Int64 | LogicalType::Date => DType::I64,
        LogicalType::Float64 => DType::F64,
        LogicalType::Str => DType::U8,
    }
}

/// Lower one expression op; `None` bails the whole program out of fusion.
fn lower_op(
    f: &mut Fuser,
    op: &ExprOp,
    i: usize,
    rvs: &[RV],
    vcols: &[Vec<usize>],
) -> Option<(RV, Vec<usize>)> {
    let cmp_of = |op: BinOp| to_cmp(op);
    match op {
        ExprOp::LoadColumn { index, ty } => {
            let dt = col_dtype(*ty);
            let ch = f.channel(*index, dt)?;
            let rv = match dt {
                DType::I64 => RV::I64(KSrc::Col(ch)),
                DType::F64 => RV::F64(KSrc::Col(ch)),
                DType::Bool => RV::Bool(KSrc::Col(ch)),
                DType::U8 => RV::Str(ch),
                _ => return None,
            };
            Some((rv, vec![*index]))
        }
        ExprOp::LoadConst { value, ty } => {
            if value.is_null() {
                return None; // all-invalid register: generic path only
            }
            let rv = match (ty, value) {
                (LogicalType::Int64 | LogicalType::Date, s)
                    if s.dtype().map(|d| d.is_int()) == Some(true) =>
                {
                    let dst = f.i64_slot();
                    let c = f.n_const_i64;
                    f.n_const_i64 += 1;
                    f.const_specs.push(ConstSpec::I64(i));
                    f.kops.push(KOp::ConstI64 { dst, c });
                    RV::I64(KSrc::Buf(dst))
                }
                (LogicalType::Float64, s) if s.dtype().map(|d| d.is_numeric()) == Some(true) => {
                    let dst = f.f64_slot();
                    let c = f.n_const_f64;
                    f.n_const_f64 += 1;
                    f.const_specs.push(ConstSpec::F64(i));
                    f.kops.push(KOp::ConstF64 { dst, c });
                    RV::F64(KSrc::Buf(dst))
                }
                (LogicalType::Bool, Scalar::Bool(_)) => {
                    let dst = f.bool_slot();
                    let c = f.n_const_bool;
                    f.n_const_bool += 1;
                    f.const_specs.push(ConstSpec::Bool(i));
                    f.kops.push(KOp::ConstBool { dst, c });
                    RV::Bool(KSrc::Buf(dst))
                }
                _ => return None, // string/mistyped constants: generic path
            };
            Some((rv, vec![]))
        }
        ExprOp::Binary { op, lhs, rhs, .. } => {
            let vc = vunion(&vcols[*lhs], &vcols[*rhs]);
            match op {
                BinOp::And | BinOp::Or => {
                    let (RV::Bool(a), RV::Bool(b)) = (rvs[*lhs], rvs[*rhs]) else {
                        return None;
                    };
                    let dst = f.bool_slot();
                    f.kops.push(match op {
                        BinOp::And => KOp::And { dst, a, b },
                        _ => KOp::Or { dst, a, b },
                    });
                    Some((RV::Bool(KSrc::Buf(dst)), vc))
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                    let tb = match op {
                        BinOp::Add => TB::Add,
                        BinOp::Sub => TB::Sub,
                        BinOp::Mul => TB::Mul,
                        BinOp::Div => TB::Div,
                        _ => TB::Mod,
                    };
                    match (rvs[*lhs], rvs[*rhs]) {
                        // Integer `/` and `%` by zero are NULL, which a
                        // kernel's column-validity AND cannot express:
                        // generic path.
                        (RV::I64(_), RV::I64(_)) if matches!(op, BinOp::Div | BinOp::Mod) => None,
                        (RV::I64(a), RV::I64(b)) => {
                            let dst = f.i64_slot();
                            f.kops.push(KOp::ArithI64 { dst, op: tb, a, b });
                            Some((RV::I64(KSrc::Buf(dst)), vc))
                        }
                        (la @ (RV::I64(_) | RV::F64(_)), lb @ (RV::I64(_) | RV::F64(_))) => {
                            let a = f.widen_f64(la)?;
                            let b = f.widen_f64(lb)?;
                            let dst = f.f64_slot();
                            f.kops.push(KOp::ArithF64 { dst, op: tb, a, b });
                            Some((RV::F64(KSrc::Buf(dst)), vc))
                        }
                        _ => None, // bool/string arithmetic: generic path
                    }
                }
                cmp => {
                    let c = cmp_of(*cmp)?;
                    match (rvs[*lhs], rvs[*rhs]) {
                        (RV::I64(a), RV::I64(b)) => {
                            let dst = f.bool_slot();
                            f.kops.push(KOp::CmpI64 { dst, op: c, a, b });
                            Some((RV::Bool(KSrc::Buf(dst)), vc))
                        }
                        (RV::Bool(a), RV::Bool(b)) => {
                            let dst = f.bool_slot();
                            f.kops.push(KOp::CmpBool { dst, op: c, a, b });
                            Some((RV::Bool(KSrc::Buf(dst)), vc))
                        }
                        (la @ (RV::I64(_) | RV::F64(_)), lb @ (RV::I64(_) | RV::F64(_))) => {
                            let a = f.widen_f64(la)?;
                            let b = f.widen_f64(lb)?;
                            let dst = f.bool_slot();
                            f.kops.push(KOp::CmpF64 { dst, op: c, a, b });
                            Some((RV::Bool(KSrc::Buf(dst)), vc))
                        }
                        _ => None, // string × string compare: generic path
                    }
                }
            }
        }
        ExprOp::CompareConst { op, src, value } => {
            let c = cmp_of(*op)?;
            let vc = vcols[*src].clone();
            let dst = f.bool_slot();
            match (rvs[*src], value) {
                (RV::I64(s), v) if v.dtype().map(|d| d.is_int()) == Some(true) => {
                    let ci = f.n_const_i64;
                    f.n_const_i64 += 1;
                    f.const_specs.push(ConstSpec::I64(i));
                    f.kops.push(KOp::CmpConstI64 {
                        dst,
                        op: c,
                        src: s,
                        c: ci,
                    });
                }
                (RV::F64(s), v) if v.dtype().map(|d| d.is_numeric()) == Some(true) => {
                    let ci = f.n_const_f64;
                    f.n_const_f64 += 1;
                    f.const_specs.push(ConstSpec::F64(i));
                    f.kops.push(KOp::CmpConstF64 {
                        dst,
                        op: c,
                        src: s,
                        c: ci,
                    });
                }
                (rv @ RV::I64(_), v) if v.dtype() == Some(DType::F64) => {
                    // The generic fallback promotes the column to f64 and
                    // compares against the broadcast float.
                    let s = f.widen_f64(rv)?;
                    let ci = f.n_const_f64;
                    f.n_const_f64 += 1;
                    f.const_specs.push(ConstSpec::F64(i));
                    f.kops.push(KOp::CmpConstF64 {
                        dst,
                        op: c,
                        src: s,
                        c: ci,
                    });
                }
                (RV::Bool(s), Scalar::Bool(_)) => {
                    let ci = f.n_const_bool;
                    f.n_const_bool += 1;
                    f.const_specs.push(ConstSpec::Bool(i));
                    f.kops.push(KOp::CmpConstBool {
                        dst,
                        op: c,
                        src: s,
                        c: ci,
                    });
                }
                (RV::Str(col), Scalar::Str(_)) => {
                    let ci = f.n_strs;
                    f.n_strs += 1;
                    f.const_specs.push(ConstSpec::Str(i));
                    f.kops.push(KOp::CmpStrConst {
                        dst,
                        col,
                        op: c,
                        c: ci,
                    });
                }
                _ => return None,
            }
            Some((RV::Bool(KSrc::Buf(dst)), vc))
        }
        ExprOp::Not { src } => {
            let RV::Bool(s) = rvs[*src] else { return None };
            let dst = f.bool_slot();
            f.kops.push(KOp::Not { dst, src: s });
            Some((RV::Bool(KSrc::Buf(dst)), vcols[*src].clone()))
        }
        ExprOp::Neg { src } => match rvs[*src] {
            RV::I64(s) => {
                let dst = f.i64_slot();
                f.kops.push(KOp::NegI64 { dst, src: s });
                Some((RV::I64(KSrc::Buf(dst)), vcols[*src].clone()))
            }
            RV::F64(s) => {
                let dst = f.f64_slot();
                f.kops.push(KOp::NegF64 { dst, src: s });
                Some((RV::F64(KSrc::Buf(dst)), vcols[*src].clone()))
            }
            _ => None,
        },
        ExprOp::Coerce { src, ty } => {
            let vc = vcols[*src].clone();
            match (rvs[*src], ty) {
                (rv @ RV::F64(_), LogicalType::Float64) => Some((rv, vc)),
                (rv @ RV::I64(_), LogicalType::Float64) => {
                    let s = f.widen_f64(rv)?;
                    Some((RV::F64(s), vc))
                }
                (rv @ RV::I64(_), LogicalType::Int64 | LogicalType::Date) => Some((rv, vc)),
                (rv @ RV::Str(_), LogicalType::Int64) => Some((rv, vc)), // coerce skips U8
                (rv @ RV::Bool(_), LogicalType::Bool) => Some((rv, vc)),
                (rv @ RV::Str(_), LogicalType::Str) => Some((rv, vc)),
                _ => None, // narrowing casts: generic path
            }
        }
        ExprOp::Like { src, negated, .. } => {
            let RV::Str(col) = rvs[*src] else { return None };
            let dst = f.bool_slot();
            let c = f.n_likes;
            f.n_likes += 1;
            f.const_specs.push(ConstSpec::Like(i));
            f.kops.push(KOp::LikeStr {
                dst,
                col,
                c,
                negated: *negated,
            });
            Some((RV::Bool(KSrc::Buf(dst)), vcols[*src].clone()))
        }
        ExprOp::InList { src, list, negated } => {
            let vc = vcols[*src].clone();
            let dst = f.bool_slot();
            match rvs[*src] {
                RV::I64(s)
                    if list
                        .iter()
                        .all(|v| v.dtype().map(|d| d.is_int()) == Some(true)) =>
                {
                    let c = f.n_i64_lists;
                    f.n_i64_lists += 1;
                    f.const_specs.push(ConstSpec::I64List(i));
                    f.kops.push(KOp::InListI64 {
                        dst,
                        src: s,
                        c,
                        negated: *negated,
                    });
                }
                RV::F64(s)
                    if list
                        .iter()
                        .all(|v| v.dtype().map(|d| d.is_numeric()) == Some(true)) =>
                {
                    let c = f.n_f64_lists;
                    f.n_f64_lists += 1;
                    f.const_specs.push(ConstSpec::F64List(i));
                    f.kops.push(KOp::InListF64 {
                        dst,
                        src: s,
                        c,
                        negated: *negated,
                    });
                }
                RV::Str(col) if list.iter().all(|v| matches!(v, Scalar::Str(_))) => {
                    let c = f.n_str_lists;
                    f.n_str_lists += 1;
                    f.const_specs.push(ConstSpec::StrList(i));
                    f.kops.push(KOp::InListStr {
                        dst,
                        col,
                        c,
                        negated: *negated,
                    });
                }
                _ => return None, // mixed-kind lists: generic promotion rules
            }
            Some((RV::Bool(KSrc::Buf(dst)), vc))
        }
        ExprOp::IsNull { src, negated } => {
            let vchans: Vec<usize> = vcols[*src].iter().map(|&c| f.vchannel(c)).collect();
            let dst = f.bool_slot();
            f.kops.push(KOp::IsNull {
                dst,
                vchans,
                negated: *negated,
            });
            // IS NULL's own result is always valid.
            Some((RV::Bool(KSrc::Buf(dst)), vec![]))
        }
        // CASE, scalar functions, and PREDICT keep the generic executor.
        ExprOp::Select { .. } | ExprOp::Func { .. } | ExprOp::ModelApply { .. } => None,
    }
}

// ---------------------------------------------------------------------
// Per-execution binding
// ---------------------------------------------------------------------

/// Extract the constant pools from the live (parameter-bound) program.
/// `None` = a constant's kind no longer matches the compiled shape (a
/// NULL bound where the template held a value); the call takes the
/// generic walk.
fn extract_consts(prog: &ExprProgram, specs: &[ConstSpec]) -> Option<ConstPool> {
    let mut pool = ConstPool::default();
    for spec in specs {
        match *spec {
            ConstSpec::I64(op) => match &prog.ops[op] {
                ExprOp::LoadConst { value, .. } | ExprOp::CompareConst { value, .. }
                    if value.dtype().map(|d| d.is_int()) == Some(true) =>
                {
                    pool.i64s.push(value.as_i64())
                }
                _ => return None,
            },
            ConstSpec::F64(op) => match &prog.ops[op] {
                ExprOp::LoadConst { value, .. } | ExprOp::CompareConst { value, .. }
                    if value.dtype().map(|d| d.is_numeric()) == Some(true) =>
                {
                    pool.f64s.push(value.as_f64())
                }
                _ => return None,
            },
            ConstSpec::Bool(op) => match &prog.ops[op] {
                ExprOp::LoadConst {
                    value: Scalar::Bool(b),
                    ..
                }
                | ExprOp::CompareConst {
                    value: Scalar::Bool(b),
                    ..
                } => pool.bools.push(*b),
                _ => return None,
            },
            ConstSpec::Str(op) => match &prog.ops[op] {
                ExprOp::CompareConst {
                    value: Scalar::Str(s),
                    ..
                } => pool.strs.push(s.as_bytes().to_vec()),
                _ => return None,
            },
            ConstSpec::I64List(op) => match &prog.ops[op] {
                ExprOp::InList { list, .. }
                    if list
                        .iter()
                        .all(|v| v.dtype().map(|d| d.is_int()) == Some(true)) =>
                {
                    pool.i64_lists
                        .push(list.iter().map(|v| v.as_i64()).collect())
                }
                _ => return None,
            },
            ConstSpec::F64List(op) => match &prog.ops[op] {
                ExprOp::InList { list, .. }
                    if list
                        .iter()
                        .all(|v| v.dtype().map(|d| d.is_numeric()) == Some(true)) =>
                {
                    pool.f64_lists
                        .push(list.iter().map(|v| v.as_f64()).collect())
                }
                _ => return None,
            },
            ConstSpec::StrList(op) => match &prog.ops[op] {
                ExprOp::InList { list, .. } if list.iter().all(|v| matches!(v, Scalar::Str(_))) => {
                    pool.str_lists.push(
                        list.iter()
                            .map(|v| v.as_str().as_bytes().to_vec())
                            .collect(),
                    )
                }
                _ => return None,
            },
            ConstSpec::Like(op) => match &prog.ops[op] {
                ExprOp::Like { compiled, .. } => pool.likes.push(compiled.clone()),
                _ => return None,
            },
        }
    }
    Some(pool)
}

/// Kernel input views bound from a batch: the typed column slices plus
/// the runtime validity channels, in skeleton order.
type BoundInputs<'a> = (Vec<ColInput<'a>>, Vec<Option<&'a [bool]>>);

/// Bind a skeleton to a batch: dtype-check the columns and build the
/// kernel input views. `None` = the batch's physical types don't match
/// the compiled expectation (e.g. model-produced `f32` columns).
fn bind_inputs<'a>(skel: &Skeleton, batch: &'a Batch) -> Option<BoundInputs<'a>> {
    let mut cols = Vec::with_capacity(skel.cols.len());
    for &(c, dt) in &skel.cols {
        let t = batch.columns.get(c)?;
        if t.dtype() != dt {
            return None;
        }
        cols.push(match dt {
            DType::I64 => ColInput::I64(t.as_i64()),
            DType::F64 => ColInput::F64(t.as_f64()),
            DType::Bool => ColInput::Bool(t.as_bool()),
            DType::U8 => match t.coded() {
                Some((codes, dict)) => ColInput::Coded { codes, dict },
                None => ColInput::Str {
                    data: t.as_u8(),
                    width: t.row_width(),
                },
            },
            _ => return None,
        });
    }
    let vals: Vec<Option<&[bool]>> = skel
        .vchans
        .iter()
        .map(|&c| batch.validity[c].as_ref().map(|t| t.as_bool()))
        .collect();
    Some((cols, vals))
}

/// The bound kernel's filter mask. `None` when no kernel is bound, or the
/// live program or the batch no longer fits it; the caller then takes the
/// generic walk.
fn kernel_mask(prog: &ExprProgram, batch: &Batch) -> Option<Tensor> {
    let skel = prog.kernel.as_deref()?;
    assert_eq!(skel.mode, Mode::Mask, "an outputs kernel asked for a mask");
    let consts = extract_consts(prog, &skel.const_specs)?;
    let (cols, vals) = bind_inputs(skel, batch)?;
    Some(Tensor::from_bool(skel.kernel.run_mask(
        &cols,
        &vals,
        &consts,
        batch.nrows(),
    )))
}

/// The bound kernel's outputs; `None` as for [`kernel_mask`].
fn kernel_outputs(prog: &ExprProgram, batch: &Batch) -> Option<Vec<Evaled>> {
    let skel = prog.kernel.as_deref()?;
    assert_eq!(skel.mode, Mode::Outputs, "a mask kernel asked for outputs");
    let consts = extract_consts(prog, &skel.const_specs)?;
    let (cols, vals) = bind_inputs(skel, batch)?;
    let raw = skel
        .kernel
        .run_outputs(&cols, &vals, &consts, batch.nrows());
    let mut outs = Vec::with_capacity(raw.len());
    for (k, v) in raw.into_iter().enumerate() {
        let value = match v {
            KOutValue::I64(v) => Tensor::from_i64(v),
            KOutValue::F64(v) => Tensor::from_f64(v),
            KOutValue::Bool(v) => Tensor::from_bool(v),
            KOutValue::Col(ch) => batch.columns[skel.cols[ch].0].clone(),
        };
        // Assemble validity from the statically-known source columns,
        // reproducing `merge_validity` exactly: no sources present ⇒
        // `None`, one ⇒ that tensor, several ⇒ bitwise AND.
        let present: Vec<&Tensor> = skel.out_vcols[k]
            .iter()
            .filter_map(|&c| batch.validity[c].as_ref())
            .collect();
        let validity = match present.len() {
            0 => None,
            1 => Some(present[0].clone()),
            _ => {
                let mut acc = ops::and(present[0], present[1]);
                for t in &present[2..] {
                    acc = ops::and(&acc, t);
                }
                Some(acc)
            }
        };
        outs.push((value, validity));
    }
    Some(outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqp_data::LogicalType as LT;

    fn batch() -> Batch {
        let n = 2500usize;
        let qty = Tensor::from_i64((0..n as i64).map(|i| i % 50).collect());
        let price = Tensor::from_f64((0..n).map(|i| 900.0 + i as f64).collect());
        let disc = Tensor::from_f64((0..n).map(|i| (i % 11) as f64 / 100.0).collect());
        let flag = Tensor::from_bool((0..n).map(|i| i % 3 == 0).collect());
        let nv = Tensor::from_i64((0..n as i64).collect());
        let nv_val = Tensor::from_bool((0..n).map(|i| i % 4 != 2).collect());
        Batch::with_validity(
            vec![qty, price, disc, flag, nv],
            vec![None, None, None, None, Some(nv_val)],
        )
    }

    fn col(i: usize, ty: LT) -> ExprOp {
        ExprOp::LoadColumn { index: i, ty }
    }

    #[test]
    fn fused_mask_matches_eager_fold() {
        let mut prog = ExprProgram {
            ops: vec![
                col(0, LT::Int64),
                ExprOp::CompareConst {
                    op: BinOp::Lt,
                    src: 0,
                    value: Scalar::I64(24),
                },
                col(2, LT::Float64),
                ExprOp::CompareConst {
                    op: BinOp::GtEq,
                    src: 2,
                    value: Scalar::F64(0.05),
                },
                col(4, LT::Int64),
                ExprOp::CompareConst {
                    op: BinOp::Gt,
                    src: 4,
                    value: Scalar::I64(100),
                },
            ],
            outputs: vec![1, 3, 5],
            out_tys: vec![LT::Bool, LT::Bool, LT::Bool],
            params: vec![],
            kernel: None,
        };
        bind(&mut prog, Mode::Mask);
        assert!(prog.kernel.is_some(), "compare chain fuses");
        let b = batch();
        let fused = conjunct_mask(&prog, &b);
        let eager = exprprog::eval_conjuncts_eager(&prog, &b);
        assert_eq!(fused.as_bool(), eager.as_bool());
    }

    #[test]
    fn fused_outputs_match_generic_eval_all_bitwise() {
        // price * (1 - disc) + qty, plus a passthrough and a nullable col.
        let mut prog = ExprProgram {
            ops: vec![
                col(1, LT::Float64),
                ExprOp::LoadConst {
                    value: Scalar::F64(1.0),
                    ty: LT::Float64,
                },
                col(2, LT::Float64),
                ExprOp::Binary {
                    op: BinOp::Sub,
                    lhs: 1,
                    rhs: 2,
                    ty: LT::Float64,
                },
                ExprOp::Binary {
                    op: BinOp::Mul,
                    lhs: 0,
                    rhs: 3,
                    ty: LT::Float64,
                },
                col(0, LT::Int64),
                ExprOp::Binary {
                    op: BinOp::Add,
                    lhs: 4,
                    rhs: 5,
                    ty: LT::Float64,
                },
                col(4, LT::Int64),
                ExprOp::Binary {
                    op: BinOp::Add,
                    lhs: 7,
                    rhs: 5,
                    ty: LT::Int64,
                },
            ],
            outputs: vec![6, 0, 8],
            out_tys: vec![LT::Float64, LT::Float64, LT::Int64],
            params: vec![],
            kernel: None,
        };
        bind(&mut prog, Mode::Outputs);
        assert!(prog.kernel.is_some(), "arithmetic chain fuses");
        let b = batch();
        let fused = eval_all(&prog, &b);
        let generic = exprprog::eval_all(&prog, &b);
        assert_eq!(fused.len(), generic.len());
        for (k, ((fv, fval), (gv, gval))) in fused.iter().zip(&generic).enumerate() {
            match fv.dtype() {
                DType::F64 => assert!(
                    fv.as_f64()
                        .iter()
                        .zip(gv.as_f64())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "output {k} values diverge"
                ),
                _ => assert_eq!(
                    format!("{fv:?}"),
                    format!("{gv:?}"),
                    "output {k} values diverge"
                ),
            }
            match (fval, gval) {
                (None, None) => {}
                (Some(a), Some(b)) => assert_eq!(a.as_bool(), b.as_bool(), "output {k} validity"),
                other => panic!("output {k} validity structure diverges: {other:?}"),
            }
        }
    }

    #[test]
    fn unfusible_program_falls_back() {
        // CASE (Select) is outside the fusible subset.
        let mut prog = ExprProgram {
            ops: vec![
                col(3, LT::Bool),
                ExprOp::LoadConst {
                    value: Scalar::I64(1),
                    ty: LT::Int64,
                },
                ExprOp::LoadConst {
                    value: Scalar::I64(2),
                    ty: LT::Int64,
                },
                ExprOp::Select {
                    cond: 0,
                    on_true: 1,
                    on_false: 2,
                    ty: LT::Int64,
                },
            ],
            outputs: vec![3],
            out_tys: vec![LT::Int64],
            params: vec![],
            kernel: None,
        };
        bind(&mut prog, Mode::Outputs);
        assert!(prog.kernel.is_none(), "CASE binds no kernel");
        let b = batch();
        let fused = eval_all(&prog, &b);
        let generic = exprprog::eval_all(&prog, &b);
        assert_eq!(fused[0].0.as_i64(), generic[0].0.as_i64());
    }

    #[test]
    fn null_bound_parameter_takes_the_generic_walk() {
        use tqp_ir::expr::BoundExpr as E;
        // `qty < $1`: the kernel reads the bound value per call, until a
        // NULL no longer fits its integer constant slot.
        let mut template = exprprog::compile_exprs(&[E::Binary {
            op: BinOp::Lt,
            left: Box::new(E::col(0, LT::Int64)),
            right: Box::new(E::Param {
                index: 0,
                ty: LT::Int64,
            }),
            ty: LT::Bool,
        }]);
        bind(&mut template, Mode::Mask);
        let b = batch();
        for value in [Scalar::I64(24), Scalar::I64(40), Scalar::Null] {
            let mut prog = template.clone();
            prog.bind_params(std::slice::from_ref(&value)).unwrap();
            assert_eq!(
                kernel_mask(&prog, &b).is_some(),
                !value.is_null(),
                "{value:?}"
            );
            let want: Vec<bool> = b.columns[0]
                .as_i64()
                .iter()
                .map(|&q| !value.is_null() && q < value.as_i64())
                .collect();
            assert_eq!(conjunct_mask(&prog, &b).as_bool(), &want[..]);
        }
    }

    #[test]
    #[should_panic(expected = "a mask kernel asked for outputs")]
    fn a_kernel_runs_only_in_its_mode() {
        let mut prog = ExprProgram {
            ops: vec![
                col(0, LT::Int64),
                ExprOp::CompareConst {
                    op: BinOp::Lt,
                    src: 0,
                    value: Scalar::I64(24),
                },
            ],
            outputs: vec![1],
            out_tys: vec![LT::Bool],
            params: vec![],
            kernel: None,
        };
        bind(&mut prog, Mode::Mask);
        eval_all(&prog, &batch());
    }
}
