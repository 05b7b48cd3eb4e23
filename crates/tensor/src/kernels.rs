//! **Fused, type-monomorphized expression kernels.**
//!
//! The generic expression executor (`tqp-exec`'s `exprprog`) dispatches one
//! tensor kernel per op per batch and materializes every intermediate
//! register as a full-width tensor — for a Q6-style filter chain that is
//! five mask allocations plus as many full passes over memory. This module
//! is the specialized alternative: a whole expression program compiled (by
//! `tqp-exec`'s fusion pass) into one [`FusedKernel`] whose execution is a
//! **single chunked pass** over the input columns:
//!
//! * rows are processed in fixed [`CHUNK_ROWS`] blocks so every operand
//!   slice lives in L1 while the op list runs over it;
//! * each op is **type-monomorphized** — the per-dtype inner loops are
//!   macro-generated (`arith_kernel!` / `cmp_kernel!` / `cmp_const_kernel!`)
//!   straight-line `zip` iterations over `&[i64]` / `&[f64]` slices with no
//!   dynamic dispatch inside, exactly the shape the autovectorizer turns
//!   into SIMD;
//! * intermediate registers are tiny reusable chunk buffers (or, for bare
//!   column operands, borrowed input slices — no copy at all), never
//!   full-width tensors;
//! * NULL validity is folded into the filter mask with bitwise AND loops
//!   instead of per-row branching;
//! * filter (mask) execution folds conjunct-at-a-time, **skips the rest of
//!   a chunk** once its mask is all-false, and evaluates per-row string
//!   predicates (`=`/`IN`/`LIKE` on padded string columns) only for rows
//!   still alive — the selective-compaction idea at chunk granularity;
//! * a string predicate on a dictionary-coded column is a lookup table
//!   (the predicate per dictionary entry, fetched once per kernel run from
//!   the dictionary's memo) gathered by code.
//!
//! Every inner loop replicates the semantics of the generic kernels in
//! [`crate::ops`] **bit for bit** (wrapping integer arithmetic, integer
//! division by zero yielding 0, plain IEEE float ops, trimmed-byte string
//! comparison). All fused ops are element-wise — no reductions — so chunked
//! evaluation cannot reorder float operations, and results are bitwise
//! identical to the unfused path by construction. The fusion pass (which
//! decides *what* fuses and owns the program-fingerprint cache) lives in
//! `tqp-exec`; this module only knows how to run a compiled kernel.

use std::sync::Arc;

use crate::dict::{StrDict, StrPred};
use crate::ops::{BinOp, CmpOp};
use crate::strings::LikePattern;

/// Rows per execution chunk. 1 Ki rows keeps every live operand slice
/// (8 KiB for an `i64`/`f64` register) comfortably in L1 even for programs
/// with a dozen live registers, while amortizing per-chunk dispatch.
pub const CHUNK_ROWS: usize = 1024;

/// A kernel operand: either a borrowed input-column slice (bare column
/// loads never copy) or a chunk-local register buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KSrc {
    /// Input column channel index (see [`ColInput`] ordering).
    Col(usize),
    /// Class-local register buffer slot.
    Buf(usize),
}

/// One fused op. Register slots are class-local (`i64` / `f64` / `bool`
/// buffers are separate arrays) and SSA-ordered within a class: an op's
/// destination slot is strictly greater than any buffer slot it reads,
/// which is what lets execution split the buffer array mutably without
/// aliasing. Constant operands index the per-execution [`ConstPool`] so a
/// compiled kernel is reusable across prepared-statement re-binds.
#[derive(Debug, Clone, PartialEq)]
pub enum KOp {
    /// Fill `i64` slot `dst` with constant `c` (runs once, not per chunk).
    ConstI64 { dst: usize, c: usize },
    /// Fill `f64` slot `dst` with constant `c` (runs once, not per chunk).
    ConstF64 { dst: usize, c: usize },
    /// Fill `bool` slot `dst` with constant `c` (runs once, not per chunk).
    ConstBool { dst: usize, c: usize },
    /// `dst[i] = src[i] as f64` (the `promote`-mandated widening cast).
    CastI64F64 { dst: usize, src: KSrc },
    /// Integer arithmetic: wrapping, with `/ 0` and `% 0` yielding 0 —
    /// exactly [`crate::ops::binary`]'s integer loop.
    ArithI64 {
        dst: usize,
        op: BinOp,
        a: KSrc,
        b: KSrc,
    },
    /// Float arithmetic: plain IEEE ops, NaN/∞ flow through untouched.
    ArithF64 {
        dst: usize,
        op: BinOp,
        a: KSrc,
        b: KSrc,
    },
    /// Integer negation (wrapping, ≡ release-mode `-x`).
    NegI64 { dst: usize, src: KSrc },
    /// Float negation.
    NegF64 { dst: usize, src: KSrc },
    /// `i64 × i64` comparison.
    CmpI64 {
        dst: usize,
        op: CmpOp,
        a: KSrc,
        b: KSrc,
    },
    /// `f64 × f64` comparison (IEEE partial order, NaN compares false).
    CmpF64 {
        dst: usize,
        op: CmpOp,
        a: KSrc,
        b: KSrc,
    },
    /// `bool × bool` comparison (`false < true`).
    CmpBool {
        dst: usize,
        op: CmpOp,
        a: KSrc,
        b: KSrc,
    },
    /// `i64` column/register vs. broadcast constant — the hottest TPC-H
    /// filter kernel, ≡ [`crate::ops::compare_scalar`]'s `i64` fast path.
    CmpConstI64 {
        dst: usize,
        op: CmpOp,
        src: KSrc,
        c: usize,
    },
    /// `f64` vs. broadcast constant.
    CmpConstF64 {
        dst: usize,
        op: CmpOp,
        src: KSrc,
        c: usize,
    },
    /// `bool` vs. broadcast constant.
    CmpConstBool {
        dst: usize,
        op: CmpOp,
        src: KSrc,
        c: usize,
    },
    /// String column row (trailing-zero-trimmed) vs. constant byte string.
    /// Mask-mode execution evaluates only rows still alive in the mask.
    CmpStrConst {
        dst: usize,
        col: usize,
        op: CmpOp,
        c: usize,
    },
    /// `src IN (list)` over `i64` (OR-fold of equality tests).
    InListI64 {
        dst: usize,
        src: KSrc,
        c: usize,
        negated: bool,
    },
    /// `src IN (list)` over `f64`.
    InListF64 {
        dst: usize,
        src: KSrc,
        c: usize,
        negated: bool,
    },
    /// String-column `IN` over trimmed rows; mask-guarded like
    /// [`KOp::CmpStrConst`].
    InListStr {
        dst: usize,
        col: usize,
        c: usize,
        negated: bool,
    },
    /// SQL `LIKE` over a string column (pre-compiled pattern);
    /// mask-guarded.
    LikeStr {
        dst: usize,
        col: usize,
        c: usize,
        negated: bool,
    },
    /// Logical AND of two bool registers.
    And { dst: usize, a: KSrc, b: KSrc },
    /// Logical OR.
    Or { dst: usize, a: KSrc, b: KSrc },
    /// Logical NOT.
    Not { dst: usize, src: KSrc },
    /// SQL `IS [NOT] NULL`: true where any listed validity channel is
    /// false. With no channels (statically never-NULL input) the result is
    /// the constant `negated`.
    IsNull {
        dst: usize,
        vchans: Vec<usize>,
        negated: bool,
    },
}

/// One filter conjunct of a mask-mode kernel: the ops in `ops[start..end]`
/// must have run for `reg` to be readable; `vchans` are the validity
/// channels folded into the mask alongside the conjunct value (NULL =
/// drop, the SQL three-valued filter rule).
#[derive(Debug, Clone, PartialEq)]
pub struct KConjunct {
    pub end: usize,
    /// Bool slot holding the conjunct value, or `None` when the conjunct
    /// is a bare bool column (folded straight from the input).
    pub reg: Option<usize>,
    /// Bool column channel folded directly (bare-column conjunct).
    pub col: Option<usize>,
    pub vchans: Vec<usize>,
}

/// One output of an outputs-mode kernel (projection / aggregate-input /
/// sort-key evaluation). The host materializes bare column outputs and
/// validity tensors itself; the kernel only fills register-valued outputs.
#[derive(Debug, Clone, PartialEq)]
pub enum KOut {
    /// Copy `i64` slot per chunk into a full-width output vector.
    I64(usize),
    /// Copy `f64` slot per chunk.
    F64(usize),
    /// Copy `bool` slot per chunk.
    Bool(usize),
    /// Bare column passthrough: the host Arc-clones the input tensor.
    Col(usize),
}

/// Per-execution constant pools, extracted from the live (parameter-bound)
/// expression program by the fusion layer. Kept separate from the compiled
/// op list so prepared-statement re-binding patches constants without
/// recompiling the kernel.
#[derive(Debug, Default)]
pub struct ConstPool {
    pub i64s: Vec<i64>,
    pub f64s: Vec<f64>,
    pub bools: Vec<bool>,
    /// Byte needles for string comparison (compared against trimmed rows).
    pub strs: Vec<Vec<u8>>,
    pub i64_lists: Vec<Vec<i64>>,
    pub f64_lists: Vec<Vec<f64>>,
    pub str_lists: Vec<Vec<Vec<u8>>>,
    pub likes: Vec<LikePattern>,
}

/// A borrowed input column in kernel form.
pub enum ColInput<'a> {
    I64(&'a [i64]),
    F64(&'a [f64]),
    Bool(&'a [bool]),
    /// Padded `n × width` string matrix bytes.
    Str {
        data: &'a [u8],
        width: usize,
    },
    /// Dictionary-coded string matrix.
    Coded {
        codes: &'a [u32],
        dict: &'a StrDict,
    },
}

/// A string predicate op resolved for one kernel run from the constant
/// pool: the predicate, its negation and — over a coded column — its
/// lookup table from the dictionary's memo.
struct StrOp {
    pred: StrPred,
    negated: bool,
    lut: Option<Arc<[bool]>>,
}

/// A compiled fused kernel: the op list plus the register-file shape. Mask
/// kernels additionally carry conjunct boundaries; output kernels carry
/// the output list.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedKernel {
    pub ops: Vec<KOp>,
    pub n_i64: usize,
    pub n_f64: usize,
    pub n_bool: usize,
    /// Conjunct structure (mask-mode kernels; empty for output kernels).
    pub conjuncts: Vec<KConjunct>,
    /// Output list (output-mode kernels; empty for mask kernels).
    pub outs: Vec<KOut>,
}

/// A materialized output column from [`FusedKernel::run_outputs`].
pub enum KOutValue {
    I64(Vec<i64>),
    F64(Vec<f64>),
    Bool(Vec<bool>),
    /// Bare column passthrough (channel index): host clones the tensor.
    Col(usize),
}

/// One predicate of a dense mask plan, in **canonical interval form**.
/// When every conjunct of a mask kernel is a single
/// compare-against-constant over a directly loaded column (or a bare bool
/// column) — the dominant TPC-H filter pattern (Q1/Q6 date windows,
/// quantity/discount ranges) — [`FusedKernel::run_mask`] skips the
/// chunked register-file machinery and AND-folds one vectorized pass per
/// predicate straight into the output mask. Before executing, the plan
/// **merges every compare against the same column into one interval
/// test**: `ship >= lo AND ship < hi` (the `BETWEEN` idiom) collapses
/// from two passes into a single branchless wrapping-subtract range
/// check, so Q6's five compares over three columns run as three passes.
/// Measured on the 299k-row Q6 site that is ~2.2× faster than
/// pass-per-compare and ~2.6× faster than the chunked register-file
/// path, which per conjunct pays a compare pass plus a mask-fold pass.
///
/// Canonicalization is exact, not approximate:
///
/// * `i64` compares become **closed** intervals (`Gt c` ⇒ `[c+1, MAX]`,
///   `Lt c` ⇒ `[MIN, c-1]`, `Eq c` ⇒ `[c, c]`), with the `c = MAX`/`MIN`
///   overflow cases folded to a constant-false plan. The per-row test
///   `(x - lo) as u64 <= (hi - lo) as u64` is exact for every closed
///   `i64` interval: for `x >= lo` the subtraction is the true distance,
///   and for `x < lo` it wraps to at least `2^64 - (lo - x) >
///   hi - lo` since `hi - x < 2^64`.
/// * `f64` compares become bound pairs with strictness flags, defaulting
///   to `[-inf, +inf]` non-strict — vacuous for every non-NaN value and
///   false for NaN, exactly like the original compare. Bound merging
///   picks the larger `lo` / smaller `hi` and ORs strictness on ties, so
///   `-0.0`/`+0.0` ties (equal under IEEE) keep IEEE semantics. A NaN
///   constant makes `Eq`/`Lt`/`Le`/`Gt`/`Ge` constant-false and `Ne`
///   constant-true (dropped), again exactly the compare's behavior.
/// * `Ne` stays its own pass (its row set is not an interval).
///
/// Validity channels present at runtime become [`DensePred::Valid`] fold
/// steps; the (overwhelmingly common) statically-referenced but all-valid
/// channels cost nothing. Every pass uses plain Rust comparison operators
/// on the same values, and AND is commutative and side-effect free, so
/// the produced mask is bit-identical to the chunked path's.
#[derive(Debug, Clone, Copy)]
enum DensePred {
    /// `lo <= col[i] <= hi` (closed interval, merged `i64` compares).
    I64In { col: usize, lo: i64, hi: i64 },
    /// `col[i] != c`.
    I64Ne { col: usize, c: i64 },
    /// `lo <[=] col[i] <[=] hi` (strictness per bound, merged `f64`
    /// compares; NaN rows always fail).
    F64In {
        col: usize,
        lo: f64,
        lo_strict: bool,
        hi: f64,
        hi_strict: bool,
    },
    /// `col[i] != c` (true for NaN rows, like the operator).
    F64Ne { col: usize, c: f64 },
    /// Bare bool column conjunct.
    BoolCol { col: usize },
    /// Fold a validity channel that is present at runtime (`NULL` = drop).
    Valid { vc: usize },
}

/// A canonicalized dense mask plan: the predicate passes, or the
/// degenerate constant-false plan (some merged interval is empty — e.g.
/// `x < 5 AND x > 9` — so no row can pass).
enum DensePlan {
    Preds(Vec<DensePred>),
    ConstFalse,
}

/// Fold one [`DensePred`] pass over a row range into a mask slice
/// through the explicit SIMD layer (`and = false` writes the mask,
/// `true` AND-folds into it). The predicate lowers to a canonical
/// [`crate::simd::CmpI64`]/[`crate::simd::CmpF64`] op — single-bounded
/// intervals (`<= c`, `>= c` — Q1's whole filter) as one plain compare,
/// true two-sided ranges as the wrapping-subtract form; a non-strict
/// infinite `f64` bound rejects only NaN, which the opposite bound's
/// compare already does, so it drops (when both bounds are vacuous — a
/// literal `x <= inf` — one compare must still run for the NaN
/// rejection). The scalar tier of each mask kernel is the same plain
/// Rust comparison loop this path ran before the SIMD layer existed.
#[inline(always)]
fn i64_col<'a>(cols: &[ColInput<'a>], ch: usize) -> &'a [i64] {
    match cols[ch] {
        ColInput::I64(d) => d,
        _ => unreachable!("dense predicate channel must be i64"),
    }
}

#[inline(always)]
fn f64_col<'a>(cols: &[ColInput<'a>], ch: usize) -> &'a [f64] {
    match cols[ch] {
        ColInput::F64(d) => d,
        _ => unreachable!("dense predicate channel must be f64"),
    }
}

#[inline(always)]
fn bool_col<'a>(cols: &[ColInput<'a>], ch: usize) -> &'a [bool] {
    match cols[ch] {
        ColInput::Bool(d) => d,
        _ => unreachable!("dense predicate channel must be bool"),
    }
}

/// Lower a [`CmpOp`]-against-constant to the canonical SIMD-layer op.
#[inline(always)]
fn cmp_const_i64(op: CmpOp, c: i64) -> crate::simd::CmpI64 {
    use crate::simd::CmpI64;
    match op {
        CmpOp::Eq => CmpI64::Eq(c),
        CmpOp::Ne => CmpI64::Ne(c),
        CmpOp::Lt => CmpI64::Lt(c),
        CmpOp::Le => CmpI64::Le(c),
        CmpOp::Gt => CmpI64::Gt(c),
        CmpOp::Ge => CmpI64::Ge(c),
    }
}

/// Lower a [`CmpOp`]-against-constant to the canonical SIMD-layer op.
#[inline(always)]
fn cmp_const_f64(op: CmpOp, c: f64) -> crate::simd::CmpF64 {
    use crate::simd::CmpF64;
    match op {
        CmpOp::Eq => CmpF64::Eq(c),
        CmpOp::Ne => CmpF64::Ne(c),
        CmpOp::Lt => CmpF64::Lt(c),
        CmpOp::Le => CmpF64::Le(c),
        CmpOp::Gt => CmpF64::Gt(c),
        CmpOp::Ge => CmpF64::Ge(c),
    }
}

fn dense_pred_fold(
    p: &DensePred,
    m: &mut [bool],
    cols: &[ColInput],
    validity: &[Option<&[bool]>],
    s: usize,
    e: usize,
    and: bool,
) {
    use crate::simd::{CmpF64, CmpI64};
    match *p {
        DensePred::I64In { col, lo, hi } => {
            let op = if lo == i64::MIN {
                CmpI64::Le(hi)
            } else if hi == i64::MAX {
                CmpI64::Ge(lo)
            } else {
                CmpI64::In(lo, hi.wrapping_sub(lo) as u64)
            };
            crate::simd::mask_i64(op, &i64_col(cols, col)[s..e], m, and);
        }
        DensePred::I64Ne { col, c } => {
            crate::simd::mask_i64(CmpI64::Ne(c), &i64_col(cols, col)[s..e], m, and);
        }
        DensePred::F64In {
            col,
            lo,
            lo_strict,
            hi,
            hi_strict,
        } => {
            let lo_vac = lo == f64::NEG_INFINITY && !lo_strict;
            let hi_vac = hi == f64::INFINITY && !hi_strict;
            let op = match (lo_vac, hi_vac) {
                (true, true) => CmpF64::Le(hi),
                (true, false) if hi_strict => CmpF64::Lt(hi),
                (true, false) => CmpF64::Le(hi),
                (false, true) if lo_strict => CmpF64::Gt(lo),
                (false, true) => CmpF64::Ge(lo),
                (false, false) => CmpF64::In {
                    lo,
                    lo_strict,
                    hi,
                    hi_strict,
                },
            };
            crate::simd::mask_f64(op, &f64_col(cols, col)[s..e], m, and);
        }
        DensePred::F64Ne { col, c } => {
            crate::simd::mask_f64(CmpF64::Ne(c), &f64_col(cols, col)[s..e], m, and);
        }
        DensePred::BoolCol { col } => {
            crate::simd::mask_bool(&bool_col(cols, col)[s..e], m, and);
        }
        DensePred::Valid { vc } => {
            let v = validity[vc].expect("Valid pred requires a present channel");
            crate::simd::mask_bool(&v[s..e], m, and);
        }
    }
}

/// Chunk-local register file. Buffers are allocated once per kernel run
/// and reused across chunks; constant slots are filled once in a prologue.
struct RegFile {
    i64s: Vec<Vec<i64>>,
    f64s: Vec<Vec<f64>>,
    bools: Vec<Vec<bool>>,
}

impl RegFile {
    fn new(k: &FusedKernel) -> RegFile {
        RegFile {
            i64s: vec![vec![0i64; CHUNK_ROWS]; k.n_i64],
            f64s: vec![vec![0f64; CHUNK_ROWS]; k.n_f64],
            bools: vec![vec![false; CHUNK_ROWS]; k.n_bool],
        }
    }
}

/// Trailing-zero-trimmed row `i` of a padded string matrix (the trim of
/// `Tensor::str_row_trimmed`).
#[inline]
pub fn trimmed_row(data: &[u8], width: usize, i: usize) -> &[u8] {
    crate::tensor::trim_padding(&data[i * width..(i + 1) * width])
}

/// One chunk of a string predicate op, `out[i] = alive(i) && (pred(row) !=
/// negated)`: gathered from the lookup table by code on a coded column,
/// evaluated per trimmed row — alive rows only — on a padded one.
fn str_op_chunk(out: &mut [bool], col: &ColInput, op: &StrOp, base: usize, mask: Option<&[bool]>) {
    let (len, negated) = (out.len(), op.negated);
    match (col, op.lut.as_deref()) {
        (ColInput::Coded { codes, .. }, Some(lut)) => {
            let codes = &codes[base..base + len];
            match mask {
                Some(m) => {
                    for ((o, &c), &alive) in out.iter_mut().zip(codes).zip(m) {
                        *o = alive & (lut[c as usize] != negated);
                    }
                }
                None => {
                    for (o, &c) in out.iter_mut().zip(codes) {
                        *o = lut[c as usize] != negated;
                    }
                }
            }
        }
        (ColInput::Str { data, width }, _) => {
            for (i, o) in out.iter_mut().enumerate() {
                *o = mask.is_none_or(|m| m[i])
                    && (op.pred.eval(trimmed_row(data, *width, base + i)) != negated);
            }
        }
        _ => unreachable!("string predicate channel is not a string column"),
    }
}

// ---------------------------------------------------------------------
// Monomorphized inner loops
// ---------------------------------------------------------------------

// Integer arithmetic loop: wrapping ops; `/ 0` and `% 0` yield 0. The
// `$op` match hoists outside the row loop, so each arm is a bare slice
// iteration the autovectorizer can unroll.
macro_rules! arith_int_kernel {
    ($op:expr, $a:expr, $b:expr, $out:expr) => {{
        let (a, b, out) = ($a, $b, $out);
        match $op {
            BinOp::Add => {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = x.wrapping_add(y);
                }
            }
            BinOp::Sub => {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = x.wrapping_sub(y);
                }
            }
            BinOp::Mul => {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = x.wrapping_mul(y);
                }
            }
            BinOp::Div => {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = if y == 0 { 0 } else { x.wrapping_div(y) };
                }
            }
            BinOp::Mod => {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = if y == 0 { 0 } else { x.wrapping_rem(y) };
                }
            }
        }
    }};
}

// Float arithmetic loop: plain IEEE ops (including `%`), matching
// `ops::binary`'s float arm exactly.
macro_rules! arith_float_kernel {
    ($op:expr, $a:expr, $b:expr, $out:expr) => {{
        let (a, b, out) = ($a, $b, $out);
        match $op {
            BinOp::Add => {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = x + y;
                }
            }
            BinOp::Sub => {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = x - y;
                }
            }
            BinOp::Mul => {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = x * y;
                }
            }
            BinOp::Div => {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = x / y;
                }
            }
            BinOp::Mod => {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = x % y;
                }
            }
        }
    }};
}

// Element × element comparison.
macro_rules! cmp_kernel {
    ($op:expr, $a:expr, $b:expr, $out:expr) => {{
        let (a, b, out) = ($a, $b, $out);
        match $op {
            CmpOp::Eq => {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = x == y;
                }
            }
            CmpOp::Ne => {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = x != y;
                }
            }
            CmpOp::Lt => {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = x < y;
                }
            }
            CmpOp::Le => {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = x <= y;
                }
            }
            CmpOp::Gt => {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = x > y;
                }
            }
            CmpOp::Ge => {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = x >= y;
                }
            }
        }
    }};
}

// Element × broadcast-constant comparison (the Q6 inner loop).
macro_rules! cmp_const_kernel {
    ($op:expr, $a:expr, $v:expr, $out:expr) => {{
        let (a, v, out) = ($a, $v, $out);
        match $op {
            CmpOp::Eq => {
                for (o, &x) in out.iter_mut().zip(a) {
                    *o = x == v;
                }
            }
            CmpOp::Ne => {
                for (o, &x) in out.iter_mut().zip(a) {
                    *o = x != v;
                }
            }
            CmpOp::Lt => {
                for (o, &x) in out.iter_mut().zip(a) {
                    *o = x < v;
                }
            }
            CmpOp::Le => {
                for (o, &x) in out.iter_mut().zip(a) {
                    *o = x <= v;
                }
            }
            CmpOp::Gt => {
                for (o, &x) in out.iter_mut().zip(a) {
                    *o = x > v;
                }
            }
            CmpOp::Ge => {
                for (o, &x) in out.iter_mut().zip(a) {
                    *o = x >= v;
                }
            }
        }
    }};
}

impl FusedKernel {
    /// Execute in **mask mode**: AND-fold every conjunct (value and
    /// validity) into one full-width boolean mask. `cols` are the input
    /// channels (full columns), `validity[v]` the validity channels
    /// (`None` = all rows valid — channel statically referenced but absent
    /// in this batch), `n` the row count. All-compare conjunct chains take
    /// the dense fast path (see [`DensePred`]); everything else evaluates
    /// chunk at a time.
    pub fn run_mask(
        &self,
        cols: &[ColInput],
        validity: &[Option<&[bool]>],
        consts: &ConstPool,
        n: usize,
    ) -> Vec<bool> {
        match self.dense_plan(validity, consts) {
            Some(DensePlan::ConstFalse) => vec![false; n],
            Some(DensePlan::Preds(preds)) => self.run_mask_dense(&preds, cols, validity, n),
            None => self.run_mask_chunked(cols, validity, consts, n),
        }
    }

    /// Does this mask kernel qualify for the dense fast path? Every
    /// conjunct must be a single compare-against-constant over a direct
    /// column load (or a bare bool column); qualifying compares are
    /// canonicalized and merged per column as described on [`DensePred`].
    /// Validity channels are resolved against the **runtime** batch:
    /// channels absent at runtime (`None` = all rows valid, the
    /// overwhelmingly common case) vanish from the plan; present ones
    /// become [`DensePred::Valid`] fold steps. Extraction is a handful of
    /// enum matches over the (tiny) op list per call — negligible next to
    /// any per-row work.
    fn dense_plan(&self, validity: &[Option<&[bool]>], consts: &ConstPool) -> Option<DensePlan> {
        if self.conjuncts.is_empty() {
            return None;
        }
        let mut preds: Vec<DensePred> = Vec::with_capacity(self.conjuncts.len());
        let merge_i64 = |preds: &mut Vec<DensePred>, col: usize, lo: i64, hi: i64| -> bool {
            for p in preds.iter_mut() {
                if let DensePred::I64In {
                    col: c0,
                    lo: l0,
                    hi: h0,
                } = p
                {
                    if *c0 == col {
                        *l0 = (*l0).max(lo);
                        *h0 = (*h0).min(hi);
                        return *l0 <= *h0;
                    }
                }
            }
            preds.push(DensePred::I64In { col, lo, hi });
            true
        };
        let merge_f64 = |preds: &mut Vec<DensePred>,
                         col: usize,
                         lo: f64,
                         ls: bool,
                         hi: f64,
                         hs: bool|
         -> bool {
            for p in preds.iter_mut() {
                if let DensePred::F64In {
                    col: c0,
                    lo: l0,
                    lo_strict: s0,
                    hi: h0,
                    hi_strict: t0,
                } = p
                {
                    if *c0 == col {
                        // Larger lower bound wins; on an (IEEE-equal) tie
                        // — including -0.0 vs +0.0 — strictness ORs, so
                        // the kept bound value never changes which rows
                        // pass.
                        if lo > *l0 {
                            *l0 = lo;
                            *s0 = ls;
                        } else if lo == *l0 {
                            *s0 |= ls;
                        }
                        if hi < *h0 {
                            *h0 = hi;
                            *t0 = hs;
                        } else if hi == *h0 {
                            *t0 |= hs;
                        }
                        return *l0 < *h0 || (*l0 == *h0 && !*s0 && !*t0);
                    }
                }
            }
            preds.push(DensePred::F64In {
                col,
                lo,
                lo_strict: ls,
                hi,
                hi_strict: hs,
            });
            true
        };
        let mut start = 0;
        for cj in &self.conjuncts {
            if let Some(chan) = cj.col {
                // Bare bool column conjuncts lower to no kernel ops.
                if cj.end != start {
                    return None;
                }
                preds.push(DensePred::BoolCol { col: chan });
            } else {
                let reg = cj.reg?;
                if cj.end != start + 1 {
                    return None;
                }
                match self.ops[start] {
                    KOp::CmpConstI64 {
                        dst,
                        op,
                        src: KSrc::Col(col),
                        c,
                    } if dst == reg => {
                        let c = consts.i64s[c];
                        let iv = match op {
                            CmpOp::Eq => Some((c, c)),
                            CmpOp::Ne => {
                                preds.push(DensePred::I64Ne { col, c });
                                None
                            }
                            // `< MIN` / `> MAX` have no closed form — and
                            // no satisfying row.
                            CmpOp::Lt if c == i64::MIN => return Some(DensePlan::ConstFalse),
                            CmpOp::Gt if c == i64::MAX => return Some(DensePlan::ConstFalse),
                            CmpOp::Lt => Some((i64::MIN, c - 1)),
                            CmpOp::Le => Some((i64::MIN, c)),
                            CmpOp::Gt => Some((c + 1, i64::MAX)),
                            CmpOp::Ge => Some((c, i64::MAX)),
                        };
                        if let Some((lo, hi)) = iv {
                            if !merge_i64(&mut preds, col, lo, hi) {
                                return Some(DensePlan::ConstFalse);
                            }
                        }
                    }
                    KOp::CmpConstF64 {
                        dst,
                        op,
                        src: KSrc::Col(col),
                        c,
                    } if dst == reg => {
                        let c = consts.f64s[c];
                        if c.is_nan() {
                            // Every compare against NaN is false — except
                            // `!=`, which is true for every row.
                            if op == CmpOp::Ne {
                                start = cj.end;
                                for &vc in &cj.vchans {
                                    if validity[vc].is_some() {
                                        preds.push(DensePred::Valid { vc });
                                    }
                                }
                                continue;
                            }
                            return Some(DensePlan::ConstFalse);
                        }
                        let iv = match op {
                            CmpOp::Eq => Some((c, false, c, false)),
                            CmpOp::Ne => {
                                preds.push(DensePred::F64Ne { col, c });
                                None
                            }
                            CmpOp::Lt => Some((f64::NEG_INFINITY, false, c, true)),
                            CmpOp::Le => Some((f64::NEG_INFINITY, false, c, false)),
                            CmpOp::Gt => Some((c, true, f64::INFINITY, false)),
                            CmpOp::Ge => Some((c, false, f64::INFINITY, false)),
                        };
                        if let Some((lo, ls, hi, hs)) = iv {
                            if !merge_f64(&mut preds, col, lo, ls, hi, hs) {
                                return Some(DensePlan::ConstFalse);
                            }
                        }
                    }
                    _ => return None,
                }
                start = cj.end;
            }
            for &vc in &cj.vchans {
                if validity[vc].is_some() {
                    preds.push(DensePred::Valid { vc });
                }
            }
        }
        Some(DensePlan::Preds(preds))
    }

    /// Dense execution of a canonicalized mask plan (see [`DensePred`]):
    /// per [`CHUNK_ROWS`] block, the first predicate writes the mask
    /// slice and every later predicate AND-folds one more vectorized pass
    /// into it. Chunking keeps the block's mask in L1 across passes.
    /// Skips the register file and per-chunk fold machinery entirely,
    /// which also makes 1-4 row prepared-statement batches cheap.
    fn run_mask_dense(
        &self,
        preds: &[DensePred],
        cols: &[ColInput],
        validity: &[Option<&[bool]>],
        n: usize,
    ) -> Vec<bool> {
        // Every predicate canonicalized away (e.g. a lone `x != NaN`):
        // the conjunction is vacuously true.
        let Some((first, rest)) = preds.split_first() else {
            return vec![true; n];
        };
        let mut mask: Vec<bool> = vec![false; n];
        let mut s = 0usize;
        while s < n {
            let e = (s + CHUNK_ROWS).min(n);
            let m = &mut mask[s..e];
            dense_pred_fold(first, m, cols, validity, s, e, false);
            for p in rest {
                dense_pred_fold(p, m, cols, validity, s, e, true);
            }
            s = e;
        }
        mask
    }

    /// Chunked full-width mask execution — the general path for conjuncts
    /// with arithmetic, string predicates, OR-trees, or validity folds.
    fn run_mask_chunked(
        &self,
        cols: &[ColInput],
        validity: &[Option<&[bool]>],
        consts: &ConstPool,
        n: usize,
    ) -> Vec<bool> {
        let mut mask = vec![false; n];
        let mut regs = RegFile::new(self);
        self.const_prologue(&mut regs, consts);
        let str_ops = self.str_ops(cols, consts);
        let mut base = 0;
        while base < n {
            let len = (n - base).min(CHUNK_ROWS);
            let m = &mut mask[base..base + len];
            m.fill(true);
            let mut start = 0;
            for cj in &self.conjuncts {
                self.exec_range(
                    start..cj.end,
                    &mut regs,
                    cols,
                    validity,
                    consts,
                    &str_ops,
                    base,
                    len,
                    Some(&*m),
                );
                start = cj.end;
                // Fold the conjunct value...
                if let Some(reg) = cj.reg {
                    crate::simd::mask_bool(&regs.bools[reg][..len], m, true);
                } else if let Some(chan) = cj.col {
                    let ColInput::Bool(col) = cols[chan] else {
                        unreachable!("bare-column conjunct channel must be bool");
                    };
                    crate::simd::mask_bool(&col[base..base + len], m, true);
                }
                // ...then its validity channels (NULL = drop).
                for &vc in &cj.vchans {
                    if let Some(v) = validity[vc] {
                        crate::simd::mask_bool(&v[base..base + len], m, true);
                    }
                }
                // Chunk short-circuit: nothing alive, skip the remaining
                // (often most expensive) conjuncts for this chunk.
                if !m.iter().any(|&x| x) {
                    break;
                }
            }
            base += len;
        }
        mask
    }

    /// Execute in **outputs mode**: every output register materialized
    /// full-width. String predicates run unguarded (all rows). Validity
    /// tensors are assembled by the host from the statically-known
    /// channel sets; the kernel only produces values.
    pub fn run_outputs(
        &self,
        cols: &[ColInput],
        validity: &[Option<&[bool]>],
        consts: &ConstPool,
        n: usize,
    ) -> Vec<KOutValue> {
        let mut outs: Vec<KOutValue> = self
            .outs
            .iter()
            .map(|o| match o {
                KOut::I64(_) => KOutValue::I64(vec![0i64; n]),
                KOut::F64(_) => KOutValue::F64(vec![0f64; n]),
                KOut::Bool(_) => KOutValue::Bool(vec![false; n]),
                KOut::Col(c) => KOutValue::Col(*c),
            })
            .collect();
        let mut regs = RegFile::new(self);
        self.const_prologue(&mut regs, consts);
        let str_ops = self.str_ops(cols, consts);
        let mut base = 0;
        while base < n {
            let len = (n - base).min(CHUNK_ROWS);
            self.exec_range(
                0..self.ops.len(),
                &mut regs,
                cols,
                validity,
                consts,
                &str_ops,
                base,
                len,
                None,
            );
            for (spec, out) in self.outs.iter().zip(outs.iter_mut()) {
                match (spec, out) {
                    (KOut::I64(s), KOutValue::I64(v)) => {
                        v[base..base + len].copy_from_slice(&regs.i64s[*s][..len])
                    }
                    (KOut::F64(s), KOutValue::F64(v)) => {
                        v[base..base + len].copy_from_slice(&regs.f64s[*s][..len])
                    }
                    (KOut::Bool(s), KOutValue::Bool(v)) => {
                        v[base..base + len].copy_from_slice(&regs.bools[*s][..len])
                    }
                    (KOut::Col(_), KOutValue::Col(_)) => {}
                    _ => unreachable!("output spec/value class mismatch"),
                }
            }
            base += len;
        }
        outs
    }

    /// Fill constant register slots (chunk-invariant: runs once per kernel
    /// execution, before the chunk loop).
    fn const_prologue(&self, regs: &mut RegFile, consts: &ConstPool) {
        for op in &self.ops {
            match *op {
                KOp::ConstI64 { dst, c } => regs.i64s[dst].fill(consts.i64s[c]),
                KOp::ConstF64 { dst, c } => regs.f64s[dst].fill(consts.f64s[c]),
                KOp::ConstBool { dst, c } => regs.bools[dst].fill(consts.bools[c]),
                _ => {}
            }
        }
    }

    /// Every string predicate op resolved for this run (`None` at other
    /// ops); a lookup table is fetched once per run, not per chunk.
    fn str_ops(&self, cols: &[ColInput], consts: &ConstPool) -> Vec<Option<StrOp>> {
        self.ops
            .iter()
            .map(|op| {
                let (col, pred, negated) = match op {
                    KOp::CmpStrConst { col, op, c, .. } => {
                        (*col, StrPred::Cmp(*op, consts.strs[*c].clone()), false)
                    }
                    KOp::InListStr {
                        col, c, negated, ..
                    } => (*col, StrPred::In(consts.str_lists[*c].clone()), *negated),
                    KOp::LikeStr {
                        col, c, negated, ..
                    } => (*col, StrPred::Like(consts.likes[*c].clone()), *negated),
                    _ => return None,
                };
                let lut = match cols[col] {
                    ColInput::Coded { dict, .. } => Some(dict.lut(&pred)),
                    _ => None,
                };
                Some(StrOp { pred, negated, lut })
            })
            .collect()
    }

    /// Execute `ops[range]` over one chunk. `mask` is `Some` in mask mode:
    /// per-row string predicates evaluate only rows still alive (sound
    /// because a dead row's conjunct value is ANDed into an already-false
    /// mask bit, and the mask only ever shrinks).
    #[allow(clippy::too_many_arguments)]
    fn exec_range(
        &self,
        range: std::ops::Range<usize>,
        regs: &mut RegFile,
        cols: &[ColInput],
        validity: &[Option<&[bool]>],
        consts: &ConstPool,
        str_ops: &[Option<StrOp>],
        base: usize,
        len: usize,
        mask: Option<&[bool]>,
    ) {
        // Chunk views of the numeric/bool input channels, sliced once.
        let i64_col = |c: usize| -> &[i64] {
            let ColInput::I64(v) = &cols[c] else {
                unreachable!("channel {c} is not i64")
            };
            &v[base..base + len]
        };
        let f64_col = |c: usize| -> &[f64] {
            let ColInput::F64(v) = &cols[c] else {
                unreachable!("channel {c} is not f64")
            };
            &v[base..base + len]
        };
        let bool_col = |c: usize| -> &[bool] {
            let ColInput::Bool(v) = &cols[c] else {
                unreachable!("channel {c} is not bool")
            };
            &v[base..base + len]
        };
        for (at, op) in range.clone().zip(&self.ops[range]) {
            match op {
                // Constants were filled by the prologue.
                KOp::ConstI64 { .. } | KOp::ConstF64 { .. } | KOp::ConstBool { .. } => {}
                KOp::CastI64F64 { dst, src } => {
                    let a: &[i64] = match *src {
                        KSrc::Col(c) => i64_col(c),
                        KSrc::Buf(s) => &regs.i64s[s][..len],
                    };
                    let out = &mut regs.f64s[*dst][..len];
                    for (o, &x) in out.iter_mut().zip(a) {
                        *o = x as f64;
                    }
                }
                KOp::ArithI64 { dst, op, a, b } => {
                    let (head, tail) = regs.i64s.split_at_mut(*dst);
                    let out = &mut tail[0][..len];
                    let av: &[i64] = match *a {
                        KSrc::Col(c) => i64_col(c),
                        KSrc::Buf(s) => &head[s][..len],
                    };
                    let bv: &[i64] = match *b {
                        KSrc::Col(c) => i64_col(c),
                        KSrc::Buf(s) => &head[s][..len],
                    };
                    arith_int_kernel!(*op, av, bv, out);
                }
                KOp::ArithF64 { dst, op, a, b } => {
                    let (head, tail) = regs.f64s.split_at_mut(*dst);
                    let out = &mut tail[0][..len];
                    let av: &[f64] = match *a {
                        KSrc::Col(c) => f64_col(c),
                        KSrc::Buf(s) => &head[s][..len],
                    };
                    let bv: &[f64] = match *b {
                        KSrc::Col(c) => f64_col(c),
                        KSrc::Buf(s) => &head[s][..len],
                    };
                    arith_float_kernel!(*op, av, bv, out);
                }
                KOp::NegI64 { dst, src } => {
                    let (head, tail) = regs.i64s.split_at_mut(*dst);
                    let out = &mut tail[0][..len];
                    let a: &[i64] = match *src {
                        KSrc::Col(c) => i64_col(c),
                        KSrc::Buf(s) => &head[s][..len],
                    };
                    for (o, &x) in out.iter_mut().zip(a) {
                        *o = x.wrapping_neg();
                    }
                }
                KOp::NegF64 { dst, src } => {
                    let (head, tail) = regs.f64s.split_at_mut(*dst);
                    let out = &mut tail[0][..len];
                    let a: &[f64] = match *src {
                        KSrc::Col(c) => f64_col(c),
                        KSrc::Buf(s) => &head[s][..len],
                    };
                    for (o, &x) in out.iter_mut().zip(a) {
                        *o = -x;
                    }
                }
                KOp::CmpI64 { dst, op, a, b } => {
                    let av: &[i64] = match *a {
                        KSrc::Col(c) => i64_col(c),
                        KSrc::Buf(s) => &regs.i64s[s][..len],
                    };
                    let bv: &[i64] = match *b {
                        KSrc::Col(c) => i64_col(c),
                        KSrc::Buf(s) => &regs.i64s[s][..len],
                    };
                    cmp_kernel!(*op, av, bv, &mut regs.bools[*dst][..len]);
                }
                KOp::CmpF64 { dst, op, a, b } => {
                    let av: &[f64] = match *a {
                        KSrc::Col(c) => f64_col(c),
                        KSrc::Buf(s) => &regs.f64s[s][..len],
                    };
                    let bv: &[f64] = match *b {
                        KSrc::Col(c) => f64_col(c),
                        KSrc::Buf(s) => &regs.f64s[s][..len],
                    };
                    cmp_kernel!(*op, av, bv, &mut regs.bools[*dst][..len]);
                }
                KOp::CmpBool { dst, op, a, b } => {
                    let (head, tail) = regs.bools.split_at_mut(*dst);
                    let out = &mut tail[0][..len];
                    let av: &[bool] = match *a {
                        KSrc::Col(c) => bool_col(c),
                        KSrc::Buf(s) => &head[s][..len],
                    };
                    let bv: &[bool] = match *b {
                        KSrc::Col(c) => bool_col(c),
                        KSrc::Buf(s) => &head[s][..len],
                    };
                    cmp_kernel!(*op, av, bv, out);
                }
                KOp::CmpConstI64 { dst, op, src, c } => {
                    let a: &[i64] = match *src {
                        KSrc::Col(ch) => i64_col(ch),
                        KSrc::Buf(s) => &regs.i64s[s][..len],
                    };
                    crate::simd::mask_i64(
                        cmp_const_i64(*op, consts.i64s[*c]),
                        a,
                        &mut regs.bools[*dst][..len],
                        false,
                    );
                }
                KOp::CmpConstF64 { dst, op, src, c } => {
                    let a: &[f64] = match *src {
                        KSrc::Col(ch) => f64_col(ch),
                        KSrc::Buf(s) => &regs.f64s[s][..len],
                    };
                    crate::simd::mask_f64(
                        cmp_const_f64(*op, consts.f64s[*c]),
                        a,
                        &mut regs.bools[*dst][..len],
                        false,
                    );
                }
                KOp::CmpConstBool { dst, op, src, c } => {
                    let (head, tail) = regs.bools.split_at_mut(*dst);
                    let out = &mut tail[0][..len];
                    let a: &[bool] = match *src {
                        KSrc::Col(ch) => bool_col(ch),
                        KSrc::Buf(s) => &head[s][..len],
                    };
                    cmp_const_kernel!(*op, a, consts.bools[*c], out);
                }
                KOp::CmpStrConst { dst, col, .. }
                | KOp::InListStr { dst, col, .. }
                | KOp::LikeStr { dst, col, .. } => {
                    let op = str_ops[at]
                        .as_ref()
                        .expect("string op resolved for the run");
                    str_op_chunk(&mut regs.bools[*dst][..len], &cols[*col], op, base, mask);
                }
                KOp::InListI64 {
                    dst,
                    src,
                    c,
                    negated,
                } => {
                    let a: &[i64] = match *src {
                        KSrc::Col(ch) => i64_col(ch),
                        KSrc::Buf(s) => &regs.i64s[s][..len],
                    };
                    let list = consts.i64_lists[*c].as_slice();
                    let out = &mut regs.bools[*dst][..len];
                    for (o, &x) in out.iter_mut().zip(a) {
                        let hit = list.contains(&x);
                        *o = hit != *negated;
                    }
                }
                KOp::InListF64 {
                    dst,
                    src,
                    c,
                    negated,
                } => {
                    let a: &[f64] = match *src {
                        KSrc::Col(ch) => f64_col(ch),
                        KSrc::Buf(s) => &regs.f64s[s][..len],
                    };
                    let list = consts.f64_lists[*c].as_slice();
                    let out = &mut regs.bools[*dst][..len];
                    for (o, &x) in out.iter_mut().zip(a) {
                        let hit = list.contains(&x);
                        *o = hit != *negated;
                    }
                }
                KOp::And { dst, a, b } => {
                    let (head, tail) = regs.bools.split_at_mut(*dst);
                    let out = &mut tail[0][..len];
                    let av: &[bool] = match *a {
                        KSrc::Col(c) => bool_col(c),
                        KSrc::Buf(s) => &head[s][..len],
                    };
                    let bv: &[bool] = match *b {
                        KSrc::Col(c) => bool_col(c),
                        KSrc::Buf(s) => &head[s][..len],
                    };
                    for ((o, &x), &y) in out.iter_mut().zip(av).zip(bv) {
                        *o = x && y;
                    }
                }
                KOp::Or { dst, a, b } => {
                    let (head, tail) = regs.bools.split_at_mut(*dst);
                    let out = &mut tail[0][..len];
                    let av: &[bool] = match *a {
                        KSrc::Col(c) => bool_col(c),
                        KSrc::Buf(s) => &head[s][..len],
                    };
                    let bv: &[bool] = match *b {
                        KSrc::Col(c) => bool_col(c),
                        KSrc::Buf(s) => &head[s][..len],
                    };
                    for ((o, &x), &y) in out.iter_mut().zip(av).zip(bv) {
                        *o = x || y;
                    }
                }
                KOp::Not { dst, src } => {
                    let (head, tail) = regs.bools.split_at_mut(*dst);
                    let out = &mut tail[0][..len];
                    let a: &[bool] = match *src {
                        KSrc::Col(c) => bool_col(c),
                        KSrc::Buf(s) => &head[s][..len],
                    };
                    for (o, &x) in out.iter_mut().zip(a) {
                        *o = !x;
                    }
                }
                KOp::IsNull {
                    dst,
                    vchans,
                    negated,
                } => {
                    let out = &mut regs.bools[*dst][..len];
                    // Start from "all valid", AND the channels in, negate.
                    out.fill(true);
                    for &vc in vchans {
                        if let Some(v) = validity[vc] {
                            for (o, &b) in out.iter_mut().zip(&v[base..base + len]) {
                                *o &= b;
                            }
                        }
                    }
                    // valid -> IS NULL false; `negated` flips to IS NOT NULL.
                    for o in out.iter_mut() {
                        *o = *o == *negated;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_mask_matches_chunked_path_bitwise() {
        // An all-compare chain qualifying for the dense fast path:
        // a jammed i64 pair (date window), an f64 range, one more f64
        // compare, and a bare bool column. Data crosses chunk boundaries
        // and includes NaN / ±0.0 to pin IEEE compare semantics.
        let n = CHUNK_ROWS * 3 + 17;
        let date: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 2556).collect();
        let disc: Vec<f64> = (0..n)
            .map(|i| match i % 13 {
                0 => f64::NAN,
                1 => 0.0,
                2 => -0.0,
                k => k as f64 / 100.0,
            })
            .collect();
        let flag: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let kernel = FusedKernel {
            ops: vec![
                KOp::CmpConstI64 {
                    dst: 0,
                    op: CmpOp::Ge,
                    src: KSrc::Col(0),
                    c: 0,
                },
                KOp::CmpConstI64 {
                    dst: 1,
                    op: CmpOp::Lt,
                    src: KSrc::Col(0),
                    c: 1,
                },
                KOp::CmpConstF64 {
                    dst: 2,
                    op: CmpOp::Ge,
                    src: KSrc::Col(1),
                    c: 0,
                },
                KOp::CmpConstF64 {
                    dst: 3,
                    op: CmpOp::Ne,
                    src: KSrc::Col(1),
                    c: 1,
                },
            ],
            n_i64: 0,
            n_f64: 0,
            n_bool: 4,
            conjuncts: vec![
                KConjunct {
                    end: 1,
                    reg: Some(0),
                    col: None,
                    vchans: vec![],
                },
                KConjunct {
                    end: 2,
                    reg: Some(1),
                    col: None,
                    vchans: vec![],
                },
                KConjunct {
                    end: 3,
                    reg: Some(2),
                    col: None,
                    vchans: vec![],
                },
                KConjunct {
                    end: 4,
                    reg: Some(3),
                    col: None,
                    vchans: vec![],
                },
                KConjunct {
                    end: 4,
                    reg: None,
                    col: Some(2),
                    vchans: vec![],
                },
            ],
            outs: vec![],
        };
        let consts = ConstPool {
            i64s: vec![365, 1095],
            f64s: vec![0.02, 0.0],
            ..Default::default()
        };
        let cols = [
            ColInput::I64(&date),
            ColInput::F64(&disc),
            ColInput::Bool(&flag),
        ];
        assert!(
            kernel.dense_plan(&[], &consts).is_some(),
            "chain must qualify for the fast path"
        );
        let fast = kernel.run_mask(&cols, &[], &consts, n);
        let slow = kernel.run_mask_chunked(&cols, &[], &consts, n);
        assert_eq!(fast, slow);
        // NaN rows fail `>= 0.02` but pass `!= 0.0` — both paths must agree.
        assert!(fast.iter().any(|&b| b), "mask should not be empty");
    }

    #[test]
    fn dense_path_folds_runtime_validity_like_chunked() {
        // Two compare conjuncts each carrying a validity channel. With the
        // channel present (NULLs) the fast path must fold it identically
        // to the chunked path; with it absent the plan drops it entirely.
        let n = CHUNK_ROWS + 41;
        let a: Vec<i64> = (0..n as i64).map(|i| i % 97).collect();
        let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let va: Vec<bool> = (0..n).map(|i| i % 5 != 0).collect();
        let vb: Vec<bool> = (0..n).map(|i| i % 11 != 3).collect();
        let kernel = FusedKernel {
            ops: vec![
                KOp::CmpConstI64 {
                    dst: 0,
                    op: CmpOp::Lt,
                    src: KSrc::Col(0),
                    c: 0,
                },
                KOp::CmpConstF64 {
                    dst: 1,
                    op: CmpOp::Ge,
                    src: KSrc::Col(1),
                    c: 0,
                },
            ],
            n_i64: 0,
            n_f64: 0,
            n_bool: 2,
            conjuncts: vec![
                KConjunct {
                    end: 1,
                    reg: Some(0),
                    col: None,
                    vchans: vec![0],
                },
                KConjunct {
                    end: 2,
                    reg: Some(1),
                    col: None,
                    vchans: vec![1],
                },
            ],
            outs: vec![],
        };
        let consts = ConstPool {
            i64s: vec![60],
            f64s: vec![2.0],
            ..Default::default()
        };
        let cols = [ColInput::I64(&a), ColInput::F64(&b)];
        for validity in [
            [Some(va.as_slice()), Some(vb.as_slice())],
            [None, Some(vb.as_slice())],
            [None, None],
        ] {
            assert!(kernel.dense_plan(&validity, &consts).is_some());
            let fast = kernel.run_mask(&cols, &validity, &consts, n);
            let slow = kernel.run_mask_chunked(&cols, &validity, &consts, n);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn dense_single_pass_plans_match_chunked() {
        // Short plans (single compare, jammed pair) stay dense too (no
        // vector): a lone compare and a jammed same-column pair.
        let n = CHUNK_ROWS * 2 + 5;
        let d: Vec<i64> = (0..n as i64).map(|i| (i * 31) % 1000).collect();
        let single = FusedKernel {
            ops: vec![KOp::CmpConstI64 {
                dst: 0,
                op: CmpOp::Le,
                src: KSrc::Col(0),
                c: 0,
            }],
            n_i64: 0,
            n_f64: 0,
            n_bool: 1,
            conjuncts: vec![KConjunct {
                end: 1,
                reg: Some(0),
                col: None,
                vchans: vec![],
            }],
            outs: vec![],
        };
        let pair = FusedKernel {
            ops: vec![
                KOp::CmpConstI64 {
                    dst: 0,
                    op: CmpOp::Ge,
                    src: KSrc::Col(0),
                    c: 0,
                },
                KOp::CmpConstI64 {
                    dst: 1,
                    op: CmpOp::Lt,
                    src: KSrc::Col(0),
                    c: 1,
                },
            ],
            n_i64: 0,
            n_f64: 0,
            n_bool: 2,
            conjuncts: vec![
                KConjunct {
                    end: 1,
                    reg: Some(0),
                    col: None,
                    vchans: vec![],
                },
                KConjunct {
                    end: 2,
                    reg: Some(1),
                    col: None,
                    vchans: vec![],
                },
            ],
            outs: vec![],
        };
        let consts = ConstPool {
            i64s: vec![400, 700],
            ..Default::default()
        };
        let cols = [ColInput::I64(&d)];
        for k in [&single, &pair] {
            let fast = k.run_mask(&cols, &[], &consts, n);
            let slow = k.run_mask_chunked(&cols, &[], &consts, n);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn fused_cmp_const_chain_matches_scalar_loop() {
        // 3 chunks worth of rows with a tail.
        let n = CHUNK_ROWS * 2 + 100;
        let quantity: Vec<i64> = (0..n as i64).map(|i| i % 50).collect();
        let discount: Vec<f64> = (0..n).map(|i| (i % 11) as f64 / 100.0).collect();
        let kernel = FusedKernel {
            ops: vec![
                KOp::CmpConstI64 {
                    dst: 0,
                    op: CmpOp::Lt,
                    src: KSrc::Col(0),
                    c: 0,
                },
                KOp::CmpConstF64 {
                    dst: 1,
                    op: CmpOp::Ge,
                    src: KSrc::Col(1),
                    c: 0,
                },
            ],
            n_i64: 0,
            n_f64: 0,
            n_bool: 2,
            conjuncts: vec![
                KConjunct {
                    end: 1,
                    reg: Some(0),
                    col: None,
                    vchans: vec![],
                },
                KConjunct {
                    end: 2,
                    reg: Some(1),
                    col: None,
                    vchans: vec![],
                },
            ],
            outs: vec![],
        };
        let consts = ConstPool {
            i64s: vec![24],
            f64s: vec![0.05],
            ..Default::default()
        };
        let mask = kernel.run_mask(
            &[ColInput::I64(&quantity), ColInput::F64(&discount)],
            &[],
            &consts,
            n,
        );
        for i in 0..n {
            assert_eq!(mask[i], quantity[i] < 24 && discount[i] >= 0.05, "row {i}");
        }
    }

    #[test]
    fn fused_arith_matches_ops_semantics() {
        let n = 1500;
        let price: Vec<f64> = (0..n).map(|i| 900.0 + i as f64).collect();
        let disc: Vec<f64> = (0..n).map(|i| (i % 10) as f64 / 100.0).collect();
        // price * (1 - disc)
        let kernel = FusedKernel {
            ops: vec![
                KOp::ConstF64 { dst: 0, c: 0 },
                KOp::ArithF64 {
                    dst: 1,
                    op: BinOp::Sub,
                    a: KSrc::Buf(0),
                    b: KSrc::Col(1),
                },
                KOp::ArithF64 {
                    dst: 2,
                    op: BinOp::Mul,
                    a: KSrc::Col(0),
                    b: KSrc::Buf(1),
                },
            ],
            n_i64: 0,
            n_f64: 3,
            n_bool: 0,
            conjuncts: vec![],
            outs: vec![KOut::F64(2)],
        };
        let consts = ConstPool {
            f64s: vec![1.0],
            ..Default::default()
        };
        let outs = kernel.run_outputs(
            &[ColInput::F64(&price), ColInput::F64(&disc)],
            &[],
            &consts,
            n,
        );
        let KOutValue::F64(v) = &outs[0] else {
            panic!()
        };
        for i in 0..n {
            let want = price[i] * (1.0 - disc[i]);
            assert_eq!(v[i].to_bits(), want.to_bits(), "row {i}");
        }
    }

    #[test]
    fn int_div_mod_zero_yields_zero() {
        let n = 8;
        let a: Vec<i64> = vec![5; n];
        let b: Vec<i64> = vec![0, 1, 2, 0, 3, 0, 4, 0];
        let kernel = FusedKernel {
            ops: vec![KOp::ArithI64 {
                dst: 0,
                op: BinOp::Div,
                a: KSrc::Col(0),
                b: KSrc::Col(1),
            }],
            n_i64: 1,
            n_f64: 0,
            n_bool: 0,
            conjuncts: vec![],
            outs: vec![KOut::I64(0)],
        };
        let outs = kernel.run_outputs(
            &[ColInput::I64(&a), ColInput::I64(&b)],
            &[],
            &ConstPool::default(),
            n,
        );
        let KOutValue::I64(v) = &outs[0] else {
            panic!()
        };
        assert_eq!(v, &[0, 5, 2, 0, 1, 0, 1, 0]);
    }

    #[test]
    fn coded_string_predicates_match_padded_rows() {
        // `s < 'MAIL'`, `s NOT IN ('AIR', '')`, `s LIKE '%R%'` — masks and
        // materialized outputs over the padded and the coded form of one
        // column, across chunk boundaries.
        let words = ["MAIL", "AIR", "SHIP", "AIR REG", "", "TRUCK", "RAIL"];
        let n = CHUNK_ROWS * 2 + 9;
        let vals: Vec<&str> = (0..n)
            .map(|i| words[(i * 5 + i / 7) % words.len()])
            .collect();
        let padded = crate::Tensor::from_strings(&vals, 0);
        let coded = crate::dict::encode(&vals, 0).unwrap();
        let (codes, dict) = coded.coded().unwrap();
        let ops = vec![
            KOp::CmpStrConst {
                dst: 0,
                col: 0,
                op: CmpOp::Lt,
                c: 0,
            },
            KOp::InListStr {
                dst: 1,
                col: 0,
                c: 0,
                negated: true,
            },
            KOp::LikeStr {
                dst: 2,
                col: 0,
                c: 0,
                negated: false,
            },
        ];
        let conj = |end, reg| KConjunct {
            end,
            reg: Some(reg),
            col: None,
            vchans: vec![],
        };
        let mask_kernel = FusedKernel {
            ops: ops.clone(),
            n_i64: 0,
            n_f64: 0,
            n_bool: 3,
            conjuncts: vec![conj(1, 0), conj(2, 1), conj(3, 2)],
            outs: vec![],
        };
        let out_kernel = FusedKernel {
            conjuncts: vec![],
            outs: vec![KOut::Bool(0), KOut::Bool(1), KOut::Bool(2)],
            ..mask_kernel.clone()
        };
        let consts = ConstPool {
            strs: vec![b"MAIL".to_vec()],
            str_lists: vec![vec![b"AIR".to_vec(), b"".to_vec()]],
            likes: vec![LikePattern::compile("%R%")],
            ..Default::default()
        };
        let p_cols = [ColInput::Str {
            data: padded.as_u8(),
            width: padded.row_width(),
        }];
        let c_cols = [ColInput::Coded { codes, dict }];
        let mask = mask_kernel.run_mask(&p_cols, &[], &consts, n);
        assert!(mask.iter().any(|&b| b) && !mask.iter().all(|&b| b));
        assert_eq!(mask, mask_kernel.run_mask(&c_cols, &[], &consts, n));
        let bools = |outs: Vec<KOutValue>| -> Vec<Vec<bool>> {
            outs.into_iter()
                .map(|o| match o {
                    KOutValue::Bool(v) => v,
                    _ => panic!("bool output expected"),
                })
                .collect()
        };
        assert_eq!(
            bools(out_kernel.run_outputs(&p_cols, &[], &consts, n)),
            bools(out_kernel.run_outputs(&c_cols, &[], &consts, n))
        );
    }

    #[test]
    fn validity_folds_into_mask() {
        let n = 6;
        let x: Vec<i64> = vec![1, 2, 3, 4, 5, 6];
        let valid = vec![true, false, true, true, false, true];
        let kernel = FusedKernel {
            ops: vec![KOp::CmpConstI64 {
                dst: 0,
                op: CmpOp::Gt,
                src: KSrc::Col(0),
                c: 0,
            }],
            n_i64: 0,
            n_f64: 0,
            n_bool: 1,
            conjuncts: vec![KConjunct {
                end: 1,
                reg: Some(0),
                col: None,
                vchans: vec![0],
            }],
            outs: vec![],
        };
        let consts = ConstPool {
            i64s: vec![2],
            ..Default::default()
        };
        let mask = kernel.run_mask(&[ColInput::I64(&x)], &[Some(&valid)], &consts, n);
        assert_eq!(mask, vec![false, false, true, true, false, true]);
    }
}
