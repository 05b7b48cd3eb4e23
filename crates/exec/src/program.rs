//! The **TensorProgram** IR — the paper's "tensor program" (§2.2) made
//! explicit.
//!
//! [`lower`] compiles a [`PhysicalPlan`] tree into a flat, register-based
//! sequence of tensor operators. The program — not the plan — is what
//! every backend executes:
//!
//! * the vectorized register VM ([`crate::vm`]) runs it directly
//!   (`Fused` binds a specialized kernel to each expression site at
//!   compile time, `Eager` binds none);
//! * the Graph backend serializes it into a **versioned, self-describing
//!   artifact** ([`serialize_program`]) — the reproduction's "ONNX file" —
//!   loads it back once at compile, and the VM executes the deserialized
//!   program without the compiler front-end;
//! * the Wasm backend loads the *same* artifact with no kernels and runs
//!   it on the VM on one worker ([`crate::graphvm`]), the ORT-Web analog.
//!
//! **Expressions are compiled, not embedded.** Since artifact v2, no op
//! carries a `BoundExpr` tree: every scalar expression — filter
//! conjuncts, projections, join residuals, group-by keys, aggregate
//! inputs, sort keys, `PREDICT` splice points — is lowered here into a
//! flat [`ExprProgram`] ([`crate::exprprog`]) with lowering-time constant
//! folding and cross-expression common-subexpression reuse. Lowering also
//! folds the conjunct list itself: always-true conjuncts are dropped
//! (possibly eliding the whole `Filter`), and a constant-false conjunct
//! collapses the filter to a canonical short-circuit the VMs turn into an
//! empty scan without evaluating anything.
//!
//! Register discipline: lowering walks the plan tree post-order, so every
//! op writes a fresh register and each register is read after it is
//! written; data-flow is explicit (`dst`/`src` fields), which is what the
//! morsel-parallel executor uses to find chunkable pipeline segments.

use bytes::Bytes;
use tqp_ir::expr::{eval_const, AggCall, AggFunc, BoundExpr};
use tqp_ir::json as irjson;
use tqp_ir::physical::{dedup_names, PhysicalPlan};
use tqp_ir::plan::{JoinType, PlanSchema};
use tqp_json::Json;
use tqp_ml::ModelRegistry;
use tqp_tensor::Scalar;

use crate::exprfuse::Mode;
use crate::exprprog::{
    compile_expr, compile_exprs, exprprog_from_json, exprprog_to_json, ExprOp, ExprProgram,
};

/// Artifact format tag (the self-describing header's `format` field).
pub const ARTIFACT_FORMAT: &str = "tqp-tensor-program";

/// Current artifact version. Bump on any encoding change; the loader
/// rejects versions it does not understand. v1 embedded `BoundExpr`
/// trees; v2 encodes compiled [`ExprProgram`]s natively.
pub const ARTIFACT_VERSION: i64 = 2;

/// The last tree-based artifact version, rejected with a pointed error.
pub const ARTIFACT_VERSION_V1: i64 = 1;

/// A register index. Registers hold either a column batch or a join
/// build table (see `tqp_exec::vm::Value`).
pub type Reg = usize;

/// One aggregate call of a [`ReduceExprs`] bundle. The argument is a slot
/// into the bundle's compiled outputs, not an expression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledAgg {
    pub func: AggFunc,
    /// Output slot of the reduce program holding the argument values
    /// (`None` for `COUNT(*)`).
    pub arg: Option<usize>,
    /// Result type.
    pub ty: tqp_data::LogicalType,
}

/// The compiled expression bundle of a `GroupedReduce`: one shared
/// [`ExprProgram`] whose outputs are the group keys (`..n_keys`) followed
/// by the aggregate argument columns, plus per-aggregate metadata.
/// Sharing one program means a subterm used by several aggregates (Q1's
/// `l_extendedprice * (1 - l_discount)`) evaluates once per batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceExprs {
    pub exprs: ExprProgram,
    pub n_keys: usize,
    pub aggs: Vec<CompiledAgg>,
}

impl ReduceExprs {
    /// Compile group-by keys + aggregate arguments into one bundle.
    pub fn compile(group_by: &[BoundExpr], aggs: &[AggCall]) -> ReduceExprs {
        let mut sources: Vec<BoundExpr> = group_by.to_vec();
        let mut compiled = Vec::with_capacity(aggs.len());
        for call in aggs {
            let arg = call.arg.as_ref().map(|a| {
                let slot = sources.len();
                sources.push(a.clone());
                slot
            });
            compiled.push(CompiledAgg {
                func: call.func,
                arg,
                ty: call.ty,
            });
        }
        ReduceExprs {
            exprs: compile_exprs(&sources),
            n_keys: group_by.len(),
            aggs: compiled,
        }
    }
}

/// One flat tensor-program operator.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgOp {
    /// Load a stored table (optionally projected) into `dst`.
    Scan {
        dst: Reg,
        table: String,
        projection: Option<Vec<usize>>,
    },
    /// Filter `src` by compiled conjuncts (one program output per
    /// conjunct), AND-folded into one mask — by the bound kernel when the
    /// backend bound one, else by the generic walk — and compacted once. A
    /// constant-false conjunct (see [`lower`]) short-circuits to an empty
    /// batch without evaluating anything. `keep` lists the input columns
    /// the output carries, in output order (`None` = all): a column-only
    /// `Project` directly over the filter lowers into it, so columns only
    /// the predicate reads are never gathered.
    Filter {
        dst: Reg,
        src: Reg,
        conjuncts: ExprProgram,
        keep: Option<Vec<usize>>,
    },
    /// Evaluate compiled projection expressions over `src` (one program
    /// output per projected column).
    Project {
        dst: Reg,
        src: Reg,
        exprs: ExprProgram,
    },
    /// Build the hash table over the build side's key columns (the join's
    /// right input, or its left when the probe says `build_left`).
    /// `distinct` is the optimizer's distinct-key estimate for the build
    /// side (from the catalog's KMV sketch), used to size the flat hash
    /// directory; `None` sizes for all-distinct keys.
    HashBuild {
        dst: Reg,
        src: Reg,
        keys: Vec<usize>,
        distinct: Option<u64>,
    },
    /// Probe a [`ProgOp::HashBuild`] table with the left side's keys,
    /// verify/filter pairs, and assemble the join output. With
    /// `build_left` (semi/anti joins only) the table holds the *left*
    /// side and the right side's keys probe it, marking the left rows
    /// they match; the output is the same left rows in left order.
    HashProbe {
        dst: Reg,
        table: Reg,
        left: Reg,
        right: Reg,
        join_type: JoinType,
        on: Vec<(usize, usize)>,
        residual: Option<ExprProgram>,
        build_left: bool,
    },
    /// Cartesian product (scalar-subquery sides only).
    CrossJoin { dst: Reg, left: Reg, right: Reg },
    /// Grouped/global reduction (hash grouping in first-appearance order
    /// — the paper's GroupedReduce) over a compiled key/argument bundle.
    /// `groups` is the planner's group-count estimate; the executor derives
    /// the aggregation shape from it ([`crate::agg::morsel_shape`]), `None`
    /// keeps per-morsel partials.
    GroupedReduce {
        dst: Reg,
        src: Reg,
        reduce: ReduceExprs,
        groups: Option<u64>,
    },
    /// Stable multi-key sort over compiled key expressions (`desc[k]`
    /// flips key `k`). `limit` is the `n` of a `Limit` lowered directly
    /// above it: the op outputs only the first `n` rows of the sorted
    /// order, which the vectorized VM selects without sorting the rest
    /// (top-k). The `Limit` op stays in the program, so a reader that
    /// ignores the field produces the same result.
    Sort {
        dst: Reg,
        src: Reg,
        keys: ExprProgram,
        desc: Vec<bool>,
        limit: Option<usize>,
    },
    /// Keep the first `n` rows.
    Limit { dst: Reg, src: Reg, n: usize },
}

impl ProgOp {
    /// The register this op writes.
    pub fn dst(&self) -> Reg {
        match self {
            ProgOp::Scan { dst, .. }
            | ProgOp::Filter { dst, .. }
            | ProgOp::Project { dst, .. }
            | ProgOp::HashBuild { dst, .. }
            | ProgOp::HashProbe { dst, .. }
            | ProgOp::CrossJoin { dst, .. }
            | ProgOp::GroupedReduce { dst, .. }
            | ProgOp::Sort { dst, .. }
            | ProgOp::Limit { dst, .. } => *dst,
        }
    }

    /// The registers this op reads.
    pub fn srcs(&self) -> Vec<Reg> {
        match self {
            ProgOp::Scan { .. } => vec![],
            ProgOp::Filter { src, .. }
            | ProgOp::Project { src, .. }
            | ProgOp::HashBuild { src, .. }
            | ProgOp::GroupedReduce { src, .. }
            | ProgOp::Sort { src, .. }
            | ProgOp::Limit { src, .. } => vec![*src],
            ProgOp::HashProbe {
                table, left, right, ..
            } => vec![*table, *left, *right],
            ProgOp::CrossJoin { left, right, .. } => vec![*left, *right],
        }
    }

    /// Span/display name, matching the plan-walk interpreter's
    /// operator names where an equivalent existed.
    pub fn name(&self) -> String {
        match self {
            ProgOp::Scan { table, .. } => format!("Scan({table})"),
            ProgOp::Filter { .. } => "Filter".into(),
            ProgOp::Project { exprs, .. } if exprs.has_model_apply() => "Project+Predict".into(),
            ProgOp::Project { .. } => "Project".into(),
            ProgOp::HashBuild { .. } => "HashBuild".into(),
            ProgOp::HashProbe { join_type, .. } => format!("HashJoin({join_type:?})"),
            ProgOp::CrossJoin { .. } => "CrossJoin".into(),
            ProgOp::GroupedReduce { .. } => "HashAggregate".into(),
            ProgOp::Sort { .. } => "Sort".into(),
            ProgOp::Limit { .. } => "Limit".into(),
        }
    }

    /// Number of compiled expression micro-ops this operator carries
    /// (display / artifact statistics).
    pub fn expr_op_count(&self) -> usize {
        match self {
            ProgOp::Filter { conjuncts, .. } => conjuncts.ops.len(),
            ProgOp::Project { exprs, .. } => exprs.ops.len(),
            ProgOp::HashProbe { residual, .. } => residual.as_ref().map_or(0, |r| r.ops.len()),
            ProgOp::GroupedReduce { reduce, .. } => reduce.exprs.ops.len(),
            ProgOp::Sort { keys, .. } => keys.ops.len(),
            _ => 0,
        }
    }
}

/// A lowered query: flat op sequence + register budget + output schema.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorProgram {
    /// Topologically ordered op sequence (writer-before-reader).
    pub ops: Vec<ProgOp>,
    /// Number of registers the VM must allocate.
    pub n_regs: usize,
    /// Register holding the query result.
    pub output: Reg,
    /// Output schema (names deduplicated, display-ready).
    pub schema: PlanSchema,
}

impl TensorProgram {
    /// Visit every compiled [`ExprProgram`] the program carries (filter
    /// conjuncts, projections, join residuals, reduce bundles, sort keys).
    pub fn for_each_exprprog(&self, mut f: impl FnMut(&ExprProgram)) {
        for op in &self.ops {
            match op {
                ProgOp::Filter { conjuncts, .. } => f(conjuncts),
                ProgOp::Project { exprs, .. } => f(exprs),
                ProgOp::HashProbe { residual, .. } => {
                    if let Some(r) = residual {
                        f(r)
                    }
                }
                ProgOp::GroupedReduce { reduce, .. } => f(&reduce.exprs),
                ProgOp::Sort { keys, .. } => f(keys),
                ProgOp::Scan { .. }
                | ProgOp::HashBuild { .. }
                | ProgOp::CrossJoin { .. }
                | ProgOp::Limit { .. } => {}
            }
        }
    }

    /// Mutable variant of [`TensorProgram::for_each_exprprog`]; each site
    /// comes with the evaluation mode its role implies (filter conjuncts
    /// and join residuals fold to one mask, every other site produces all
    /// of its outputs).
    pub fn for_each_exprprog_mut(&mut self, mut f: impl FnMut(&mut ExprProgram, Mode)) {
        for op in &mut self.ops {
            match op {
                ProgOp::Filter { conjuncts, .. } => f(conjuncts, Mode::Mask),
                ProgOp::Project { exprs, .. } => f(exprs, Mode::Outputs),
                ProgOp::HashProbe { residual, .. } => {
                    if let Some(r) = residual {
                        f(r, Mode::Mask)
                    }
                }
                ProgOp::GroupedReduce { reduce, .. } => f(&mut reduce.exprs, Mode::Outputs),
                ProgOp::Sort { keys, .. } => f(keys, Mode::Outputs),
                ProgOp::Scan { .. }
                | ProgOp::HashBuild { .. }
                | ProgOp::CrossJoin { .. }
                | ProgOp::Limit { .. } => {}
            }
        }
    }

    /// Number of parameter values (`$1..$n` placeholders) an execution
    /// must bind before this program may run; 0 for parameter-free queries.
    pub fn n_params(&self) -> usize {
        let mut n = 0;
        self.for_each_exprprog(|p| n = n.max(p.n_params()));
        n
    }

    /// Bind parameter values into a **clone** of the program by patching
    /// the compiled `LoadConst` slots — the prepared-statement fast path
    /// ([`crate::Executor::run`] calls it once per parameterized run): no
    /// parse/bind/optimize/lower work happens here, so re-binding the same
    /// compiled program with new values never recompiles anything.
    pub fn bind_params(&self, values: &[Scalar]) -> Result<TensorProgram, String> {
        let need = self.n_params();
        if values.len() != need {
            return Err(format!(
                "query takes {need} parameter(s), {} supplied",
                values.len()
            ));
        }
        let mut bound = self.clone();
        let mut err: Option<String> = None;
        bound.for_each_exprprog_mut(|p, _| {
            if err.is_none() {
                if let Err(e) = p.bind_params(values) {
                    err = Some(e);
                }
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(bound),
        }
    }

    /// Names of the stored tables the program scans (deduplicated).
    pub fn tables(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for op in &self.ops {
            if let ProgOp::Scan { table, .. } = op {
                if !out.contains(&table.as_str()) {
                    out.push(table);
                }
            }
        }
        out
    }

    /// Multi-line assembly-style listing (EXPLAIN for programs). Ops that
    /// carry compiled expressions show their micro-op count.
    pub fn display(&self) -> String {
        let mut out = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            let srcs: Vec<String> = op.srcs().iter().map(|r| format!("r{r}")).collect();
            let exprs = match op.expr_op_count() {
                0 => String::new(),
                n => format!(" [{n} expr ops]"),
            };
            out.push_str(&format!(
                "op{i:<3} r{} = {}({}){exprs}\n",
                op.dst(),
                op.name(),
                srcs.join(", ")
            ));
        }
        out.push_str(&format!("return r{}\n", self.output));
        out
    }
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

/// Compile a physical plan into a [`TensorProgram`]. All expression trees
/// are compiled to [`ExprProgram`]s here — this is the last point in the
/// pipeline where a `BoundExpr` exists.
pub fn lower(plan: &PhysicalPlan) -> TensorProgram {
    lower_with_map(plan).0
}

/// [`lower`] plus a plan-node → program-op side table for trace
/// attribution (`EXPLAIN ANALYZE`). The table has one entry per plan
/// node in **post-order, children left-to-right** (the recursion order
/// of lowering itself, so the root is last); each entry is the index of
/// the op producing that node's output register. An elided node (a
/// Filter whose conjuncts all folded to true) aliases its child's op;
/// `None` only for a leaf that lowered to nothing (cannot happen today).
pub fn lower_with_map(plan: &PhysicalPlan) -> (TensorProgram, Vec<Option<usize>>) {
    let mut b = Builder {
        ops: Vec::new(),
        next_reg: 0,
        node_ops: Vec::new(),
    };
    let output = b.lower_node(plan);
    (
        TensorProgram {
            ops: b.ops,
            n_regs: b.next_reg,
            output,
            schema: dedup_names(&plan.schema()),
        },
        b.node_ops,
    )
}

struct Builder {
    ops: Vec<ProgOp>,
    next_reg: usize,
    node_ops: Vec<Option<usize>>,
}

impl Builder {
    fn fresh(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn lower_node(&mut self, plan: &PhysicalPlan) -> Reg {
        let reg = self.lower_node_inner(plan);
        // Single-assignment registers make the producing op unambiguous;
        // an elided Filter returns its child's register and so aliases
        // the child's op.
        let entry = self.ops.iter().rposition(|o| o.dst() == reg);
        self.node_ops.push(entry);
        reg
    }

    fn lower_node_inner(&mut self, plan: &PhysicalPlan) -> Reg {
        match plan {
            PhysicalPlan::Scan {
                table, projection, ..
            } => {
                let dst = self.fresh();
                self.ops.push(ProgOp::Scan {
                    dst,
                    table: table.clone(),
                    projection: projection.clone(),
                });
                dst
            }
            PhysicalPlan::Filter { input, predicate } => {
                let src = self.lower_node(input);
                let mut conjuncts = Vec::new();
                split_and(predicate.clone(), &mut conjuncts);
                // Conjunct-level folding: drop always-true conjuncts; a
                // constant-false conjunct makes the whole filter a
                // canonical short-circuit (the VMs emit an empty batch
                // without evaluating anything — an empty scan in effect).
                let mut kept = Vec::with_capacity(conjuncts.len());
                let mut const_false = false;
                for c in conjuncts {
                    match eval_const(&c) {
                        Some(Scalar::Bool(true)) => {}
                        Some(Scalar::Bool(false)) => const_false = true,
                        _ => kept.push(c),
                    }
                }
                if const_false {
                    kept = vec![BoundExpr::lit_bool(false)];
                } else if kept.is_empty() {
                    // Every conjunct was constant-true: elide the Filter.
                    return src;
                }
                let dst = self.fresh();
                self.ops.push(ProgOp::Filter {
                    dst,
                    src,
                    conjuncts: compile_exprs(&kept),
                    keep: None,
                });
                dst
            }
            PhysicalPlan::Project { input, exprs, .. } => {
                let src = self.lower_node(input);
                // A column-only projection directly over a filter becomes
                // the filter's keep-list (the node aliases the filter's op,
                // as an elided filter aliases its child's).
                if let (Some(ProgOp::Filter { dst, keep, .. }), Some(cols)) =
                    (self.ops.last_mut(), column_only(exprs))
                {
                    if *dst == src && keep.is_none() {
                        *keep = Some(cols);
                        return src;
                    }
                }
                let dst = self.fresh();
                self.ops.push(ProgOp::Project {
                    dst,
                    src,
                    exprs: compile_exprs(exprs),
                });
                dst
            }
            PhysicalPlan::Join {
                left,
                right,
                join_type,
                on,
                residual,
                build_left,
                build_distinct,
            } => {
                let l = self.lower_node(left);
                let r = self.lower_node(right);
                let table = self.fresh();
                self.ops.push(ProgOp::HashBuild {
                    dst: table,
                    src: if *build_left { l } else { r },
                    keys: on
                        .iter()
                        .map(|&(lk, rk)| if *build_left { lk } else { rk })
                        .collect(),
                    distinct: *build_distinct,
                });
                let dst = self.fresh();
                self.ops.push(ProgOp::HashProbe {
                    dst,
                    table,
                    left: l,
                    right: r,
                    join_type: *join_type,
                    on: on.clone(),
                    residual: residual.as_ref().map(compile_expr),
                    build_left: *build_left,
                });
                dst
            }
            PhysicalPlan::CrossJoin { left, right } => {
                let l = self.lower_node(left);
                let r = self.lower_node(right);
                let dst = self.fresh();
                self.ops.push(ProgOp::CrossJoin {
                    dst,
                    left: l,
                    right: r,
                });
                dst
            }
            PhysicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                groups,
                ..
            } => {
                let src = self.lower_node(input);
                let dst = self.fresh();
                self.ops.push(ProgOp::GroupedReduce {
                    dst,
                    src,
                    reduce: ReduceExprs::compile(group_by, aggs),
                    groups: *groups,
                });
                dst
            }
            PhysicalPlan::Sort { input, keys } => {
                let src = self.lower_node(input);
                let dst = self.fresh();
                let exprs: Vec<BoundExpr> = keys.iter().map(|k| k.expr.clone()).collect();
                self.ops.push(ProgOp::Sort {
                    dst,
                    src,
                    keys: compile_exprs(&exprs),
                    desc: keys.iter().map(|k| k.desc).collect(),
                    limit: None,
                });
                dst
            }
            PhysicalPlan::Limit { input, n } => {
                let src = self.lower_node(input);
                // A limit directly on a sort tells it how many rows it
                // must order (EXPLAIN shows the same pairing).
                if let (PhysicalPlan::Sort { .. }, Some(ProgOp::Sort { dst, limit, .. })) =
                    (&**input, self.ops.last_mut())
                {
                    if *dst == src {
                        *limit = Some(*n);
                    }
                }
                let dst = self.fresh();
                self.ops.push(ProgOp::Limit { dst, src, n: *n });
                dst
            }
        }
    }
}

/// The input column each expression selects, when all are bare columns.
fn column_only(exprs: &[BoundExpr]) -> Option<Vec<usize>> {
    exprs
        .iter()
        .map(|e| match e {
            BoundExpr::Column { index, .. } => Some(*index),
            _ => None,
        })
        .collect()
}

/// Split a predicate tree on top-level ANDs.
fn split_and(e: BoundExpr, out: &mut Vec<BoundExpr>) {
    use tqp_ir::expr::BinOp;
    match e {
        BoundExpr::Binary {
            op: BinOp::And,
            left,
            right,
            ..
        } => {
            split_and(*left, out);
            split_and(*right, out);
        }
        other => out.push(other),
    }
}

// ---------------------------------------------------------------------
// Artifact (de)serialization
// ---------------------------------------------------------------------

/// Artifact decode errors.
#[derive(Debug, Clone)]
pub struct ProgramError {
    pub message: String,
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tensor program artifact: {}", self.message)
    }
}

impl std::error::Error for ProgramError {}

impl From<tqp_json::JsonError> for ProgramError {
    fn from(e: tqp_json::JsonError) -> Self {
        ProgramError { message: e.message }
    }
}

impl From<irjson::PlanJsonError> for ProgramError {
    fn from(e: irjson::PlanJsonError) -> Self {
        ProgramError { message: e.message }
    }
}

fn invalid<T>(message: impl Into<String>) -> Result<T, ProgramError> {
    Err(ProgramError {
        message: message.into(),
    })
}

/// Bind every `PREDICT` splice point of a lowered program to the model it
/// names in `models`, once, so no evaluator looks a model up. A missing
/// model, or one taking another number of arguments, is the error.
pub fn bind_models(prog: &mut TensorProgram, models: &ModelRegistry) -> Result<(), String> {
    let mut res = Ok(());
    prog.for_each_exprprog_mut(|p, _| {
        for op in &mut p.ops {
            let ExprOp::ModelApply {
                model, args, bound, ..
            } = op
            else {
                continue;
            };
            let Some(m) = models.get(model) else {
                res = Err(format!("model {model} is not registered in this session"));
                continue;
            };
            let (n, got) = (m.n_inputs(), args.len());
            if n != got {
                res = Err(format!(
                    "model {model} takes {n} argument(s), {got} supplied"
                ));
            }
            bound.0 = Some(m);
        }
    });
    res
}

/// Serialize a program into the portable artifact: a self-describing,
/// versioned document every backend (and any external runtime) can load
/// without the compiler front-end. Since v2 the encoding carries compiled
/// [`ExprProgram`]s — loaders never reconstruct expression trees.
pub fn serialize_program(prog: &TensorProgram) -> Bytes {
    let ops: Vec<Json> = prog.ops.iter().map(op_to_json).collect();
    let doc = Json::obj(vec![
        ("format", Json::str(ARTIFACT_FORMAT)),
        ("version", Json::I64(ARTIFACT_VERSION)),
        ("n_regs", Json::I64(prog.n_regs as i64)),
        ("output", Json::I64(prog.output as i64)),
        ("schema", irjson::schema_to_json(&prog.schema)),
        ("ops", Json::Arr(ops)),
    ]);
    Bytes::from(doc.to_string().into_bytes())
}

/// Load an artifact produced by [`serialize_program`].
pub fn deserialize_program(artifact: &Bytes) -> Result<TensorProgram, ProgramError> {
    let text = std::str::from_utf8(artifact).map_err(|_| ProgramError {
        message: "artifact is not utf-8".into(),
    })?;
    let doc = Json::parse(text)?;
    match doc.field("format")?.as_str() {
        Some(ARTIFACT_FORMAT) => {}
        other => return invalid(format!("unknown artifact format {other:?}")),
    }
    match doc.field("version")?.as_i64() {
        Some(ARTIFACT_VERSION) => {}
        Some(ARTIFACT_VERSION_V1) => {
            return invalid(format!(
                "artifact version {ARTIFACT_VERSION_V1} is no longer supported: v1 artifacts \
                 embed expression trees, but this loader reads version {ARTIFACT_VERSION} \
                 (compiled ExprPrograms). Recompile the query with this build to produce a \
                 v{ARTIFACT_VERSION} artifact."
            ))
        }
        other => {
            return invalid(format!(
                "unsupported artifact version {other:?} (loader supports {ARTIFACT_VERSION})"
            ))
        }
    }
    let n_regs = reg_field(&doc, "n_regs")?;
    let output = reg_field(&doc, "output")?;
    let schema = irjson::schema_from_json(doc.field("schema")?)?;
    let ops = doc
        .field("ops")?
        .as_arr()
        .ok_or(ProgramError {
            message: "ops must be an array".into(),
        })?
        .iter()
        .map(op_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    // Bound the register budget before allocating anything sized by it:
    // lowering emits exactly one register per op, so a larger claim is
    // corrupt (and must not drive an attacker-controlled allocation).
    if n_regs > ops.len() {
        return invalid(format!(
            "register budget {n_regs} exceeds op count {}",
            ops.len()
        ));
    }
    // Structural sanity: every read happens after its write.
    let mut written = vec![false; n_regs];
    for op in &ops {
        for s in op.srcs() {
            if s >= n_regs || !written[s] {
                return invalid(format!("op reads register r{s} before it is written"));
            }
        }
        let d = op.dst();
        if d >= n_regs {
            return invalid(format!("op writes out-of-range register r{d}"));
        }
        written[d] = true;
    }
    if output >= n_regs || !written[output] {
        return invalid("output register is never written");
    }
    Ok(TensorProgram {
        ops,
        n_regs,
        output,
        schema,
    })
}

fn reg_field(j: &Json, key: &str) -> Result<usize, ProgramError> {
    match j.field(key)?.as_i64() {
        Some(v) if v >= 0 => Ok(v as usize),
        other => invalid(format!(
            "field {key:?} must be a non-negative integer, got {other:?}"
        )),
    }
}

fn on_json(on: &[(usize, usize)]) -> Json {
    Json::Arr(
        on.iter()
            .map(|&(l, r)| Json::arr([Json::I64(l as i64), Json::I64(r as i64)]))
            .collect(),
    )
}

fn on_from(j: &Json) -> Result<Vec<(usize, usize)>, ProgramError> {
    j.as_arr()
        .ok_or(ProgramError {
            message: "join keys must be an array".into(),
        })?
        .iter()
        .map(|pair| {
            match (
                pair.at(0).and_then(Json::as_i64),
                pair.at(1).and_then(Json::as_i64),
            ) {
                (Some(l), Some(r)) if l >= 0 && r >= 0 => Ok((l as usize, r as usize)),
                _ => invalid("join key pair invalid"),
            }
        })
        .collect()
}

fn index_list_json(idx: &[usize]) -> Json {
    Json::Arr(idx.iter().map(|&i| Json::I64(i as i64)).collect())
}

fn index_list_from(j: &Json, what: &str) -> Result<Vec<usize>, ProgramError> {
    j.as_arr()
        .ok_or(ProgramError {
            message: format!("{what} must be an array"),
        })?
        .iter()
        .map(|v| {
            v.as_i64()
                .filter(|&i| i >= 0)
                .map(|i| i as usize)
                .ok_or(ProgramError {
                    message: format!("{what} index invalid"),
                })
        })
        .collect()
}

fn residual_json(residual: &Option<ExprProgram>) -> Json {
    match residual {
        Some(e) => exprprog_to_json(e),
        None => Json::Null,
    }
}

fn residual_from(j: &Json) -> Result<Option<ExprProgram>, ProgramError> {
    match j {
        Json::Null => Ok(None),
        e => {
            let prog = exprprog_from_json(e)?;
            // A residual is one predicate: the executors read exactly
            // output 0, so reject anything else at load instead of
            // panicking mid-probe.
            if prog.outputs.len() != 1 {
                return invalid(format!(
                    "join residual must have exactly one output, got {}",
                    prog.outputs.len()
                ));
            }
            Ok(Some(prog))
        }
    }
}

fn reduce_json(reduce: &ReduceExprs) -> Json {
    Json::obj(vec![
        ("exprs", exprprog_to_json(&reduce.exprs)),
        ("n_keys", Json::I64(reduce.n_keys as i64)),
        (
            "aggs",
            Json::Arr(
                reduce
                    .aggs
                    .iter()
                    .map(|a| {
                        Json::obj(vec![
                            ("func", irjson::agg_func_to_json(a.func)),
                            (
                                "arg",
                                match a.arg {
                                    Some(s) => Json::I64(s as i64),
                                    None => Json::Null,
                                },
                            ),
                            ("ty", irjson::type_to_json(a.ty)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn reduce_from(j: &Json) -> Result<ReduceExprs, ProgramError> {
    let exprs = exprprog_from_json(j.field("exprs")?)?;
    let n_keys = reg_field(j, "n_keys")?;
    let aggs = j
        .field("aggs")?
        .as_arr()
        .ok_or(ProgramError {
            message: "aggs must be an array".into(),
        })?
        .iter()
        .map(|a| -> Result<CompiledAgg, ProgramError> {
            Ok(CompiledAgg {
                func: irjson::agg_func_from_json(a.field("func")?)?,
                arg: match a.field("arg")? {
                    Json::Null => None,
                    v => match v.as_i64() {
                        Some(s) if s >= 0 => Some(s as usize),
                        other => return invalid(format!("bad agg arg slot {other:?}")),
                    },
                },
                ty: irjson::type_from_json(a.field("ty")?)?,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    // Slot sanity: keys and every referenced argument must exist in the
    // compiled program's outputs.
    let n_outputs = exprs.outputs.len();
    if n_keys > n_outputs {
        return invalid(format!(
            "reduce claims {n_keys} keys but the program has {n_outputs} outputs"
        ));
    }
    for a in &aggs {
        match a.arg {
            Some(s) if s >= n_outputs => {
                return invalid(format!(
                    "agg arg slot {s} out of range ({n_outputs} outputs)"
                ))
            }
            // COUNT(*) is the only argument-less aggregate; every other
            // function dereferences its arg at execution, so a missing
            // slot must fail at load, not panic mid-query.
            None if a.func != AggFunc::CountStar => {
                return invalid(format!("aggregate {:?} requires an arg slot", a.func))
            }
            Some(_) if a.func == AggFunc::CountStar => {
                return invalid("COUNT(*) must not carry an arg slot")
            }
            _ => {}
        }
    }
    Ok(ReduceExprs {
        exprs,
        n_keys,
        aggs,
    })
}

fn op_to_json(op: &ProgOp) -> Json {
    let reg = |r: Reg| Json::I64(r as i64);
    match op {
        ProgOp::Scan {
            dst,
            table,
            projection,
        } => Json::obj(vec![
            ("op", Json::str("scan")),
            ("dst", reg(*dst)),
            ("table", Json::str(table.as_str())),
            (
                "projection",
                match projection {
                    Some(idx) => index_list_json(idx),
                    None => Json::Null,
                },
            ),
        ]),
        ProgOp::Filter {
            dst,
            src,
            conjuncts,
            keep,
        } => {
            let mut fields = vec![
                ("op", Json::str("filter")),
                ("dst", reg(*dst)),
                ("src", reg(*src)),
                ("conjuncts", exprprog_to_json(conjuncts)),
            ];
            // Emitted only when set (as every optional field below), so
            // programs without it re-encode byte-identically to version-2
            // artifacts that predate the field.
            if let Some(cols) = keep {
                fields.push(("keep", index_list_json(cols)));
            }
            Json::obj(fields)
        }
        ProgOp::Project { dst, src, exprs } => Json::obj(vec![
            ("op", Json::str("project")),
            ("dst", reg(*dst)),
            ("src", reg(*src)),
            ("exprs", exprprog_to_json(exprs)),
        ]),
        ProgOp::HashBuild {
            dst,
            src,
            keys,
            distinct,
        } => {
            let mut fields = vec![
                ("op", Json::str("hash_build")),
                ("dst", reg(*dst)),
                ("src", reg(*src)),
                ("keys", index_list_json(keys)),
            ];
            // Emitted only when present, so artifacts without an estimate
            // re-encode byte-identically to version-2 artifacts that
            // predate the field.
            if let Some(d) = distinct {
                fields.push(("distinct", Json::I64(*d as i64)));
            }
            Json::obj(fields)
        }
        ProgOp::HashProbe {
            dst,
            table,
            left,
            right,
            join_type,
            on,
            residual,
            build_left,
        } => {
            let mut fields = vec![
                ("op", Json::str("hash_probe")),
                ("dst", reg(*dst)),
                ("table", reg(*table)),
                ("left", reg(*left)),
                ("right", reg(*right)),
                ("join_type", irjson::join_type_to_json(*join_type)),
                ("on", on_json(on)),
                ("residual", residual_json(residual)),
            ];
            // Emitted only when set: right-build probes re-encode
            // byte-identically to artifacts that predate the field.
            if *build_left {
                fields.push(("build_left", Json::Bool(true)));
            }
            Json::obj(fields)
        }
        ProgOp::CrossJoin { dst, left, right } => Json::obj(vec![
            ("op", Json::str("cross_join")),
            ("dst", reg(*dst)),
            ("left", reg(*left)),
            ("right", reg(*right)),
        ]),
        ProgOp::GroupedReduce {
            dst,
            src,
            reduce,
            groups,
        } => {
            let mut fields = vec![
                ("op", Json::str("grouped_reduce")),
                ("dst", reg(*dst)),
                ("src", reg(*src)),
                ("reduce", reduce_json(reduce)),
            ];
            if let Some(g) = groups {
                fields.push(("groups", Json::I64(*g as i64)));
            }
            Json::obj(fields)
        }
        ProgOp::Sort {
            dst,
            src,
            keys,
            desc,
            limit,
        } => {
            let mut fields = vec![
                ("op", Json::str("sort")),
                ("dst", reg(*dst)),
                ("src", reg(*src)),
                ("keys", exprprog_to_json(keys)),
                (
                    "desc",
                    Json::Arr(desc.iter().map(|&d| Json::Bool(d)).collect()),
                ),
            ];
            if let Some(n) = limit {
                fields.push(("limit", Json::I64(*n as i64)));
            }
            Json::obj(fields)
        }
        ProgOp::Limit { dst, src, n } => Json::obj(vec![
            ("op", Json::str("limit")),
            ("dst", reg(*dst)),
            ("src", reg(*src)),
            ("n", Json::I64(*n as i64)),
        ]),
    }
}

fn op_from_json(j: &Json) -> Result<ProgOp, ProgramError> {
    let kind = j.field("op")?.as_str().unwrap_or_default().to_string();
    let dst = reg_field(j, "dst")?;
    // The shape annotation and the top-k hint mean something on one op
    // each; anywhere else they are a corrupt document, not a field to skip.
    if kind != "grouped_reduce" && j.get("groups").is_some() {
        return invalid(format!("op {kind:?} must not carry a groups estimate"));
    }
    if kind != "sort" && j.get("limit").is_some() {
        return invalid(format!("op {kind:?} must not carry a limit"));
    }
    match kind.as_str() {
        "scan" => Ok(ProgOp::Scan {
            dst,
            table: j.field("table")?.as_str().unwrap_or_default().to_string(),
            projection: match j.field("projection")? {
                Json::Null => None,
                arr => Some(index_list_from(arr, "projection")?),
            },
        }),
        "filter" => {
            let conjuncts = exprprog_from_json(j.field("conjuncts")?)?;
            // Lowering never emits a conjunct-less filter (all-true
            // filters are elided); a zero-output program would diverge
            // across backends (the generic walk drops every row, a bound
            // kernel keeps them all), so reject it at load.
            if conjuncts.outputs.is_empty() {
                return invalid("filter must have at least one conjunct");
            }
            Ok(ProgOp::Filter {
                dst,
                src: reg_field(j, "src")?,
                conjuncts,
                keep: j
                    .get("keep")
                    .map(|k| index_list_from(k, "keep"))
                    .transpose()?,
            })
        }
        "project" => Ok(ProgOp::Project {
            dst,
            src: reg_field(j, "src")?,
            exprs: exprprog_from_json(j.field("exprs")?)?,
        }),
        "hash_build" => Ok(ProgOp::HashBuild {
            dst,
            src: reg_field(j, "src")?,
            keys: index_list_from(j.field("keys")?, "keys")?,
            // Optional: absent in artifacts lowered without stats (and in
            // all pre-estimate artifacts).
            distinct: j.get("distinct").and_then(|v| v.as_i64()).map(|d| d as u64),
        }),
        "hash_probe" => {
            let join_type = irjson::join_type_from_json(j.field("join_type")?)?;
            let build_left = j.get("build_left").and_then(Json::as_bool).unwrap_or(false);
            // The marking probe emits left rows only; on an inner or left
            // outer join it would panic mid-query, so reject it at load.
            if build_left && !matches!(join_type, JoinType::Semi | JoinType::Anti) {
                return invalid("build_left is only valid on semi/anti probes");
            }
            Ok(ProgOp::HashProbe {
                dst,
                table: reg_field(j, "table")?,
                left: reg_field(j, "left")?,
                right: reg_field(j, "right")?,
                join_type,
                on: on_from(j.field("on")?)?,
                residual: residual_from(j.field("residual")?)?,
                build_left,
            })
        }
        "cross_join" => Ok(ProgOp::CrossJoin {
            dst,
            left: reg_field(j, "left")?,
            right: reg_field(j, "right")?,
        }),
        "grouped_reduce" => {
            let reduce = reduce_from(j.field("reduce")?)?;
            let groups = match j.get("groups") {
                None => None,
                Some(g) => match g.as_i64() {
                    // Only a grouped reduction has groups to estimate.
                    Some(g) if g >= 0 && reduce.n_keys > 0 => Some(g as u64),
                    _ => return invalid("grouped_reduce groups estimate invalid"),
                },
            };
            Ok(ProgOp::GroupedReduce {
                dst,
                src: reg_field(j, "src")?,
                reduce,
                groups,
            })
        }
        "sort" => {
            let keys = exprprog_from_json(j.field("keys")?)?;
            let desc: Vec<bool> = j
                .field("desc")?
                .as_arr()
                .ok_or(ProgramError {
                    message: "sort desc must be an array".into(),
                })?
                .iter()
                .map(|v| {
                    v.as_bool().ok_or(ProgramError {
                        message: "sort desc flag invalid".into(),
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            // One direction flag per key: a longer list panics the scalar
            // VM's comparator, a shorter one silently drops sort keys.
            if desc.len() != keys.outputs.len() {
                return invalid(format!(
                    "sort has {} keys but {} desc flags",
                    keys.outputs.len(),
                    desc.len()
                ));
            }
            Ok(ProgOp::Sort {
                dst,
                src: reg_field(j, "src")?,
                keys,
                desc,
                // Optional: absent on sorts without a limit above them and
                // in every artifact that predates the field.
                limit: j.get("limit").map(|_| reg_field(j, "limit")).transpose()?,
            })
        }
        "limit" => Ok(ProgOp::Limit {
            dst,
            src: reg_field(j, "src")?,
            n: reg_field(j, "n")?,
        }),
        other => invalid(format!("unknown program op {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exprprog::ExprOp;
    use tqp_ir::{compile_sql, Catalog, PhysicalOptions};

    fn catalog() -> Catalog {
        use tqp_data::{Field, LogicalType, Schema};
        let mut c = Catalog::new();
        c.register(
            "t",
            Schema::new(vec![
                Field::new("a", LogicalType::Int64),
                Field::new("b", LogicalType::Float64),
                Field::new("s", LogicalType::Str),
            ]),
            100,
        );
        c.register(
            "u",
            Schema::new(vec![
                Field::new("a", LogicalType::Int64),
                Field::new("x", LogicalType::Float64),
            ]),
            50,
        );
        c
    }

    fn program(sql: &str) -> TensorProgram {
        let plan = compile_sql(sql, &catalog(), &PhysicalOptions).unwrap();
        lower(&plan)
    }

    #[test]
    fn lowering_is_flat_and_topological() {
        let p = program(
            "select t.a, sum(u.x) from t, u where t.a = u.a and t.b > 1.0 \
             group by t.a order by t.a limit 5",
        );
        assert!(p.ops.len() >= 5, "{}", p.display());
        let mut written = vec![false; p.n_regs];
        for op in &p.ops {
            for s in op.srcs() {
                assert!(
                    written[s],
                    "register r{s} read before write:\n{}",
                    p.display()
                );
            }
            written[op.dst()] = true;
        }
        assert!(written[p.output]);
    }

    #[test]
    fn filters_split_into_conjuncts() {
        let p = program("select a from t where a > 1 and b < 2.0 and s like 'x%'");
        let conjuncts: Vec<usize> = p
            .ops
            .iter()
            .filter_map(|op| match op {
                ProgOp::Filter { conjuncts, .. } => Some(conjuncts.outputs.len()),
                _ => None,
            })
            .collect();
        // Pushdown may split filters across scans, but the total number of
        // conjuncts must be 3.
        assert_eq!(conjuncts.iter().sum::<usize>(), 3, "{}", p.display());
    }

    #[test]
    fn expressions_lower_to_flat_programs() {
        let p = program("select a * 2 + 1, b from t where b > 0.5");
        for op in &p.ops {
            match op {
                ProgOp::Filter { conjuncts, .. } => {
                    assert!(!conjuncts.ops.is_empty());
                    assert!(matches!(conjuncts.ops[1], ExprOp::CompareConst { .. }));
                }
                ProgOp::Project { exprs, .. } => {
                    assert_eq!(exprs.outputs.len(), 2);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn always_true_conjuncts_are_dropped() {
        // `1 = 1` folds away entirely; the filter keeps only `a > 1`.
        let p = program("select a from t where a > 1 and 1 = 1");
        let filter_conjuncts: usize = p
            .ops
            .iter()
            .filter_map(|op| match op {
                ProgOp::Filter { conjuncts, .. } => Some(conjuncts.outputs.len()),
                _ => None,
            })
            .sum();
        assert_eq!(filter_conjuncts, 1, "{}", p.display());
        // A filter that is entirely constant-true is elided.
        let p = program("select a from t where 1 = 1");
        assert!(
            !p.ops.iter().any(|o| matches!(o, ProgOp::Filter { .. })),
            "{}",
            p.display()
        );
    }

    #[test]
    fn column_only_projection_over_a_filter_becomes_its_keep_list() {
        // `s` is read by the predicate alone; pruning projects it away
        // directly over the filter, and lowering folds that projection
        // into the filter op.
        let p = program("select a, sum(b) from t where s like 'x%' group by a");
        let kinds: Vec<String> = p.ops.iter().map(ProgOp::name).collect();
        assert_eq!(
            kinds,
            ["Scan(t)", "Filter", "HashAggregate"],
            "{}",
            p.display()
        );
        let ProgOp::Filter { keep, .. } = &p.ops[1] else {
            unreachable!()
        };
        assert_eq!(keep.as_deref(), Some(&[0, 1][..]));
        let text = String::from_utf8(serialize_program(&p).to_vec()).unwrap();
        assert_eq!(deserialize_program(&Bytes::from(text.clone())).unwrap(), p);
        // A document without the field keeps every column.
        let old = text.replace(",\"keep\":[0,1]", "");
        assert_ne!(old, text, "field not found");
        let loaded = deserialize_program(&Bytes::from(old)).unwrap();
        assert!(matches!(&loaded.ops[1], ProgOp::Filter { keep: None, .. }));
        let bad = text.replace("\"keep\":[0,1]", "\"keep\":[0,-1]");
        assert!(deserialize_program(&Bytes::from(bad)).is_err());
    }

    #[test]
    fn constant_false_filter_collapses_to_short_circuit() {
        let p = program("select a from t where a > 1 and 1 = 2");
        let filters: Vec<&ExprProgram> = p
            .ops
            .iter()
            .filter_map(|op| match op {
                ProgOp::Filter { conjuncts, .. } => Some(conjuncts),
                _ => None,
            })
            .collect();
        assert_eq!(filters.len(), 1, "{}", p.display());
        assert!(filters[0].has_const_false_output());
        // The short-circuit is canonical: a single constant-false output.
        assert_eq!(filters[0].outputs.len(), 1);
        assert_eq!(filters[0].ops.len(), 1);
    }

    #[test]
    fn hash_joins_lower_to_build_plus_probe() {
        let p = program("select t.a from t, u where t.a = u.a");
        let builds = p
            .ops
            .iter()
            .filter(|o| matches!(o, ProgOp::HashBuild { .. }))
            .count();
        let probes = p
            .ops
            .iter()
            .filter(|o| matches!(o, ProgOp::HashProbe { .. }))
            .count();
        assert_eq!((builds, probes), (1, 1), "{}", p.display());
        // Probe reads the build's output register.
        let build_dst = p
            .ops
            .iter()
            .find_map(|o| match o {
                ProgOp::HashBuild { dst, .. } => Some(*dst),
                _ => None,
            })
            .unwrap();
        assert!(p
            .ops
            .iter()
            .any(|o| matches!(o, ProgOp::HashProbe { table, .. } if *table == build_dst)));
    }

    #[test]
    fn left_build_probe_roundtrips_and_is_validated() {
        // `u` (50 rows) is estimated smaller than the IN-list over `t`
        // (100 rows): the semi join builds on its left input.
        let p = program("select a from u where a in (select a from t)");
        let (build_src, probe_left) = p
            .ops
            .iter()
            .find_map(|o| match o {
                ProgOp::HashProbe {
                    table,
                    left,
                    build_left: true,
                    ..
                } => p.ops.iter().find_map(|b| match b {
                    ProgOp::HashBuild { dst, src, .. } if dst == table => Some((*src, *left)),
                    _ => None,
                }),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no left-build probe:\n{}", p.display()));
        assert_eq!(build_src, probe_left, "{}", p.display());
        let text = String::from_utf8(serialize_program(&p).to_vec()).unwrap();
        assert_eq!(deserialize_program(&Bytes::from(text.clone())).unwrap(), p);
        // Artifacts that predate the field load as right-build probes.
        let old = text.replace(",\"build_left\":true", "");
        assert_ne!(old, text, "field not found");
        let loaded = deserialize_program(&Bytes::from(old)).unwrap();
        assert!(loaded.ops.iter().all(|o| !matches!(
            o,
            ProgOp::HashProbe {
                build_left: true,
                ..
            }
        )));
        // A marking probe emits left rows only: not a valid inner join.
        let inner = text.replace("\"join_type\":\"semi\"", "\"join_type\":\"inner\"");
        assert_ne!(inner, text, "tamper point not found");
        let err = deserialize_program(&Bytes::from(inner)).unwrap_err();
        assert!(err.to_string().contains("build_left"), "{err}");
    }

    #[test]
    fn artifact_roundtrips_exactly() {
        let p = program(
            "select t.a, count(*) as c, sum(t.b * 2.0 - 0.5) from t, u \
             where t.a = u.a and t.s like 'PROMO%' and t.b between 1.0 and 9.5 \
             group by t.a order by c desc, t.a limit 7",
        );
        let bytes = serialize_program(&p);
        assert!(!bytes.is_empty());
        let back = deserialize_program(&bytes).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn artifact_is_versioned_and_self_describing() {
        let p = program("select a from t");
        let bytes = serialize_program(&p);
        let doc = tqp_json::Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(doc.field("format").unwrap().as_str(), Some(ARTIFACT_FORMAT));
        assert_eq!(
            doc.field("version").unwrap().as_i64(),
            Some(ARTIFACT_VERSION)
        );
        // A future version must be rejected, not misread.
        let mut tampered = String::from_utf8(bytes.to_vec()).unwrap();
        tampered = tampered.replace("\"version\":2", "\"version\":999");
        assert!(deserialize_program(&Bytes::from(tampered.into_bytes())).is_err());

        let load = |text: &str| deserialize_program(&Bytes::from(text.as_bytes().to_vec()));
        // A version-2 artifact written while the strategy axis existed
        // carries `"strategy":"hash"` on each grouped reduction: it still
        // loads, to the same program, and runs.
        let p = program("select a, count(*) as c from t group by a");
        let text = String::from_utf8(serialize_program(&p).to_vec()).unwrap();
        let old = text.replace(
            "\"op\":\"grouped_reduce\",",
            "\"op\":\"grouped_reduce\",\"strategy\":\"hash\",",
        );
        assert_ne!(old, text, "tamper point not found");
        let back = load(&old).unwrap();
        assert_eq!(back, p);
        let frame = tqp_data::frame::df(vec![
            ("a", tqp_data::Column::from_i64(vec![2, 1, 2])),
            ("b", tqp_data::Column::from_f64(vec![0.5, 1.5, 2.5])),
            ("s", tqp_data::Column::from_str(vec!["x".into(); 3])),
        ]);
        let storage = crate::ingest_tables(&[("t".to_string(), frame)].into());
        let (out, _, _) =
            crate::vm::run_program(&back, &storage, None, crate::ExecConfig::default());
        assert_eq!(out.nrows(), 2);
        assert_eq!(out.row(0), vec![Scalar::I64(2), Scalar::I64(2)]);
        // The op the sort-merge join lowered to is gone: an artifact that
        // carries it is rejected by name.
        let gone = format!("{}_join", "sort_merge");
        let smj = text.replace("grouped_reduce", &gone);
        let err = load(&smj).unwrap_err().to_string();
        assert!(err.contains(&gone), "{err}");
    }

    #[test]
    fn v1_artifacts_rejected_with_actionable_error() {
        let p = program("select a from t");
        let bytes = serialize_program(&p);
        let tampered = String::from_utf8(bytes.to_vec())
            .unwrap()
            .replace("\"version\":2", "\"version\":1");
        let err = deserialize_program(&Bytes::from(tampered.into_bytes())).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("version 1"), "{msg}");
        assert!(msg.contains("version 2"), "{msg}");
        assert!(msg.contains("Recompile"), "{msg}");
    }

    #[test]
    fn oversized_register_budget_rejected() {
        // A corrupt artifact must not drive an attacker-sized allocation.
        let p = program("select a from t");
        let text = String::from_utf8(serialize_program(&p).to_vec()).unwrap();
        let tampered = text.replace(
            &format!("\"n_regs\":{}", p.n_regs),
            "\"n_regs\":4611686018427387904",
        );
        assert_ne!(text, tampered, "tamper point not found");
        assert!(deserialize_program(&Bytes::from(tampered.into_bytes())).is_err());
    }

    #[test]
    fn zero_conjunct_filter_artifact_rejected() {
        // Lowering elides all-true filters, so a conjunct-less Filter can
        // only come from a corrupt artifact — and would diverge across
        // backends (generic walk: empty, bound kernel: everything).
        // Reject it.
        let doc = r#"{"format":"tqp-tensor-program","version":2,"n_regs":2,"output":1,
            "schema":[{"qualifier":null,"name":"a","ty":"int64"}],
            "ops":[{"op":"scan","dst":0,"table":"t","projection":null},
                   {"op":"filter","dst":1,"src":0,
                    "conjuncts":{"ops":[],"outputs":[],"out_tys":[]}}]}"#;
        let err = deserialize_program(&Bytes::from(doc.as_bytes().to_vec())).unwrap_err();
        assert!(err.to_string().contains("conjunct"), "{err}");
    }

    #[test]
    fn argless_aggregate_artifact_rejected() {
        // SUM without an arg slot would panic at execution; reject at load.
        let p = program("select sum(b) from t group by a");
        let text = String::from_utf8(serialize_program(&p).to_vec()).unwrap();
        let tampered = text.replace(
            "\"func\":\"sum\",\"arg\":1",
            "\"func\":\"sum\",\"arg\":null",
        );
        assert_ne!(text, tampered, "tamper point not found");
        let err = deserialize_program(&Bytes::from(tampered.into_bytes())).unwrap_err();
        assert!(err.to_string().contains("requires an arg slot"), "{err}");
    }

    #[test]
    fn multi_output_residual_artifact_rejected() {
        // A residual is one predicate; extra outputs would panic in the
        // scalar probe loop. Hand-built doc: scan+scan+build+probe with a
        // two-output residual program.
        let doc = r#"{"format":"tqp-tensor-program","version":2,"n_regs":4,"output":3,
            "schema":[{"qualifier":null,"name":"a","ty":"int64"},
                      {"qualifier":null,"name":"b","ty":"int64"}],
            "ops":[{"op":"scan","dst":0,"table":"t","projection":null},
                   {"op":"scan","dst":1,"table":"u","projection":null},
                   {"op":"hash_build","dst":2,"src":1,"keys":[0]},
                   {"op":"hash_probe","dst":3,"table":2,"left":0,"right":1,
                    "join_type":"inner","on":[[0,0]],
                    "residual":{"ops":[{"k":"col","index":0,"ty":"int64"},
                                       {"k":"cmp_const","op":">","src":0,
                                        "value":{"t":"i64","v":1}}],
                                "outputs":[1,1],"out_tys":["bool","bool"]}}]}"#;
        let err = deserialize_program(&Bytes::from(doc.as_bytes().to_vec())).unwrap_err();
        assert!(err.to_string().contains("exactly one output"), "{err}");
    }

    #[test]
    fn sort_desc_arity_mismatch_rejected() {
        let p = program("select a from t order by a desc");
        let text = String::from_utf8(serialize_program(&p).to_vec()).unwrap();
        let tampered = text.replace("\"desc\":[true]", "\"desc\":[true,false]");
        assert_ne!(text, tampered, "tamper point not found");
        let err = deserialize_program(&Bytes::from(tampered.into_bytes())).unwrap_err();
        assert!(err.to_string().contains("desc flags"), "{err}");
        let truncated = text.replace("\"desc\":[true]", "\"desc\":[]");
        assert!(deserialize_program(&Bytes::from(truncated.into_bytes())).is_err());
    }

    #[test]
    fn corrupt_register_flow_rejected() {
        let p = program("select a from t where b > 0.5");
        let text = String::from_utf8(serialize_program(&p).to_vec()).unwrap();
        // Point the filter's src at an unwritten register.
        let tampered = text.replace("\"src\":0", "\"src\":7");
        assert!(deserialize_program(&Bytes::from(tampered.into_bytes())).is_err());
    }
}
