//! JSON codec for the plan IR — the interchange format of the external
//! plan frontend ("a Spark physical plan would enter here") and the
//! building block of the serialized `TensorProgram` artifact in
//! `tqp-exec`.
//!
//! The encoding is hand-rolled over [`tqp_json::Json`] (no serde in this
//! offline workspace): every enum is encoded as a tagged object, scalars
//! carry their type tag, and `parse(encode(x)) == x` for every plan the
//! optimizer can produce. Subquery placeholder expressions
//! (`ScalarSubquery` / `InSubquery` / `Exists`) are rejected — they never
//! survive decorrelation, so a plan containing one is not executable and
//! therefore not shippable.

use tqp_data::LogicalType;
use tqp_json::{Json, JsonError};
use tqp_tensor::Scalar;

use crate::expr::{AggCall, AggFunc, BinOp, BoundExpr, ScalarFunc};
use crate::physical::{AggStrategy, JoinStrategy, PhysicalPlan};
use crate::plan::{ColMeta, JoinType, PlanSchema, SortKey};

/// Error produced by plan/expression JSON (de)serialization.
#[derive(Debug, Clone)]
pub struct PlanJsonError {
    pub message: String,
}

impl std::fmt::Display for PlanJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan json: {}", self.message)
    }
}

impl std::error::Error for PlanJsonError {}

impl From<JsonError> for PlanJsonError {
    fn from(e: JsonError) -> Self {
        PlanJsonError { message: e.message }
    }
}

fn bad<T>(message: impl Into<String>) -> Result<T, PlanJsonError> {
    Err(PlanJsonError {
        message: message.into(),
    })
}

type R<T> = Result<T, PlanJsonError>;

// ---------------------------------------------------------------------
// Leaf enums
// ---------------------------------------------------------------------

/// `LogicalType` ⇄ tag string.
pub fn type_to_json(ty: LogicalType) -> Json {
    Json::str(match ty {
        LogicalType::Bool => "bool",
        LogicalType::Int64 => "int64",
        LogicalType::Float64 => "float64",
        LogicalType::Date => "date",
        LogicalType::Str => "str",
    })
}

/// Parse a `LogicalType` tag.
pub fn type_from_json(j: &Json) -> R<LogicalType> {
    match j.as_str() {
        Some("bool") => Ok(LogicalType::Bool),
        Some("int64") => Ok(LogicalType::Int64),
        Some("float64") => Ok(LogicalType::Float64),
        Some("date") => Ok(LogicalType::Date),
        Some("str") => Ok(LogicalType::Str),
        other => bad(format!("unknown logical type {other:?}")),
    }
}

/// `Scalar` ⇄ typed object (`{"t": "i64", "v": 3}`). F64 payloads use the
/// shortest round-trippable decimal form, so values survive exactly.
pub fn scalar_to_json(s: &Scalar) -> Json {
    match s {
        Scalar::Null => Json::obj(vec![("t", Json::str("null"))]),
        Scalar::Bool(v) => Json::obj(vec![("t", Json::str("bool")), ("v", Json::Bool(*v))]),
        Scalar::I32(v) => Json::obj(vec![("t", Json::str("i32")), ("v", Json::I64(*v as i64))]),
        Scalar::I64(v) => Json::obj(vec![("t", Json::str("i64")), ("v", Json::I64(*v))]),
        Scalar::F32(v) => Json::obj(vec![("t", Json::str("f32")), ("v", Json::F64(*v as f64))]),
        Scalar::F64(v) => Json::obj(vec![("t", Json::str("f64")), ("v", Json::F64(*v))]),
        Scalar::Str(v) => Json::obj(vec![("t", Json::str("str")), ("v", Json::str(v.as_str()))]),
    }
}

/// Parse a `Scalar`.
pub fn scalar_from_json(j: &Json) -> R<Scalar> {
    let tag = j.field("t")?.as_str().unwrap_or_default().to_string();
    let v = j.get("v");
    fn need(x: Option<&Json>) -> Result<&Json, PlanJsonError> {
        x.ok_or(PlanJsonError {
            message: "missing scalar v".into(),
        })
    }
    match tag.as_str() {
        "null" => Ok(Scalar::Null),
        "bool" => Ok(Scalar::Bool(need(v)?.as_bool().unwrap_or_default())),
        "i32" => Ok(Scalar::I32(need(v)?.as_i64().unwrap_or_default() as i32)),
        "i64" => Ok(Scalar::I64(need(v)?.as_i64().unwrap_or_default())),
        "f32" => Ok(Scalar::F32(need(v)?.as_f64().unwrap_or_default() as f32)),
        "f64" => Ok(Scalar::F64(need(v)?.as_f64().unwrap_or_default())),
        "str" => Ok(Scalar::Str(
            need(v)?.as_str().unwrap_or_default().to_string(),
        )),
        other => bad(format!("unknown scalar tag {other:?}")),
    }
}

macro_rules! string_enum_codec {
    ($to:ident, $from:ident, $ty:ty, [$(($variant:path, $tag:literal)),+ $(,)?]) => {
        #[doc = concat!("`", stringify!($ty), "` ⇄ tag string.")]
        pub fn $to(v: $ty) -> Json {
            match v { $($variant => Json::str($tag)),+ }
        }

        #[doc = concat!("Parse a `", stringify!($ty), "` tag.")]
        pub fn $from(j: &Json) -> R<$ty> {
            match j.as_str() {
                $(Some($tag) => Ok($variant),)+
                other => bad(format!(
                    concat!("unknown ", stringify!($ty), " {:?}"), other
                )),
            }
        }
    };
}

string_enum_codec!(
    join_type_to_json,
    join_type_from_json,
    JoinType,
    [
        (JoinType::Inner, "inner"),
        (JoinType::Left, "left"),
        (JoinType::Semi, "semi"),
        (JoinType::Anti, "anti"),
    ]
);

string_enum_codec!(
    join_strategy_to_json,
    join_strategy_from_json,
    JoinStrategy,
    [
        (JoinStrategy::SortMerge, "sort_merge"),
        (JoinStrategy::Hash, "hash"),
    ]
);

string_enum_codec!(
    agg_strategy_to_json,
    agg_strategy_from_json,
    AggStrategy,
    [(AggStrategy::Sort, "sort"), (AggStrategy::Hash, "hash"),]
);

string_enum_codec!(
    bin_op_to_json,
    bin_op_from_json,
    BinOp,
    [
        (BinOp::Add, "+"),
        (BinOp::Sub, "-"),
        (BinOp::Mul, "*"),
        (BinOp::Div, "/"),
        (BinOp::Mod, "%"),
        (BinOp::Eq, "="),
        (BinOp::NotEq, "<>"),
        (BinOp::Lt, "<"),
        (BinOp::LtEq, "<="),
        (BinOp::Gt, ">"),
        (BinOp::GtEq, ">="),
        (BinOp::And, "and"),
        (BinOp::Or, "or"),
    ]
);

string_enum_codec!(
    agg_func_to_json,
    agg_func_from_json,
    AggFunc,
    [
        (AggFunc::Sum, "sum"),
        (AggFunc::Avg, "avg"),
        (AggFunc::Min, "min"),
        (AggFunc::Max, "max"),
        (AggFunc::Count, "count"),
        (AggFunc::CountDistinct, "count_distinct"),
        (AggFunc::CountStar, "count_star"),
    ]
);

/// `ScalarFunc` ⇄ tag (string for parameter-less functions, object for
/// `SUBSTRING`). Shared by the expression-tree codec below and the v2
/// `ExprProgram` artifact codec in `tqp-exec`.
pub fn scalar_func_to_json(f: ScalarFunc) -> Json {
    match f {
        ScalarFunc::ExtractYear => Json::str("extract_year"),
        ScalarFunc::ExtractMonth => Json::str("extract_month"),
        ScalarFunc::Abs => Json::str("abs"),
        ScalarFunc::Substring { start, len } => Json::obj(vec![
            ("name", Json::str("substring")),
            ("start", Json::I64(start)),
            ("len", Json::I64(len)),
        ]),
    }
}

/// Parse a `ScalarFunc` tag.
pub fn scalar_func_from_json(j: &Json) -> R<ScalarFunc> {
    if let Some(name) = j.as_str() {
        return match name {
            "extract_year" => Ok(ScalarFunc::ExtractYear),
            "extract_month" => Ok(ScalarFunc::ExtractMonth),
            "abs" => Ok(ScalarFunc::Abs),
            other => bad(format!("unknown scalar function {other:?}")),
        };
    }
    match j.field("name")?.as_str() {
        Some("substring") => {
            // SQL SUBSTRING is 1-based; the tensor kernel asserts it.
            // Reject malformed parameters at load instead of defaulting
            // to a start of 0 that panics mid-query.
            let start = j.field("start")?.as_i64();
            let len = j.field("len")?.as_i64();
            match (start, len) {
                (Some(start), Some(len)) if start >= 1 && len >= 0 => {
                    Ok(ScalarFunc::Substring { start, len })
                }
                _ => bad(format!(
                    "substring requires start >= 1 and len >= 0, got {start:?}/{len:?}"
                )),
            }
        }
        other => bad(format!("unknown scalar function {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Schema / helper structs
// ---------------------------------------------------------------------

/// `ColMeta` ⇄ object.
pub fn col_meta_to_json(c: &ColMeta) -> Json {
    Json::obj(vec![
        (
            "qualifier",
            match &c.qualifier {
                Some(q) => Json::str(q.as_str()),
                None => Json::Null,
            },
        ),
        ("name", Json::str(c.name.as_str())),
        ("ty", type_to_json(c.ty)),
    ])
}

/// Parse a `ColMeta`.
pub fn col_meta_from_json(j: &Json) -> R<ColMeta> {
    Ok(ColMeta {
        qualifier: match j.field("qualifier")? {
            Json::Null => None,
            q => Some(q.as_str().unwrap_or_default().to_string()),
        },
        name: j.field("name")?.as_str().unwrap_or_default().to_string(),
        ty: type_from_json(j.field("ty")?)?,
    })
}

/// `PlanSchema` ⇄ array.
pub fn schema_to_json(schema: &PlanSchema) -> Json {
    Json::Arr(schema.iter().map(col_meta_to_json).collect())
}

/// Parse a `PlanSchema`.
pub fn schema_from_json(j: &Json) -> R<PlanSchema> {
    j.as_arr()
        .ok_or(PlanJsonError {
            message: "schema must be an array".into(),
        })?
        .iter()
        .map(col_meta_from_json)
        .collect()
}

/// `SortKey` ⇄ object.
pub fn sort_key_to_json(k: &SortKey) -> Json {
    Json::obj(vec![
        ("expr", expr_to_json(&k.expr)),
        ("desc", Json::Bool(k.desc)),
    ])
}

/// Parse a `SortKey`.
pub fn sort_key_from_json(j: &Json) -> R<SortKey> {
    Ok(SortKey {
        expr: expr_from_json(j.field("expr")?)?,
        desc: j.field("desc")?.as_bool().unwrap_or_default(),
    })
}

/// `AggCall` ⇄ object.
pub fn agg_call_to_json(a: &AggCall) -> Json {
    Json::obj(vec![
        ("func", agg_func_to_json(a.func)),
        (
            "arg",
            match &a.arg {
                Some(e) => expr_to_json(e),
                None => Json::Null,
            },
        ),
        ("ty", type_to_json(a.ty)),
    ])
}

/// Parse an `AggCall`.
pub fn agg_call_from_json(j: &Json) -> R<AggCall> {
    Ok(AggCall {
        func: agg_func_from_json(j.field("func")?)?,
        arg: match j.field("arg")? {
            Json::Null => None,
            e => Some(expr_from_json(e)?),
        },
        ty: type_from_json(j.field("ty")?)?,
    })
}

// ---------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------

fn usize_field(j: &Json, key: &str) -> R<usize> {
    match j.field(key)?.as_i64() {
        Some(v) if v >= 0 => Ok(v as usize),
        other => bad(format!(
            "field {key:?} must be a non-negative integer, got {other:?}"
        )),
    }
}

fn exprs_to_json(exprs: &[BoundExpr]) -> Json {
    Json::Arr(exprs.iter().map(expr_to_json).collect())
}

fn exprs_from_json(j: &Json) -> R<Vec<BoundExpr>> {
    j.as_arr()
        .ok_or(PlanJsonError {
            message: "expected expression array".into(),
        })?
        .iter()
        .map(expr_from_json)
        .collect()
}

/// `BoundExpr` ⇄ tagged object. Panic-free; subquery placeholders error.
pub fn expr_to_json(e: &BoundExpr) -> Json {
    match e {
        BoundExpr::Column { index, ty } => Json::obj(vec![
            ("k", Json::str("col")),
            ("index", Json::I64(*index as i64)),
            ("ty", type_to_json(*ty)),
        ]),
        BoundExpr::OuterRef { index, ty } => Json::obj(vec![
            ("k", Json::str("outer_ref")),
            ("index", Json::I64(*index as i64)),
            ("ty", type_to_json(*ty)),
        ]),
        BoundExpr::Literal { value, ty } => Json::obj(vec![
            ("k", Json::str("lit")),
            ("value", scalar_to_json(value)),
            ("ty", type_to_json(*ty)),
        ]),
        BoundExpr::Param { index, ty } => Json::obj(vec![
            ("k", Json::str("param")),
            ("index", Json::I64(*index as i64)),
            ("ty", type_to_json(*ty)),
        ]),
        BoundExpr::Binary {
            op,
            left,
            right,
            ty,
        } => Json::obj(vec![
            ("k", Json::str("binary")),
            ("op", bin_op_to_json(*op)),
            ("left", expr_to_json(left)),
            ("right", expr_to_json(right)),
            ("ty", type_to_json(*ty)),
        ]),
        BoundExpr::Not(inner) => {
            Json::obj(vec![("k", Json::str("not")), ("expr", expr_to_json(inner))])
        }
        BoundExpr::Neg(inner) => {
            Json::obj(vec![("k", Json::str("neg")), ("expr", expr_to_json(inner))])
        }
        BoundExpr::Case {
            branches,
            else_expr,
            ty,
        } => Json::obj(vec![
            ("k", Json::str("case")),
            (
                "branches",
                Json::Arr(
                    branches
                        .iter()
                        .map(|(c, v)| Json::arr([expr_to_json(c), expr_to_json(v)]))
                        .collect(),
                ),
            ),
            ("else", expr_to_json(else_expr)),
            ("ty", type_to_json(*ty)),
        ]),
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => Json::obj(vec![
            ("k", Json::str("like")),
            ("expr", expr_to_json(expr)),
            ("pattern", Json::str(pattern.as_str())),
            ("negated", Json::Bool(*negated)),
        ]),
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => Json::obj(vec![
            ("k", Json::str("in_list")),
            ("expr", expr_to_json(expr)),
            ("list", Json::Arr(list.iter().map(scalar_to_json).collect())),
            ("negated", Json::Bool(*negated)),
        ]),
        BoundExpr::IsNull { expr, negated } => Json::obj(vec![
            ("k", Json::str("is_null")),
            ("expr", expr_to_json(expr)),
            ("negated", Json::Bool(*negated)),
        ]),
        BoundExpr::Func { func, args, ty } => Json::obj(vec![
            ("k", Json::str("func")),
            ("func", scalar_func_to_json(*func)),
            ("args", exprs_to_json(args)),
            ("ty", type_to_json(*ty)),
        ]),
        BoundExpr::Predict { model, args, ty } => Json::obj(vec![
            ("k", Json::str("predict")),
            ("model", Json::str(model.as_str())),
            ("args", exprs_to_json(args)),
            ("ty", type_to_json(*ty)),
        ]),
        BoundExpr::ScalarSubquery { .. }
        | BoundExpr::InSubquery { .. }
        | BoundExpr::Exists { .. } => Json::obj(vec![("k", Json::str("subquery"))]),
    }
}

/// Parse a `BoundExpr`.
pub fn expr_from_json(j: &Json) -> R<BoundExpr> {
    let kind = j.field("k")?.as_str().unwrap_or_default().to_string();
    match kind.as_str() {
        "col" => Ok(BoundExpr::Column {
            index: usize_field(j, "index")?,
            ty: type_from_json(j.field("ty")?)?,
        }),
        "outer_ref" => Ok(BoundExpr::OuterRef {
            index: usize_field(j, "index")?,
            ty: type_from_json(j.field("ty")?)?,
        }),
        "param" => Ok(BoundExpr::Param {
            index: usize_field(j, "index")?,
            ty: type_from_json(j.field("ty")?)?,
        }),
        "lit" => Ok(BoundExpr::Literal {
            value: scalar_from_json(j.field("value")?)?,
            ty: type_from_json(j.field("ty")?)?,
        }),
        "binary" => Ok(BoundExpr::Binary {
            op: bin_op_from_json(j.field("op")?)?,
            left: Box::new(expr_from_json(j.field("left")?)?),
            right: Box::new(expr_from_json(j.field("right")?)?),
            ty: type_from_json(j.field("ty")?)?,
        }),
        "not" => Ok(BoundExpr::Not(Box::new(expr_from_json(j.field("expr")?)?))),
        "neg" => Ok(BoundExpr::Neg(Box::new(expr_from_json(j.field("expr")?)?))),
        "case" => {
            let branches = j
                .field("branches")?
                .as_arr()
                .ok_or(PlanJsonError {
                    message: "case branches must be an array".into(),
                })?
                .iter()
                .map(|pair| {
                    let c = pair.at(0).ok_or(PlanJsonError {
                        message: "case branch missing condition".into(),
                    })?;
                    let v = pair.at(1).ok_or(PlanJsonError {
                        message: "case branch missing value".into(),
                    })?;
                    Ok((expr_from_json(c)?, expr_from_json(v)?))
                })
                .collect::<R<Vec<_>>>()?;
            Ok(BoundExpr::Case {
                branches,
                else_expr: Box::new(expr_from_json(j.field("else")?)?),
                ty: type_from_json(j.field("ty")?)?,
            })
        }
        "like" => Ok(BoundExpr::Like {
            expr: Box::new(expr_from_json(j.field("expr")?)?),
            pattern: j.field("pattern")?.as_str().unwrap_or_default().to_string(),
            negated: j.field("negated")?.as_bool().unwrap_or_default(),
        }),
        "in_list" => Ok(BoundExpr::InList {
            expr: Box::new(expr_from_json(j.field("expr")?)?),
            list: j
                .field("list")?
                .as_arr()
                .ok_or(PlanJsonError {
                    message: "in_list list must be an array".into(),
                })?
                .iter()
                .map(scalar_from_json)
                .collect::<R<Vec<_>>>()?,
            negated: j.field("negated")?.as_bool().unwrap_or_default(),
        }),
        "is_null" => Ok(BoundExpr::IsNull {
            expr: Box::new(expr_from_json(j.field("expr")?)?),
            negated: j.field("negated")?.as_bool().unwrap_or_default(),
        }),
        "func" => {
            // Legacy (pre-ExprProgram) plan JSON encoded SUBSTRING as the
            // string tag "substring" with a sibling "params":[start,len]
            // on the expression object. Plan JSON carries no version
            // field, so keep accepting that shape.
            let func = if j.field("func")?.as_str() == Some("substring") {
                let params = j.field("params")?;
                let start = params.at(0).and_then(Json::as_i64);
                let len = params.at(1).and_then(Json::as_i64);
                match (start, len) {
                    (Some(start), Some(len)) if start >= 1 && len >= 0 => {
                        ScalarFunc::Substring { start, len }
                    }
                    _ => {
                        return bad(format!(
                            "substring requires start >= 1 and len >= 0, got {start:?}/{len:?}"
                        ))
                    }
                }
            } else {
                scalar_func_from_json(j.field("func")?)?
            };
            Ok(BoundExpr::Func {
                func,
                args: exprs_from_json(j.field("args")?)?,
                ty: type_from_json(j.field("ty")?)?,
            })
        }
        "predict" => Ok(BoundExpr::Predict {
            model: j.field("model")?.as_str().unwrap_or_default().to_string(),
            args: exprs_from_json(j.field("args")?)?,
            ty: type_from_json(j.field("ty")?)?,
        }),
        "subquery" => bad("subquery expressions are not serializable (run the optimizer first)"),
        other => bad(format!("unknown expression kind {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Physical plans
// ---------------------------------------------------------------------

/// `PhysicalPlan` ⇄ tagged object tree.
pub fn plan_to_json(p: &PhysicalPlan) -> Json {
    match p {
        PhysicalPlan::Scan {
            table,
            schema,
            projection,
        } => Json::obj(vec![
            ("op", Json::str("scan")),
            ("table", Json::str(table.as_str())),
            ("schema", schema_to_json(schema)),
            (
                "projection",
                match projection {
                    Some(idx) => Json::Arr(idx.iter().map(|&i| Json::I64(i as i64)).collect()),
                    None => Json::Null,
                },
            ),
        ]),
        PhysicalPlan::Filter { input, predicate } => Json::obj(vec![
            ("op", Json::str("filter")),
            ("input", plan_to_json(input)),
            ("predicate", expr_to_json(predicate)),
        ]),
        PhysicalPlan::Project {
            input,
            exprs,
            schema,
        } => Json::obj(vec![
            ("op", Json::str("project")),
            ("input", plan_to_json(input)),
            ("exprs", exprs_to_json(exprs)),
            ("schema", schema_to_json(schema)),
        ]),
        PhysicalPlan::Join {
            left,
            right,
            join_type,
            strategy,
            on,
            residual,
            build_left,
            build_distinct,
        } => {
            let mut fields = vec![
                ("op", Json::str("join")),
                ("left", plan_to_json(left)),
                ("right", plan_to_json(right)),
                ("join_type", join_type_to_json(*join_type)),
                ("strategy", join_strategy_to_json(*strategy)),
                (
                    "on",
                    Json::Arr(
                        on.iter()
                            .map(|&(l, r)| Json::arr([Json::I64(l as i64), Json::I64(r as i64)]))
                            .collect(),
                    ),
                ),
                (
                    "residual",
                    match residual {
                        Some(e) => expr_to_json(e),
                        None => Json::Null,
                    },
                ),
            ];
            // Both emitted only when set, so plans without them round-trip
            // byte-identically with older encodings.
            if *build_left {
                fields.push(("build_left", Json::Bool(true)));
            }
            if let Some(d) = build_distinct {
                fields.push(("build_distinct", Json::I64(*d as i64)));
            }
            Json::obj(fields)
        }
        PhysicalPlan::CrossJoin { left, right } => Json::obj(vec![
            ("op", Json::str("cross_join")),
            ("left", plan_to_json(left)),
            ("right", plan_to_json(right)),
        ]),
        PhysicalPlan::Aggregate {
            input,
            strategy,
            group_by,
            aggs,
            schema,
            groups,
        } => {
            let mut fields = vec![
                ("op", Json::str("aggregate")),
                ("input", plan_to_json(input)),
                ("strategy", agg_strategy_to_json(*strategy)),
                ("group_by", exprs_to_json(group_by)),
                (
                    "aggs",
                    Json::Arr(aggs.iter().map(agg_call_to_json).collect()),
                ),
                ("schema", schema_to_json(schema)),
            ];
            // Emitted only when set: plans without an estimate round-trip
            // byte-identically with older encodings.
            if let Some(g) = groups {
                fields.push(("groups", Json::I64(*g as i64)));
            }
            Json::obj(fields)
        }
        PhysicalPlan::Sort { input, keys } => Json::obj(vec![
            ("op", Json::str("sort")),
            ("input", plan_to_json(input)),
            (
                "keys",
                Json::Arr(keys.iter().map(sort_key_to_json).collect()),
            ),
        ]),
        PhysicalPlan::Limit { input, n } => Json::obj(vec![
            ("op", Json::str("limit")),
            ("input", plan_to_json(input)),
            ("n", Json::I64(*n as i64)),
        ]),
    }
}

/// Parse a `PhysicalPlan`.
pub fn plan_from_json(j: &Json) -> R<PhysicalPlan> {
    let op = j.field("op")?.as_str().unwrap_or_default().to_string();
    let input =
        |key: &str| -> R<Box<PhysicalPlan>> { Ok(Box::new(plan_from_json(j.field(key)?)?)) };
    match op.as_str() {
        "scan" => Ok(PhysicalPlan::Scan {
            table: j.field("table")?.as_str().unwrap_or_default().to_string(),
            schema: schema_from_json(j.field("schema")?)?,
            projection: match j.field("projection")? {
                Json::Null => None,
                arr => Some(
                    arr.as_arr()
                        .ok_or(PlanJsonError {
                            message: "projection must be an array".into(),
                        })?
                        .iter()
                        .map(|v| {
                            v.as_i64().filter(|&i| i >= 0).map(|i| i as usize).ok_or(
                                PlanJsonError {
                                    message: "projection index invalid".into(),
                                },
                            )
                        })
                        .collect::<R<Vec<_>>>()?,
                ),
            },
        }),
        "filter" => Ok(PhysicalPlan::Filter {
            input: input("input")?,
            predicate: expr_from_json(j.field("predicate")?)?,
        }),
        "project" => Ok(PhysicalPlan::Project {
            input: input("input")?,
            exprs: exprs_from_json(j.field("exprs")?)?,
            schema: schema_from_json(j.field("schema")?)?,
        }),
        "join" => {
            let join_type = join_type_from_json(j.field("join_type")?)?;
            let strategy = join_strategy_from_json(j.field("strategy")?)?;
            let build_left = j.get("build_left").and_then(Json::as_bool).unwrap_or(false);
            if build_left
                && !(strategy == JoinStrategy::Hash
                    && matches!(join_type, JoinType::Semi | JoinType::Anti))
            {
                return bad("build_left is only valid on hash semi/anti joins");
            }
            Ok(PhysicalPlan::Join {
                left: input("left")?,
                right: input("right")?,
                join_type,
                strategy,
                on: j
                    .field("on")?
                    .as_arr()
                    .ok_or(PlanJsonError {
                        message: "join on must be an array".into(),
                    })?
                    .iter()
                    .map(|pair| {
                        let l = pair.at(0).and_then(Json::as_i64);
                        let r = pair.at(1).and_then(Json::as_i64);
                        match (l, r) {
                            (Some(l), Some(r)) if l >= 0 && r >= 0 => Ok((l as usize, r as usize)),
                            _ => bad("join key pair invalid"),
                        }
                    })
                    .collect::<R<Vec<_>>>()?,
                residual: match j.field("residual")? {
                    Json::Null => None,
                    e => Some(expr_from_json(e)?),
                },
                build_left,
                build_distinct: j
                    .get("build_distinct")
                    .and_then(Json::as_i64)
                    .map(|d| d as u64),
            })
        }
        "cross_join" => Ok(PhysicalPlan::CrossJoin {
            left: input("left")?,
            right: input("right")?,
        }),
        "aggregate" => Ok(PhysicalPlan::Aggregate {
            input: input("input")?,
            strategy: agg_strategy_from_json(j.field("strategy")?)?,
            group_by: exprs_from_json(j.field("group_by")?)?,
            aggs: j
                .field("aggs")?
                .as_arr()
                .ok_or(PlanJsonError {
                    message: "aggs must be an array".into(),
                })?
                .iter()
                .map(agg_call_from_json)
                .collect::<R<Vec<_>>>()?,
            schema: schema_from_json(j.field("schema")?)?,
            groups: j.get("groups").and_then(Json::as_i64).map(|g| g as u64),
        }),
        "sort" => Ok(PhysicalPlan::Sort {
            input: input("input")?,
            keys: j
                .field("keys")?
                .as_arr()
                .ok_or(PlanJsonError {
                    message: "sort keys must be an array".into(),
                })?
                .iter()
                .map(sort_key_from_json)
                .collect::<R<Vec<_>>>()?,
        }),
        "limit" => Ok(PhysicalPlan::Limit {
            input: input("input")?,
            n: usize_field(j, "n")?,
        }),
        other => bad(format!("unknown plan operator {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqp_data::LogicalType as T;

    /// Plan JSON is unversioned interchange: the legacy SUBSTRING shape
    /// (string tag + sibling "params") must keep parsing.
    #[test]
    fn legacy_substring_plan_json_still_parses() {
        let legacy = r#"{"k":"func","func":"substring","args":[{"k":"col","index":2,"ty":"str"}],"ty":"str","params":[3,5]}"#;
        let e = expr_from_json(&Json::parse(legacy).unwrap()).unwrap();
        assert_eq!(
            e,
            BoundExpr::Func {
                func: ScalarFunc::Substring { start: 3, len: 5 },
                args: vec![BoundExpr::col(2, T::Str)],
                ty: T::Str,
            }
        );
        // The current encoding round-trips too.
        let back = expr_from_json(&expr_to_json(&e)).unwrap();
        assert_eq!(back, e);
    }

    fn sample_exprs() -> Vec<BoundExpr> {
        use BoundExpr as E;
        vec![
            E::col(3, T::Float64),
            E::Literal {
                value: Scalar::Null,
                ty: T::Int64,
            },
            E::lit_str("PROMO%"),
            E::Binary {
                op: BinOp::Mul,
                left: Box::new(E::col(0, T::Float64)),
                right: Box::new(E::Binary {
                    op: BinOp::Sub,
                    left: Box::new(E::lit_f64(1.0)),
                    right: Box::new(E::col(1, T::Float64)),
                    ty: T::Float64,
                }),
                ty: T::Float64,
            },
            E::Not(Box::new(E::lit_bool(false))),
            E::Neg(Box::new(E::col(2, T::Int64))),
            E::Case {
                branches: vec![(
                    E::Like {
                        expr: Box::new(E::col(4, T::Str)),
                        pattern: "x_%".into(),
                        negated: true,
                    },
                    E::lit_i64(1),
                )],
                else_expr: Box::new(E::lit_i64(0)),
                ty: T::Int64,
            },
            E::InList {
                expr: Box::new(E::col(5, T::Str)),
                list: vec![Scalar::Str("a".into()), Scalar::Str("b".into())],
                negated: false,
            },
            E::IsNull {
                expr: Box::new(E::col(6, T::Float64)),
                negated: true,
            },
            E::Func {
                func: ScalarFunc::Substring { start: 1, len: 2 },
                args: vec![E::col(7, T::Str)],
                ty: T::Str,
            },
            E::Func {
                func: ScalarFunc::ExtractYear,
                args: vec![E::col(8, T::Date)],
                ty: T::Int64,
            },
            E::Predict {
                model: "m".into(),
                args: vec![E::col(9, T::Float64)],
                ty: T::Float64,
            },
        ]
    }

    #[test]
    fn exprs_roundtrip() {
        for e in sample_exprs() {
            let j = expr_to_json(&e);
            let text = j.to_string();
            let back = expr_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, e, "{text}");
        }
    }

    #[test]
    fn scalars_roundtrip_exactly() {
        for s in [
            Scalar::Null,
            Scalar::Bool(true),
            Scalar::I32(-7),
            Scalar::I64(1 << 60),
            Scalar::F32(0.25),
            Scalar::F64(0.1),
            Scalar::Str("tea \"time\"\n".into()),
        ] {
            let back =
                scalar_from_json(&Json::parse(&scalar_to_json(&s).to_string()).unwrap()).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn subquery_exprs_rejected() {
        let e = BoundExpr::Exists {
            plan: Box::new(crate::plan::LogicalPlan::Scan {
                table: "t".into(),
                schema: vec![],
                projection: None,
            }),
            negated: false,
        };
        let j = expr_to_json(&e);
        assert!(expr_from_json(&j).is_err());
    }
}
