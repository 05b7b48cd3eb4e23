//! Cross-join elimination: turn `FROM a, b, c WHERE a.x = b.y AND ...`
//! (the TPC-H style) into an equi-join tree with greedy, estimate-driven
//! ordering, and extract equi-keys from explicit `JOIN ... ON` conditions.
//!
//! The pass also hoists conjuncts common to every branch of an `OR` —
//! essential for Q19, whose entire WHERE clause is a disjunction that
//! repeats `p_partkey = l_partkey` in every branch; without hoisting the
//! only plan is a Cartesian product — and derives the single-relation
//! filters a cross-relation `OR` implies (Q7's nation pair).

use std::collections::{BTreeMap, BTreeSet};

use crate::catalog::Catalog;
use crate::expr::{BinOp, BoundExpr};
use crate::optimize::estimate::{column_source, estimate, join_rows, key_distinct};
use crate::optimize::{conjoin, map_children, split_conjuncts};
use crate::plan::{ColMeta, JoinType, LogicalPlan};

/// Run the pass bottom-up over the whole plan.
pub fn extract_joins(plan: LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    if is_filtered_chain(&plan) {
        let mut semis = Vec::new();
        let (cross, predicate) = peel_semis(plan, &mut semis);
        return rebuild_cross_chain(cross, predicate, semis, catalog);
    }
    let plan = map_children(plan, &mut |p| extract_joins(p, catalog));
    match plan {
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            residual,
        } if on.is_empty() => extract_on_condition(*left, *right, join_type, residual),
        other => other,
    }
}

/// A semi/anti join waiting to be placed by [`rebuild_cross_chain`]: its
/// left keys and the left half of its residual index the chain's columns.
struct SemiJoin {
    join_type: JoinType,
    on: Vec<(usize, usize)>,
    residual: Option<BoundExpr>,
    right: LogicalPlan,
}

/// A filtered comma-join, possibly under the semi/anti joins decorrelation
/// stacked on it for the `EXISTS`/`IN` conjuncts of the same WHERE clause.
fn is_filtered_chain(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Join {
            left,
            join_type: JoinType::Semi | JoinType::Anti,
            on,
            ..
        } => !on.is_empty() && is_filtered_chain(left),
        LogicalPlan::Filter { input, .. } => matches!(**input, LogicalPlan::CrossJoin { .. }),
        _ => false,
    }
}

/// Split what [`is_filtered_chain`] matched into the comma-join, its
/// predicate, and the semi/anti joins above it, innermost first.
fn peel_semis(plan: LogicalPlan, semis: &mut Vec<SemiJoin>) -> (LogicalPlan, BoundExpr) {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            residual,
        } => {
            let chain = peel_semis(*left, semis);
            semis.push(SemiJoin {
                join_type,
                on,
                residual,
                right: *right,
            });
            chain
        }
        LogicalPlan::Filter { input, predicate } => (*input, predicate),
        _ => unreachable!("is_filtered_chain matched"),
    }
}

// ---------------------------------------------------------------------
// Explicit JOIN ... ON key extraction
// ---------------------------------------------------------------------

fn extract_on_condition(
    left: LogicalPlan,
    right: LogicalPlan,
    join_type: JoinType,
    residual: Option<BoundExpr>,
) -> LogicalPlan {
    let Some(cond) = residual else {
        return LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            join_type,
            on: vec![],
            residual: None,
        };
    };
    let la = left.arity();
    let total = la + right.arity();
    let mut conjuncts = Vec::new();
    split_conjuncts(cond, &mut conjuncts);
    let mut on = Vec::new();
    let mut push_left = Vec::new();
    let mut push_right = Vec::new();
    let mut leftover = Vec::new();
    for c in conjuncts {
        if let Some((l, r)) = as_equi_key(&c, la) {
            on.push((l, r));
            continue;
        }
        let mut refs = std::collections::BTreeSet::new();
        c.referenced_columns(&mut refs);
        let all_left = refs.iter().all(|&i| i < la);
        let all_right = refs.iter().all(|&i| i >= la && i < total);
        if all_right {
            // Right-only ON conjuncts restrict matches; for LEFT joins this
            // is exactly "filter the right input first".
            push_right.push(c.shift_left(la));
        } else if all_left && join_type == JoinType::Inner {
            push_left.push(c);
        } else {
            leftover.push(c);
        }
    }
    let left = if push_left.is_empty() {
        left
    } else {
        LogicalPlan::Filter {
            input: Box::new(left),
            predicate: conjoin(push_left),
        }
    };
    let right = if push_right.is_empty() {
        right
    } else {
        LogicalPlan::Filter {
            input: Box::new(right),
            predicate: conjoin(push_right),
        }
    };
    LogicalPlan::Join {
        left: Box::new(left),
        right: Box::new(right),
        join_type,
        on,
        residual: if leftover.is_empty() {
            None
        } else {
            Some(conjoin(leftover))
        },
    }
}

impl BoundExpr {
    /// Shift column indexes *down* by `delta` (move right-side expressions
    /// into the right child's own coordinate space).
    fn shift_left(self, delta: usize) -> BoundExpr {
        self.transform(&|e| match e {
            BoundExpr::Column { index, ty } => BoundExpr::Column {
                index: index - delta,
                ty,
            },
            other => other,
        })
    }
}

/// Bare-column equality across the boundary → join key.
fn as_equi_key(c: &BoundExpr, la: usize) -> Option<(usize, usize)> {
    if let BoundExpr::Binary {
        op: BinOp::Eq,
        left,
        right,
        ..
    } = c
    {
        if let (BoundExpr::Column { index: a, .. }, BoundExpr::Column { index: b, .. }) =
            (left.as_ref(), right.as_ref())
        {
            if *a < la && *b >= la {
                return Some((*a, *b - la));
            }
            if *b < la && *a >= la {
                return Some((*b, *a - la));
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Comma-join chains
// ---------------------------------------------------------------------

fn rebuild_cross_chain(
    cross: LogicalPlan,
    predicate: BoundExpr,
    semis: Vec<SemiJoin>,
    catalog: &Catalog,
) -> LogicalPlan {
    // Flatten the cross-join tree into relations with global column offsets.
    let mut rels: Vec<LogicalPlan> = Vec::new();
    flatten_cross(cross, &mut rels);
    let rels: Vec<LogicalPlan> = rels
        .into_iter()
        .map(|r| extract_joins(r, catalog))
        .collect();
    let arities: Vec<usize> = rels.iter().map(|r| r.arity()).collect();
    let offsets: Vec<usize> = arities
        .iter()
        .scan(0usize, |acc, &a| {
            let o = *acc;
            *acc += a;
            Some(o)
        })
        .collect();
    let total: usize = arities.iter().sum();
    let original_schema: Vec<ColMeta> = rels.iter().flat_map(|r| r.schema()).collect();

    // Conjuncts, with OR-common-factor hoisting (Q19).
    let mut raw = Vec::new();
    split_conjuncts(predicate, &mut raw);
    let mut conjuncts = Vec::new();
    for c in raw {
        hoist_or_common(c, &mut conjuncts);
    }

    // Classify.
    let rel_of = |col: usize| -> usize {
        offsets
            .iter()
            .rposition(|&o| o <= col)
            .expect("column offset")
    };
    // The chain's relations an expression reads (a semi join's residual
    // also reads its right side, past `total`).
    let rels_of = |e: &BoundExpr| -> BTreeSet<usize> {
        let mut refs = BTreeSet::new();
        e.referenced_columns(&mut refs);
        refs.range(..total).map(|&i| rel_of(i)).collect()
    };
    let mut local: Vec<Vec<BoundExpr>> = vec![Vec::new(); rels.len()];
    let mut keys: Vec<(usize, usize, usize, usize)> = Vec::new(); // (rel_i, col_i, rel_j, col_j) local cols
    let mut residual: Vec<BoundExpr> = Vec::new();
    for c in conjuncts {
        let rel_set = rels_of(&c);
        if rel_set.len() <= 1 {
            let rel = rel_set.into_iter().next().unwrap_or(0);
            local[rel].push(c.shift_to_local(offsets[rel]));
            continue;
        }
        if rel_set.len() == 2 {
            if let BoundExpr::Binary {
                op: BinOp::Eq,
                left,
                right,
                ..
            } = &c
            {
                if let (BoundExpr::Column { index: a, .. }, BoundExpr::Column { index: b, .. }) =
                    (left.as_ref(), right.as_ref())
                {
                    let (ra, rb) = (rel_of(*a), rel_of(*b));
                    keys.push((ra, a - offsets[ra], rb, b - offsets[rb]));
                    continue;
                }
            }
        }
        for (rel, implied) in implied_local_filters(&c, &rels_of) {
            local[rel].push(implied.shift_to_local(offsets[rel]));
        }
        residual.push(c);
    }

    // Apply local filters.
    let rels: Vec<LogicalPlan> = rels
        .into_iter()
        .zip(local)
        .map(|(r, fs)| {
            if fs.is_empty() {
                r
            } else {
                LogicalPlan::Filter {
                    input: Box::new(r),
                    predicate: conjoin(fs),
                }
            }
        })
        .collect();

    // A semi/anti join that reads one relation only, against a key set
    // estimated smaller than that relation, goes onto the relation: like a
    // local filter, it shrinks the relation before any join sees it
    // (Q18's `o_orderkey in (...)` keeps 14 of 300 000 orders). The others
    // stay above the chain: probing a larger set costs more than the joins
    // it would spare (Q21's `exists` over all of lineitem takes 834 ms at
    // SF 0.2 below its joins and 54 ms above them).
    let mut pushed: Vec<Vec<SemiJoin>> = rels.iter().map(|_| Vec::new()).collect();
    let mut above: Vec<SemiJoin> = Vec::new();
    for mut semi in semis {
        semi.right = extract_joins(semi.right, catalog);
        let mut touched: BTreeSet<usize> = semi.on.iter().map(|&(l, _)| rel_of(l)).collect();
        if let Some(res) = &semi.residual {
            touched.extend(rels_of(res));
        }
        let rel = match touched.first() {
            Some(&rel)
                if touched.len() == 1
                    && estimate(&semi.right, catalog) < estimate(&rels[rel], catalog) =>
            {
                rel
            }
            _ => {
                above.push(semi);
                continue;
            }
        };
        // Into the relation's own columns; the right side follows them.
        let (offset, arity) = (offsets[rel], arities[rel]);
        for key in &mut semi.on {
            key.0 -= offset;
        }
        semi.residual = semi.residual.map(|res| {
            res.transform(&|e| match e {
                BoundExpr::Column { index, ty } => BoundExpr::Column {
                    index: if index < total {
                        index - offset
                    } else {
                        index - total + arity
                    },
                    ty,
                },
                other => other,
            })
        });
        pushed[rel].push(semi);
    }
    let rels: Vec<LogicalPlan> = rels
        .into_iter()
        .zip(pushed)
        .map(|(rel, semis)| semis.into_iter().fold(rel, semi_join))
        .collect();

    // Estimated rows of every relation, and the base-table column behind
    // each side of every key.
    let sizes: Vec<f64> = rels.iter().map(|r| estimate(r, catalog)).collect();
    let key_sources: Vec<_> = keys
        .iter()
        .map(|&(a, ca, b, cb)| {
            (
                column_source(&rels[a], ca, catalog),
                column_source(&rels[b], cb, catalog),
            )
        })
        .collect();

    // Join order: left-deep and greedy from each possible first relation,
    // keeping the order whose intermediate results sum to the fewest
    // estimated rows. (Greedy from the smallest relation alone is blind to
    // what that start forces next: Q9's `nation, supplier` must then take
    // all of lineitem, while starting at its 2 000 filtered parts never
    // holds more than a few thousand rows.)
    let n = rels.len();
    // Estimated rows of joining relation `i` to the `rows`-row join of the
    // relations in `in_set`; `None` when no key connects them.
    let joined_rows = |i: usize, in_set: &[bool], rows: f64| -> Option<f64> {
        let (of_set, of_i): (Vec<_>, Vec<_>) = keys
            .iter()
            .zip(&key_sources)
            .filter_map(|(&(a, _, b, _), &(sa, sb))| {
                if a == i && in_set[b] {
                    Some((sb, sa))
                } else if b == i && in_set[a] {
                    Some((sa, sb))
                } else {
                    None
                }
            })
            .unzip();
        let composite = of_i.len() > 1;
        (!of_i.is_empty()).then(|| {
            join_rows(
                JoinType::Inner,
                rows,
                sizes[i],
                key_distinct(of_set),
                key_distinct(of_i),
                composite,
            )
        })
    };
    // The order greedy takes from `start` as `(relation, rows after joining
    // it)`, and the sum of those rows: at each step the key-connected
    // relation with the smallest estimated join output (ties: the smaller
    // relation), otherwise a cross join with the smallest remaining one.
    // A join estimated to outgrow both its inputs waits until nothing else
    // connects: every later join would pay for the rows it multiplies
    // (Q5's supplier x customer on `nationkey` alone).
    let greedy_from = |start: usize| -> (Vec<(usize, f64)>, f64) {
        let mut in_set = vec![false; n];
        in_set[start] = true;
        let mut order = vec![(start, sizes[start])];
        let (mut rows, mut cost) = (sizes[start], 0.0);
        for _ in 1..n {
            let (next, out) = (0..n)
                .filter(|&i| !in_set[i])
                .filter_map(|i| Some((i, joined_rows(i, &in_set, rows)?)))
                .min_by(|a, b| {
                    let grows = |&(i, out): &(usize, f64)| out > rows.max(sizes[i]);
                    (grows(a).cmp(&grows(b)))
                        .then(a.1.total_cmp(&b.1))
                        .then(sizes[a.0].total_cmp(&sizes[b.0]))
                })
                .unwrap_or_else(|| {
                    let i = (0..n)
                        .filter(|&i| !in_set[i])
                        .min_by(|&a, &b| sizes[a].total_cmp(&sizes[b]))
                        .unwrap();
                    (i, rows * sizes[i])
                });
            in_set[next] = true;
            order.push((next, out));
            rows = out;
            cost += out;
        }
        (order, cost)
    };
    // First relations: those under a key (all of them when no keys exist),
    // smallest first so that equal costs keep the smallest start.
    let mut starts: Vec<usize> = (0..n)
        .filter(|&i| keys.is_empty() || keys.iter().any(|&(a, _, b, _)| a == i || b == i))
        .collect();
    starts.sort_by(|&a, &b| sizes[a].total_cmp(&sizes[b]));
    let (order, _) = starts
        .into_iter()
        .map(greedy_from)
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("a chain has relations");

    let mut in_set = vec![false; n];
    let mut colmap: Vec<usize> = vec![usize::MAX; total];
    let mut rels_opt: Vec<Option<LogicalPlan>> = rels.into_iter().map(Some).collect();
    let (start, mut rows) = order[0];
    let mut plan = rels_opt[start].take().unwrap();
    in_set[start] = true;
    for c in 0..arities[start] {
        colmap[offsets[start] + c] = c;
    }
    let mut cur_arity = arities[start];
    for &(next, out) in &order[1..] {
        let rel = rels_opt[next].take().unwrap();
        let mut on: Vec<(usize, usize)> = Vec::new();
        for &(a, ca, b, cb) in &keys {
            if a == next && in_set[b] {
                on.push((colmap[offsets[b] + cb], ca));
            } else if b == next && in_set[a] {
                on.push((colmap[offsets[a] + ca], cb));
            }
        }
        // Joins build on their right input, so the side estimated larger
        // goes left and probes.
        if !on.is_empty() && sizes[next] > rows {
            for c in colmap.iter_mut().filter(|c| **c != usize::MAX) {
                *c += arities[next];
            }
            for c in 0..arities[next] {
                colmap[offsets[next] + c] = c;
            }
            plan = LogicalPlan::Join {
                left: Box::new(rel),
                right: Box::new(plan),
                join_type: JoinType::Inner,
                on: on.into_iter().map(|(set, rel)| (rel, set)).collect(),
                residual: None,
            };
        } else {
            for c in 0..arities[next] {
                colmap[offsets[next] + c] = cur_arity + c;
            }
            plan = if on.is_empty() {
                LogicalPlan::CrossJoin {
                    left: Box::new(plan),
                    right: Box::new(rel),
                }
            } else {
                LogicalPlan::Join {
                    left: Box::new(plan),
                    right: Box::new(rel),
                    join_type: JoinType::Inner,
                    on,
                    residual: None,
                }
            };
        }
        in_set[next] = true;
        cur_arity += arities[next];
        rows = out;
    }

    // Residual predicates over the new layout.
    if !residual.is_empty() {
        let remapped: Vec<BoundExpr> = residual
            .into_iter()
            .map(|c| {
                c.transform(&|e| match e {
                    BoundExpr::Column { index, ty } => BoundExpr::Column {
                        index: colmap[index],
                        ty,
                    },
                    other => other,
                })
            })
            .collect();
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: conjoin(remapped),
        };
    }

    // Restore the original column layout so parents' indexes stay valid.
    let needs_restore = colmap.iter().enumerate().any(|(old, &new)| old != new);
    if needs_restore {
        let exprs: Vec<BoundExpr> = (0..total)
            .map(|old| BoundExpr::Column {
                index: colmap[old],
                ty: original_schema[old].ty,
            })
            .collect();
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs,
            schema: original_schema,
        };
    }
    above.into_iter().fold(plan, semi_join)
}

fn semi_join(left: LogicalPlan, semi: SemiJoin) -> LogicalPlan {
    LogicalPlan::Join {
        left: Box::new(left),
        right: Box::new(semi.right),
        join_type: semi.join_type,
        on: semi.on,
        residual: semi.residual,
    }
}

impl BoundExpr {
    fn shift_to_local(self, offset: usize) -> BoundExpr {
        self.transform(&|e| match e {
            BoundExpr::Column { index, ty } => BoundExpr::Column {
                index: index - offset,
                ty,
            },
            other => other,
        })
    }
}

/// The single-relation filters a cross-relation `OR` implies: when every
/// branch constrains relation `r` by conjuncts over `r` alone, a row of
/// `r` that passes none of them can satisfy no branch, so their
/// disjunction may filter `r` before any join. Q7's `(n1 = 'FRANCE' and
/// n2 = 'GERMANY') or (n1 = 'GERMANY' and n2 = 'FRANCE')` yields one
/// two-name filter per nation scan. The `OR` itself stays where it was.
fn implied_local_filters(
    c: &BoundExpr,
    rels_of: &impl Fn(&BoundExpr) -> BTreeSet<usize>,
) -> Vec<(usize, BoundExpr)> {
    if !matches!(c, BoundExpr::Binary { op: BinOp::Or, .. }) {
        return Vec::new();
    }
    let mut branches = Vec::new();
    split_disjuncts(c.clone(), &mut branches);
    // Per branch: relation → the branch's conjuncts over it alone.
    let per_branch: Vec<BTreeMap<usize, Vec<BoundExpr>>> = branches
        .into_iter()
        .map(|branch| {
            let mut conjuncts = Vec::new();
            split_conjuncts(branch, &mut conjuncts);
            let mut by_rel: BTreeMap<usize, Vec<BoundExpr>> = BTreeMap::new();
            for c in conjuncts {
                let rels = rels_of(&c);
                if let (Some(&rel), 1) = (rels.first(), rels.len()) {
                    by_rel.entry(rel).or_default().push(c);
                }
            }
            by_rel
        })
        .collect();
    per_branch[0]
        .keys()
        .filter(|rel| per_branch.iter().all(|b| b.contains_key(rel)))
        .map(|&rel| {
            let per_branch = per_branch.iter().map(|b| b[&rel].clone()).collect();
            (rel, rejoin_or(per_branch))
        })
        .collect()
}

fn flatten_cross(plan: LogicalPlan, out: &mut Vec<LogicalPlan>) {
    match plan {
        LogicalPlan::CrossJoin { left, right } => {
            flatten_cross(*left, out);
            flatten_cross(*right, out);
        }
        other => out.push(other),
    }
}

/// `OR(A∧X, A∧Y)` → `A ∧ OR(X, Y)`: hoist conjuncts present in every
/// branch of a disjunction.
fn hoist_or_common(c: BoundExpr, out: &mut Vec<BoundExpr>) {
    if !matches!(c, BoundExpr::Binary { op: BinOp::Or, .. }) {
        out.push(c);
        return;
    }
    let mut branches = Vec::new();
    split_disjuncts(c, &mut branches);
    let branch_sets: Vec<Vec<BoundExpr>> = branches
        .into_iter()
        .map(|b| {
            let mut v = Vec::new();
            split_conjuncts(b, &mut v);
            v
        })
        .collect();
    let first = branch_sets[0].clone();
    let common: Vec<BoundExpr> = first
        .into_iter()
        .filter(|c| branch_sets[1..].iter().all(|s| s.contains(c)))
        .collect();
    if common.is_empty() {
        out.push(rejoin_or(branch_sets));
        return;
    }
    let stripped: Vec<Vec<BoundExpr>> = branch_sets
        .into_iter()
        .map(|s| {
            let mut remaining = s;
            for c in &common {
                if let Some(pos) = remaining.iter().position(|x| x == c) {
                    remaining.remove(pos);
                }
            }
            remaining
        })
        .collect();
    out.extend(common);
    // Any branch reduced to empty means the OR is implied by the common part.
    if stripped.iter().all(|s| !s.is_empty()) {
        out.push(rejoin_or(stripped));
    }
}

fn split_disjuncts(e: BoundExpr, out: &mut Vec<BoundExpr>) {
    match e {
        BoundExpr::Binary {
            op: BinOp::Or,
            left,
            right,
            ..
        } => {
            split_disjuncts(*left, out);
            split_disjuncts(*right, out);
        }
        other => out.push(other),
    }
}

fn rejoin_or(branch_sets: Vec<Vec<BoundExpr>>) -> BoundExpr {
    let mut it = branch_sets.into_iter().map(conjoin);
    let first = it.next().unwrap();
    it.fold(first, |acc, b| BoundExpr::Binary {
        op: BinOp::Or,
        left: Box::new(acc),
        right: Box::new(b),
        ty: tqp_data::LogicalType::Bool,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::bind_query;
    use crate::catalog::Catalog;
    use tqp_data::{Field, LogicalType, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "big",
            Schema::new(vec![
                Field::new("id", LogicalType::Int64),
                Field::new("small_id", LogicalType::Int64),
                Field::new("v", LogicalType::Float64),
            ]),
            10_000,
        );
        c.register(
            "small",
            Schema::new(vec![
                Field::new("id", LogicalType::Int64),
                Field::new("name", LogicalType::Str),
            ]),
            10,
        );
        c.register(
            "mid",
            Schema::new(vec![
                Field::new("id", LogicalType::Int64),
                Field::new("big_id", LogicalType::Int64),
            ]),
            1_000,
        );
        c
    }

    fn plan(sql: &str) -> LogicalPlan {
        let cat = catalog();
        let bound = bind_query(&tqp_sql::parse(sql).unwrap(), &cat).unwrap();
        extract_joins(bound, &cat)
    }

    fn count_nodes(p: &LogicalPlan, pred: &dyn Fn(&LogicalPlan) -> bool) -> usize {
        let mut n = usize::from(pred(p));
        for c in p.children() {
            n += count_nodes(c, pred);
        }
        n
    }

    #[test]
    fn comma_join_becomes_equi_join() {
        let p = plan("select big.v from big, small where big.small_id = small.id");
        assert_eq!(
            count_nodes(&p, &|n| matches!(n, LogicalPlan::CrossJoin { .. })),
            0
        );
        assert_eq!(
            count_nodes(&p, &|n| matches!(
                n,
                LogicalPlan::Join {
                    join_type: JoinType::Inner,
                    ..
                }
            )),
            1
        );
    }

    #[test]
    fn smallest_relation_drives_order() {
        let p = plan(
            "select big.v from big, small, mid where big.small_id = small.id \
             and mid.big_id = big.id",
        );
        // No cross joins left, two inner joins.
        assert_eq!(
            count_nodes(&p, &|n| matches!(n, LogicalPlan::CrossJoin { .. })),
            0
        );
        assert_eq!(
            count_nodes(&p, &|n| matches!(n, LogicalPlan::Join { .. })),
            2
        );
    }

    #[test]
    fn local_filters_pushed_during_extraction() {
        let p =
            plan("select big.v from big, small where big.small_id = small.id and small.name = 'x'");
        // The small-side filter must sit below the join.
        fn filter_below_join(p: &LogicalPlan) -> bool {
            match p {
                LogicalPlan::Join { left, right, .. } => {
                    matches!(**left, LogicalPlan::Filter { .. })
                        || matches!(**right, LogicalPlan::Filter { .. })
                        || filter_below_join(left)
                        || filter_below_join(right)
                }
                _ => p.children().into_iter().any(filter_below_join),
            }
        }
        assert!(filter_below_join(&p));
    }

    #[test]
    fn or_common_hoisting_enables_join() {
        // Q19 shape: OR branches all contain the join predicate.
        let p = plan(
            "select big.v from big, small where \
             (big.small_id = small.id and small.name = 'a' and big.v > 1.0) or \
             (big.small_id = small.id and small.name = 'b' and big.v > 2.0)",
        );
        assert_eq!(
            count_nodes(&p, &|n| matches!(n, LogicalPlan::CrossJoin { .. })),
            0
        );
        assert_eq!(
            count_nodes(&p, &|n| matches!(n, LogicalPlan::Join { .. })),
            1
        );
    }

    #[test]
    fn layout_restoring_projection_added() {
        // Join order differs from FROM order → a Project restores layout, so
        // the output schema names match the original SELECT.
        let p = plan("select big.v, small.name from big, small where big.small_id = small.id");
        let schema = p.schema();
        assert_eq!(schema[0].name, "v");
        assert_eq!(schema[1].name, "name");
    }

    #[test]
    fn explicit_on_extracts_keys() {
        let p = plan("select big.v from big join small on big.small_id = small.id");
        fn has_keyed_join(p: &LogicalPlan) -> bool {
            match p {
                LogicalPlan::Join { on, .. } => !on.is_empty(),
                _ => p.children().into_iter().any(has_keyed_join),
            }
        }
        assert!(has_keyed_join(&p));
    }

    #[test]
    fn left_join_right_condition_pushed() {
        let p = plan(
            "select big.v from big left outer join small \
             on big.small_id = small.id and small.name = 'x'",
        );
        fn join_right_is_filter(p: &LogicalPlan) -> bool {
            match p {
                LogicalPlan::Join {
                    right,
                    join_type: JoinType::Left,
                    ..
                } => {
                    matches!(**right, LogicalPlan::Filter { .. })
                }
                _ => p.children().into_iter().any(join_right_is_filter),
            }
        }
        assert!(join_right_is_filter(&p));
    }

    #[test]
    fn no_keys_stays_cross() {
        let p = plan("select big.v from big, small where big.v > 1.0");
        assert_eq!(
            count_nodes(&p, &|n| matches!(n, LogicalPlan::CrossJoin { .. })),
            1
        );
    }

    // -----------------------------------------------------------------
    // Stats-driven selectivity
    // -----------------------------------------------------------------

    /// A catalog whose `big` table carries real column statistics.
    fn stats_catalog() -> Catalog {
        use tqp_data::frame::df;
        use tqp_data::Column;
        let n = 10_000i64;
        let frame = df(vec![
            ("id", Column::from_i64((0..n).collect())),
            (
                "small_id",
                Column::from_i64((0..n).map(|i| i % 10).collect()),
            ),
            (
                "v",
                Column::from_f64((0..n).map(|i| (i % 100) as f64).collect()),
            ),
        ]);
        let mut c = catalog();
        c.register_with_stats(
            "big",
            frame.schema().clone(),
            tqp_data::stats::frame_stats(&frame),
        );
        c
    }

    fn filtered_estimate(sql_pred: &str, c: &Catalog) -> f64 {
        let sql = format!("select big.v from big where {sql_pred}");
        let bound = bind_query(&tqp_sql::parse(&sql).unwrap(), c).unwrap();
        estimate(&bound, c)
    }

    #[test]
    fn stats_drive_filter_estimates() {
        let c = stats_catalog();
        // Equality on a 10-value column: ~1/10 of 10k rows.
        let eq = filtered_estimate("big.small_id = 3", &c);
        assert!((900.0..1100.0).contains(&eq), "eq estimate {eq}");
        // Range keeping ~25% of [0, 99].
        let rng = filtered_estimate("big.v < 25.0", &c);
        assert!((2000.0..3100.0).contains(&rng), "range estimate {rng}");
        // Equality provably outside [min, max] → floor, not 20%.
        let out = filtered_estimate("big.id = 99999", &c);
        assert!(out <= 10.0, "out-of-range estimate {out}");
        // Conjuncts multiply.
        let both = filtered_estimate("big.small_id = 3 and big.v < 25.0", &c);
        assert!(both < eq.min(rng), "conjunction estimate {both}");
    }

    #[test]
    fn missing_stats_keep_the_legacy_constant() {
        let c = catalog();
        let e = filtered_estimate("big.v < 25.0", &c);
        assert!((e - 2000.0).abs() < 1.0, "fallback 0.2 × 10000, got {e}");
    }

    #[test]
    fn stats_fix_misleading_join_order() {
        // Both relations have 10k rows; `wide.k = 1` keeps almost all of
        // `wide` (2 distinct values) while `narrow.k = 1` keeps ~0.1%
        // (1000 distinct values). Without stats both filters estimate
        // identically; with stats the narrow side must be the build side.
        use tqp_data::frame::df;
        use tqp_data::Column;
        let n = 10_000i64;
        let wide = df(vec![
            ("k", Column::from_i64((0..n).map(|i| i % 2).collect())),
            ("j", Column::from_i64((0..n).collect())),
        ]);
        let narrow = df(vec![
            ("k", Column::from_i64((0..n).map(|i| i % 1000).collect())),
            ("j", Column::from_i64((0..n).collect())),
        ]);
        let mut c = Catalog::new();
        c.register_with_stats(
            "wide",
            wide.schema().clone(),
            tqp_data::stats::frame_stats(&wide),
        );
        c.register_with_stats(
            "narrow",
            narrow.schema().clone(),
            tqp_data::stats::frame_stats(&narrow),
        );
        let sql = "select wide.j from wide, narrow \
                   where wide.j = narrow.j and wide.k = 1 and narrow.k = 1";
        let bound = bind_query(&tqp_sql::parse(sql).unwrap(), &c).unwrap();
        let p = extract_joins(bound, &c);
        // Joins build on their right input: the narrow-filtered scan.
        let (left, right) = join_inputs(&p).expect("one join");
        assert_eq!(
            (tables(left), tables(right)),
            (vec!["wide"], vec!["narrow"])
        );
    }

    /// Base tables under `p`, in plan order.
    fn tables(p: &LogicalPlan) -> Vec<&str> {
        match p {
            LogicalPlan::Scan { table, .. } => vec![table],
            _ => p.children().into_iter().flat_map(tables).collect(),
        }
    }

    /// Inputs of the first join found walking down from `p`.
    fn join_inputs(p: &LogicalPlan) -> Option<(&LogicalPlan, &LogicalPlan)> {
        match p {
            LogicalPlan::Join { left, right, .. } => Some((left, right)),
            _ => p.children().into_iter().find_map(join_inputs),
        }
    }

    /// `hub` (100 rows) joins `fan` on a 2-value key (100 x 1000 / 2 rows
    /// out) and `wide` on a unique one (100 rows out).
    fn fanout_catalog() -> Catalog {
        use tqp_data::frame::df;
        use tqp_data::Column;
        let table = |n: i64, modulus: i64| {
            df(vec![
                ("id", Column::from_i64((0..n).collect())),
                ("k", Column::from_i64((0..n).map(|i| i % modulus).collect())),
            ])
        };
        let mut c = Catalog::new();
        for (name, frame) in [
            ("hub", table(100, 2)),
            ("fan", table(1_000, 2)),
            ("wide", table(10_000, 10_000)),
        ] {
            c.register_with_stats(
                name,
                frame.schema().clone(),
                tqp_data::stats::frame_stats(&frame),
            );
        }
        c
    }

    #[test]
    fn estimated_join_output_not_table_size_picks_the_next_relation() {
        let c = fanout_catalog();
        let sql = "select hub.id from hub, fan, wide where hub.k = fan.k and hub.id = wide.id";
        let p = extract_joins(bind_query(&tqp_sql::parse(sql).unwrap(), &c).unwrap(), &c);
        // `fan` is the smaller table, but joining it first makes 50 000
        // rows; `wide` keeps 100. The innermost join is hub with wide.
        fn innermost(p: &LogicalPlan) -> Option<&LogicalPlan> {
            let below = p.children().into_iter().find_map(innermost);
            below.or(matches!(p, LogicalPlan::Join { .. }).then_some(p))
        }
        let mut first = tables(innermost(&p).expect("joins"));
        first.sort_unstable();
        assert_eq!(first, vec!["hub", "wide"]);
    }

    #[test]
    fn larger_input_probes_and_smaller_builds() {
        let p = plan("select big.v from big, small where big.small_id = small.id");
        let (left, right) = join_inputs(&p).expect("one join");
        assert_eq!((tables(left), tables(right)), (vec!["big"], vec!["small"]));
    }

    fn semi_left_tables(p: &LogicalPlan) -> Option<Vec<&str>> {
        match p {
            LogicalPlan::Join {
                left,
                join_type: JoinType::Semi,
                ..
            } => Some(tables(left)),
            _ => p.children().into_iter().find_map(semi_left_tables),
        }
    }

    fn decorrelated(sql: &str) -> LogicalPlan {
        let cat = catalog();
        let bound = bind_query(&tqp_sql::parse(sql).unwrap(), &cat).unwrap();
        extract_joins(crate::optimize::decorrelate::decorrelate(bound), &cat)
    }

    #[test]
    fn reducing_semi_join_goes_onto_its_relation() {
        // Q18 shape: the IN-list (1 000 mids) is smaller than `big`.
        let p = decorrelated(
            "select big.v from big, small where big.small_id = small.id \
             and big.id in (select big_id from mid)",
        );
        assert_eq!(semi_left_tables(&p), Some(vec!["big"]));
        assert_eq!(
            count_nodes(&p, &|n| matches!(n, LogicalPlan::CrossJoin { .. })),
            0
        );
    }

    #[test]
    fn semi_join_against_a_larger_set_stays_above_the_chain() {
        // Q21 shape: probing all of `big` to filter ten `small` rows.
        let p = decorrelated(
            "select big.v from big, small where big.small_id = small.id \
             and exists (select * from big b2 where b2.small_id = small.id and b2.v <> big.v)",
        );
        let mut left = semi_left_tables(&p).expect("semi join");
        left.sort_unstable();
        assert_eq!(left, vec!["big", "small"]);
    }

    #[test]
    fn or_across_relations_implies_a_filter_on_each() {
        // Q7 shape.
        let p = plan(
            "select big.v from big, small, mid \
             where big.small_id = small.id and mid.big_id = big.id \
             and ((small.name = 'a' and mid.id = 1) or (small.name = 'b' and mid.id = 2))",
        );
        fn filtered_scans<'a>(p: &'a LogicalPlan, out: &mut Vec<&'a str>) {
            if let LogicalPlan::Filter { input, .. } = p {
                if let LogicalPlan::Scan { table, .. } = &**input {
                    out.push(table);
                }
            }
            for c in p.children() {
                filtered_scans(c, out);
            }
        }
        let mut filtered = Vec::new();
        filtered_scans(&p, &mut filtered);
        filtered.sort_unstable();
        assert_eq!(filtered, vec!["mid", "small"]);
        // The OR itself still runs over the joined rows.
        assert!(matches!(
            &p,
            LogicalPlan::Project { input, .. } if matches!(**input, LogicalPlan::Filter { .. })
        ));
    }
}
