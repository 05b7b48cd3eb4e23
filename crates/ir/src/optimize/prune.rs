//! Column pruning: scans read only the columns the query touches.
//!
//! Implemented as a single recursive pass with index remapping: each node is
//! asked for a set of needed output columns and returns a rewritten plan
//! plus a map from old to new column positions. On TPC-H this shrinks the
//! 16-column `lineitem` scans of Q1/Q6 down to the 4-7 columns actually
//! referenced — the dominant data-volume saving for the tensor engine. A
//! filter likewise passes on only what is read above it: the columns its
//! predicate alone needs are projected away directly over it.

use std::collections::BTreeSet;

use crate::expr::BoundExpr;
use crate::plan::{JoinType, LogicalPlan};

/// Prune unused columns below the root (the root keeps its full output).
pub fn prune_plan(plan: LogicalPlan) -> LogicalPlan {
    let needed: BTreeSet<usize> = (0..plan.arity()).collect();
    let (pruned, map) = prune(plan, &needed);
    debug_assert!(
        needed.iter().all(|&i| map[i] == Some(i)),
        "root pruning must preserve layout"
    );
    pruned
}

/// Returns the rewritten plan and `map[old] = Some(new)` for every retained
/// column (needed columns are always retained).
fn prune(plan: LogicalPlan, needed: &BTreeSet<usize>) -> (LogicalPlan, Vec<Option<usize>>) {
    match plan {
        LogicalPlan::Scan {
            table,
            schema,
            projection,
        } => {
            debug_assert!(projection.is_none(), "prune runs once");
            let n = schema.len();
            let mut keep: Vec<usize> = needed.iter().copied().collect();
            if keep.is_empty() {
                // Keep one column so row counts survive (COUNT(*)-only).
                keep.push(0);
            }
            let mut map = vec![None; n];
            for (new, &old) in keep.iter().enumerate() {
                map[old] = Some(new);
            }
            let projection = if keep.len() == n { None } else { Some(keep) };
            (
                LogicalPlan::Scan {
                    table,
                    schema,
                    projection,
                },
                map,
            )
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut child_needed = needed.clone();
            predicate.referenced_columns(&mut child_needed);
            let (child, map) = prune(*input, &child_needed);
            let predicate = remap(predicate, &map);
            let filter = LogicalPlan::Filter {
                input: Box::new(child),
                predicate,
            };
            // Columns only the predicate reads stop here: a column-only
            // projection over the filter (the executors gather surviving
            // rows for its columns alone), instead of carrying Q13's
            // `o_comment` through the filter and the join above it.
            let extra = (0..map.len()).any(|i| map[i].is_some() && !needed.contains(&i));
            if needed.is_empty() || !extra {
                return (filter, map);
            }
            let schema = filter.schema();
            let mut out_map = vec![None; map.len()];
            let mut exprs = Vec::with_capacity(needed.len());
            let mut out_schema = Vec::with_capacity(needed.len());
            for (new, &old) in needed.iter().enumerate() {
                let kept = map[old].expect("needed column retained");
                exprs.push(BoundExpr::Column {
                    index: kept,
                    ty: schema[kept].ty,
                });
                out_schema.push(schema[kept].clone());
                out_map[old] = Some(new);
            }
            (
                LogicalPlan::Project {
                    input: Box::new(filter),
                    exprs,
                    schema: out_schema,
                },
                out_map,
            )
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let keep: Vec<usize> = if needed.is_empty() {
                vec![0]
            } else {
                needed.iter().copied().collect()
            };
            let mut child_needed = BTreeSet::new();
            for &i in &keep {
                exprs[i].referenced_columns(&mut child_needed);
            }
            let (child, cmap) = prune(*input, &child_needed);
            let new_exprs: Vec<BoundExpr> = keep
                .iter()
                .map(|&i| remap(exprs[i].clone(), &cmap))
                .collect();
            let new_schema = keep.iter().map(|&i| schema[i].clone()).collect();
            let mut map = vec![None; exprs.len()];
            for (new, &old) in keep.iter().enumerate() {
                map[old] = Some(new);
            }
            (
                LogicalPlan::Project {
                    input: Box::new(child),
                    exprs: new_exprs,
                    schema: new_schema,
                },
                map,
            )
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            residual,
        } => {
            let la = left.arity();
            let ra = right.arity();
            let mut lneed: BTreeSet<usize> = BTreeSet::new();
            let mut rneed: BTreeSet<usize> = BTreeSet::new();
            for &i in needed {
                if i < la {
                    lneed.insert(i);
                } else if !matches!(join_type, JoinType::Semi | JoinType::Anti) {
                    rneed.insert(i - la);
                }
            }
            for &(l, r) in &on {
                lneed.insert(l);
                rneed.insert(r);
            }
            let mut res_refs = BTreeSet::new();
            if let Some(r) = &residual {
                r.referenced_columns(&mut res_refs);
            }
            for &i in &res_refs {
                if i < la {
                    lneed.insert(i);
                } else {
                    rneed.insert(i - la);
                }
            }
            let (lchild, lmap) = prune(*left, &lneed);
            let (rchild, rmap) = prune(*right, &rneed);
            let new_la = lchild.arity();
            let on: Vec<(usize, usize)> = on
                .into_iter()
                .map(|(l, r)| (lmap[l].expect("pruned key"), rmap[r].expect("pruned key")))
                .collect();
            let residual = residual.map(|e| {
                e.transform(&|node| match node {
                    BoundExpr::Column { index, ty } => {
                        let new = if index < la {
                            lmap[index].expect("pruned residual col")
                        } else {
                            new_la + rmap[index - la].expect("pruned residual col")
                        };
                        BoundExpr::Column { index: new, ty }
                    }
                    other => other,
                })
            });
            let semi = matches!(join_type, JoinType::Semi | JoinType::Anti);
            let mut map = vec![None; if semi { la } else { la + ra }];
            map[..la].copy_from_slice(&lmap[..la]);
            if !semi {
                for j in 0..ra {
                    map[la + j] = rmap[j].map(|n| new_la + n);
                }
            }
            (
                LogicalPlan::Join {
                    left: Box::new(lchild),
                    right: Box::new(rchild),
                    join_type,
                    on,
                    residual,
                },
                map,
            )
        }
        LogicalPlan::CrossJoin { left, right } => {
            let la = left.arity();
            let ra = right.arity();
            let mut lneed = BTreeSet::new();
            let mut rneed = BTreeSet::new();
            for &i in needed {
                if i < la {
                    lneed.insert(i);
                } else {
                    rneed.insert(i - la);
                }
            }
            let (lchild, lmap) = prune(*left, &lneed);
            let (rchild, rmap) = prune(*right, &rneed);
            let new_la = lchild.arity();
            let mut map = vec![None; la + ra];
            map[..la].copy_from_slice(&lmap[..la]);
            for j in 0..ra {
                map[la + j] = rmap[j].map(|n| new_la + n);
            }
            (
                LogicalPlan::CrossJoin {
                    left: Box::new(lchild),
                    right: Box::new(rchild),
                },
                map,
            )
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema,
        } => {
            let n_groups = group_by.len();
            // Group keys always survive (they define the semantics); unused
            // aggregate calls are dropped.
            let keep_aggs: Vec<usize> = (0..aggs.len())
                .filter(|j| needed.contains(&(n_groups + j)))
                .collect();
            let mut child_needed = BTreeSet::new();
            for g in &group_by {
                g.referenced_columns(&mut child_needed);
            }
            for &j in &keep_aggs {
                if let Some(arg) = &aggs[j].arg {
                    arg.referenced_columns(&mut child_needed);
                }
            }
            let (child, cmap) = prune(*input, &child_needed);
            let group_by: Vec<BoundExpr> = group_by.into_iter().map(|g| remap(g, &cmap)).collect();
            let mut new_aggs = Vec::with_capacity(keep_aggs.len());
            let mut new_schema: Vec<_> = schema[..n_groups].to_vec();
            let mut map = vec![None; n_groups + aggs.len()];
            for (i, slot) in map.iter_mut().enumerate().take(n_groups) {
                *slot = Some(i);
            }
            for (new_j, &old_j) in keep_aggs.iter().enumerate() {
                let mut call = aggs[old_j].clone();
                call.arg = call.arg.map(|a| remap(a, &cmap));
                new_aggs.push(call);
                new_schema.push(schema[n_groups + old_j].clone());
                map[n_groups + old_j] = Some(n_groups + new_j);
            }
            (
                LogicalPlan::Aggregate {
                    input: Box::new(child),
                    group_by,
                    aggs: new_aggs,
                    schema: new_schema,
                },
                map,
            )
        }
        LogicalPlan::Sort { input, keys } => {
            let mut child_needed = needed.clone();
            for k in &keys {
                k.expr.referenced_columns(&mut child_needed);
            }
            let (child, map) = prune(*input, &child_needed);
            let keys = keys
                .into_iter()
                .map(|mut k| {
                    k.expr = remap(k.expr, &map);
                    k
                })
                .collect();
            (
                LogicalPlan::Sort {
                    input: Box::new(child),
                    keys,
                },
                map,
            )
        }
        LogicalPlan::Limit { input, n } => {
            let (child, map) = prune(*input, needed);
            (
                LogicalPlan::Limit {
                    input: Box::new(child),
                    n,
                },
                map,
            )
        }
    }
}

fn remap(e: BoundExpr, map: &[Option<usize>]) -> BoundExpr {
    e.transform(&|node| match node {
        BoundExpr::Column { index, ty } => BoundExpr::Column {
            index: map[index].expect("pruned column still referenced"),
            ty,
        },
        other => other,
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
            "wide",
            Schema::new(vec![
                Field::new("c0", LogicalType::Int64),
                Field::new("c1", LogicalType::Float64),
                Field::new("c2", LogicalType::Str),
                Field::new("c3", LogicalType::Date),
                Field::new("c4", LogicalType::Float64),
            ]),
            100,
        );
        c
    }

    fn opt(sql: &str) -> LogicalPlan {
        let cat = catalog();
        let p = bind_query(&tqp_sql::parse(sql).unwrap(), &cat).unwrap();
        crate::optimize::optimize(p, &cat)
    }

    fn scan_projection(p: &LogicalPlan) -> Option<Vec<usize>> {
        match p {
            LogicalPlan::Scan { projection, .. } => projection.clone(),
            _ => p.children().into_iter().find_map(scan_projection),
        }
    }

    #[test]
    fn scan_narrows_to_referenced_columns() {
        let p = opt("select c1 from wide where c0 > 3");
        assert_eq!(scan_projection(&p), Some(vec![0, 1]));
        assert_eq!(p.schema().len(), 1);
        assert_eq!(p.schema()[0].name, "c1");
    }

    #[test]
    fn filter_passes_on_only_what_is_read_above_it() {
        // c2 is read by the predicate alone: a column-only projection sits
        // directly over the filter and drops it.
        let p = opt("select c0, sum(c1) from wide where c2 like 'x%' group by c0");
        assert_eq!(scan_projection(&p), Some(vec![0, 1, 2]));
        fn over_filter(p: &LogicalPlan) -> Option<usize> {
            match p {
                LogicalPlan::Project { input, exprs, .. }
                    if matches!(**input, LogicalPlan::Filter { .. }) =>
                {
                    assert!(exprs.iter().all(|e| matches!(e, BoundExpr::Column { .. })));
                    Some(exprs.len())
                }
                _ => p.children().into_iter().find_map(over_filter),
            }
        }
        assert_eq!(over_filter(&p), Some(2));
        // Nothing to drop, nothing inserted: the query's own projection.
        fn projects(p: &LogicalPlan) -> usize {
            usize::from(matches!(p, LogicalPlan::Project { .. }))
                + p.children().into_iter().map(projects).sum::<usize>()
        }
        assert_eq!(projects(&opt("select c0 from wide where c0 > 3")), 1);
    }

    #[test]
    fn count_star_keeps_one_column() {
        let p = opt("select count(*) from wide");
        assert_eq!(scan_projection(&p), Some(vec![0]));
    }

    #[test]
    fn aggregate_keeps_groups() {
        let p = opt("select c2, sum(c1) as s from wide group by c2");
        // Only c1 and c2 scanned.
        assert_eq!(scan_projection(&p), Some(vec![1, 2]));
    }

    #[test]
    fn full_width_scan_keeps_none_projection() {
        let p = opt("select c0, c1, c2, c3, c4 from wide");
        assert_eq!(scan_projection(&p), None);
    }

    #[test]
    fn sort_keys_counted_as_needed() {
        let p = opt("select c0 from wide order by c0 desc");
        assert_eq!(scan_projection(&p), Some(vec![0]));
    }
}
