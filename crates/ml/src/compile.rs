//! Hummingbird-style compilation of tree ensembles into tensor programs.
//!
//! Two strategies, mirroring Nakandala et al. (OSDI'20), which TQP
//! "integrates and expands" (paper §3.3):
//!
//! * **GEMM**: a tree becomes three matrix products —
//!   `S = 1[(X·A) < B]`, `P = S·C`, `Y = 1[P = D]·E`. Every input row
//!   evaluates *every* internal node; optimal for small/bushy trees on
//!   throughput-oriented hardware.
//! * **Traversal**: vectorized pointer chasing — per iteration, gather each
//!   row's current node, compare against its threshold, and advance to the
//!   left/right child; leaves self-loop. Work proportional to tree depth.
//!
//! Both read the `PREDICT` argument columns directly (no row-major design
//! matrix). `examples/scenario3.rs` compiles one GBT ensemble under both
//! strategies and compares their predictions in SQL.
//!
//! **How GEMM runs.** `A` is one-hot per internal node, so `X·A` is a
//! column gather: node `j` reads the one feature column it tests. (A
//! product would also multiply every other feature by zero, and a ±inf or
//! NaN there turns the row's sum into NaN and routes it wrong.) Compile
//! keeps only the nonzero entries of `C` — each leaf's path, `+1` where it
//! turns left and `-1` where it turns right. Rows then run in blocks of
//! `BLOCK_ROWS`, every tree in order over a block: `S` vectorised across
//! the block's rows, `P` summed from the path entries (small integers,
//! exact in any order), `e_l` added where `P == D` with a select instead of
//! a branch (exactly one leaf matches), and `lr × y` into the row's
//! accumulator. Per row these are the adds of the dense cascade in the
//! same order, so predictions are bit-for-bit the dense ones (the dense
//! cascade stays in the tests as the oracle), and the scratch is a few
//! block-sized vectors per call instead of `n × nodes` and `n × leaves`
//! matrices per tree.

use std::borrow::Cow;
use std::collections::HashMap;

use tqp_tensor::index::take;
use tqp_tensor::Tensor;

use crate::registry::Model;
use crate::tree::{DecisionTree, GradientBoostedTrees, RandomForest};
use crate::{feature_columns, matrix_columns};

/// Rows per GEMM block: the block's `S`, `P` and `Y` stay cache-resident
/// while every tree of the ensemble runs over it.
const BLOCK_ROWS: usize = 256;

/// Which tensor program to compile a tree into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeStrategy {
    Gemm,
    Traversal,
}

/// How ensemble member outputs combine.
#[derive(Debug, Clone, Copy)]
enum Combine {
    /// Mean (random forest / single tree).
    Mean,
    /// `base + lr * Σ` (gradient boosting).
    WeightedSum { base: f64, lr: f64 },
}

/// One tree compiled to the GEMM formulation, with `A` and `C` kept as
/// their nonzero entries.
#[derive(Debug, Clone)]
struct GemmTree {
    /// The feature column each internal node tests (`A`'s one-hot rows).
    feature: Vec<usize>,
    /// `(ni)` thresholds `B`.
    threshold: Vec<f64>,
    /// `C`'s nonzero entries by leaf: leaf `l`'s path is
    /// `path[path_start[l]..path_start[l + 1]]`, each entry an internal
    /// node and whether the path turns left (`+1`) or right (`-1`) there.
    path: Vec<(usize, bool)>,
    path_start: Vec<usize>,
    /// `(nl)` left-turn counts `D`.
    d: Vec<f64>,
    /// `(nl)` leaf values `E`.
    e: Vec<f64>,
    /// Constant shortcut for single-leaf trees.
    constant: Option<f64>,
}

/// Per-call scratch of the blocked GEMM evaluation.
struct GemmScratch {
    s: Vec<f64>,
    p: Vec<f64>,
    y: Vec<f64>,
}

impl GemmTree {
    fn compile(tree: &DecisionTree) -> GemmTree {
        let internal: Vec<usize> = (0..tree.n_nodes())
            .filter(|&i| tree.feature[i] != usize::MAX)
            .collect();
        let leaves: Vec<usize> = (0..tree.n_nodes())
            .filter(|&i| tree.feature[i] == usize::MAX)
            .collect();
        let mut g = GemmTree {
            feature: internal.iter().map(|&n| tree.feature[n]).collect(),
            threshold: internal.iter().map(|&n| tree.threshold[n]).collect(),
            path: Vec::new(),
            path_start: vec![0],
            d: Vec::with_capacity(leaves.len()),
            e: leaves.iter().map(|&n| tree.value[n]).collect(),
            constant: None,
        };
        if internal.is_empty() {
            g.constant = Some(tree.value[leaves[0]]);
            return g;
        }
        let node_to_internal: HashMap<usize, usize> = internal
            .iter()
            .enumerate()
            .map(|(pos, &n)| (n, pos))
            .collect();
        // Each leaf's root-to-leaf path fills its column of C and its D.
        let mut paths: Vec<Vec<(usize, bool)>> = vec![Vec::new(); tree.n_nodes()];
        let mut stack: Vec<(usize, Vec<(usize, bool)>)> = vec![(0, vec![])];
        while let Some((node, path)) = stack.pop() {
            if tree.feature[node] == usize::MAX {
                paths[node] = path;
                continue;
            }
            let mut lp = path.clone();
            lp.push((node_to_internal[&node], true));
            stack.push((tree.left[node], lp));
            let mut rp = path;
            rp.push((node_to_internal[&node], false));
            stack.push((tree.right[node], rp));
        }
        for &leaf in &leaves {
            let path = &paths[leaf];
            g.d.push(path.iter().filter(|(_, left)| *left).count() as f64);
            g.path.extend_from_slice(path);
            g.path_start.push(g.path.len());
        }
        g
    }

    /// Add `w × tree(row)` into `acc` for the rows `lo..lo + acc.len()`.
    fn add_block(
        &self,
        cols: &[Cow<'_, [f64]>],
        lo: usize,
        w: f64,
        acc: &mut [f64],
        scratch: &mut GemmScratch,
    ) {
        let rows = acc.len();
        if let Some(v) = self.constant {
            for a in acc {
                *a += w * v;
            }
            return;
        }
        // S = 1[X·A < B]: each node gathers the one column it tests.
        let s = &mut scratch.s[..self.feature.len() * rows];
        for ((sj, &f), &b) in s
            .chunks_exact_mut(rows)
            .zip(&self.feature)
            .zip(&self.threshold)
        {
            for (sv, &x) in sj.iter_mut().zip(&cols[f][lo..lo + rows]) {
                *sv = f64::from(x < b);
            }
        }
        // Y = 1[S·C = D]·E, leaf by leaf over C's nonzero entries.
        let (p, y) = (&mut scratch.p[..rows], &mut scratch.y[..rows]);
        y.fill(0.0);
        for (l, (&d, &e)) in self.d.iter().zip(&self.e).enumerate() {
            p.fill(0.0);
            for &(j, left) in &self.path[self.path_start[l]..self.path_start[l + 1]] {
                let sj = &s[j * rows..(j + 1) * rows];
                if left {
                    p.iter_mut().zip(sj).for_each(|(pv, &sv)| *pv += sv);
                } else {
                    p.iter_mut().zip(sj).for_each(|(pv, &sv)| *pv -= sv);
                }
            }
            for (yv, &pv) in y.iter_mut().zip(p.iter()) {
                *yv += if pv == d { e } else { 0.0 };
            }
        }
        for (a, &yv) in acc.iter_mut().zip(y.iter()) {
            *a += w * yv;
        }
    }
}

/// One tree compiled to the traversal formulation (index tensors).
#[derive(Debug, Clone)]
struct TraversalTree {
    feature: Tensor,
    threshold: Tensor,
    left: Tensor,
    right: Tensor,
    value: Tensor,
    depth: usize,
}

impl TraversalTree {
    fn compile(tree: &DecisionTree) -> TraversalTree {
        let feature: Vec<i64> = tree
            .feature
            .iter()
            .map(|&f| if f == usize::MAX { 0 } else { f as i64 })
            .collect();
        TraversalTree {
            feature: Tensor::from_i64(feature),
            threshold: Tensor::from_f64(tree.threshold.clone()),
            left: Tensor::from_i64(tree.left.iter().map(|&v| v as i64).collect()),
            right: Tensor::from_i64(tree.right.iter().map(|&v| v as i64).collect()),
            value: Tensor::from_f64(tree.value.clone()),
            depth: tree.depth(),
        }
    }

    fn predict(&self, cols: &[Cow<'_, [f64]>], n: usize) -> Tensor {
        let mut idx = Tensor::from_i64(vec![0i64; n]);
        for _ in 0..self.depth {
            let feat = take(&self.feature, &idx);
            let thr = take(&self.threshold, &idx);
            let lch = take(&self.left, &idx);
            let rch = take(&self.right, &idx);
            // Row-wise feature gather: x[i, feat[i]].
            let fv = feat.as_i64();
            let tv = thr.as_f64();
            let lv = lch.as_i64();
            let rv = rch.as_i64();
            let next: Vec<i64> = (0..n)
                .map(|i| {
                    if cols[fv[i] as usize][i] < tv[i] {
                        lv[i]
                    } else {
                        rv[i]
                    }
                })
                .collect();
            idx = Tensor::from_i64(next);
        }
        take(&self.value, &idx)
    }
}

/// An ensemble's members, compiled under one strategy.
enum Trees {
    Gemm(Vec<GemmTree>),
    Traversal(Vec<TraversalTree>),
}

/// A tree ensemble compiled into a tensor program under a chosen strategy.
/// Implements [`Model`], so it can be registered for SQL `PREDICT`.
pub struct CompiledTrees {
    trees: Trees,
    combine: Combine,
    n_features: usize,
}

impl CompiledTrees {
    fn compile(members: &[DecisionTree], strategy: TreeStrategy, combine: Combine) -> Self {
        CompiledTrees {
            trees: match strategy {
                TreeStrategy::Gemm => Trees::Gemm(members.iter().map(GemmTree::compile).collect()),
                TreeStrategy::Traversal => {
                    Trees::Traversal(members.iter().map(TraversalTree::compile).collect())
                }
            },
            combine,
            n_features: members[0].n_features,
        }
    }

    /// Compile a single decision tree.
    pub fn from_tree(tree: &DecisionTree, strategy: TreeStrategy) -> CompiledTrees {
        Self::compile(std::slice::from_ref(tree), strategy, Combine::Mean)
    }

    /// Compile a random forest (mean combination).
    pub fn from_forest(f: &RandomForest, strategy: TreeStrategy) -> CompiledTrees {
        Self::compile(&f.trees, strategy, Combine::Mean)
    }

    /// Compile a gradient-boosted ensemble.
    pub fn from_gbt(g: &GradientBoostedTrees, strategy: TreeStrategy) -> CompiledTrees {
        let combine = Combine::WeightedSum {
            base: g.base,
            lr: g.learning_rate,
        };
        Self::compile(&g.trees, strategy, combine)
    }

    /// The strategy this program was compiled under.
    pub fn strategy(&self) -> TreeStrategy {
        match self.trees {
            Trees::Gemm(_) => TreeStrategy::Gemm,
            Trees::Traversal(_) => TreeStrategy::Traversal,
        }
    }

    /// Predict over a `(n × k)` design matrix.
    pub fn predict_matrix(&self, x: &Tensor) -> Tensor {
        self.predict_columns(&matrix_columns(x))
    }

    /// `base + w × Σ tree(row)` per row, trees added in ensemble order.
    fn predict_columns(&self, cols: &[Cow<'_, [f64]>]) -> Tensor {
        assert_eq!(
            cols.len(),
            self.n_features,
            "model takes {} features",
            self.n_features
        );
        let n = cols[0].len();
        let (base, w) = match self.combine {
            Combine::Mean => (0.0, 1.0 / self.len() as f64),
            Combine::WeightedSum { base, lr } => (base, lr),
        };
        let mut acc = vec![base; n];
        match &self.trees {
            Trees::Gemm(trees) => {
                let nodes = trees.iter().map(|t| t.feature.len()).max().unwrap_or(0);
                let mut scratch = GemmScratch {
                    s: vec![0.0; nodes * BLOCK_ROWS.min(n)],
                    p: vec![0.0; BLOCK_ROWS.min(n)],
                    y: vec![0.0; BLOCK_ROWS.min(n)],
                };
                for (b, block) in acc.chunks_mut(BLOCK_ROWS).enumerate() {
                    for t in trees {
                        t.add_block(cols, b * BLOCK_ROWS, w, block, &mut scratch);
                    }
                }
            }
            Trees::Traversal(trees) => {
                for t in trees {
                    for (a, &v) in acc.iter_mut().zip(t.predict(cols, n).as_f64()) {
                        *a += w * v;
                    }
                }
            }
        }
        Tensor::from_f64(acc)
    }

    fn len(&self) -> usize {
        match &self.trees {
            Trees::Gemm(t) => t.len(),
            Trees::Traversal(t) => t.len(),
        }
    }
}

impl Model for CompiledTrees {
    fn family(&self) -> &'static str {
        match self.strategy() {
            TreeStrategy::Gemm => "trees[gemm]",
            TreeStrategy::Traversal => "trees[traversal]",
        }
    }
    fn n_inputs(&self) -> usize {
        self.n_features
    }
    fn predict(&self, inputs: &[Tensor]) -> Tensor {
        self.predict_columns(&feature_columns(inputs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeParams;
    use tqp_tensor::gemm::matmul_f64;

    fn synth(n: usize, k: usize) -> (Tensor, Tensor) {
        let mut xs = Vec::with_capacity(n * k);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let mut acc = 0.0;
            for j in 0..k {
                let v = (((i * 31 + j * 17) % 97) as f64) / 97.0;
                xs.push(v);
                acc += if j % 2 == 0 { v } else { -v };
            }
            ys.push(if acc > 0.2 { 1.0 } else { 0.0 });
        }
        (Tensor::from_f64_matrix(xs, n, k), Tensor::from_f64(ys))
    }

    /// The dense GEMM cascade the blocked evaluation replaces — `X·A` and
    /// `S·C` as full matrix products over `A`/`C` rebuilt from the
    /// compiled nonzeros: the oracle for finite inputs.
    fn dense_gemm(g: &GemmTree, x: &Tensor) -> Vec<f64> {
        let (n, k) = (x.shape()[0], x.shape()[1]);
        if let Some(v) = g.constant {
            return vec![v; n];
        }
        let (ni, nl) = (g.feature.len(), g.e.len());
        let mut a = vec![0f64; k * ni];
        for (j, &f) in g.feature.iter().enumerate() {
            a[f * ni + j] = 1.0;
        }
        let mut c = vec![0f64; ni * nl];
        for l in 0..nl {
            for &(j, left) in &g.path[g.path_start[l]..g.path_start[l + 1]] {
                c[j * nl + l] = if left { 1.0 } else { -1.0 };
            }
        }
        let t = matmul_f64(x, &Tensor::from_f64_matrix(a, k, ni));
        let s: Vec<f64> = t
            .as_f64()
            .iter()
            .enumerate()
            .map(|(i, &v)| f64::from(v < g.threshold[i % ni]))
            .collect();
        let p = matmul_f64(
            &Tensor::from_f64_matrix(s, n, ni),
            &Tensor::from_f64_matrix(c, ni, nl),
        );
        let pv = p.as_f64();
        let mut y = vec![0f64; n];
        for i in 0..n {
            for l in 0..nl {
                if pv[i * nl + l] == g.d[l] {
                    y[i] += g.e[l];
                }
            }
        }
        y
    }

    /// `base + lr × Σ tree(row)` from the row-at-a-time reference, trees in
    /// ensemble order (the compiled programs' add order).
    fn gbt_reference(g: &GradientBoostedTrees, x: &Tensor) -> Vec<f64> {
        let mut out = vec![g.base; x.shape()[0]];
        for t in &g.trees {
            for (o, v) in out.iter_mut().zip(t.predict_matrix_reference(x).as_f64()) {
                *o += g.learning_rate * v;
            }
        }
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Three informative features and a constant fourth no tree can split
    /// on, so probes may carry anything in feature 3.
    fn training_set(n: usize) -> (Tensor, Tensor) {
        let mut xs = Vec::with_capacity(n * 4);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let a = ((i * 37) % 101) as f64 / 10.0;
            let b = ((i * 53) % 89) as f64 - 40.0;
            let c = ((i * 11) % 7) as f64;
            xs.extend_from_slice(&[a, b, c, 1.0]);
            ys.push(a * a - 0.5 * b + if c > 3.0 { 7.0 } else { -2.0 });
        }
        (Tensor::from_f64_matrix(xs, n, 4), Tensor::from_f64(ys))
    }

    /// Probe rows off the training grid, with ±inf and NaN in the unused
    /// feature on three rows of every four.
    fn probes(n: usize) -> Tensor {
        let mut xs = Vec::with_capacity(n * 4);
        for i in 0..n {
            let unused = [1.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN][i % 4];
            xs.extend_from_slice(&[
                ((i * 7) % 113) as f64 / 11.0,
                ((i * 29) % 97) as f64 - 45.5,
                ((i * 3) % 9) as f64 - 0.5,
                unused,
            ]);
        }
        Tensor::from_f64_matrix(xs, n, 4)
    }

    /// Gemm ≡ Traversal ≡ the row-at-a-time reference, bitwise, for
    /// ensembles of depth 1–8 and 1–64 trees, on rows spanning several
    /// blocks — including rows with ±inf/NaN in a feature no node tests.
    #[test]
    fn strategies_match_reference_bitwise_across_depths_and_sizes() {
        let (x, y) = training_set(300);
        let probe = probes(BLOCK_ROWS + 17);
        for depth in 1..=8 {
            let params = TreeParams {
                max_depth: depth,
                min_samples_split: 2,
            };
            let full = GradientBoostedTrees::fit(&x, &y, 64, 0.3, params);
            assert!(full.trees.iter().any(|t| t.depth() == depth));
            for n_trees in [1, 7, 64] {
                let g = GradientBoostedTrees {
                    trees: full.trees[..n_trees].to_vec(),
                    ..full.clone()
                };
                for rows in [&x, &probe] {
                    let reference = bits(&gbt_reference(&g, rows));
                    for strategy in [TreeStrategy::Gemm, TreeStrategy::Traversal] {
                        let got = CompiledTrees::from_gbt(&g, strategy).predict_matrix(rows);
                        assert_eq!(
                            bits(got.as_f64()),
                            reference,
                            "{strategy:?}, depth {depth}, {n_trees} trees"
                        );
                    }
                }
            }
        }
    }

    /// On finite inputs the blocked evaluation is the dense cascade's
    /// arithmetic, bit for bit.
    #[test]
    fn blocked_gemm_matches_dense_cascade_bitwise() {
        let (x, y) = synth(2 * BLOCK_ROWS + 5, 4);
        let tree = DecisionTree::fit(
            &x,
            &y,
            TreeParams {
                max_depth: 6,
                min_samples_split: 2,
            },
        );
        let compiled = CompiledTrees::from_tree(&tree, TreeStrategy::Gemm);
        let Trees::Gemm(trees) = &compiled.trees else {
            unreachable!()
        };
        let dense: Vec<f64> = dense_gemm(&trees[0], &x)
            .into_iter()
            .map(|v| 0.0 + 1.0 * v)
            .collect();
        assert_eq!(bits(compiled.predict_matrix(&x).as_f64()), bits(&dense));
    }

    /// Regression: a product `X·A` multiplied an infinite feature the node
    /// does not test by zero, got NaN, and routed the row right.
    #[test]
    fn gemm_ignores_non_finite_features_a_node_does_not_test() {
        // One split on feature 0 at 10.0: left leaf 0.0, right leaf 1.0.
        let tree = DecisionTree {
            feature: vec![0, usize::MAX, usize::MAX],
            threshold: vec![10.0, 0.0, 0.0],
            left: vec![1, 1, 2],
            right: vec![2, 1, 2],
            value: vec![0.0, 0.0, 1.0],
            n_features: 2,
        };
        let row = Tensor::from_f64_matrix(vec![5.0, f64::INFINITY], 1, 2);
        assert_eq!(tree.predict_matrix_reference(&row).as_f64(), &[0.0]);
        for strategy in [TreeStrategy::Gemm, TreeStrategy::Traversal] {
            let got = CompiledTrees::from_tree(&tree, strategy).predict_matrix(&row);
            assert_eq!(got.as_f64(), &[0.0], "{strategy:?}");
        }
        // The dense cascade shows the defect the gather removes.
        let compiled = CompiledTrees::from_tree(&tree, TreeStrategy::Gemm);
        let Trees::Gemm(trees) = &compiled.trees else {
            unreachable!()
        };
        assert_eq!(dense_gemm(&trees[0], &row), vec![1.0]);
    }

    #[test]
    fn gemm_matches_reference_exactly() {
        let (x, y) = synth(300, 4);
        let tree = DecisionTree::fit(
            &x,
            &y,
            TreeParams {
                max_depth: 5,
                min_samples_split: 2,
            },
        );
        let compiled = CompiledTrees::from_tree(&tree, TreeStrategy::Gemm);
        let reference = tree.predict_matrix_reference(&x);
        let got = compiled.predict_matrix(&x);
        assert_eq!(got.as_f64(), reference.as_f64());
    }

    #[test]
    fn traversal_matches_reference_exactly() {
        let (x, y) = synth(300, 4);
        let tree = DecisionTree::fit(
            &x,
            &y,
            TreeParams {
                max_depth: 7,
                min_samples_split: 2,
            },
        );
        let compiled = CompiledTrees::from_tree(&tree, TreeStrategy::Traversal);
        let reference = tree.predict_matrix_reference(&x);
        let got = compiled.predict_matrix(&x);
        assert_eq!(got.as_f64(), reference.as_f64());
    }

    #[test]
    fn strategies_agree_on_forest() {
        let (x, y) = synth(200, 3);
        let f = crate::tree::RandomForest::fit(&x, &y, 4, TreeParams::default(), 11);
        let g = CompiledTrees::from_forest(&f, TreeStrategy::Gemm).predict_matrix(&x);
        let t = CompiledTrees::from_forest(&f, TreeStrategy::Traversal).predict_matrix(&x);
        assert_eq!(bits(g.as_f64()), bits(t.as_f64()));
    }

    #[test]
    fn columns_in_equals_design_matrix_in() {
        let (x, y) = synth(150, 3);
        let g = GradientBoostedTrees::fit(&x, &y, 10, 0.3, TreeParams::default());
        let cols: Vec<Tensor> = (0..3)
            .map(|j| Tensor::from_f64(x.as_f64().iter().skip(j).step_by(3).copied().collect()))
            .collect();
        for strategy in [TreeStrategy::Gemm, TreeStrategy::Traversal] {
            let compiled = CompiledTrees::from_gbt(&g, strategy);
            assert_eq!(
                bits(compiled.predict(&cols).as_f64()),
                bits(&gbt_reference(&g, &x)),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn constant_tree_handled() {
        let x = Tensor::from_f64_matrix(vec![1.0, 2.0], 2, 1);
        let y = Tensor::from_f64(vec![3.0, 3.0]);
        let tree = DecisionTree::fit(
            &x,
            &y,
            TreeParams {
                max_depth: 0,
                min_samples_split: 2,
            },
        );
        let g = CompiledTrees::from_tree(&tree, TreeStrategy::Gemm).predict_matrix(&x);
        assert_eq!(g.as_f64(), &[3.0, 3.0]);
        let t = CompiledTrees::from_tree(&tree, TreeStrategy::Traversal).predict_matrix(&x);
        assert_eq!(t.as_f64(), &[3.0, 3.0]);
    }
}
