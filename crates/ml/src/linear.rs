//! Linear and logistic regression: gradient-descent training, pure-tensor
//! inference (`X @ w + b`, optionally a sigmoid). The scikit-learn stand-in
//! for the paper's Iris regression scenario (§3.3).
//!
//! Inference reads the feature columns directly: one pass per column
//! adds `((x - mean) / std) * w` into a per-row accumulator that starts at
//! the bias — per row, the same adds in the same order as standardizing a
//! design matrix and taking its matrix-vector product.

use std::borrow::Cow;

use tqp_tensor::Tensor;

use crate::registry::Model;
use crate::{feature_columns, matrix_columns};

/// Feature standardization parameters learned at fit time.
#[derive(Debug, Clone)]
struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    fn fit(x: &Tensor) -> Standardizer {
        let (n, k) = (x.shape()[0], x.shape()[1]);
        let xv = x.as_f64();
        let mut means = vec![0f64; k];
        for i in 0..n {
            for j in 0..k {
                means[j] += xv[i * k + j];
            }
        }
        for m in &mut means {
            *m /= n.max(1) as f64;
        }
        let mut stds = vec![0f64; k];
        for i in 0..n {
            for j in 0..k {
                let d = xv[i * k + j] - means[j];
                stds[j] += d * d;
            }
        }
        for s in &mut stds {
            *s = (*s / n.max(1) as f64).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Standardizer { means, stds }
    }

    /// `bias + Σ_j ((x_j - mean_j) / std_j) * w_j` per row, `j` ascending.
    fn linear(&self, cols: &[Cow<'_, [f64]>], weights: &[f64], bias: f64) -> Vec<f64> {
        assert_eq!(
            cols.len(),
            weights.len(),
            "model takes {} features",
            weights.len()
        );
        let mut acc = vec![bias; cols[0].len()];
        for (j, col) in cols.iter().enumerate() {
            let (m, s, w) = (self.means[j], self.stds[j], weights[j]);
            for (a, &x) in acc.iter_mut().zip(col.iter()) {
                *a += (x - m) / s * w;
            }
        }
        acc
    }

    fn apply(&self, x: &Tensor) -> Tensor {
        let (n, k) = (x.shape()[0], x.shape()[1]);
        let xv = x.as_f64();
        let mut out = vec![0f64; n * k];
        for i in 0..n {
            for j in 0..k {
                out[i * k + j] = (xv[i * k + j] - self.means[j]) / self.stds[j];
            }
        }
        Tensor::from_f64_matrix(out, n, k)
    }
}

/// Ordinary least squares fit by batch gradient descent.
#[derive(Debug, Clone)]
pub struct LinearRegression {
    weights: Vec<f64>,
    bias: f64,
    norm: Standardizer,
}

impl LinearRegression {
    /// Fit on a `(n × k)` design matrix and length-n target vector.
    pub fn fit(x: &Tensor, y: &Tensor, epochs: usize, lr: f64) -> LinearRegression {
        let norm = Standardizer::fit(x);
        let xs = norm.apply(x);
        let (n, k) = (xs.shape()[0], xs.shape()[1]);
        let xv = xs.as_f64();
        let yv = y.to_f64_vec();
        let mut w = vec![0f64; k];
        let mut b = 0f64;
        for _ in 0..epochs {
            let mut gw = vec![0f64; k];
            let mut gb = 0f64;
            for i in 0..n {
                let row = &xv[i * k..(i + 1) * k];
                let pred: f64 = b + row.iter().zip(&w).map(|(x, w)| x * w).sum::<f64>();
                let err = pred - yv[i];
                for j in 0..k {
                    gw[j] += err * row[j];
                }
                gb += err;
            }
            let scale = lr / n.max(1) as f64;
            for j in 0..k {
                w[j] -= scale * gw[j];
            }
            b -= scale * gb;
        }
        LinearRegression {
            weights: w,
            bias: b,
            norm,
        }
    }

    /// Predict on a design matrix.
    pub fn predict_matrix(&self, x: &Tensor) -> Tensor {
        Tensor::from_f64(
            self.norm
                .linear(&matrix_columns(x), &self.weights, self.bias),
        )
    }

    /// Mean squared error on a dataset.
    pub fn mse(&self, x: &Tensor, y: &Tensor) -> f64 {
        let p = self.predict_matrix(x);
        let pv = p.as_f64();
        let yv = y.to_f64_vec();
        pv.iter()
            .zip(&yv)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / yv.len().max(1) as f64
    }
}

impl Model for LinearRegression {
    fn family(&self) -> &'static str {
        "linear_regression"
    }
    fn n_inputs(&self) -> usize {
        self.weights.len()
    }
    fn predict(&self, inputs: &[Tensor]) -> Tensor {
        Tensor::from_f64(
            self.norm
                .linear(&feature_columns(inputs), &self.weights, self.bias),
        )
    }
}

/// Binary logistic regression (labels 0/1), gradient descent on log-loss.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
    norm: Standardizer,
    /// When true, `predict` returns the hard 0/1 label instead of the
    /// probability (SQL `PREDICT` in the Figure 4 query sums labels).
    pub hard_labels: bool,
}

impl LogisticRegression {
    /// Fit on a `(n × k)` design matrix and 0/1 targets.
    pub fn fit(x: &Tensor, y: &Tensor, epochs: usize, lr: f64) -> LogisticRegression {
        let norm = Standardizer::fit(x);
        let xs = norm.apply(x);
        let (n, k) = (xs.shape()[0], xs.shape()[1]);
        let xv = xs.as_f64();
        let yv = y.to_f64_vec();
        let mut w = vec![0f64; k];
        let mut b = 0f64;
        for _ in 0..epochs {
            let mut gw = vec![0f64; k];
            let mut gb = 0f64;
            for i in 0..n {
                let row = &xv[i * k..(i + 1) * k];
                let z: f64 = b + row.iter().zip(&w).map(|(x, w)| x * w).sum::<f64>();
                let p = 1.0 / (1.0 + (-z).exp());
                let err = p - yv[i];
                for j in 0..k {
                    gw[j] += err * row[j];
                }
                gb += err;
            }
            let scale = lr / n.max(1) as f64;
            for j in 0..k {
                w[j] -= scale * gw[j];
            }
            b -= scale * gb;
        }
        LogisticRegression {
            weights: w,
            bias: b,
            norm,
            hard_labels: true,
        }
    }

    /// Class-1 probabilities.
    pub fn predict_proba(&self, x: &Tensor) -> Tensor {
        Tensor::from_f64(self.proba(&matrix_columns(x)))
    }

    fn proba(&self, cols: &[Cow<'_, [f64]>]) -> Vec<f64> {
        let mut z = self.norm.linear(cols, &self.weights, self.bias);
        for v in &mut z {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
        z
    }

    /// Classification accuracy against 0/1 targets.
    pub fn accuracy(&self, x: &Tensor, y: &Tensor) -> f64 {
        let p = self.predict_proba(x);
        let yv = y.to_f64_vec();
        let hits = p
            .as_f64()
            .iter()
            .zip(&yv)
            .filter(|(p, y)| (**p >= 0.5) == (**y >= 0.5))
            .count();
        hits as f64 / yv.len().max(1) as f64
    }
}

impl Model for LogisticRegression {
    fn family(&self) -> &'static str {
        "logistic_regression"
    }
    fn n_inputs(&self) -> usize {
        self.weights.len()
    }
    fn predict(&self, inputs: &[Tensor]) -> Tensor {
        let mut p = self.proba(&feature_columns(inputs));
        if self.hard_labels {
            for v in &mut p {
                *v = f64::from(*v >= 0.5);
            }
        }
        Tensor::from_f64(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth_linear(n: usize) -> (Tensor, Tensor) {
        // y = 2*x0 - 3*x1 + 1
        let mut xs = Vec::with_capacity(n * 2);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let x0 = (i % 17) as f64 / 3.0;
            let x1 = (i % 5) as f64 - 2.0;
            xs.push(x0);
            xs.push(x1);
            ys.push(2.0 * x0 - 3.0 * x1 + 1.0);
        }
        (Tensor::from_f64_matrix(xs, n, 2), Tensor::from_f64(ys))
    }

    #[test]
    fn linear_recovers_relationship() {
        let (x, y) = synth_linear(200);
        let m = LinearRegression::fit(&x, &y, 500, 0.5);
        assert!(m.mse(&x, &y) < 1e-3, "mse {}", m.mse(&x, &y));
    }

    #[test]
    fn linear_model_trait() {
        let (x, y) = synth_linear(100);
        let m = LinearRegression::fit(&x, &y, 500, 0.5);
        let a = Tensor::from_f64(vec![1.0, 2.0]);
        let b = Tensor::from_f64(vec![0.0, 1.0]);
        let out = m.predict(&[a, b]);
        assert_eq!(out.nrows(), 2);
        assert!((out.as_f64()[0] - 3.0).abs() < 0.1); // 2*1 - 3*0 + 1
    }

    /// Columns-in inference is bit-for-bit the old path: standardize a
    /// design matrix, then `bias + Σ xs[i, j] * w[j]` per row.
    #[test]
    fn columns_in_matches_design_matrix_matvec_bitwise() {
        let (x, y) = synth_linear(300);
        let m = LinearRegression::fit(&x, &y, 50, 0.3);
        let xs = m.norm.apply(&x);
        let k = m.weights.len();
        let reference: Vec<u64> = xs
            .as_f64()
            .chunks(k)
            .map(|row| {
                let mut acc = m.bias;
                for (a, w) in row.iter().zip(&m.weights) {
                    acc += a * w;
                }
                acc.to_bits()
            })
            .collect();
        let cols: Vec<Tensor> = (0..k)
            .map(|j| Tensor::from_f64(x.as_f64().iter().skip(j).step_by(k).copied().collect()))
            .collect();
        for got in [m.predict(&cols), m.predict_matrix(&x)] {
            let bits: Vec<u64> = got.as_f64().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, reference);
        }
    }

    #[test]
    fn logistic_separates() {
        // Separable: class = x0 > 1.
        let n = 300;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let x0 = (i % 20) as f64 / 10.0; // 0 .. 1.9
            let x1 = ((i * 7) % 13) as f64;
            xs.push(x0);
            xs.push(x1);
            ys.push(f64::from(x0 > 1.0));
        }
        let x = Tensor::from_f64_matrix(xs, n, 2);
        let y = Tensor::from_f64(ys);
        let m = LogisticRegression::fit(&x, &y, 800, 1.0);
        assert!(m.accuracy(&x, &y) > 0.95, "acc {}", m.accuracy(&x, &y));
    }

    #[test]
    fn logistic_hard_labels() {
        let (x, _) = synth_linear(50);
        let y = Tensor::from_f64(vec![1.0; 50]);
        let m = LogisticRegression::fit(&x, &y, 100, 1.0);
        let out = m.predict(&[Tensor::from_f64(vec![1.0]), Tensor::from_f64(vec![1.0])]);
        assert!(out.as_f64()[0] == 0.0 || out.as_f64()[0] == 1.0);
    }
}
