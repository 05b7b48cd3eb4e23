//! Dense matrix multiplication.
//!
//! GEMM is the backbone of the Hummingbird-style model compilation the
//! paper inherits (§3.3, "TQP integrates and expands Hummingbird"): a
//! network's layers are matrix products, and so is the dense form of a
//! compiled decision tree (which `tqp-ml` evaluates sparsely and keeps
//! this kernel for as its test oracle). The kernel is a cache-friendly
//! i-k-j loop.

use crate::tensor::Tensor;

/// `C = A @ B` for rank-2 `F64` tensors: `(n×k) @ (k×m) -> (n×m)`.
pub fn matmul_f64(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2, "matmul lhs must be rank-2");
    assert_eq!(b.shape().len(), 2, "matmul rhs must be rank-2");
    let (n, k) = (a.shape()[0], a.shape()[1]);
    let (k2, m) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
    let av = a.as_f64();
    let bv = b.as_f64();
    let mut out = vec![0f64; n * m];
    // i-k-j order keeps B row-contiguous in the inner loop so the
    // compiler can vectorize it.
    for i in 0..n {
        let arow = &av[i * k..(i + 1) * k];
        let crow = &mut out[i * m..(i + 1) * m];
        for (kk, &aik) in arow.iter().enumerate() {
            if aik == 0.0 {
                continue; // tree one-hot matrices are sparse
            }
            let brow = &bv[kk * m..(kk + 1) * m];
            for (c, &bkj) in crow.iter_mut().zip(brow) {
                *c += aik * bkj;
            }
        }
    }
    Tensor::from_f64_matrix(out, n, m)
}

/// Row-wise argmax of a rank-2 `F64` matrix -> rank-1 `I64` class ids.
pub fn argmax_rows(a: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2, "argmax_rows needs rank-2");
    let (n, m) = (a.shape()[0], a.shape()[1]);
    let av = a.as_f64();
    let mut out = vec![0i64; n];
    for i in 0..n {
        let row = &av[i * m..(i + 1) * m];
        let mut best = 0usize;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        out[i] = best as i64;
    }
    Tensor::from_i64(out)
}

/// Element-wise ReLU on `F64` tensors.
pub fn relu(t: &Tensor) -> Tensor {
    let x = t.to_f64_vec();
    let v: Vec<f64> = x.into_iter().map(|v| v.max(0.0)).collect();
    if t.shape().len() == 2 {
        Tensor::from_f64_matrix(v, t.shape()[0], t.shape()[1])
    } else {
        Tensor::from_f64(v)
    }
}

/// Row-wise softmax of a rank-2 `F64` matrix (numerically stabilized).
pub fn softmax_rows(a: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2, "softmax_rows needs rank-2");
    let (n, m) = (a.shape()[0], a.shape()[1]);
    let av = a.as_f64();
    let mut out = vec![0f64; n * m];
    for i in 0..n {
        let row = &av[i * m..(i + 1) * m];
        let mx = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut denom = 0.0;
        for (j, &v) in row.iter().enumerate() {
            let e = (v - mx).exp();
            out[i * m + j] = e;
            denom += e;
        }
        for j in 0..m {
            out[i * m + j] /= denom;
        }
    }
    Tensor::from_f64_matrix(out, n, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_f64_matrix(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let i = Tensor::from_f64_matrix(vec![1.0, 0.0, 0.0, 1.0], 2, 2);
        assert_eq!(matmul_f64(&a, &i).as_f64(), a.as_f64());
    }

    #[test]
    fn matmul_rectangular() {
        // (2x3) @ (3x2)
        let a = Tensor::from_f64_matrix(vec![1., 2., 3., 4., 5., 6.], 2, 3);
        let b = Tensor::from_f64_matrix(vec![7., 8., 9., 10., 11., 12.], 3, 2);
        let c = matmul_f64(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_f64(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_vs_naive_random() {
        let (n, k, m) = (17, 13, 9);
        let av: Vec<f64> = (0..n * k)
            .map(|i| ((i * 31 + 7) % 23) as f64 - 11.0)
            .collect();
        let bv: Vec<f64> = (0..k * m)
            .map(|i| ((i * 17 + 3) % 19) as f64 - 9.0)
            .collect();
        let a = Tensor::from_f64_matrix(av.clone(), n, k);
        let b = Tensor::from_f64_matrix(bv.clone(), k, m);
        let c = matmul_f64(&a, &b);
        for i in 0..n {
            for j in 0..m {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += av[i * k + kk] * bv[kk * m + j];
                }
                assert!((c.as_f64()[i * m + j] - acc).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn argmax_and_softmax() {
        let a = Tensor::from_f64_matrix(vec![0.1, 0.9, 5.0, -1.0], 2, 2);
        assert_eq!(argmax_rows(&a).as_i64(), &[1, 0]);
        let sm = softmax_rows(&a);
        let row0: f64 = sm.as_f64()[..2].iter().sum();
        assert!((row0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn activations() {
        let t = Tensor::from_f64(vec![-1.0, 0.0, 2.0]);
        assert_eq!(relu(&t).as_f64(), &[0.0, 0.0, 2.0]);
    }
}
