//! Text classification over TQP's padded-byte string tensors: the
//! `sentiment_classifier` of the paper's Figure 4.
//!
//! The paper demos HuggingFace transformers; the reproduction substitutes a
//! hashed bag-of-words + logistic head (an EmbeddingBag-style model): the
//! same code path — a string *tensor* flows into an ML operator inside the
//! relational plan — with a laptop-trainable model. Tokenization itself is
//! implemented over the `(n × m)` byte matrix, so text never leaves tensor
//! land.
//!
//! **Sparse scoring.** A review touches a few dozen of the `2^bits` feature
//! buckets, so a row is featurized as its sorted bucket list (tokens hashed
//! with lower-casing folded into the FNV-1a loop — no allocation per token)
//! and scored as `Σ count × weights[bucket]` over the touched buckets in
//! ascending bucket order. That is the dense dot product with its
//! `0.0 × w` terms left out: dropping them moves at most the sign of a zero
//! partial sum, which `sigmoid` cannot see, so probabilities — and the
//! weights training derives from them — are bit-for-bit those of the dense
//! formulation (kept in the tests as the oracle). Training and scoring
//! share the one featurizer.

use tqp_tensor::Tensor;

use crate::registry::Model;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Tokenize one row (ASCII-alphanumeric runs, case-folded) into the FNV-1a
/// bucket of each token, sorted ascending so equal buckets are adjacent.
fn row_buckets(row: &[u8], bits: u32, out: &mut Vec<u32>) {
    out.clear();
    let mask = (1u64 << bits) - 1;
    let mut h = FNV_OFFSET;
    let mut in_token = false;
    for &b in row {
        if b.is_ascii_alphanumeric() {
            h = (h ^ u64::from(b.to_ascii_lowercase())).wrapping_mul(FNV_PRIME);
            in_token = true;
        } else if in_token {
            out.push((h & mask) as u32);
            h = FNV_OFFSET;
            in_token = false;
        }
    }
    if in_token {
        out.push((h & mask) as u32);
    }
    out.sort_unstable();
}

/// Visit each distinct bucket of a sorted bucket list with its count, in
/// ascending bucket order.
fn for_each_count(buckets: &[u32], mut f: impl FnMut(usize, f64)) {
    let mut i = 0;
    while i < buckets.len() {
        let b = buckets[i];
        let mut j = i + 1;
        while j < buckets.len() && buckets[j] == b {
            j += 1;
        }
        f(b as usize, (j - i) as f64);
        i = j;
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Hashed bag-of-words binary sentiment classifier.
#[derive(Debug, Clone)]
pub struct TextClassifier {
    bits: u32,
    weights: Vec<f64>,
    bias: f64,
    /// Return hard 0/1 labels (the Figure 4 query sums predictions).
    pub hard_labels: bool,
}

impl TextClassifier {
    /// Train by SGD on log-loss. `texts` is an `(n × m)` byte matrix,
    /// `labels` 0/1. Each step reads and updates only the row's buckets.
    #[allow(clippy::needless_range_loop)] // `i` addresses rows of two parallel tensors
    pub fn fit(texts: &Tensor, labels: &Tensor, bits: u32, epochs: usize, lr: f64) -> Self {
        let yv = labels.to_f64_vec();
        let mut w = vec![0f64; 1usize << bits];
        let mut b = 0f64;
        let mut buckets = Vec::new();
        for _ in 0..epochs {
            for i in 0..texts.nrows() {
                row_buckets(texts.str_row_trimmed(i), bits, &mut buckets);
                let err = sigmoid(b + sparse_dot(&buckets, &w)) - yv[i];
                for_each_count(&buckets, |j, count| w[j] -= lr * err * count);
                b -= lr * err;
            }
        }
        TextClassifier {
            bits,
            weights: w,
            bias: b,
            hard_labels: true,
        }
    }

    /// Class-1 probability per row of a string tensor.
    pub fn predict_proba(&self, texts: &Tensor) -> Tensor {
        let mut buckets = Vec::new();
        let out = (0..texts.nrows())
            .map(|i| {
                row_buckets(texts.str_row_trimmed(i), self.bits, &mut buckets);
                sigmoid(self.bias + sparse_dot(&buckets, &self.weights))
            })
            .collect();
        Tensor::from_f64(out)
    }

    /// Accuracy against 0/1 labels.
    pub fn accuracy(&self, texts: &Tensor, labels: &Tensor) -> f64 {
        let p = self.predict_proba(texts);
        let yv = labels.to_f64_vec();
        let hits = p
            .as_f64()
            .iter()
            .zip(&yv)
            .filter(|(p, y)| (**p >= 0.5) == (**y >= 0.5))
            .count();
        hits as f64 / yv.len().max(1) as f64
    }
}

/// `Σ count × w[bucket]` over a row's touched buckets, ascending.
fn sparse_dot(buckets: &[u32], w: &[f64]) -> f64 {
    let mut z = 0.0;
    for_each_count(buckets, |j, count| z += count * w[j]);
    z
}

impl Model for TextClassifier {
    fn family(&self) -> &'static str {
        "text_classifier"
    }
    fn n_inputs(&self) -> usize {
        1
    }
    fn predict(&self, inputs: &[Tensor]) -> Tensor {
        assert_eq!(inputs.len(), 1, "text classifier takes one string column");
        let p = self.predict_proba(&inputs[0]);
        if self.hard_labels {
            Tensor::from_f64(p.as_f64().iter().map(|&v| f64::from(v >= 0.5)).collect())
        } else {
            p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hash a token into one of `2^bits` feature buckets (FNV-1a).
    fn bucket(token: &[u8], bits: u32) -> usize {
        let mut h = FNV_OFFSET;
        for &b in token {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        (h & ((1 << bits) - 1)) as usize
    }

    /// The dense featurizer the sparse one replaces: the oracle.
    fn featurize_row(text: &Tensor, i: usize, bits: u32, out: &mut [f64]) {
        for x in out.iter_mut() {
            *x = 0.0;
        }
        let row = text.str_row_trimmed(i);
        for tok in row
            .split(|&b| !b.is_ascii_alphanumeric())
            .filter(|t| !t.is_empty())
        {
            let lower: Vec<u8> = tok.iter().map(|b| b.to_ascii_lowercase()).collect();
            out[bucket(&lower, bits)] += 1.0;
        }
    }

    fn dense_dot(feats: &[f64], w: &[f64]) -> f64 {
        feats.iter().zip(w).map(|(x, w)| x * w).sum::<f64>()
    }

    /// Dense SGD training, the formulation `fit` must reproduce bitwise.
    fn fit_dense(
        texts: &Tensor,
        labels: &Tensor,
        bits: u32,
        epochs: usize,
        lr: f64,
    ) -> (Vec<f64>, f64) {
        let yv = labels.to_f64_vec();
        let mut w = vec![0f64; 1 << bits];
        let mut b = 0f64;
        let mut feats = vec![0f64; 1 << bits];
        for _ in 0..epochs {
            for (i, &y) in yv.iter().enumerate() {
                featurize_row(texts, i, bits, &mut feats);
                let p = 1.0 / (1.0 + (-(b + dense_dot(&feats, &w))).exp());
                let err = p - y;
                for (wj, &xj) in w.iter_mut().zip(&feats) {
                    if xj != 0.0 {
                        *wj -= lr * err * xj;
                    }
                }
                b -= lr * err;
            }
        }
        (w, b)
    }

    /// A seeded corpus of mixed-case, punctuated reviews with repeated
    /// words (counts above one) and empty rows.
    fn corpus(n: usize) -> (Tensor, Tensor) {
        let words = [
            "Great", "awful", "GREAT", "value", "Broke", "love", "refund", "ok", "the", "it",
            "5stars", "meh", "",
        ];
        let mut seed = 0x5eed_u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        let mut texts = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let len = next() % 12;
            let mut s = String::new();
            let mut score = 0i32;
            for _ in 0..len {
                let w = words[next() % words.len()];
                score += match w.to_ascii_lowercase().as_str() {
                    "great" | "love" | "5stars" => 1,
                    "awful" | "broke" | "refund" => -1,
                    _ => 0,
                };
                s.push_str(w);
                s.push_str([" ", ", ", "! ", "..."][next() % 4]);
            }
            texts.push(s);
            labels.push(f64::from(score >= 0));
        }
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        (Tensor::from_strings(&refs, 1), Tensor::from_f64(labels))
    }

    #[test]
    fn bucket_is_stable_and_bounded() {
        let a = bucket(b"great", 10);
        assert_eq!(a, bucket(b"great", 10));
        assert!(a < 1024);
        assert_ne!(bucket(b"great", 10), bucket(b"awful", 10));
    }

    #[test]
    fn learns_simple_sentiment() {
        let pos = [
            "great product love it",
            "excellent quality recommend",
            "amazing fast perfect",
        ];
        let neg = [
            "terrible broke refund",
            "awful waste disappointed",
            "poor quality worst",
        ];
        let mut texts = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..20 {
            for p in pos {
                texts.push(p);
                labels.push(1.0);
            }
            for n in neg {
                texts.push(n);
                labels.push(0.0);
            }
        }
        let t = Tensor::from_strings(&texts, 0);
        let y = Tensor::from_f64(labels);
        let m = TextClassifier::fit(&t, &y, 12, 3, 0.5);
        assert!(m.accuracy(&t, &y) > 0.99);
        // Unseen combinations of seen words.
        let test = Tensor::from_strings(&["love this excellent thing", "broke terrible junk"], 0);
        let p = m.predict(&[test]);
        assert_eq!(p.as_f64(), &[1.0, 0.0]);
    }

    #[test]
    fn tokenizer_handles_punctuation_and_case() {
        let t = Tensor::from_strings(&["Great, GREAT!  great."], 0);
        let mut feats = vec![0f64; 1 << 10];
        featurize_row(&t, 0, 10, &mut feats);
        let idx = bucket(b"great", 10);
        assert_eq!(feats[idx], 3.0);
        let mut buckets = Vec::new();
        row_buckets(t.str_row_trimmed(0), 10, &mut buckets);
        assert_eq!(buckets, vec![idx as u32; 3]);
    }

    #[test]
    fn sparse_featurizer_counts_what_the_dense_one_does() {
        let (t, _) = corpus(300);
        for bits in [4, 14] {
            let mut feats = vec![0f64; 1 << bits];
            let mut buckets = Vec::new();
            for i in 0..t.nrows() {
                featurize_row(&t, i, bits, &mut feats);
                row_buckets(t.str_row_trimmed(i), bits, &mut buckets);
                let mut sparse = vec![0f64; 1 << bits];
                for_each_count(&buckets, |j, c| sparse[j] = c);
                assert_eq!(sparse, feats, "row {i}, {bits} bits");
            }
        }
    }

    /// Training and scoring through the sparse featurizer are bit-for-bit
    /// the dense formulation: same weights, same probabilities.
    #[test]
    fn sparse_training_and_scoring_match_dense_bitwise() {
        let (t, y) = corpus(400);
        for bits in [6, 14] {
            let m = TextClassifier::fit(&t, &y, bits, 3, 0.5);
            let (w, b) = fit_dense(&t, &y, bits, 3, 0.5);
            assert_eq!(m.bias.to_bits(), b.to_bits(), "{bits} bits");
            assert!(
                m.weights
                    .iter()
                    .zip(&w)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{bits} bits: weights differ"
            );
            let p = m.predict_proba(&t);
            let mut feats = vec![0f64; 1 << bits];
            for i in 0..t.nrows() {
                featurize_row(&t, i, bits, &mut feats);
                let dense = 1.0 / (1.0 + (-(m.bias + dense_dot(&feats, &m.weights))).exp());
                assert_eq!(p.as_f64()[i].to_bits(), dense.to_bits(), "row {i}");
            }
        }
    }

    #[test]
    fn empty_text_predicts_without_panic() {
        let t = Tensor::from_strings(&[""], 1);
        let y = Tensor::from_f64(vec![1.0]);
        let m = TextClassifier::fit(&t, &y, 8, 1, 0.1);
        let p = m.predict_proba(&t);
        assert_eq!(p.nrows(), 1);
    }
}
