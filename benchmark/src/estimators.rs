//! The two quiet-host estimators every end-to-end number goes through.
//!
//! Interference on the shared 2-core host is one-sided: a neighbour can
//! only take cycles away, so a pass or a window is either clean or slower
//! than clean. Means and medians of a 20 s run move 16-18 % run to run on
//! unchanged code; the estimators below read the clean side instead.
//!
//! * **best-of-passes** (fixed work): statements run in interleaved passes,
//!   every statement once per pass, so a noise burst is spread over the
//!   statements of one pass instead of landing on all repetitions of one
//!   statement. A statement's time is the minimum over the measured passes.
//! * **quiet-quartile** (windows): the measured phase is cut into fixed
//!   windows. A rate is the upper quartile over windows of the ops completed
//!   in the window; a latency percentile is the lower quartile over windows
//!   of the in-window percentile. Windows with too few samples of a class
//!   are dropped and counted.
//!
//! The plain all-sample numbers are reported beside these as `raw.*`
//! per-layer metrics; the gap between the two is the host's interference.

/// Quantile `q` in `[0, 1]` of an ascending slice, linearly interpolated
/// between ranks.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort a sample ascending (latencies and times are never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
}

/// Quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile_sorted(&v, q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Per-statement reduction over interleaved passes: `passes[p][s]` is the
/// time of statement `s` in pass `p`.
fn per_statement(passes: &[Vec<f64>], reduce: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    assert!(!passes.is_empty(), "no measured pass");
    let n = passes[0].len();
    (0..n)
        .map(|s| {
            let column: Vec<f64> = passes.iter().map(|p| p[s]).collect();
            reduce(&column)
        })
        .collect()
}

/// Best-of-passes: each statement's minimum over the measured passes.
pub fn best_of_passes(passes: &[Vec<f64>]) -> Vec<f64> {
    per_statement(passes, |c| c.iter().copied().fold(f64::INFINITY, f64::min))
}

/// The plain estimator reported as `raw.*`: each statement's median.
pub fn median_of_passes(passes: &[Vec<f64>]) -> Vec<f64> {
    per_statement(passes, median)
}

/// One completed operation of a windowed phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, nanoseconds since the phase started.
    pub done_ns: u64,
    /// Request written → reply decoded, nanoseconds.
    pub lat_ns: u64,
    /// Index into the workload's class list.
    pub class: u8,
}

/// A measured phase cut into fixed windows. Samples completing after the
/// last whole window are ignored, so every window covers the same time.
pub struct Windows {
    window_ns: u64,
    /// `lat_us[window][class]` — in-window latencies in microseconds.
    lat_us: Vec<Vec<Vec<f64>>>,
}

impl Windows {
    pub fn new(samples: &[Sample], window_ns: u64, n_windows: usize, n_classes: usize) -> Windows {
        let mut lat_us = vec![vec![Vec::new(); n_classes]; n_windows];
        for s in samples {
            let w = (s.done_ns / window_ns) as usize;
            if w < n_windows {
                lat_us[w][s.class as usize].push(s.lat_ns as f64 / 1e3);
            }
        }
        Windows { window_ns, lat_us }
    }

    pub fn len(&self) -> usize {
        self.lat_us.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lat_us.is_empty()
    }

    /// Operations per second in each window, all classes together.
    pub fn rates(&self) -> Vec<f64> {
        let secs = self.window_ns as f64 / 1e9;
        self.lat_us
            .iter()
            .map(|w| w.iter().map(Vec::len).sum::<usize>() as f64 / secs)
            .collect()
    }

    /// Quiet-quartile rate: the upper quartile over windows.
    pub fn quiet_rate(&self) -> f64 {
        quantile(&self.rates(), 0.75)
    }

    /// Quiet-quartile latency percentile `p` of `classes` (their samples
    /// pooled per window): the lower quartile over windows of the in-window
    /// percentile. Returns the value and the number of windows dropped for
    /// holding fewer than `min_samples`; `None` when every window was.
    pub fn quiet_percentile(
        &self,
        classes: &[usize],
        p: f64,
        min_samples: usize,
    ) -> (Option<f64>, usize) {
        let mut per_window = Vec::with_capacity(self.lat_us.len());
        let mut dropped = 0;
        for w in &self.lat_us {
            let mut pooled: Vec<f64> = classes.iter().flat_map(|&c| w[c].iter().copied()).collect();
            if pooled.len() < min_samples.max(1) {
                dropped += 1;
                continue;
            }
            sort(&mut pooled);
            per_window.push(quantile_sorted(&pooled, p));
        }
        if per_window.is_empty() {
            return (None, dropped);
        }
        (Some(quantile(&per_window, 0.25)), dropped)
    }

    /// All latencies of `classes` in the whole phase (for `raw.*` numbers
    /// and the ungated far tails).
    pub fn pooled(&self, classes: &[usize]) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .lat_us
            .iter()
            .flat_map(|w| classes.iter().flat_map(move |&c| w[c].iter().copied()))
            .collect();
        sort(&mut all);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 0.5), 3.0);
        assert_eq!(quantile_sorted(&v, 0.25), 2.0);
        assert_eq!(quantile_sorted(&v, 0.9), 4.6);
        assert_eq!(quantile(&[9.0], 0.75), 9.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    /// 12 passes of 22 statements, 1 % jitter; a stall hits 40 % of the
    /// passes and slows every statement in them by 30 %.
    #[test]
    fn best_of_passes_ignores_stalled_passes() {
        let mut rng = SplitMix64::new(11);
        let base: Vec<f64> = (0..22).map(|s| 10.0 + 25.0 * s as f64).collect();
        let mut clean = Vec::new();
        let mut stalled = Vec::new();
        for p in 0..12 {
            let row: Vec<f64> = base.iter().map(|b| b * (1.0 + 0.01 * rng.unit())).collect();
            let slow = p % 5 < 2; // 40 % of passes, spread over the run
            stalled.push(
                row.iter()
                    .map(|t| if slow { t * 1.3 } else { *t })
                    .collect(),
            );
            clean.push(row);
        }
        let total = |p: &[Vec<f64>]| best_of_passes(p).iter().sum::<f64>();
        let moved = (total(&stalled) / total(&clean) - 1.0).abs();
        assert!(moved < 0.02, "best-of-passes moved {moved}");
        // The plain estimator is what moves: that gap is reported as raw.*.
        let raw = |p: &[Vec<f64>]| median_of_passes(p).iter().sum::<f64>();
        assert!(raw(&stalled) / raw(&clean) > 1.0);
    }

    fn synthetic_phase(stall: bool) -> Vec<Sample> {
        // 80 windows of 0.25 s; a clean window completes ~2500 ops of
        // ~100 us. A stalled window (40 % of them) runs 30 % slower: fewer
        // ops, each 30 % longer.
        let mut rng = SplitMix64::new(5);
        let window_ns = 250_000_000u64;
        let mut out = Vec::new();
        for w in 0..80u64 {
            let slow = stall && w % 5 < 2;
            let factor = if slow { 1.3 } else { 1.0 };
            let n = (2500.0 / factor) as u64;
            for i in 0..n {
                let lat = 100_000.0 * factor * (0.9 + 0.2 * rng.unit());
                out.push(Sample {
                    done_ns: w * window_ns + i * (window_ns / n),
                    lat_ns: lat as u64,
                    class: 0,
                });
            }
        }
        out
    }

    #[test]
    fn quiet_quartile_ignores_stalled_windows() {
        let w = |stall| Windows::new(&synthetic_phase(stall), 250_000_000, 80, 1);
        let (clean, stalled) = (w(false), w(true));
        let rate_moved = (stalled.quiet_rate() / clean.quiet_rate() - 1.0).abs();
        assert!(rate_moved < 0.02, "quiet rate moved {rate_moved}");
        for p in [0.5, 0.95] {
            let a = clean.quiet_percentile(&[0], p, 200).0.unwrap();
            let b = stalled.quiet_percentile(&[0], p, 200).0.unwrap();
            assert!((b / a - 1.0).abs() < 0.02, "quiet p{p} moved {a} -> {b}");
        }
        // The all-sample median does move, which is why it is only `raw.*`.
        let raw = |w: &Windows| quantile_sorted(&w.pooled(&[0]), 0.5);
        assert!(raw(&stalled) / raw(&clean) > 1.02);
    }

    #[test]
    fn thin_windows_are_dropped_and_counted() {
        let samples: Vec<Sample> = (0..300u64)
            .map(|i| Sample {
                // 250 samples in window 0, 50 in window 1, none in window 2.
                done_ns: if i < 250 { i } else { 1_000 + i },
                lat_ns: 5_000,
                class: 0,
            })
            .collect();
        let w = Windows::new(&samples, 1_000, 3, 2);
        assert_eq!(w.len(), 3);
        let (v, dropped) = w.quiet_percentile(&[0], 0.5, 200);
        assert_eq!((v, dropped), (Some(5.0), 2));
        assert_eq!(w.quiet_percentile(&[1], 0.5, 1), (None, 3));
        assert_eq!(w.rates()[0], 250.0 / 1e-6);
    }
}
