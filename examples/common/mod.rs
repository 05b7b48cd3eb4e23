//! Shared measurement helpers for the paper-figure examples (`figure1` …
//! `figure4`).
//!
//! Every figure follows the paper's measurement protocol (§2.3): median of
//! `TQP_RUNS` (default 5) runs after the same number of warm-ups. The scale
//! factor defaults to 0.1 and is overridden with `TQP_SF` (the paper uses
//! SF 1; any SF preserves the comparison shape).

// Each example uses a different subset of these helpers.
#![allow(dead_code)]

use std::time::Instant;

use tqp_repro::core::Session;
use tqp_repro::data::tpch::{TpchConfig, TpchData};

/// Scale factor from `TQP_SF` (default 0.1).
pub fn scale_factor() -> f64 {
    std::env::var("TQP_SF")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.1)
}

/// Measured runs (and warm-ups) from `TQP_RUNS` (default 5, the paper's
/// protocol).
pub fn runs() -> usize {
    std::env::var("TQP_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
}

/// A session holding the TPC-H tables at [`scale_factor`], generated with
/// the canonical seed.
pub fn tpch_session() -> Session {
    let sf = scale_factor();
    eprintln!("generating TPC-H data at SF {sf} ...");
    let data = TpchData::generate(&TpchConfig {
        scale_factor: sf,
        seed: 20_220_901,
    });
    let mut s = Session::new();
    s.register_tpch(&data);
    s
}

/// Median of `runs()` measurements (after `runs()` warm-ups) of `f`,
/// in microseconds. `f` returns an optional *modeled* time that overrides
/// the wall measurement (the simulated-GPU path).
pub fn median_us(mut f: impl FnMut() -> Option<u64>) -> u64 {
    let n = runs();
    for _ in 0..n {
        let _ = f();
    }
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        let modeled = f();
        let wall = t0.elapsed().as_micros() as u64;
        samples.push(modeled.unwrap_or(wall));
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Pretty milliseconds.
pub fn fmt_ms(us: u64) -> String {
    format!("{:.2} ms", us as f64 / 1000.0)
}

/// Render one comparison row of a figure table.
pub fn print_row(label: &str, us: u64, baseline_us: u64) {
    let rel = baseline_us as f64 / us.max(1) as f64;
    println!("  {label:<34} {:>12}   ({rel:.1}x vs baseline)", fmt_ms(us));
}
