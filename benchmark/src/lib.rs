//! The repo's benchmark. `README.md` beside this crate is the protocol;
//! `BENCHMARK.json` at the root of the repo is the contract with the driver.
//!
//! The harness uses only API the ROADMAP promises to keep — `Session`,
//! `Server`, `NetServer`/`NetClient`, `QueryConfig::default()
//! .backend(Fused).workers(2)`, `store_frame`/`store_csv`, `register_*`,
//! `run_traced` — and toggles no `ExecConfig` knob, so retiring a knob
//! cannot break it.

pub mod estimators;
pub mod host;
pub mod metrics;
pub mod rng;
pub mod trace;
pub mod verify;
pub mod workloads;

/// One invocation of the command.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Per-layer run: harness spans on, per-layer metrics out.
    pub trace: bool,
    /// SF 0.01 and short phases: exercises every code path in seconds.
    pub smoke: bool,
    /// Recompute the oracle with the row engine and write it to `golden/`.
    pub regen_golden: bool,
}

/// Sizes that differ between the real protocol and `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// TPC-H scale factor. 0.2 gives a 1.2 M-row lineitem: the smallest at
    /// which lineitem-length inputs cross the `1 << 20` strategy thresholds
    /// of the tensor kernels, and small enough for nine passes in 24 s.
    pub sf: f64,
    /// Rows of the in-memory `reviews` table of `scan_predict`.
    pub reviews: usize,
    /// Rows of the CSV slice `ingest_100k` writes into a store file.
    pub ingest_rows: usize,
    /// Closed-loop warm-up before a serving phase is measured, seconds.
    pub warmup_s: f64,
    /// Seconds the set-ups of a run may take together: the set-up is
    /// repeated while another one fits, `setup_s` is their median, and the
    /// measured phase runs on the last. 0 sets up once.
    pub setup_budget_s: f64,
}

impl Scale {
    pub fn of(opts: &Options) -> Scale {
        if opts.smoke {
            Scale {
                sf: 0.01,
                reviews: 10_000,
                ingest_rows: 5_000,
                warmup_s: 0.2,
                setup_budget_s: 0.0,
            }
        } else {
            Scale {
                sf: 0.2,
                reviews: 50_000,
                ingest_rows: 100_000,
                warmup_s: 1.0,
                // The traced run reports no setup_s; a regeneration is not
                // a measurement.
                setup_budget_s: if opts.trace || opts.regen_golden {
                    0.0
                } else {
                    6.0
                },
            }
        }
    }
}

/// Datasets are generated from `seed % DATA_SEEDS`: the row-engine oracle
/// for one dataset takes ~25 s at SF 0.2, so oracles exist for this many
/// datasets (see `verify`). Key streams, class draws and ad-hoc statement
/// texts use the whole seed.
pub const DATA_SEEDS: u64 = 4;

pub fn data_seed(seed: u64) -> u64 {
    seed % DATA_SEEDS
}

/// Run one workload and return its report.
pub fn run(opts: &Options) -> Result<metrics::Report, String> {
    match opts.workload.as_str() {
        "tpch_power" => Ok(workloads::tpch_power::run(opts)),
        "scan_predict" => Ok(workloads::scan_predict::run(opts)),
        "serve_point" => Ok(workloads::serve::run(opts, workloads::serve::Mix::Point)),
        "serve_mixed" => Ok(workloads::serve::run(opts, workloads::serve::Mix::Mixed)),
        other => Err(format!(
            "unknown workload {other:?}; one of {:?}",
            metrics::WORKLOADS
        )),
    }
}
