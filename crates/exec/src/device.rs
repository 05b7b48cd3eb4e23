//! The simulated-GPU cost model.
//!
//! No GPU exists in this environment (reproduction substitution, see
//! DESIGN.md): a `Device::GpuSim` run executes on the CPU exactly as a CPU
//! run does, and [`price`] then turns the bytes each operator read and
//! wrote into *modeled* device time with an analytical roofline:
//! `kernels × launch_latency + bytes_touched / memory_bandwidth`, plus
//! PCIe transfer terms that depend on the placement strategy:
//!
//! * [`GpuStrategy::Resident`] (TQP): operands live on the device for the
//!   whole query — transfers are not charged per operator (the paper's warm
//!   configuration);
//! * [`GpuStrategy::PerOpTransfer`] (BlazingSQL-sim): every operator pays
//!   H2D for its inputs and D2H for its outputs — reproducing *why* TQP
//!   beats per-operator GPU engines by >4× (§1) mechanistically rather than
//!   by fiat.
//!
//! Default parameters approximate the paper's NVIDIA P100: ~550 GB/s
//! effective HBM2 bandwidth, 5 µs kernel launch, ~12 GB/s effective PCIe.

use crate::program::{ProgOp, TensorProgram};
use crate::GpuStrategy;

/// Analytical device parameters.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Effective device memory bandwidth, bytes/second.
    pub mem_bw: f64,
    /// Kernel launch latency, seconds.
    pub launch: f64,
    /// Effective host↔device bandwidth, bytes/second.
    pub pcie_bw: f64,
    /// Per-operator framework overhead (eager-mode dispatch + sync),
    /// seconds. PyTorch eager on GPU pays this regardless of tensor size —
    /// it is why tiny queries do not benefit from the device.
    pub op_overhead: f64,
    /// HBM passes per operator: eager execution materializes boolean masks,
    /// gathers, and other intermediates, so each relational operator touches
    /// its data several times.
    pub passes: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            mem_bw: 550e9,
            launch: 5e-6,
            pcie_bw: 12e9,
            op_overhead: 250e-6,
            passes: 4.0,
        }
    }
}

impl CostModel {
    /// Modeled seconds of one operator: `kernels` launches touching
    /// `bytes.input` + `bytes.output` of device memory.
    fn op_seconds(&self, kernels: u32, bytes: OpBytes, strategy: GpuStrategy) -> f64 {
        let touched = (bytes.input + bytes.output) as f64;
        let mut t =
            self.op_overhead + kernels as f64 * self.launch + touched * self.passes / self.mem_bw;
        if strategy == GpuStrategy::PerOpTransfer {
            t += (bytes.input as f64 + bytes.output as f64) / self.pcie_bw;
        }
        t
    }
}

/// The bytes one program op read and wrote in a run, summed over its
/// morsels. A `HashBuild` reads its key columns and writes 12 bytes per
/// table entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpBytes {
    pub input: u64,
    pub output: u64,
}

/// The modeled device time of a finished run of `prog`, microseconds:
/// every op charged in program order under `strategy`, from the bytes the
/// run recorded for it (`bytes[i]` for op `i`).
pub fn price(prog: &TensorProgram, bytes: &[OpBytes], strategy: GpuStrategy) -> u64 {
    let model = CostModel::default();
    let total_s: f64 = prog
        .ops
        .iter()
        .zip(bytes)
        .map(|(op, &b)| model.op_seconds(kernel_count(op), b, strategy))
        .sum();
    (total_s * 1e6).round() as u64
}

/// Rough kernel-launch counts per operator (the exact constants only shift
/// the launch-latency term, which matters for small inputs — precisely the
/// regime where real GPUs lose to CPUs).
pub fn kernel_count(op: &ProgOp) -> u32 {
    let n = match op {
        ProgOp::Scan { .. } | ProgOp::Limit { .. } => 1,
        ProgOp::Filter { conjuncts, .. } => 2 + conjuncts.outputs.len(),
        ProgOp::Project { exprs, .. } => exprs.outputs.len().max(1),
        ProgOp::HashBuild { .. } | ProgOp::HashProbe { .. } => 2,
        ProgOp::CrossJoin { .. } => 3,
        ProgOp::GroupedReduce { reduce, .. } => 6 + reduce.aggs.len(),
        ProgOp::Sort { keys, .. } => 2 * keys.outputs.len().max(1),
    };
    n as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-op program: a `Limit` (one kernel) over register 0.
    fn limit() -> TensorProgram {
        TensorProgram {
            ops: vec![ProgOp::Limit {
                dst: 1,
                src: 0,
                n: 1,
            }],
            n_regs: 2,
            output: 1,
            schema: Vec::new(),
        }
    }

    fn price_one(input: u64, output: u64, strategy: GpuStrategy) -> u64 {
        price(&limit(), &[OpBytes { input, output }], strategy)
    }

    #[test]
    fn bandwidth_term_scales_with_bytes() {
        // Subtract the fixed per-op cost to observe the bandwidth term.
        let fixed = price_one(0, 0, GpuStrategy::Resident);
        let small_bw = price_one(1 << 20, 0, GpuStrategy::Resident) - fixed;
        let big_bw = price_one(1 << 30, 0, GpuStrategy::Resident) - fixed;
        assert!(big_bw > small_bw * 100, "{big_bw} vs {small_bw}");
        // Dispatch overhead dominates tiny ops (why small queries don't
        // benefit from the device).
        assert!(fixed > small_bw);
    }

    #[test]
    fn per_op_transfer_much_slower() {
        let bytes = 1 << 28; // 256 MB
        let resident = price_one(bytes, bytes, GpuStrategy::Resident);
        let transfer = price_one(bytes, bytes, GpuStrategy::PerOpTransfer);
        // PCIe is ~45x slower than HBM: the gap must be large.
        assert!(transfer > resident * 4, "{transfer} vs {resident}");
    }

    #[test]
    fn launch_latency_dominates_tiny_ops() {
        // Ten one-kernel ops over tiny tensors: 10 launches à 5 µs = 50 µs
        // (plus dispatch overhead); the bandwidth term is negligible.
        let mut prog = limit();
        prog.ops = vec![prog.ops[0].clone(); 10];
        let tiny = vec![
            OpBytes {
                input: 64,
                output: 64
            };
            10
        ];
        let us = price(&prog, &tiny, GpuStrategy::Resident);
        let model = CostModel::default();
        assert!(us >= 50);
        assert_eq!(
            us,
            ((model.op_overhead + model.launch) * 10.0 * 1e6).round() as u64
        );
    }

    #[test]
    fn kernel_counts_reasonable() {
        let scan = ProgOp::Scan {
            dst: 0,
            table: "t".into(),
            projection: None,
        };
        assert_eq!(kernel_count(&scan), 1);
        assert_eq!(kernel_count(&limit().ops[0]), 1);
        // A grouped aggregation with no aggregates still launches more
        // kernels than a one-conjunct filter.
        let prog = lowered("select grp from t where v > 0 group by grp");
        let reduce = prog
            .ops
            .iter()
            .find(|op| matches!(op, ProgOp::GroupedReduce { reduce, .. } if reduce.aggs.is_empty()))
            .expect("an aggregate-free GroupedReduce");
        let filter = prog
            .ops
            .iter()
            .find(
                |op| matches!(op, ProgOp::Filter { conjuncts, .. } if conjuncts.outputs.len() == 1),
            )
            .expect("a one-conjunct Filter");
        assert!(kernel_count(reduce) > kernel_count(filter));
    }

    /// `sql` over `t(grp, v)`, lowered to a program.
    fn lowered(sql: &str) -> TensorProgram {
        use tqp_data::{Field, LogicalType, Schema};
        let schema = Schema::new(vec![
            Field::new("grp", LogicalType::Str),
            Field::new("v", LogicalType::Int64),
        ]);
        let mut catalog = tqp_ir::Catalog::new();
        catalog.register("t", schema, 4);
        let plan = tqp_ir::compile_sql(sql, &catalog, &tqp_ir::PhysicalOptions).unwrap();
        crate::program::lower(&plan)
    }
}
