#!/usr/bin/env bash
# Build the benchmark, run the four workloads, and print one JSON document:
# host fingerprint (CPU model, core count, kernel), commit, protocol
# parameters, and each workload's result line.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#
# --smoke runs SF 0.01 with 2 s phases: every code path of the driver in
# under 20 s. Progress goes to standard error, the document to standard
# output.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
seconds=""
trace=0
smoke=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --smoke) smoke=(--smoke); shift ;;
    *) echo "usage: $0 [--seed N] [--seconds S] [--trace 0|1] [--smoke]" >&2; exit 2 ;;
  esac
done
if [[ -z "$seconds" ]]; then
  if [[ ${#smoke[@]} -gt 0 ]]; then seconds=2; else seconds=20; fi
fi

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/tqp-benchmark"

clean() { tr -d '"\\' | tr -s ' ' | sed 's/^ //; s/ $//'; }
cpu=$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2 | clean)
kernel=$(uname -sr | clean)
# A checkout the driver made is not a git repository.
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)

results=""
for workload in tpch_power scan_predict serve_point serve_mixed; do
  echo "running $workload ..." >&2
  line=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" "${smoke[@]}" | tail -n 1)
  results+="${results:+,}\"$workload\":$line"
done

printf '{"host":{"cpu":"%s","nproc":%s,"kernel":"%s"},"commit":"%s","seed":%s,"seconds":%s,"trace":%s,"smoke":%s,"workloads":{%s}}\n' \
  "$cpu" "$(nproc)" "$kernel" "$commit" "$seed" "$seconds" "$trace" \
  "$([[ ${#smoke[@]} -gt 0 ]] && echo true || echo false)" "$results"
