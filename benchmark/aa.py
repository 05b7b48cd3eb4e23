#!/usr/bin/env python3
"""A/A check: two interleaved sets of N runs of every workload on one build.

Run from the root of the repo:

    python3 benchmark/aa.py --runs 10 [--workloads tpch_power,serve_point] [--out benchmark/AA.md]

It reads BENCHMARK.json, runs its command exactly as the driver does
(`<command> --workload W --seed S --seconds run_seconds --trace 0`), each run
with another seed, and prints per workload and end-to-end metric: both sets'
medians, each set's spread (distance between the first and third quartile of
`statistics.quantiles(values, n=4)` as a share of the median), and how much
worse the second median is than the first. A cell passes when both spreads
and the drift stay within the metric's bound (the spread of `setup_s` is
reported, not judged, as in the driver). The bound in BENCHMARK.json should be
at least three times the widest spread in this table.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - started
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload (at least 5)")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--out", default="", help="also write the table to this file")
    args = ap.parse_args()
    if args.runs < 5:
        sys.exit("--runs must be at least 5")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    metrics = spec["end_to_end"]

    values = {w: {"A": {m["name"]: [] for m in metrics}, "B": {m["name"]: [] for m in metrics}} for w in workloads}
    walls = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            # Interleaved: A and B alternate, and so do the workloads, so a
            # slow stretch of the host lands on both sets alike.
            for label, seed in (("A", 1 + i), ("B", 101 + i)):
                got, wall = run_once(spec["command"], w, seed, spec["run_seconds"])
                walls[w].append(wall)
                for name, v in got.items():
                    values[w][label][name].append(v)
                print(f"run {i + 1}/{args.runs} {w} {label} seed {seed}: {wall:.1f} s", file=sys.stderr)

    lines = [
        f"A/A table: two interleaved sets of {args.runs} runs per workload, `--seconds {spec['run_seconds']}`, one build.",
        "",
        "| workload | metric | median A | spread A | median B | spread B | B worse by | bound | ok |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    failed = False
    for w in workloads:
        for m in metrics:
            a, b = values[w]["A"][m["name"]], values[w]["B"][m["name"]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(a), spread(b)
            judged = [worse] if m["name"] == "setup_s" else [worse, sa, sb]
            ok = all(x <= m["bound"] for x in judged)
            failed |= not ok
            lines.append(
                f"| {w} | {m['name']} | {ma:.6g} | {sa:.2%} | {mb:.6g} | {sb:.2%} | {worse:+.2%} | {m['bound']} | {'yes' if ok else 'NO'} |"
            )
    lines.append("")
    for w in workloads:
        lines.append(f"Wall time of one `{w}` run, command start to exit: median {statistics.median(walls[w]):.1f} s, max {max(walls[w]):.1f} s.")
    text = "\n".join(lines) + "\n"
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
