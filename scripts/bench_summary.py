#!/usr/bin/env python3
"""Consolidated bench-gate summary: one table of per-site ratios.

Each bench binary (expr/store/simd) is its own hard regression gate
— it exits non-zero when its optimized path regresses past the 1.25x
noise margin — so by the time this runs, every gate has already passed.
serve_bench is gated on correctness rather than speed: it asserts
bitwise digest parity and zero failed front-end queries internally, and
its real-socket records surface here as achieved/offered throughput
ratios. This step folds the five BENCH_*.json files into one table so a
human scanning the CI log sees every per-site ratio in one place, and
fails only if a bench file is missing or unreadable (i.e. a gate was
skipped).

Usage: python3 scripts/bench_summary.py [dir]
"""

import json
import os
import sys


def rows(doc):
    """Yield (site, ratio, gated) per result record, format-aware."""
    fmt = doc.get("format", "?")
    if fmt == "tqp-bench-tpch":
        # Observability-overhead gate (v2): registry-on / registry-off
        # wall-time ratio per query plus the summed gate total. The gate
        # itself ran inside tpch_bench (exits non-zero past 3% + slack).
        oh = doc.get("obs_overhead")
        if oh:
            for r in oh.get("queries", []):
                yield f"q{r.get('query', '?')}/obs-overhead", r.get("ratio", 0.0), False
            yield "total/obs-overhead", oh.get("ratio", 0.0), oh.get("pass", False)
        return
    for r in doc.get("results", []):
        big = r.get("rows", 0) > 10_000
        if fmt == "tqp-bench-expr":
            if "speedup_fused" in r:
                site = f"q{r.get('query', '?')}/{r.get('site', '?')}"
                yield site, r["speedup_fused"], big
        elif fmt == "tqp-bench-store":
            if r.get("kind") == "prune":
                site = f"{r.get('query', '?')}/w{r.get('workers', '?')}"
                yield site, r.get("speedup", 0.0), False
        elif fmt == "tqp-bench-simd":
            site = f"{r.get('family', '?')}/{r.get('site', '?')}"
            yield site, r.get("speedup_simd", 0.0), r.get("gated", False)
        elif fmt == "tqp-bench-serve":
            # Real-socket records: ratio = achieved/offered throughput
            # (1.0 = the front-end kept up with the open-loop schedule);
            # the gate mark is the bitwise parity check against
            # in-process execution.
            if r.get("kind") == "net" and r.get("offered_qps"):
                site = f"{r.get('stmt', '?')}/c{r.get('clients', '?')}"
                ratio = r.get("achieved_qps", 0.0) / r["offered_qps"]
                yield site, ratio, r.get("bitwise_identical", False)


def main():
    base = sys.argv[1] if len(sys.argv) > 1 else "."
    files = {
        "tpch": "BENCH_tpch.json",
        "expr": "BENCH_expr.json",
        "store": "BENCH_store.json",
        "simd": "BENCH_simd.json",
        "serve": "BENCH_serve.json",
    }
    missing = []
    print(f"{'bench':<6} {'site':<28} {'ratio':>8}  gate")
    print("-" * 52)
    for name, fname in files.items():
        path = os.path.join(base, fname)
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            missing.append(f"{fname}: {e}")
            continue
        level = doc.get("level")
        suffix = f" (level {level})" if level else ""
        for site, ratio, gated in rows(doc):
            mark = "gated" if gated else "-"
            print(f"{name:<6} {site:<28} {ratio:>7.2f}x  {mark}{suffix}")
            suffix = ""
    if missing:
        print("\nmissing or unreadable bench files:", file=sys.stderr)
        for m in missing:
            print(f"  {m}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
