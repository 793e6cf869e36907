#!/usr/bin/env python3
"""Run the benchmark several times on one workload and report, per metric,
the median and the spread (distance between the first and third quartile
as a share of the median) -- the figures BENCHMARK.json's bounds are
judged against. Metrics printed only in the report lines (the ungated
end-to-end metrics and the raw.* figures) are summarised too.

    python3 perfbench/spread.py --workload table2 --seeds 1 2 3 4 5 [--trace 0]

Run from the repository root after building the benchmark
(`cargo build --release --manifest-path perfbench/Cargo.toml`).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--binary", default=None,
                        help="benchmark executable (default: cargo run --release)")
    args = parser.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    if args.binary:
        command = [args.binary]
    else:
        command = ["cargo", "run", "--release", "--quiet", "--manifest-path",
                   os.path.join("perfbench", "Cargo.toml"), "--"]

    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            command + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", args.trace],
            check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: run not correct: {result}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for m in re.finditer(r"^  (\S+) +(\S+) \S+ +n=\d+$", out, re.M):
            if m.group(1) not in result["metrics"]:
                values.setdefault(m.group(1), []).append(float(m.group(2)))
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)

    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  > bound/3" if spread <= bound else "  > BOUND"
        print(f"{name:24} median {median:12.6g} spread {spread:7.3f}"
              f" bound {bound if bound is not None else '-'}{flag}")


if __name__ == "__main__":
    main()
