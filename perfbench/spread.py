#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints, per end-to-end metric,
the median and the interquartile range as a share of the median, next to
the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload belle2_sim --seeds 1-10

Run from the repository root. Each run is a separate process, untraced.
A metric whose spread reaches a third of its bound is flagged.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        last = out.stdout.strip().splitlines()[-1]
        res = json.loads(last)
        if not res["correct"] or res["failed"]:
            print(f"seed {seed}: INCORRECT {last}", file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)

    print(f"{'metric':<22} {'median':>12} {'iqr/median':>11} {'bound':>7}")
    for name, xs in values.items():
        med = statistics.median(xs)
        if len(xs) >= 2:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread >= bound / 3:
            flag = "  <- above a third of the bound"
        print(f"{name:<22} {med:>12.5g} {spread:>11.4f} {bound if bound is not None else '-':>7}{flag}")


if __name__ == "__main__":
    main()
