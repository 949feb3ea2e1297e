#!/usr/bin/env python3
"""Run a workload once per seed and report each metric's spread.

    python3 perfbench/steadiness.py --workload fig7-sweep --seeds 1-10 [--trace 0]

For every metric it prints the median of the per-seed values and the
distance between their first and third quartiles
(statistics.quantiles(values, n=4)) as a share of that median, next to
the metric's bound in BENCHMARK.json. Runs are sequential: two runs at
once would share the cores and disturb each other's timings.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect\n{out.stderr}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)
    print(f"\n{args.workload}: {len(seeds_of(args.seeds))} seeds")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = "" if bound is None else f"  bound {bound:.2f}  (spread/bound {spread / bound:.2f})"
        print(f"  {name:28s} median {med:12.5g}  iqr/median {spread:7.4f}{note}")


if __name__ == "__main__":
    main()
