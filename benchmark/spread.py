#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the benchmark once per seed on each named workload and prints, for
every metric, the median of the runs and the distance between the first
and third quartiles (Python's ``statistics.quantiles(values, n=4)``) as a
share of that median, next to the metric's bound from BENCHMARK.json.

    python3 benchmark/spread.py [--seeds 1-10] [--trace 0|1] [--seconds N] \
        [WORKLOAD ...]

Run it from the repository root. Without workloads it measures all of
them. The benchmark binary must already be built
(``cargo build --release --manifest-path benchmark/Cargo.toml``).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--seeds", default="1-10", help="a seed or an inclusive range")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--seconds", type=int, help="defaults to run_seconds")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    failed = False
    for workload in workloads:
        values = {}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                failed = True
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: {len(seeds(args.seeds))} seeds, {seconds} s each")
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med if med else float("inf")
            else:
                spread = 0.0
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound} ({spread / bound:.2f} of it)"
            print(f"  {name:<34} median {med:<14.6g} spread {spread:.4f}{note}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
