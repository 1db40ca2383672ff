#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload closed_fanout \\
        --seeds 1,2,3,4,5,6,7,8,9,10 --seconds 30

For every end-to-end metric it prints the median over the runs and the
distance between the first and third quartile as a share of the median,
the spread the metric's bound in ``BENCHMARK.json`` is judged against.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import measure  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values = {}
    ok = True
    for seed in args.seeds.split(","):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", seed, "--seconds", args.seconds,
             "--trace", "0"], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        detail = [line for line in lines if line.startswith(("rounds", "setup "))]
        print(f"seed {seed} {time.time() - t0:.1f}s correct={result['correct']} "
              + " | ".join(detail), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        spread = measure.relative_iqr(vals)
        print(f"{name:16s} median {measure.median(vals):12.5g} "
              f"spread {spread:.4f} bound {bounds[name]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
