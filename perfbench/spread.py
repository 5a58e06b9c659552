"""Run the benchmark over several seeds; print every metric with its unit,
median and spread, and whether every run's verdicts were correct.

    python3 perfbench/spread.py --workload hilb [--seeds 1-10] [--trace 0,1] [--out FILE]

Run from the root of a checkout.  The spread is the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, which each end-to-end metric's bound in BENCHMARK.json must exceed.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=_seeds, default=[0], help="0, 1 or 0,1")
    parser.add_argument("--out", help="append every run's result line to this file")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    values: dict = {}
    units: dict = {}
    all_correct = True
    for seed in args.seeds:
        for trace in args.trace:
            cmd = bench["command"] + [
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stdout, done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    record = {"workload": args.workload, "seed": seed, "trace": trace, **result}
                    fh.write(json.dumps(record) + "\n")
            all_correct = all_correct and result["correct"]
            print(f"seed {seed} trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
    for name, vals in values.items():
        median = statistics.median(vals)
        spread = 0.0
        if len(vals) > 1 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
        print(f"{name} [{units[name]}]: median {median:.6g}, spread {spread:.4f}, "
              f"min {min(vals):.6g}, max {max(vals):.6g}")
    print(f"all runs correct: {all_correct}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
