"""Run every workload and print each metric with its unit and spread.

Run from the repository root:

    python3 perfbench/report.py [--runs 10] [--workloads oracle4,strip64]

For each workload this makes --runs untraced runs of run.py, seeds 1 to
--runs, each in a fresh process and one after another, then one traced
run.  It prints every end-to-end metric as the median over the runs
with the distance between the first and third quartile as a share of
the median (statistics.quantiles, n=4), next to the bound that
BENCHMARK.json allows, and every per-layer metric of the traced run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    for workload in args.workloads.split(","):
        results = [run(workload, seed, args.seconds, 0)
                   for seed in range(1, args.runs + 1)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"== {workload}: {args.runs} runs, {attempted} operations, "
              f"{failed} failed, fail_ratio {failed / attempted:g}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            line = (f"  {name:34s} {statistics.median(values):>14.6g} "
                    f"{metric['unit']:6s}")
            if len(values) >= 2:
                line += (f" IQR/median {spread(values):.4f}"
                         f" (bound {metric['bound']}, range "
                         f"{min(values):.6g}..{max(values):.6g})")
            print(line)
        traced = run(workload, 1, args.seconds, 1)
        print(f"  traced run: {traced['attempted']} operations, "
              f"{traced['failed']} failed")
        for metric in bench["per_layer"]:
            entry = traced["metrics"][metric["name"]]
            print(f"  {metric['name']:34s} {entry['value']:>14.6g} {entry['unit']}")


if __name__ == "__main__":
    main()
