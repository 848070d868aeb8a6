"""Smoke self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload, untraced and traced, with the iteration cap cut
to three and checks that the result line names exactly the metrics of
BENCHMARK.json, each with its unit, and that those capped operations
count as failed.  Then it runs oracle4 once with its true reference
energy, which must pass, and once with a reference off by 1%, which
must count as a failed operation.  Exits 1 on the first broken
expectation.
"""

import contextlib
import dataclasses
import io
import json
import os
import sys

import run

TINY_CAP = 3


def result_line(workload, trace):
    """Run one workload through run.main and return its parsed last line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        run.main(["--workload", workload.name, "--seed", "1", "--seconds", "0",
                  "--trace", str(trace)], workloads={workload.name: workload})
    return json.loads(out.getvalue().strip().splitlines()[-1])


def expect(ok, message):
    if not ok:
        sys.exit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for name in (w["name"] for w in bench["workloads"]):
        capped = dataclasses.replace(run.WORKLOADS[name], max_iters=TINY_CAP)
        for trace in (0, 1):
            line = result_line(capped, trace)
            units = {k: v["unit"] for k, v in line["metrics"].items()}
            expect(units == wanted[trace],
                   f"{name} trace {trace} prints every BENCHMARK.json metric "
                   f"with its unit")
            expect(line["failed"] == line["attempted"] >= 1 and not line["correct"],
                   f"{name} trace {trace}: operations capped at {TINY_CAP} "
                   f"iterations count as failed")

    oracle = run.WORKLOADS["oracle4"]
    line = result_line(oracle, 0)
    expect(line["failed"] == 0 and line["correct"],
           "oracle4 passes against its reference energy")
    wrong = dataclasses.replace(oracle, reference_energy=1.01 * oracle.reference_energy)
    line = result_line(wrong, 0)
    expect(line["attempted"] == line["failed"] == 1 and not line["correct"],
           "oracle4 against a reference energy off by 1% counts as failed")


if __name__ == "__main__":
    main()
