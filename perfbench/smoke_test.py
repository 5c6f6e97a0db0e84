#!/usr/bin/env python3
"""Smoke test of the trilist benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

For every workload: an untraced and a traced run must print every metric
BENCHMARK.json declares for that mode, with its declared unit, pass every
answer check, and carry provenance and sample counts in the detail line;
a run whose reference count is deliberately wrong must report failed
operations and correct = false. Exits 0 when all of that holds.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROVENANCE = ("host_cpu", "simd_level", "build", "hardware_threads", "graph")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{cmd} exited {done.returncode}:\n"
                             f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    modes = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for w in (w["name"] for w in bench["workloads"]):
        for trace, declared in modes.items():
            detail, result = run(w, trace)
            where = f"{w} --trace {trace}"
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{where}: result keys")
            check(result["correct"] and result["failed"] == 0,
                  f"{where}: answer checks failed")
            check(result["attempted"] >= 1, f"{where}: nothing attempted")
            metrics = result["metrics"]
            check(list(metrics) == [m["name"] for m in declared],
                  f"{where}: metric names {sorted(metrics)}")
            for m in declared:
                got = metrics[m["name"]]
                check(got["unit"] == m["unit"],
                      f"{where}: {m['name']} unit {got['unit']}")
                if trace == 0:
                    check(got["value"] > 0, f"{where}: {m['name']} is 0")
            for key in PROVENANCE:
                check(key in detail["provenance"], f"{where}: no {key}")
            for name, m in detail["metrics"].items():
                if ".p" in name:
                    check(m["samples"] >= 1, f"{where}: {name} samples")
            print(f"ok   {where}: {len(metrics)} metrics")
        _, result = run(w, 0, "--wrong-reference")
        check(not result["correct"] and result["failed"] > 0,
              f"{w}: a wrong reference count was not reported as failed")
        print(f"ok   {w} --wrong-reference: {result['failed']} of "
              f"{result['attempted']} operations failed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as err:
        print(f"FAIL {err}", file=sys.stderr)
        sys.exit(1)
