#!/usr/bin/env python3
"""Smoke self-test of the serving benchmark.

    python3 perfbench/selftest.py

Runs every workload at tiny n for a short window, untraced and traced, and
checks that each run is correct and prints exactly the metrics BENCHMARK.json
names. Then runs one workload with a deliberately corrupted reply and checks
that the answer check fails the run. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("FAIL %s trace=%d: exit %d\n%s" %
                 (workload, trace, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                sys.exit("FAIL %s trace=%d: metrics %s, expected %s" %
                         (workload, trace, sorted(got.items()),
                          sorted(want.items())))
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                sys.exit("FAIL %s trace=%d: %s" % (workload, trace, result))
            print("ok   %s trace=%d attempted=%d" %
                  (workload, trace, result["attempted"]))
    result = run("read_cold", 0, "--corrupt-reply")
    if result["correct"] or result["failed"] < 1:
        sys.exit("FAIL the corrupted reply was not caught: %s" % result)
    print("ok   corrupted reply caught (failed=%d)" % result["failed"])


if __name__ == "__main__":
    main()
