#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/self_test.py

Checks that
  1. the same seed gives an identical stream digest and identical input
     counts across two invocations, for every workload;
  2. a different seed gives a different digest;
  3. the metric names a run prints match BENCHMARK.json exactly
     (end_to_end with --trace 0, per_layer with --trace 1), for every
     workload;
  4. self time is computed correctly on a small synthetic span tree.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark runner: build() and WORKLOADS)


def fail(message):
    print("FAILED: " + message)
    sys.exit(1)


def inputs(binary, workload, seed):
    out = subprocess.run([binary, "--mode", "inputs", "--workload", workload, "--seed",
                          str(seed)], stdout=subprocess.PIPE, text=True, check=True).stdout
    line = [l for l in out.splitlines() if l.startswith("inputs ")][-1]
    return json.loads(line[len("inputs "):])


def printed_names(workload, trace):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload",
                           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        fail("run.py --workload %s --trace %d exited %d" % (workload, trace, proc.returncode))
    return set(json.loads(proc.stdout.splitlines()[-1])["metrics"])


def main():
    binary = run.build()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if {w["name"] for w in bench["workloads"]} != set(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.py's")

    for workload in run.WORKLOADS:
        a, b = inputs(binary, workload, 7), inputs(binary, workload, 7)
        if a != b:
            fail("%s: seed 7 gave different inputs across invocations: %s vs %s" %
                 (workload, a, b))
        c = inputs(binary, workload, 8)
        if c["digest"] == a["digest"]:
            fail("%s: seeds 7 and 8 gave the same digest %s" % (workload, a["digest"]))
        print("ok  %s inputs: seed 7 digest %s twice, seed 8 digest %s" %
              (workload, a["digest"], c["digest"]))

    want = {0: {m["name"] for m in bench["end_to_end"]},
            1: {m["name"] for m in bench["per_layer"]}}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            got = printed_names(workload, trace)
            if got != want[trace]:
                fail("%s --trace %d: printed %s, BENCHMARK.json has %s (missing %s, extra %s)" %
                     (workload, trace, sorted(got), sorted(want[trace]),
                      sorted(want[trace] - got), sorted(got - want[trace])))
            print("ok  %s --trace %d prints the %d names in BENCHMARK.json" %
                  (workload, trace, len(got)))

    if subprocess.run([binary, "--mode", "selftest"]).returncode != 0:
        fail("self time on the synthetic span tree")
    print("ok  self time on the synthetic span tree")
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
