#!/usr/bin/env python3
"""End-to-end SCIDIVE benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spit_inline --seed 1 --seconds 50 --trace 0

Builds perfbench/ (a CMake package that compiles ../src) into .bench_build
on first use, then runs the benchmark binary. With --trace 0 it prints the
end-to-end metrics; engine_rss_mb is measured in a fresh process of its own.
With --trace 1 it prints the traced run's per-layer metrics and writes the
spans under .bench_build/traces. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A failed output check or a
failed build exits non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("carrier_signaling", "spit_inline")
CHILD_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout is reserved for the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return os.path.join(out, "perfbench")


def run_child(cmd):
    """Run one benchmark process; echo its report, return its JSON result."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: timed out: %s\n" % " ".join(cmd))
        sys.exit(1)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or result is None:
        if lines:
            print(lines[-1])
        sys.stderr.write("perfbench: %s exited %d\n" % (" ".join(cmd), proc.returncode))
        sys.exit(proc.returncode or 1)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    common = [binary, "--workload", args.workload, "--seed", str(args.seed),
              "--rulesets", os.path.join("examples", "rulesets")]
    if args.trace == 1:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        result = run_child(common + ["--seconds", str(args.seconds), "--trace", "1",
                                     "--trace-dir", traces])
    else:
        rss = run_child(common + ["--mode", "rss"])
        result = run_child(common + ["--seconds", str(args.seconds), "--trace", "0"])
        result["correct"] = result["correct"] and rss["correct"]
        result["metrics"].update(rss["metrics"])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
