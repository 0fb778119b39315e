#!/usr/bin/env python3
"""Build the hdrd benchmark from source and run one workload.

    python3 perfbench/run.py --workload scan|shared --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first call configures and builds a
Release tree under .bench_build/perfbench (the library, hdrd_served
and the perfbench driver); later calls only rebuild what changed.
The driver's output is relayed; its last line is the JSON result.
Exits non-zero, printing no result, when the sources or the build are
missing or the driver fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_REL = os.path.join(".bench_build", "perfbench")
BUILD = os.path.join(ROOT, BUILD_REL)
WORKLOADS = ("scan", "shared")
DRIVER_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: hdrd sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "hdrd_served"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode:
            sys.exit("run.py: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("run.py: need --seed >= 0 and --seconds > 0")

    build()
    # Relative paths keep the daemon's unix socket path short.
    work = os.path.join(BUILD_REL, "work",
                        "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(os.path.join(ROOT, work), exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--served", os.path.join(BUILD, "hdrd_served"),
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        # run() has killed and reaped the driver; its daemon dies with it.
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
        out = exc.stdout or b""
        sys.stdout.write(out.decode(errors="replace")
                         if isinstance(out, bytes) else out)
        sys.exit("run.py: driver timed out after %d s" % DRIVER_TIMEOUT_S)

    spans = os.path.join(work, "spans-%s.jsonl" % args.workload)
    kept = os.path.join(BUILD_REL, "spans-%s-seed%d.jsonl"
                        % (args.workload, args.seed))
    if os.path.isfile(os.path.join(ROOT, spans)):
        shutil.move(os.path.join(ROOT, spans), os.path.join(ROOT, kept))
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)

    lines = proc.stdout.replace(spans, kept).rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if proc.returncode != 0 or not ok:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit("run.py: driver failed (exit %d)" % proc.returncode)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
