#!/usr/bin/env python3
"""Steadiness report: run one workload repeatedly and show its spread.

    python3 perfbench/steady.py --workload shared --runs 10 \
        [--first-seed 1] [--seconds S]

Each run uses the next seed. For every metric the report prints the
median, the quartiles (statistics.quantiles(values, n=4)), the
quartile spread (q3 - q1) / median and the min/max spread
(max - min) / median, next to the metric's bound from BENCHMARK.json
and whether the quartile spread stays within a third of it. Runs
whose host/build stamps differ are refused, never pooled. A run that
fails its checks counts as failed and stops the report.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0:
        sys.exit("steady.py: run failed (seed %d):\n%s"
                 % (seed, proc.stdout))
    stamp = next((l[len("# stamp "):] for l in lines
                  if l.startswith("# stamp ")), "")
    return stamp, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    stamp0 = None
    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        stamp, result = run_once(args.workload, seed, seconds)
        if stamp0 is None:
            stamp0 = stamp
            print("# stamp " + stamp)
        elif stamp != stamp0:
            sys.exit("steady.py: host/build stamp changed between runs:\n"
                     "  %s\n  %s" % (stamp0, stamp))
        if not result["correct"] or result["failed"]:
            sys.exit("steady.py: seed %d failed %d of %d checks"
                     % (seed, result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("# run %d/%d seed %d ok (%d checks): %s"
              % (i + 1, args.runs, seed, result["attempted"],
                 " ".join("%s=%.6g" % (name, m["value"])
                          for name, m in result["metrics"].items())),
              flush=True)

    print("%-28s %-7s %12s %12s %12s %8s %8s %6s %s"
          % ("metric", "unit", "median", "q1", "q3", "iqr/med",
             "rng/med", "bound", "iqr<bound/3"))
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        iqr = (q3 - q1) / med if med else float("nan")
        rng = (max(v) - min(v)) / med if med else float("nan")
        bound = bounds[name]
        verdict = "yes" if iqr < bound / 3 else "NO"
        print("%-28s %-7s %12.5g %12.5g %12.5g %8.4f %8.4f %6s %s"
              % (name, units[name], med, q1, q3, iqr, rng,
                 "%.2f" % bound, verdict))


if __name__ == "__main__":
    main()
