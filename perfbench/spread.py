#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's median
and quartile spread, the way a steadiness or regression check reads them.

    python3 perfbench/spread.py --workload online-intrusion --seeds 1-10 \
        --seconds 25 [--trace 1] [--out runs.json]

Run from the root of a checkout, like run.py. The spread is the distance
between the first and third quartile as a share of the median.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def parse_seeds(text):
    """"1-10" or "3,5,8" -> list of ints."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def summarize(runs):
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q3 = benchlib.quartiles(values)
        med = benchlib.median(values)
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"],
                         "median": med, "q1": q1, "q3": q3,
                         "spread": benchlib.spread(values) if med else None}
    return summary


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=benchlib.WORKLOADS)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed",
             str(seed), "--seconds", repr(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("seed %d: exit %d" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print("seed %d: correct %s, %s" % (seed, result["correct"], ", ".join(
            "%s %.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)

    summary = summarize(runs)
    for name, s in summary.items():
        print("%-40s median %12.6g %-10s spread %s" % (
            name, s["median"], s["unit"],
            "n/a" if s["spread"] is None else "%.3f" % s["spread"]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "runs": runs,
                       "summary": summary}, f, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
