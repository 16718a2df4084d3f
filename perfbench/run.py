#!/usr/bin/env python3
"""Repo benchmark: builds hom from source, runs one workload, prints metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload online-intrusion --seed 1 \
        --seconds 25 --trace 0

Workloads: online-intrusion, serve-stagger (see
perfbench/README.md). The library and the hom_perfbench binary are built
with CMake into $CARGO_TARGET_DIR (default .bench_build); inputs are
generated there from --seed and removed after the run. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ledger. The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import array
import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
# Prepare and measure together stay inside a run's 180 s (the first run of a
# checkout also builds, which has its own timeout).
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds hom_perfbench; returns its path."""
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", cmake_dir, "--target",
                    "hom_perfbench", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=850)
    return os.path.join(cmake_dir, "hom_perfbench")


def run_step(argv, deadline):
    result = subprocess.run(argv, stdout=subprocess.PIPE, check=True,
                            timeout=max(1.0, deadline - time.monotonic()),
                            text=True)
    return result.stdout


def prepare(binary, common, args, deadline):
    """Generates every instance's inputs and reference model, one process
    per instance, as many at a time as there are CPUs. Untimed."""
    count = int(run_step([binary, "instances"] + common, deadline))
    steps = [[binary, "prepare", "--seed", str(args.seed), "--instance",
              str(i), "--scale", repr(args.scale)] + common
             for i in range(count)]
    with concurrent.futures.ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        for _ in pool.map(lambda step: run_step(step, deadline), steps):
            pass


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw):
    """Whole-run figures. Set-up and loop time are the median over rounds
    of one round's total over all instances (a round spreads its instances
    over every CPU); build_s is the mean over timed instances of each one's
    median build time; accuracy is one minus the median instance's
    prequential error."""
    inst = raw["instances"]

    def total(key):
        return benchlib.median([sum(r) for r in zip(*(i[key] for i in inst))])

    builds = [benchlib.median(i["build_s"]) for i in inst if i["build_s"]]
    records = sum(i["records"] for i in inst)
    loop = total("loop_s")
    attempted = raw["attempted"]
    values = {
        "setup_s": total("setup_s"),
        "build_s": sum(builds) / len(builds),
        "serve_rps": records / loop,
        "online_rps": records / (total("setup_s") + loop),
        "accuracy": 1.0 - benchlib.median(
            [i["errors"] / i["records"] for i in inst]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_ratio": (attempted - raw["failed"]) / attempted,
    }
    return {name: metric(values[name], unit)
            for name, unit, _, _ in benchlib.END_TO_END}


def read_samples(path):
    samples = array.array("d")
    with open(path, "rb") as f:
        samples.frombytes(f.read())
    return sorted(samples)


def per_layer(raw):
    values = dict(raw["layers"])
    for call in ("predict", "observe"):
        samples = read_samples(raw[call + "_us_file"])
        values["highorder.%s_samples" % call] = len(samples)
        for p in (50, 99):
            values["highorder.%s_p%d_us" % (call, p)] = (
                benchlib.percentile(samples, p) if samples else 0.0)
        top = benchlib.highest_resolved(len(samples))
        log("%s: %d calls, p99 %s; highest percentile with ten samples "
            "beyond it: %s" % (
                call, len(samples),
                "resolved" if benchlib.resolved(len(samples), 99)
                else "UNRESOLVED",
                "none" if top is None else "p%g = %.3f us" % (
                    top, benchlib.percentile(samples, top))))
    return {name: metric(values[name], unit)
            for name, unit, _ in benchlib.PER_LAYER}


def report(raw, metrics, trace):
    """Human-readable lines ahead of the JSON line, with the host probe and
    the sample counts behind each median."""
    log("workload %s: %d checks" % (raw["workload"], len(raw["checks"])))
    for check in raw["checks"]:
        log("  check %-28s %s %s" % (check["name"],
                                     "ok" if check["ok"] else "FAILED",
                                     check.get("detail", "")))
    if not trace:
        log("  host probe %s ms (a fixed CPU-bound loop, before and after)"
            % " ".join("%.1f" % v for v in raw["probe_ms"]))
        inst = raw["instances"]
        records = sum(i["records"] for i in inst)
        log("  %d instances, %d records; per instance %d build, %d set-up, "
            "%d serve samples; pooled error rate %.5f"
            % (len(inst), records, len(inst[0]["build_s"]),
               len(inst[0]["setup_s"]), len(inst[0]["loop_s"]),
               sum(i["errors"] for i in inst) / records))
        log("  per instance: concepts %s, serve s %s, build s %s" % (
            " ".join(str(i["concepts"]) for i in inst),
            " ".join("%.3f" % benchlib.median(i["loop_s"]) for i in inst),
            " ".join("%.3f" % benchlib.median(i["build_s"])
                     for i in inst if i["build_s"])))
    for name, entry in metrics.items():
        print("%-40s %14.6g %s" % (name, entry["value"], entry["unit"]))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=benchlib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Shrinks every stream; only the smoke test uses it.
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("no library sources under %s/src; run from a checkout root"
            % root)
        return 2
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)

    work = os.path.join(build_dir, "work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT_S
    try:
        common = ["--workload", args.workload, "--dir", work]
        prepare(binary, common, args, deadline)
        prepared = time.monotonic()
        out = run_step([binary, "measure", "--seconds", repr(args.seconds)]
                       + common + (["--trace"] if args.trace else []),
                       deadline)
        log("wall time: prepare %.1f s, measure %.1f s, %.1f s of the %d s "
            "allowed" % (prepared - start, time.monotonic() - prepared,
                         time.monotonic() - start, RUN_TIMEOUT_S))
        raw = json.loads(out.strip().splitlines()[-1])
        metrics = per_layer(raw) if args.trace else end_to_end(raw)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    table = benchlib.PER_LAYER if args.trace else benchlib.END_TO_END
    problems = benchlib.check_metrics(metrics, table)
    for problem in problems:
        log(problem)
    correct = (not problems and raw["failed"] == 0
               and all(c["ok"] for c in raw["checks"]))
    report(raw, metrics, args.trace)
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
