"""Metric tables and statistics helpers of the repo benchmark.

run.py turns the raw samples hom_perfbench prints into the metrics that
BENCHMARK.json names.
"""

import json
import math
import os
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

SPEC_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


def load_spec():
    """Workload names and metric tables from BENCHMARK.json:
    (workloads, end_to_end rows (name, unit, better, bound), per_layer rows
    (name, unit, better))."""
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    return (tuple(w["name"] for w in spec["workloads"]),
            tuple((m["name"], m["unit"], m["better"], m["bound"])
                  for m in spec["end_to_end"]),
            tuple((m["name"], m["unit"], m["better"])
                  for m in spec["per_layer"]))


WORKLOADS, END_TO_END, PER_LAYER = load_spec()


def valid_name(name):
    return bool(NAME_RE.fullmatch(name))


def valid_unit(unit):
    return bool(UNIT_RE.fullmatch(unit))


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) the way statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def percentile(sorted_values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of ascending values."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def resolved(count, p, beyond=10):
    """True when at least `beyond` of `count` samples lie above the p-th
    percentile, so the percentile rests on more than a few outliers."""
    return count - math.ceil(p / 100.0 * count) >= beyond


def highest_resolved(count, candidates=(50, 90, 99, 99.9, 99.99)):
    """The highest candidate percentile resolved at `count` samples, or
    None when even the lowest is not."""
    best = None
    for p in candidates:
        if resolved(count, p):
            best = p
    return best


def check_metrics(metrics, table):
    """Problems with a metrics object against a (name, unit, ...) table:
    missing or extra names, wrong units, values that are not finite."""
    problems = []
    expected = {row[0]: row[1] for row in table}
    for name, unit in expected.items():
        if name not in metrics:
            problems.append("missing metric " + name)
            continue
        entry = metrics[name]
        if entry.get("unit") != unit:
            problems.append("%s: unit %r, expected %r"
                            % (name, entry.get("unit"), unit))
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: value %r is not finite" % (name, value))
    for name in metrics:
        if name not in expected:
            problems.append("unexpected metric " + name)
        if not valid_name(name):
            problems.append("invalid metric name " + name)
    return problems
