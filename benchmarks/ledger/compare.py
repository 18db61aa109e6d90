"""``run.py --compare A.json B.json``: is B no worse than A?

A and B are files written by ``run.py --out`` (run the command several
times with the same ``--out`` to collect a set).  One row per end-to-end
metric and workload: both medians, both spreads (distance between the
first and third quartile as a share of the median), the metric's bound
and a verdict:

``better`` / ``worse``   B's median differs from A's by more than the bound;
``within``              it does not;
``unresolved``          a spread is wider than the bound, so the runs
                        cannot tell (report it as such, never as unchanged).

``failed_share`` has its own rows: any increase is ``worse``.  Per-layer
metrics have no bound; they are listed with their change only (signed,
like every change here, so that + is better).  Cells a single-workload
run filled in from ``tiny`` runs of other workloads are not compared.
Exit code 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

import registry


def load(path: str) -> Tuple[dict, Dict[Tuple[str, str, str], List[float]]]:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    values: Dict[Tuple[str, str, str], List[float]] = defaultdict(list)
    for run in document["runs"]:
        values[("metrics", run["workload"], "failed_share")].append(run["failed_share"])
        for section in ("metrics", "layers"):
            for name, entry in run[section].items():
                if entry["source"] == "own":
                    values[(section, run["workload"], name)].append(entry["value"])
    return document["envelope"], values


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(third - first) / abs(middle) if middle else 0.0


def gain(metric: registry.Metric, a: List[float], b: List[float]) -> float:
    """Change of B's median relative to A's, signed so that + is better."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    change = (median_b - median_a) / abs(median_a) if median_a else 0.0
    return change if metric.better == "higher" else -change


def verdict(metric: registry.Metric, a: List[float], b: List[float]) -> str:
    if max(spread(a), spread(b)) > metric.bound:
        return "unresolved"
    change = gain(metric, a, b)
    if change < -metric.bound:
        return "worse"
    return "better" if change > metric.bound else "within"


def main(path_a: str, path_b: str) -> int:
    envelope_a, values_a = load(path_a)
    envelope_b, values_b = load(path_b)
    for key in ("scale", "seconds", "cpu_count"):
        if envelope_a[key] != envelope_b[key]:
            print(f"not comparable: {key} is {envelope_a[key]!r} in A, {envelope_b[key]!r} in B")
            return 2
    if not envelope_a["comparable"]:
        print(f"!! --scale {envelope_a['scale']}: smoke-test sizes, not a basis for a claim")
    print(f"A: {path_a}  git {envelope_a['git_sha']}  seed {envelope_a['seed']}")
    print(f"B: {path_b}  git {envelope_b['git_sha']}  seed {envelope_b['seed']}")
    header = (f"{'workload':16s} {'metric':40s} {'A median':>13s} {'B median':>13s} "
              f"{'A iqr':>7s} {'B iqr':>7s} {'bound':>6s} {'change':>8s}  verdict")
    print(header)
    worse = 0
    for section, metrics in (("metrics", registry.END_TO_END), ("layers", registry.PER_LAYER)):
        for metric in metrics:
            for workload in registry.WORKLOADS:
                a = values_a.get((section, workload, metric.name))
                b = values_b.get((section, workload, metric.name))
                if not a or not b:
                    continue
                bounded = section == "metrics"  # per-layer metrics explain, they do not gate
                word = verdict(metric, a, b) if bounded else ""
                worse += word == "worse"
                bound = f"{metric.bound:6.3g}" if bounded else "     -"
                print(f"{workload:16s} {metric.name:40s} {statistics.median(a):13.6g} "
                      f"{statistics.median(b):13.6g} {spread(a):7.3f} {spread(b):7.3f} "
                      f"{bound} {gain(metric, a, b):+8.3f}  {word}")
    for workload in registry.WORKLOADS:
        a = max(values_a.get(("metrics", workload, "failed_share"), [0.0]))
        b = max(values_b.get(("metrics", workload, "failed_share"), [0.0]))
        worse += b > a
        print(f"{workload:16s} {'failed_share (highest of the runs)':40s} {a:13.6g} {b:13.6g} "
              f"{'':7s} {'':7s} {'any':>6s} {'':8s}  {'worse' if b > a else 'within'}")
    print(f"{worse} row(s) worse than their bound")
    return 1 if worse else 0
