#!/usr/bin/env python3
"""The SIRI ledger: the repository's one benchmark.

    python3 benchmarks/ledger/run.py --workload NAME|all [--seed 42]
        [--seconds 15] [--trace 0|1 | --traced] [--scale bench|tiny]
        [--out FILE]
    python3 benchmarks/ledger/run.py --compare A.json B.json

``--trace 0`` (default) measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics from a traced run of a
quarter of the operations; ``--traced`` does both.  Every metric is
printed by name with its unit, every answer is checked against a shadow
dict, and the last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--out`` appends the run, with its envelope, to a JSON file that
``--compare`` reads.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
from dataclasses import replace
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import registry  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
#: A traced run executes this share of the timed run's operations.
TRACED_SHARE = 4


def execute(workload: str, seed: int, sizes: workloads.Sizes,
            tracer: Optional[tracing.Tracer] = None,
            untraced_wall_s: Optional[float] = None) -> scenarios.Outcome:
    """Run one workload once and release everything it opened."""
    run = scenarios.Run(seed, sizes, OUT_DIR, tracer, untraced_wall_s,
                        after_timed=layers.live if tracer else None)
    try:
        if tracer is None:
            outcome = scenarios.RUNNERS[workload](run)
            outcome.metrics["ok_share"] = 1.0 - outcome.failed / outcome.attempted
            return outcome
        with tracing.process_patches(tracer):
            outcome = scenarios.RUNNERS[workload](run)
        layers.settle(run, outcome)
        return outcome
    finally:
        run.close()


def measure(workload: str, seed: int, seconds: float, scale: str,
            timed: bool, traced: bool, fill: bool) -> dict:
    """One run of ``workload``: the selected passes.

    A metric is measured on the workloads that own it (registry.py).
    ``fill``: the driver runs one workload at a time and wants every
    metric from every run, so the rest are measured by a ``tiny`` run of
    their first owner and marked as such; they say nothing about
    ``workload`` and ``--compare`` skips them.
    """
    bench = workloads.sizes_for(workload, scale, seconds)
    record = {"workload": workload, "seed": seed, "attempted": 0, "failed": 0,
              "sizes": vars(bench).copy(), "metrics": {}, "layers": {}}

    def gather(metrics: List[registry.Metric], field: str, own: scenarios.Outcome,
               with_tracer: bool) -> Dict[str, dict]:
        outcomes = {workload: own}
        gathered = {}
        for metric in metrics:
            source = workload if workload in metric.owners else metric.owners[0]
            if source != workload and not fill:
                continue
            if source not in outcomes:
                outcomes[source] = execute(source, seed, workloads.sizes_for(source, "tiny", seconds),
                                           tracing.Tracer() if with_tracer else None)
            value = getattr(outcomes[source], field)[metric.name]
            if not math.isfinite(value):
                raise ValueError(f"{metric.name} on {source} is not finite: {value!r}")
            gathered[metric.name] = {"value": value, "unit": metric.unit,
                                     "source": "own" if source == workload else f"tiny:{source}"}
        record["attempted"] += sum(outcome.attempted for outcome in outcomes.values())
        record["failed"] += sum(outcome.failed for outcome in outcomes.values())
        return gathered

    if timed:
        main = execute(workload, seed, bench)
        record["metrics"] = gather(registry.END_TO_END, "metrics", main, False)
        record["roots"], record["counts"] = main.roots, main.counts
    if traced:
        quarter = replace(bench, ops=max(3, bench.ops // TRACED_SHARE), setups=1)
        reference = execute(workload, seed, quarter)
        record["attempted"] += reference.attempted
        record["failed"] += reference.failed
        main = execute(workload, seed, quarter, tracing.Tracer(), reference.wall_s)
        tracing.dump(main.spans, os.path.join(OUT_DIR, f"trace-{workload}.jsonl"))
        record["layers"] = gather(registry.PER_LAYER, "layers", main, True)
        record.setdefault("roots", main.roots)
        record["traced_counts"] = main.counts
    record["failed_share"] = record["failed"] / record["attempted"]
    return record


def _measure_to(pipe, arguments: tuple) -> None:
    pipe.send(measure(*arguments))


def measure_apart(*arguments) -> dict:
    """:func:`measure` in a process of its own.  ``--workload all`` runs
    each workload this way, as the driver does: its peak memory, heap and
    caches owe nothing to the workload that ran before it.  (Forked from
    this process, which has imported the program and nothing more.)"""
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_measure_to, args=(sender, arguments))
    child.start()
    sender.close()
    try:
        return receiver.recv()
    except EOFError:
        raise SystemExit(f"measuring {arguments[0]} failed; see the error above") from None
    finally:
        child.join()


def show(record: dict) -> None:
    """Every metric by name, with its unit and where it was measured."""
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"attempted={record['attempted']}  failed={record['failed']}")
    print(f"   {'failed_share':44s} {record['failed_share']:>16.6g} {'ratio':6s} own")
    for name, size in record["sizes"].items():
        print(f"   size {name} = {size}")
    for section in ("metrics", "layers"):
        for name, entry in record[section].items():
            print(f"   {name:44s} {entry['value']:>16.6g} {entry['unit']:6s} {entry['source']}")
    for family, root in record.get("roots", {}).items():
        print(f"   root {family} = {root}")
    for name, count in record.get("counts", {}).items():
        print(f"   count {name} = {count}")


def append_run(path: str, envelope: dict, records: List[dict]) -> None:
    """Add this invocation's runs to ``path`` (created when missing)."""
    document = {"envelope": envelope, "runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        previous = document["envelope"]
        for key in ("scale", "seconds"):
            if previous[key] != envelope[key]:
                raise SystemExit(f"{path} holds runs with {key}={previous[key]!r}; "
                                 f"this run has {key}={envelope[key]!r}")
    document["runs"].extend(records)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=workloads.BASE_SECONDS,
                        help="length of the timed phase; turned into operation counts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracing off; 1: per-layer metrics")
    parser.add_argument("--traced", action="store_true", help="both passes")
    parser.add_argument("--scale", default="bench", choices=tuple(workloads.SIZES))
    parser.add_argument("--out", metavar="FILE", help="append the result envelope to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    timed = args.traced or args.trace == 0
    traced = args.traced or args.trace == 1
    envelope = workloads.envelope(args.seed, args.scale, args.seconds)
    print(json.dumps(envelope))
    if args.scale != "bench":
        print(f"!! --scale {args.scale}: not comparable with a bench run")
    records = []
    alone = len(names) == 1
    for name in names:
        record = (measure if alone else measure_apart)(
            name, args.seed, args.seconds, args.scale, timed, traced, alone)
        show(record)
        records.append(record)
    if args.out:
        append_run(args.out, envelope, records)

    attempted = sum(record["attempted"] for record in records)
    failed = sum(record["failed"] for record in records)
    reported = {}
    for record in records:
        prefix = f"{record['workload']}/" if len(records) > 1 else ""
        for section in ("metrics", "layers"):
            for name, entry in record[section].items():
                reported[prefix + name] = {"value": entry["value"], "unit": entry["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
