#!/usr/bin/env python
"""Replay the concurrency stress tests until an interleaving bug bites.

Thread-interleaving bugs are schedule-dependent: one green run proves
very little.  This runner executes the concurrency test files repeatedly
(default 10 consecutive runs, the CI gate) with ``PYTHONHASHSEED=0`` so
everything deterministic stays deterministic and only genuine scheduling
races vary between runs.  It fails fast on the first red run and reports
which repetition broke, so the failure seed of information — "this is
flaky, not broken" vs "this is broken" — is preserved.

Usage::

    python scripts/run_stress.py                  # 10 runs of the default files
    python scripts/run_stress.py --repeats 50     # a deeper local hunt
    python scripts/run_stress.py tests/service/test_concurrency.py --repeats 3
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

#: Test files exercising schedule-sensitive concurrency paths, plus the
#: storage-engine crash-recovery kill-points (file-system timing varies
#: between runs, so repeated replays also harden the recovery protocol).
#: The server suites ride along because socket delivery, asyncio worker
#: scheduling and queue admission timing all vary run to run.
DEFAULT_TESTS = [
    "tests/service/test_concurrency.py",
    "tests/indexes/test_differential.py",
    "tests/storage/test_segment.py",
    "tests/service/test_durability.py",
    "tests/service/test_backend_equivalence.py",
    "tests/service/test_process_faults.py",
    "tests/server/test_faults.py",
    "tests/server/test_backpressure.py",
    "tests/sync/test_convergence.py",
    "tests/sync/test_sync_faults.py",
    "tests/query/test_query_differential.py",
    "tests/query/test_feed.py",
]
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tests", nargs="*", default=DEFAULT_TESTS,
                        help="test files/node ids to replay (default: the "
                             "concurrency stress suites)")
    parser.add_argument("--repeats", type=int, default=10,
                        help="consecutive green runs required (default: 10)")
    args = parser.parse_args(argv)
    if args.repeats <= 0:
        parser.error("--repeats must be positive")

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    command = [sys.executable, "-m", "pytest", "-q", *args.tests]
    started = time.perf_counter()
    for run in range(1, args.repeats + 1):
        print(f"[stress] run {run}/{args.repeats}: {' '.join(args.tests)}",
              flush=True)
        result = subprocess.run(command, cwd=REPO_ROOT, env=env)
        if result.returncode != 0:
            print(f"[stress] FAILED on run {run}/{args.repeats} "
                  f"(exit {result.returncode}) — interleaving bug or real "
                  f"regression; rerun this script locally to reproduce.",
                  flush=True)
            return result.returncode
    elapsed = time.perf_counter() - started
    print(f"[stress] OK: {args.repeats} consecutive green runs "
          f"in {elapsed:.1f}s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
