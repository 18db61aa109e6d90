"""Smoke test of the ledger benchmark at ``--scale tiny`` (about ten seconds).

Runs the real command in child processes — the benchmark wraps
``os.fsync`` while tracing, which must never happen inside the test
runner — and checks what later claims will rely on: every metric of
``BENCHMARK.json`` is emitted with a unit and a finite value on the
workloads that own it (and on every workload when one is run alone, as
the driver does), the ledger covers the wall clock, and one seed gives
one set of roots and counts.
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
EXACT = ("dedup_ratio", "write_amp", "space_amp")
#: Per-layer metrics that are counts of something every run must do: a 0
#: means the seam they are counted at has moved.
NEVER_ZERO = ("nodes_read_per_lookup", "decode_calls_per_get", "digest_ctor_per_get",
              "_per_written_key", "nodes_written_per_key", "_per_put", "_per_commit",
              "nodes_read_per_diff", "nodes_moved_per_delta", "bytes_moved_per_changed_byte")


def registry_view():
    """``registry.manifest()`` and each metric's owners, asked of a child
    process so that the benchmark's modules stay off the test runner's path."""
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, registry; print(json.dumps([registry.manifest(), "
         "{m.name: m.owners for m in registry.END_TO_END + registry.PER_LAYER}]))"],
        cwd=HERE, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


MANIFEST, OWNERS = registry_view()
WORKLOADS = tuple(workload["name"] for workload in MANIFEST["workloads"])


def start(*flags):
    return subprocess.Popen(
        [sys.executable, RUN, "--scale", "tiny", "--seconds", "1", "--seed", "7", *flags],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish(process):
    out, err = process.communicate(timeout=120)
    assert process.returncode == 0, err[-2000:]
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two ``--workload all`` runs (one of them traced as well) and one run
    of a single workload, the way the driver asks for it."""
    directory = tmp_path_factory.mktemp("ledger")
    paths = [str(directory / "a.json"), str(directory / "b.json")]
    first = start("--workload", "all", "--out", paths[0], "--traced")
    second = start("--workload", "all", "--out", paths[1])
    alone = None
    try:
        finish(second)
        alone = start("--workload", "version_collab", "--trace", "0")
        lines = [finish(first), finish(alone)]
    finally:
        for process in (first, second, alone):
            if process is not None and process.poll() is None:
                process.kill()
                process.communicate()
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return lines, documents


def test_manifest_matches_the_registry():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == MANIFEST


def test_every_metric_is_emitted_on_its_owners(runs):
    lines, documents = runs
    assert lines[0]["correct"] and lines[0]["failed"] == 0 and lines[0]["attempted"] > 0
    assert documents[0]["envelope"]["comparable"] is False  # tiny is flagged
    by_workload = {run["workload"]: run for run in documents[0]["runs"]}
    assert tuple(by_workload) == WORKLOADS
    for section, listed in (("metrics", MANIFEST["end_to_end"]), ("layers", MANIFEST["per_layer"])):
        for workload, run in by_workload.items():
            assert run["failed_share"] == 0, workload
            owned = [metric for metric in listed if workload in OWNERS[metric["name"]]]
            assert set(run[section]) == {metric["name"] for metric in owned}
            for metric in owned:
                name, entry = metric["name"], run[section][metric["name"]]
                assert entry["unit"] == metric["unit"], (workload, name)
                assert math.isfinite(entry["value"]), (workload, name)
                if section == "metrics" or name.endswith(NEVER_ZERO):
                    assert entry["value"] != 0, (workload, name)


def test_a_workload_run_alone_reports_every_end_to_end_metric(runs):
    lines, _documents = runs
    alone = lines[1]
    assert alone["correct"] and alone["failed"] == 0
    assert set(alone["metrics"]) == {metric["name"] for metric in MANIFEST["end_to_end"]}
    for metric in MANIFEST["end_to_end"]:
        entry = alone["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and math.isfinite(entry["value"])
        assert entry["value"] != 0, metric["name"]


def test_the_ledger_covers_the_wall_clock(runs):
    _lines, documents = runs
    for run in documents[0]["runs"]:
        coverage = run["layers"]["ledger.coverage"]["value"]
        assert 0.9 <= coverage <= 1.1, (run["workload"], coverage)


def test_peak_memory_is_each_workload_s_own(runs):
    """Not the high-water mark of whatever ran earlier in the process, nor,
    for the server of wire_mixed, that of the process that spawned it."""
    _lines, documents = runs
    peaks = [run["metrics"]["peak_rss_mb"]["value"] for run in documents[0]["runs"]]
    assert len(set(peaks)) == len(peaks), peaks


def test_one_seed_gives_one_set_of_roots_and_counts(runs):
    _lines, documents = runs
    first, second = ({run["workload"]: run for run in document["runs"]}
                     for document in documents)
    for workload in WORKLOADS:
        assert first[workload]["roots"] == second[workload]["roots"], workload
        assert first[workload]["roots"], workload
        for name in EXACT:
            if name in first[workload]["metrics"]:
                assert (first[workload]["metrics"][name]["value"]
                        == second[workload]["metrics"][name]["value"]), (workload, name)
        for name, count in first[workload]["counts"].items():
            if not name.startswith("server_"):
                assert second[workload]["counts"][name] == count, (workload, name)
