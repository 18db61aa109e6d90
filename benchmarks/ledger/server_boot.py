"""The benchmark's own server process for the ``wire_mixed`` workload.

Started by :mod:`scenarios` as ``python server_boot.py <json config>``.
It generates the records from the seed, bulk-loads them **in-process
before listening** (so the load is set-up, not wire traffic), then serves
while lines arrive on stdin.  It answers on stdout, one JSON line each:

* once the listener is up: ``{"ready": port}``;
* to ``mark``: ``{}``; to ``self-times``: when tracing, the per-layer
  self times since the last mark, from the proxies installed here (the
  same ones the in-process workloads use, plus one around the service
  and the executor the server executes against);
* to any other line, after a graceful drain: ``{"done": true, ...}`` with
  peak RSS, stored bytes, the final root and the queue counters.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, os.pardir, "src"))

from repro import Repository  # noqa: E402
from repro.indexes import POSTree  # noqa: E402
from repro.server.server import RepositoryServer, ServerThread  # noqa: E402
from repro.service.executor import ServiceExecutor  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

QUEUE_CAPACITY = 128


def main() -> int:
    workloads.reset_peak_rss()  # a child starts at its parent's high-water mark
    config = json.loads(sys.argv[1])
    traced = bool(config["traced"])
    tracer = tracing.Tracer() if traced else None
    factory = (tracing.traced_index_factory(POSTree, tracer, "pos")
               if traced else POSTree)
    repo = Repository.open(index_factory=factory, num_shards=4)
    records = workloads.make_records(config["records"])
    repo.import_data(records)
    service = repo.service

    # The in-process cost of the call a wire GET ends in, on the client's
    # own warm-up keys: the base of server.roundtrip_overhead_us.
    inproc_ns = []
    for key in workloads.zipf_get_stream(config["seed"], "wire-warmup",
                                         config["inproc_gets"], config["records"]):
        started = time.perf_counter_ns()
        service.get(key)
        inproc_ns.append(time.perf_counter_ns() - started)
    inproc_ns.sort()

    served, executor = repo, None
    if traced:
        served = SimpleNamespace(service=tracing.SpanProxy(service, tracer, "api"),
                                 branches=repo.branches, create_branch=repo.create_branch)
        executor = tracing.SpanProxy(ServiceExecutor(service), tracer, "api")
    del records
    gc.collect()
    gc.freeze()

    server = RepositoryServer(served, executor=executor, queue_capacity=QUEUE_CAPACITY)
    thread = ServerThread(server)
    _host, port = thread.start()
    print(json.dumps({"ready": port}), flush=True)

    mark = 0
    for line in sys.stdin:  # EOF (the parent died) stops the server as well
        command = line.strip()
        if command == "mark":
            mark = tracer.mark() if traced else 0
            print("{}", flush=True)
        elif command == "self-times":
            print(json.dumps(tracing.server_self_ns(tracer.spans[mark:]) if traced else {}),
                  flush=True)
        else:
            break
    thread.stop()
    if executor is not None:
        executor.close()

    head = repo.default_branch.head
    queues = server.metrics.total_queue_counters()
    report = {
        "done": True,
        "peak_rss_mb": workloads.peak_rss_mb(),
        "stored_bytes": repo.storage_bytes(),
        "root": head.digest.hex if head is not None else "",
        "inproc_get_p50_ns": inproc_ns[len(inproc_ns) // 2] if inproc_ns else 0,
        "admitted": queues.admitted,
        "rejected_busy": queues.rejected_busy,
        "peak_queue_depth": queues.peak_depth,
    }
    repo.close()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
