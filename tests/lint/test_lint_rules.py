"""Per-rule fixtures: each rule has snippets that must and must not fire.

Includes the three deliberately seeded violations named by the issue's
acceptance criteria: an upward import (L1), set iteration feeding a
digest (L2), and a lock crossing the process pipe (L4).
"""

import pytest

from scripts.lint import Project, run_rules
from scripts.lint.rules.async_discipline import AsyncBlockingRule
from scripts.lint.rules.defaults import MutableDefaultRule
from scripts.lint.rules.determinism import DeterminismRule
from scripts.lint.rules.durability import DurabilityOrderRule
from scripts.lint.rules.exceptions import ExceptionPolicyRule
from scripts.lint.rules.layering import ImportCycleRule, ImportLayeringRule
from scripts.lint.rules.naming import AllConsistencyRule, UniqueTestBasenameRule
from scripts.lint.rules.pickle_boundary import PickleBoundaryRule

DOC = '"""fixture."""\n'


def _findings(sources, rule):
    result = run_rules(Project.from_sources(sources), rules=[rule])
    return result.findings


class TestL1Layering:
    def test_seeded_upward_import_is_caught(self):
        # The acceptance-criteria seed: a bottom-layer hashing module
        # eagerly importing the service layer above it.
        sources = {
            "src/repro/hashing/digest.py": DOC +
            "from repro.service.service import VersionedKVService\n",
            "src/repro/service/service.py": DOC + "VersionedKVService = 1\n",
        }
        findings = _findings(sources, ImportLayeringRule())
        assert [f.rule for f in findings] == ["L1-layering"]
        assert "upward import" in findings[0].message
        assert findings[0].path == "src/repro/hashing/digest.py"

    def test_downward_import_does_not_fire(self):
        sources = {
            "src/repro/service/service.py": DOC +
            "from repro.hashing.digest import Digest\n",
            "src/repro/hashing/digest.py": DOC + "Digest = 1\n",
        }
        assert _findings(sources, ImportLayeringRule()) == []

    def test_lazy_upward_import_is_exempt(self):
        sources = {
            "src/repro/api/repository.py": DOC +
            "def sync(self):\n"
            "    from repro.sync.session import sync_service\n"
            "    return sync_service\n",
            "src/repro/sync/session.py": DOC + "sync_service = 1\n",
        }
        assert _findings(sources, ImportLayeringRule()) == []

    def test_type_checking_import_is_exempt(self):
        sources = {
            "src/repro/core/interfaces.py": DOC +
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.storage.store import NodeStore\n",
            "src/repro/storage/store.py": DOC + "NodeStore = 1\n",
        }
        assert _findings(sources, ImportLayeringRule()) == []

    def test_eager_cycle_is_caught(self):
        sources = {
            "src/repro/api/repository.py": DOC +
            "from repro.api.branch import Branch\n",
            "src/repro/api/branch.py": DOC +
            "from repro.api.repository import Repository\n",
        }
        findings = _findings(sources, ImportCycleRule())
        assert findings
        assert all(f.rule == "L1-cycles" for f in findings)
        assert "cycle" in findings[0].message

    def test_acyclic_graph_does_not_fire(self):
        sources = {
            "src/repro/api/repository.py": DOC +
            "from repro.api.branch import Branch\n",
            "src/repro/api/branch.py": DOC + "Branch = 1\n",
        }
        assert _findings(sources, ImportCycleRule()) == []

    def test_from_package_import_submodule_binds_the_submodule(self):
        # `from repro.server import protocol` inside the package is an
        # edge to repro.server.protocol, not a package self-cycle.
        sources = {
            "src/repro/server/__init__.py": DOC +
            "from repro.server.client import RemoteRepository\n",
            "src/repro/server/client.py": DOC +
            "from repro.server import protocol\n"
            "RemoteRepository = 1\n",
            "src/repro/server/protocol.py": DOC + "Op = 1\n",
        }
        assert _findings(sources, ImportCycleRule()) == []


class TestL2Determinism:
    def test_seeded_set_iteration_into_digest_is_caught(self):
        # The acceptance-criteria seed: hashing node bytes assembled by
        # iterating a set.
        sources = {
            "src/repro/hashing/digest.py": DOC +
            "def digest_of(keys):\n"
            "    payload = b''\n"
            "    for key in set(keys):\n"
            "        payload += key\n"
            "    return payload\n"}
        findings = _findings(sources, DeterminismRule())
        assert [f.rule for f in findings] == ["L2-determinism"]
        assert "set" in findings[0].message

    def test_sorted_set_iteration_does_not_fire(self):
        sources = {
            "src/repro/hashing/digest.py": DOC +
            "def digest_of(keys):\n"
            "    payload = b''\n"
            "    for key in sorted(set(keys)):\n"
            "        payload += key\n"
            "    return payload\n"}
        assert _findings(sources, DeterminismRule()) == []

    def test_wall_clock_in_index_module_is_caught(self):
        sources = {
            "src/repro/indexes/mpt.py": DOC +
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"}
        findings = _findings(sources, DeterminismRule())
        assert [f.rule for f in findings] == ["L2-determinism"]

    def test_hash_inside_hash_dunder_is_exempt(self):
        sources = {
            "src/repro/hashing/digest.py": DOC +
            "class Digest:\n"
            "    def __hash__(self):\n"
            "        return hash(self._raw)\n"}
        assert _findings(sources, DeterminismRule()) == []

    def test_outside_scope_is_exempt(self):
        sources = {
            "src/repro/workloads/ycsb.py": DOC +
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"}
        assert _findings(sources, DeterminismRule()) == []

    def test_set_comprehension_feeding_join_is_caught(self):
        sources = {
            "src/repro/encoding/binary.py": DOC +
            "def pack(keys):\n"
            "    return b''.join({k for k in keys})\n"}
        findings = _findings(sources, DeterminismRule())
        assert findings and findings[0].rule == "L2-determinism"


class TestL3AsyncBlocking:
    def test_time_sleep_in_async_def_is_caught(self):
        sources = {
            "src/repro/server/server.py": DOC +
            "import time\n"
            "async def worker():\n"
            "    time.sleep(1)\n"}
        findings = _findings(sources, AsyncBlockingRule())
        assert [f.rule for f in findings] == ["L3-async-blocking"]
        assert "time.sleep" in findings[0].message

    def test_asyncio_sleep_does_not_fire(self):
        sources = {
            "src/repro/server/server.py": DOC +
            "import asyncio\n"
            "async def worker():\n"
            "    await asyncio.sleep(1)\n"}
        assert _findings(sources, AsyncBlockingRule()) == []

    def test_blocking_call_in_nested_sync_def_is_exempt(self):
        # The nested def runs on the dispatch pool via run_in_executor.
        sources = {
            "src/repro/server/server.py": DOC +
            "import time\n"
            "async def worker(loop):\n"
            "    def blocking():\n"
            "        time.sleep(1)\n"
            "    await loop.run_in_executor(None, blocking)\n"}
        assert _findings(sources, AsyncBlockingRule()) == []

    def test_future_result_in_async_def_is_caught(self):
        sources = {
            "src/repro/server/server.py": DOC +
            "async def worker(fut):\n"
            "    return fut.result()\n"}
        findings = _findings(sources, AsyncBlockingRule())
        assert [f.rule for f in findings] == ["L3-async-blocking"]

    def test_sync_def_is_exempt(self):
        sources = {
            "src/repro/server/server.py": DOC +
            "import time\n"
            "def blocking():\n"
            "    time.sleep(1)\n"}
        assert _findings(sources, AsyncBlockingRule()) == []


class TestL4PickleBoundary:
    def test_seeded_lock_crossing_the_pipe_is_caught(self):
        # The acceptance-criteria seed: a lock shipped through the
        # process-shard command pipe.
        sources = {
            "src/repro/service/process.py": DOC +
            "import threading\n"
            "def bad(conn):\n"
            "    conn.send(('apply_ops', (threading.Lock(),)))\n"}
        findings = _findings(sources, PickleBoundaryRule())
        assert [f.rule for f in findings] == ["L4-pickle-boundary"]
        assert "lock" in findings[0].message.lower()

    def test_lambda_crossing_the_pipe_is_caught(self):
        sources = {
            "src/repro/service/process.py": DOC +
            "def bad(conn):\n"
            "    conn.send(('apply_ops', (lambda k: k,)))\n"}
        findings = _findings(sources, PickleBoundaryRule())
        assert [f.rule for f in findings] == ["L4-pickle-boundary"]
        assert "lambda" in findings[0].message

    def test_closure_crossing_the_pipe_is_caught(self):
        sources = {
            "src/repro/service/process.py": DOC +
            "def bad(conn):\n"
            "    def extractor(value):\n"
            "        return [value]\n"
            "    conn.send(('register_index', (extractor,)))\n"}
        findings = _findings(sources, PickleBoundaryRule())
        assert [f.rule for f in findings] == ["L4-pickle-boundary"]
        assert "closure" in findings[0].message

    def test_plain_values_do_not_fire(self):
        sources = {
            "src/repro/service/process.py": DOC +
            "def ok(conn, method, args, result):\n"
            "    conn.send((method, args))\n"
            "    conn.send(('ok', result))\n"}
        assert _findings(sources, PickleBoundaryRule()) == []

    def test_other_files_are_out_of_scope(self):
        sources = {
            "src/repro/server/client.py": DOC +
            "def ok(sock):\n"
            "    sock.send(lambda: 1)\n"}
        assert _findings(sources, PickleBoundaryRule()) == []

    # -- the boundary is read from the command table ------------------------

    ENGINE = (
        DOC +
        "SHARD_COMMANDS = ('lookup_at', 'write_at')\n"
        "class ShardEngine:\n"
        "    def lookup_at(self, root, key):\n"
        "        return None\n"
        "    def write_at(self, root, puts):\n"
        "        return root\n"
        "    def scan(self, root):\n"
        "        return []\n")

    def test_consistent_table_engine_and_pipe_do_not_fire(self):
        sources = {
            "src/repro/service/engine.py": self.ENGINE,
            "src/repro/service/process.py": DOC +
            "def ok(transport, root, key):\n"
            "    return transport.call('lookup_at', root, key)\n",
            "src/repro/service/service.py": DOC +
            "def ok(shard, root, puts):\n"
            "    return shard.write_at(root, dict(puts))\n"}
        assert _findings(sources, PickleBoundaryRule()) == []

    def test_table_row_without_an_engine_method_is_caught(self):
        sources = {"src/repro/service/engine.py": self.ENGINE.replace(
            "('lookup_at', 'write_at')", "('lookup_at', 'write_at', 'vacuum')")}
        findings = _findings(sources, PickleBoundaryRule())
        assert [f.rule for f in findings] == ["L4-pickle-boundary"]
        assert "'vacuum' names no public ShardEngine method" in findings[0].message

    def test_repeated_table_row_is_caught(self):
        sources = {"src/repro/service/engine.py": self.ENGINE.replace(
            "('lookup_at', 'write_at')", "('lookup_at', 'write_at', 'lookup_at')")}
        findings = _findings(sources, PickleBoundaryRule())
        assert [f.rule for f in findings] == ["L4-pickle-boundary"]
        assert "twice" in findings[0].message

    def test_engine_method_sent_without_a_table_row_is_caught(self):
        sources = {
            "src/repro/service/engine.py": self.ENGINE,
            "src/repro/service/process.py": DOC +
            "def bad(transport, root):\n"
            "    return transport.call('scan', root)\n"}
        findings = _findings(sources, PickleBoundaryRule())
        assert [f.rule for f in findings] == ["L4-pickle-boundary"]
        assert "ShardEngine.scan() is sent over the pipe" in findings[0].message

    def test_lambda_into_a_table_command_is_caught_anywhere_in_the_service(self):
        sources = {
            "src/repro/service/engine.py": self.ENGINE,
            "src/repro/service/service.py": DOC +
            "def bad(shard, root):\n"
            "    return shard.write_at(root, lambda key: key)\n"
            "def ok(shard, root):\n"
            "    return shard.not_a_command(root, lambda key: key)\n"}
        findings = _findings(sources, PickleBoundaryRule())
        assert [(f.rule, f.line) for f in findings] == [("L4-pickle-boundary", 3)]
        assert "shard command .write_at()" in findings[0].message

    def test_unpicklable_return_of_a_table_command_is_caught(self):
        sources = {"src/repro/service/engine.py": self.ENGINE.replace(
            "        return root\n", "        return lambda: root\n")}
        findings = _findings(sources, PickleBoundaryRule())
        assert [f.rule for f in findings] == ["L4-pickle-boundary"]
        assert "returned from ShardEngine.write_at()" in findings[0].message


class TestL5ExceptionPolicy:
    def test_bare_except_is_caught(self):
        sources = {
            "src/repro/service/service.py": DOC +
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except:\n"
            "        return 2\n"}
        findings = _findings(sources, ExceptionPolicyRule())
        assert [f.rule for f in findings] == ["L5-exception-policy"]
        assert "bare" in findings[0].message

    def test_swallowing_broad_handler_is_caught(self):
        sources = {
            "src/repro/service/service.py": DOC +
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except Exception:\n"
            "        return 2\n"}
        findings = _findings(sources, ExceptionPolicyRule())
        assert [f.rule for f in findings] == ["L5-exception-policy"]

    def test_reraising_broad_handler_does_not_fire(self):
        sources = {
            "src/repro/service/service.py": DOC +
            "from repro.core.errors import ShardExecutionError\n"
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except Exception as exc:\n"
            "        raise ShardExecutionError(0, 'f', exc) from exc\n"}
        assert _findings(sources, ExceptionPolicyRule()) == []

    def test_narrow_handler_does_not_fire(self):
        sources = {
            "src/repro/service/service.py": DOC +
            "def f(d):\n"
            "    try:\n"
            "        return d['k']\n"
            "    except KeyError:\n"
            "        return None\n"}
        assert _findings(sources, ExceptionPolicyRule()) == []

    def test_tests_are_out_of_scope(self):
        sources = {
            "tests/service/test_fixture_scope.py": DOC +
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except:\n"
            "        return 2\n"}
        assert _findings(sources, ExceptionPolicyRule()) == []


class TestL6Durability:
    def test_rename_without_fsync_is_caught(self):
        sources = {
            "src/repro/storage/segment.py": DOC +
            "import os\n"
            "def publish(tmp, final):\n"
            "    os.replace(tmp, final)\n"}
        findings = _findings(sources, DurabilityOrderRule())
        assert [f.rule for f in findings] == ["L6-durability-order"]
        assert "os.replace" in findings[0].message

    def test_rename_after_fsync_does_not_fire(self):
        sources = {
            "src/repro/storage/segment.py": DOC +
            "import os\n"
            "def publish(handle, tmp, final):\n"
            "    handle.flush()\n"
            "    os.fsync(handle.fileno())\n"
            "    os.replace(tmp, final)\n"}
        assert _findings(sources, DurabilityOrderRule()) == []

    def test_journal_append_without_fsync_is_caught(self):
        sources = {
            "src/repro/service/service.py": DOC +
            "def append(path, line):\n"
            "    with open(path, 'a') as handle:\n"
            "        handle.write(line)\n"}
        findings = _findings(sources, DurabilityOrderRule())
        assert [f.rule for f in findings] == ["L6-durability-order"]

    def test_journal_append_with_flush_fsync_does_not_fire(self):
        sources = {
            "src/repro/service/service.py": DOC +
            "import os\n"
            "def append(path, line):\n"
            "    with open(path, 'a') as handle:\n"
            "        handle.write(line)\n"
            "        handle.flush()\n"
            "        os.fsync(handle.fileno())\n"}
        assert _findings(sources, DurabilityOrderRule()) == []

    def test_outside_scope_is_exempt(self):
        sources = {
            "src/repro/workloads/ycsb.py": DOC +
            "import os\n"
            "def publish(tmp, final):\n"
            "    os.replace(tmp, final)\n"}
        assert _findings(sources, DurabilityOrderRule()) == []


class TestL7MutableDefaults:
    @pytest.mark.parametrize("default", ["[]", "{}", "set()", "dict()",
                                         "bytearray()"])
    def test_mutable_default_is_caught(self, default):
        sources = {
            "src/repro/api/branch.py": DOC +
            f"def f(x={default}):\n"
            "    return x\n"}
        findings = _findings(sources, MutableDefaultRule())
        assert [f.rule for f in findings] == ["L7-mutable-default"]

    def test_keyword_only_mutable_default_is_caught(self):
        sources = {
            "src/repro/api/branch.py": DOC +
            "def f(*, x=[]):\n"
            "    return x\n"}
        findings = _findings(sources, MutableDefaultRule())
        assert [f.rule for f in findings] == ["L7-mutable-default"]

    def test_immutable_defaults_do_not_fire(self):
        sources = {
            "src/repro/api/branch.py": DOC +
            "def f(a=(), b=None, c=0, d='s', e=frozenset()):\n"
            "    return a, b, c, d, e\n"}
        assert _findings(sources, MutableDefaultRule()) == []


class TestN1TestBasenames:
    def test_colliding_basenames_are_caught(self):
        sources = {
            "tests/indexes/test_differential.py": DOC,
            "tests/query/test_differential.py": DOC,
        }
        findings = _findings(sources, UniqueTestBasenameRule())
        assert len(findings) == 2
        assert all(f.rule == "N1-test-basename" for f in findings)

    def test_unique_basenames_do_not_fire(self):
        sources = {
            "tests/indexes/test_differential.py": DOC,
            "tests/query/test_query_differential.py": DOC,
        }
        assert _findings(sources, UniqueTestBasenameRule()) == []

    def test_non_test_files_are_ignored(self):
        sources = {
            "tests/indexes/conftest.py": DOC,
            "tests/query/conftest.py": DOC,
        }
        assert _findings(sources, UniqueTestBasenameRule()) == []


class TestN2AllExports:
    def test_unresolved_all_entry_is_caught(self):
        sources = {
            "src/repro/query/view.py": DOC +
            "__all__ = ['Present', 'Ghost']\n"
            "Present = 1\n"}
        findings = _findings(sources, AllConsistencyRule())
        assert [f.rule for f in findings] == ["N2-all-exports"]
        assert "Ghost" in findings[0].message

    def test_resolved_all_does_not_fire(self):
        sources = {
            "src/repro/query/view.py": DOC +
            "__all__ = ['Present', 'helper']\n"
            "Present = 1\n"
            "def helper():\n"
            "    return Present\n"}
        assert _findings(sources, AllConsistencyRule()) == []

    def test_package_without_all_is_caught(self):
        sources = {"src/repro/query/__init__.py": DOC + "X = 1\n"}
        findings = _findings(sources, AllConsistencyRule())
        assert [f.rule for f in findings] == ["N2-all-exports"]
        assert "__all__" in findings[0].message

    def test_module_getattr_counts_as_dynamic_binding(self):
        # PEP 562: repro/__init__.py serves deprecated names dynamically.
        sources = {
            "src/repro/__init__.py": DOC +
            "__all__ = ['VersionedKVService']\n"
            "def __getattr__(name):\n"
            "    raise AttributeError(name)\n"}
        assert _findings(sources, AllConsistencyRule()) == []

    def test_dynamic_all_is_skipped(self):
        sources = {
            "src/repro/query/view.py": DOC +
            "base = ['A']\n"
            "__all__ = base + ['B']\n"}
        assert _findings(sources, AllConsistencyRule()) == []
