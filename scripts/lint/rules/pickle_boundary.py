"""L4: only picklable values may cross the shard-handle boundary.

``ProcessShardBackend`` ships ``(method, args)`` command tuples to forked
shard workers over pickled duplex pipes.  Lambdas, closures (functions
defined inside another function), locks and open file objects either do
not pickle at all or pickle into something meaningless in the worker
process.  The engine boundary was designed so only plain values cross
(docs/ARCHITECTURE.md §8); this rule keeps it that way.

What the boundary *is* comes from the command table
(``SHARD_COMMANDS`` in ``src/repro/service/engine.py``), read from the
source: a call of a table command anywhere in the service package is a
call that may be pickled, and the table must agree with ``ShardEngine``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from scripts.lint.astutil import FUNCTION_NODES, call_name, walk_without_nested_functions
from scripts.lint.framework import Finding, Project, Rule, SourceFile, register

#: Where the command table and the engine class it names live.
ENGINE_FILE = "src/repro/service/engine.py"
ENGINE_CLASS = "ShardEngine"
TABLE_NAME = "SHARD_COMMANDS"

#: Calls of a table command are checked in every file under this prefix.
SERVICE_PACKAGE = "src/repro/service/"

#: The file holding the pipe itself, and the two calls that put a value on
#: it there (``Connection.send`` and the transport's ``call`` round trip).
PIPE_FILE = "src/repro/service/process.py"
PIPE_CALL_ATTRS = {"send", "call"}

#: Constructors whose instances cannot (meaningfully) cross a pickle pipe.
UNPICKLABLE_CONSTRUCTORS = {
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore", "threading.Event",
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event",
    "open",
}


def _unpicklable_parts(node: ast.AST,
                       local_defs: Set[str]) -> Iterator[Tuple[int, str]]:
    """(line, description) for unpicklable sub-expressions of ``node``."""
    stack: List[ast.AST] = [node]
    while stack:
        expr = stack.pop()
        if isinstance(expr, ast.Lambda):
            yield expr.lineno, "a lambda (unpicklable)"
            continue
        if isinstance(expr, ast.Call):
            name = call_name(expr)
            if name in UNPICKLABLE_CONSTRUCTORS:
                kind = "an open file object" if name == "open" else "a lock/sync primitive"
                yield expr.lineno, f"{name}() — {kind} (unpicklable)"
            stack.extend(ast.iter_child_nodes(expr))
            continue
        if isinstance(expr, ast.Name) and expr.id in local_defs:
            yield expr.lineno, (f"nested function {expr.id!r} — a closure "
                                "(unpicklable)")
            continue
        stack.extend(ast.iter_child_nodes(expr))


def _command_table(source: SourceFile) -> Optional[List[Tuple[str, int]]]:
    """``(command, line)`` rows of the module-level table, or None if absent."""
    for node in source.tree.body:
        if isinstance(node, ast.AnnAssign):
            target: Optional[ast.AST] = node.target
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        else:
            continue
        if (isinstance(target, ast.Name) and target.id == TABLE_NAME
                and isinstance(node.value, (ast.Tuple, ast.List))):
            return [(row.value, row.lineno) for row in node.value.elts
                    if isinstance(row, ast.Constant) and isinstance(row.value, str)]
    return None


def _sent_command(call: ast.Call) -> Optional[str]:
    """The literal command name a pipe call ships, if it names one:
    ``call("name", ...)``, ``send("name", args)`` or ``send(("name", args))``."""
    if not call.args:
        return None
    first = call.args[0]
    if isinstance(first, ast.Tuple) and first.elts:
        first = first.elts[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    return None


@register
class PickleBoundaryRule(Rule):
    """Lambdas, locks, files and closures must not cross the worker pipe."""

    rule_id = "L4-pickle-boundary"
    title = "only plain picklable values cross the shard command boundary"
    rationale = """
    Encodes the boundary contract of docs/ARCHITECTURE.md §8: ShardEngine
    is "no locks, no transport, only picklable values at the method
    boundary", and the pipe transport ships (method, args) tuples over a
    pickled pipe.  A lambda or a function defined inside another function
    fails to pickle outright; a lock or file object pickles into a
    different (useless) object in the worker, turning a synchronization
    or durability assumption silently false.

    The boundary is read from the command table (SHARD_COMMANDS in
    service/engine.py), the same table the handle's methods and the
    worker's dispatch are generated from.  The rule inspects every
    argument of a call to a table command anywhere under
    src/repro/service/, every argument reaching the pipe itself (`.send`,
    `.call` in service/process.py), and the defaults and return
    statements of the ShardEngine methods the table names — and flags
    lambdas, nested-function references, lock/event constructors and
    open() calls.  It also keeps the table honest: a row naming a method
    ShardEngine lacks, a row repeated, or an engine method sent over the
    pipe by name without a row is a finding.
    """

    def check(self, project: Project) -> Iterator[Finding]:
        engine_source = project.files.get(ENGINE_FILE)
        table: List[Tuple[str, int]] = []
        engine_methods: Dict[str, ast.AST] = {}
        if engine_source is not None and engine_source.tree is not None:
            table = _command_table(engine_source) or []
            engine_methods = self._engine_methods(engine_source)
            yield from self._check_table(engine_source, table, engine_methods)
        commands = {name for name, _ in table}
        for source in project.iter_files(SERVICE_PACKAGE):
            if source.tree is not None:
                yield from self._check_calls(
                    source, commands, set(engine_methods) - commands)

    @staticmethod
    def _engine_methods(source: SourceFile) -> Dict[str, ast.AST]:
        engine = next((node for node in ast.walk(source.tree)
                       if isinstance(node, ast.ClassDef)
                       and node.name == ENGINE_CLASS), None)
        if engine is None:
            return {}
        return {method.name: method for method in engine.body
                if isinstance(method, FUNCTION_NODES)
                and not method.name.startswith("_")}

    def _check_table(self, source: SourceFile, table: List[Tuple[str, int]],
                     engine_methods: Dict[str, ast.AST]) -> Iterator[Finding]:
        seen: Set[str] = set()
        for name, line in table:
            if name in seen:
                yield self.finding(
                    source.path, line,
                    f"{TABLE_NAME} lists command {name!r} twice; each "
                    "command has exactly one row")
                continue
            seen.add(name)
            method = engine_methods.get(name)
            if method is None:
                yield self.finding(
                    source.path, line,
                    f"{TABLE_NAME} row {name!r} names no public "
                    f"{ENGINE_CLASS} method")
            else:
                yield from self._check_command_method(source, method)

    def _check_command_method(self, source: SourceFile,
                              method: ast.AST) -> Iterator[Finding]:
        for default in list(method.args.defaults) + [
                d for d in method.args.kw_defaults if d is not None]:
            for line, description in _unpicklable_parts(default, set()):
                yield self.finding(
                    source.path, line,
                    f"{description} as a default of {ENGINE_CLASS}."
                    f"{method.name}(); handle-command arguments must "
                    "be plain picklable values")
        for child in walk_without_nested_functions(method):
            if isinstance(child, ast.Return) and child.value is not None:
                for line, description in _unpicklable_parts(child.value, set()):
                    yield self.finding(
                        source.path, line,
                        f"{description} returned from {ENGINE_CLASS}."
                        f"{method.name}(); handle-command returns must "
                        "be plain picklable values")

    def _check_calls(self, source: SourceFile, commands: Set[str],
                     untabled: Set[str]) -> Iterator[Finding]:
        on_the_pipe = source.path == PIPE_FILE
        for func in ast.walk(source.tree):
            if not isinstance(func, FUNCTION_NODES):
                continue
            # References to functions nested inside ``func`` are closures
            # once they cross the pipe.
            local_defs = {child.name for child in ast.walk(func)
                          if isinstance(child, FUNCTION_NODES)
                          and child is not func}
            for child in walk_without_nested_functions(func):
                if not (isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Attribute)):
                    continue
                callee = child.func.attr
                pipe_call = on_the_pipe and callee in PIPE_CALL_ATTRS
                if not pipe_call and callee not in commands:
                    continue
                sent = _sent_command(child) if pipe_call else None
                if sent in untabled:
                    yield self.finding(
                        source.path, child.lineno,
                        f"{ENGINE_CLASS}.{sent}() is sent over the pipe but "
                        f"has no row in {TABLE_NAME}")
                boundary = (f"pipe boundary .{callee}()" if pipe_call
                            else f"shard command .{callee}()")
                for arg in list(child.args) + [kw.value for kw in child.keywords]:
                    for line, description in _unpicklable_parts(arg, local_defs):
                        yield self.finding(
                            source.path, line,
                            f"{description} is passed into {boundary}; only "
                            "plain values may cross the process-shard pipe")
