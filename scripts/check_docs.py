#!/usr/bin/env python3
"""Documentation lint: relative links must resolve, public APIs must be documented.

Run from the repository root (CI runs it on every push):

    python scripts/check_docs.py

Checks performed:

1. Every relative link/image in the tracked markdown files points at a
   file or directory that exists (external http(s)/mailto links and
   in-page anchors are skipped).
2. Every module under ``src/repro`` has a module docstring.
3. Public classes/functions/methods in the core API modules (the ones a
   `pydoc repro` reader lands on) carry docstrings.
4. ``docs/PAPER_MAP.md`` is complete: every ``benchmarks/bench_*.py``
   script is listed there (so a new benchmark cannot land unmapped).
5. The per-op payload table of ``docs/SERVER.md`` is the one the wire
   schema (``repro.server.protocol.SCHEMA``) renders to — same ops, same
   fields (``--print-op-table`` prints the expected block).

Exits non-zero listing every violation, so it can gate CI.
"""

from __future__ import annotations

import ast
import glob
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MARKDOWN_FILES = [
    "README.md",
    "docs/API.md",
    "docs/ARCHITECTURE.md",
    "docs/STORAGE.md",
    "docs/SERVER.md",
    "docs/SYNC.md",
    "docs/QUERY.md",
    "docs/LINT.md",
    "docs/PAPER_MAP.md",
    "benchmarks/README.md",
]

#: Modules that must have *complete* public docstring coverage (not just a
#: module docstring): the surfaces a reference reader hits first.
FULL_COVERAGE_MODULES = [
    "src/repro/api/__init__.py",
    "src/repro/api/repository.py",
    "src/repro/api/branch.py",
    "src/repro/api/transaction.py",
    "src/repro/api/merge.py",
    "src/repro/core/interfaces.py",
    "src/repro/core/metrics.py",
    "src/repro/indexes/__init__.py",
    "src/repro/storage/__init__.py",
    "src/repro/storage/store.py",
    "src/repro/storage/segment.py",
    "src/repro/storage/gc.py",
    "src/repro/service/__init__.py",
    "src/repro/service/sharding.py",
    "src/repro/service/batcher.py",
    "src/repro/service/service.py",
    "src/repro/service/engine.py",
    "src/repro/service/process.py",
    "src/repro/query/__init__.py",
    "src/repro/query/definition.py",
    "src/repro/query/feed.py",
    "src/repro/query/view.py",
    "src/repro/server/__init__.py",
    "src/repro/server/server.py",
    "src/repro/server/client.py",
    "src/repro/server/metrics.py",
]

PAPER_MAP = "docs/PAPER_MAP.md"

SERVER_DOC = "docs/SERVER.md"
OP_TABLE_BEGIN = "<!-- op-table:begin (generated: scripts/check_docs.py --print-op-table) -->"
OP_TABLE_END = "<!-- op-table:end -->"

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_markdown_links(errors: list) -> None:
    """Rule 1: relative markdown links resolve to existing paths."""
    for md_path in MARKDOWN_FILES:
        full = os.path.join(REPO_ROOT, md_path)
        if not os.path.exists(full):
            errors.append(f"{md_path}: file is missing")
            continue
        with open(full, encoding="utf-8") as handle:
            text = handle.read()
        for target in _LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target_path = target.split("#", 1)[0]
            resolved = os.path.normpath(os.path.join(os.path.dirname(full), target_path))
            if not os.path.exists(resolved):
                errors.append(f"{md_path}: broken link -> {target}")


def iter_python_modules():
    """All python files under src/repro, repo-relative."""
    for dirpath, _dirnames, filenames in os.walk(os.path.join(REPO_ROOT, "src", "repro")):
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.relpath(os.path.join(dirpath, filename), REPO_ROOT)


def check_module_docstrings(errors: list) -> None:
    """Rule 2: every library module carries a module docstring."""
    for rel_path in iter_python_modules():
        with open(os.path.join(REPO_ROOT, rel_path), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=rel_path)
        if ast.get_docstring(tree) is None:
            errors.append(f"{rel_path}: missing module docstring")


def _is_public(name: str) -> bool:
    # Dunders (including __init__) are exempt: the codebase convention is
    # numpydoc-style parameter documentation on the *class* docstring.
    return not name.startswith("_")


def check_api_docstrings(errors: list) -> None:
    """Rule 3: public names in the core API modules are documented."""
    for rel_path in FULL_COVERAGE_MODULES:
        full = os.path.join(REPO_ROOT, rel_path)
        if not os.path.exists(full):
            errors.append(f"{rel_path}: file is missing")
            continue
        with open(full, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=rel_path)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_public(node.name):
                continue
            if ast.get_docstring(node) is None:
                errors.append(
                    f"{rel_path}:{node.lineno}: public {type(node).__name__.lower()} "
                    f"'{node.name}' has no docstring"
                )


def check_paper_map(errors: list) -> None:
    """Rule 4: every benchmark script appears in docs/PAPER_MAP.md."""
    full = os.path.join(REPO_ROOT, PAPER_MAP)
    if not os.path.exists(full):
        errors.append(f"{PAPER_MAP}: file is missing")
        return
    with open(full, encoding="utf-8") as handle:
        text = handle.read()
    scripts = sorted(glob.glob(os.path.join(REPO_ROOT, "benchmarks", "bench_*.py")))
    for script in scripts:
        name = os.path.basename(script)
        if name not in text:
            errors.append(
                f"{PAPER_MAP}: benchmark {name} is not mapped to a paper "
                "artifact / result file (add a row)")


def _wire_type(field, records: dict) -> str:
    """A schema field as the docs spell it: ``opt<bytes>``, ``list<(u32, bytes)>``…

    Record types are spelled by name; their layouts are noted in ``records``.
    """
    if field.kind in ("opt", "list"):
        return f"{field.kind}<{_wire_type(field.parts[0], records)}>"
    if field.kind == "tuple":
        return f"({', '.join(_wire_type(part, records) for part in field.parts)})"
    if field.kind == "record":
        records[field.builds.__name__] = _payload(field.parts, records)
        return field.builds.__name__
    return field.kind


def _payload(row, records: dict) -> str:
    """One schema row as a table cell."""
    parts = []
    for name, field in row:
        if hasattr(field, "when_true"):
            parts.append(f"`{name}` flag; if 1: {_payload(field.when_true, records)}; "
                         f"if 0: {_payload(field.when_false, records)}")
        else:
            parts.append(f"`{name}` {_wire_type(field, records)}")
    return ", ".join(parts) or "—"


def render_op_table() -> str:
    """The payload table and record layouts, rendered from the wire schema."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.server import protocol

    lines = ["| op | request payload | `OK` response payload |", "| --- | --- | --- |"]
    records: dict = {}
    for op, schema in protocol.SCHEMA.items():
        lines.append(f"| `{op.name}` | {_payload(schema.request, records)} "
                     f"| {_payload(schema.response, records)} |")
    lines.append("")
    lines += [f"* `{name}`: {layout}" for name, layout in sorted(records.items())]
    return "\n".join(lines)


def check_server_op_table(errors: list) -> None:
    """Rule 5: docs/SERVER.md documents exactly the schema's ops and fields."""
    with open(os.path.join(REPO_ROOT, SERVER_DOC), encoding="utf-8") as handle:
        text = handle.read()
    begin, end = text.find(OP_TABLE_BEGIN), text.find(OP_TABLE_END)
    if begin < 0 or end < begin:
        errors.append(f"{SERVER_DOC}: the op-table markers are missing")
    elif text[begin + len(OP_TABLE_BEGIN):end].strip() != render_op_table():
        errors.append(
            f"{SERVER_DOC}: the per-op payload table differs from the wire "
            "schema (python scripts/check_docs.py --print-op-table)")


def main() -> int:
    if "--print-op-table" in sys.argv[1:]:
        print(render_op_table())
        return 0
    errors: list = []
    check_markdown_links(errors)
    check_module_docstrings(errors)
    check_api_docstrings(errors)
    check_paper_map(errors)
    check_server_op_table(errors)
    if errors:
        print(f"documentation check FAILED ({len(errors)} problem(s)):")
        for error in errors:
            print(f"  - {error}")
        return 1
    print("documentation check passed: links resolve, public APIs documented, "
          "paper map complete, op table matches the wire schema")
    return 0


if __name__ == "__main__":
    sys.exit(main())
