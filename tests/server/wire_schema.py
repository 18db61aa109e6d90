"""Generators derived from the wire schema: hypothesis strategies and samples.

Everything here walks :data:`repro.server.protocol.SCHEMA`, so an op
added to the schema is covered by the round-trip, truncation, fuzz and
golden-frame tests without writing a generator for it.

* :func:`requests` / :func:`responses` — hypothesis strategies over every
  op (and both modes of the two-mode ops).
* :func:`sample_messages` — one deterministic request and one OK response
  per op and mode, plus an ``ERROR`` and a ``BUSY`` response: the inputs
  of ``golden_frames.json`` and of the truncation/fuzz tests.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterator, List, Tuple

from hypothesis import strategies as st

from repro.server.protocol import (
    SCHEMA,
    Field,
    Modes,
    Op,
    Request,
    Response,
    Row,
    Status,
)

_LEAF_STRATEGIES = {
    "u32": st.integers(0, 2**32 - 1),
    "u64": st.integers(0, 2**64 - 1),
    "f64": st.floats(allow_nan=False),
    "flag": st.booleans(),
    "bytes": st.binary(max_size=64),
    "str": st.text(max_size=32),
}

#: Two sample values per leaf kind; lists take one of each.
_LEAF_SAMPLES = {
    "u32": (7, 2**32 - 1),
    "u64": (2**40 + 5, 0),
    "f64": (12.5, -0.25),
    "flag": (True, False),
    "bytes": (b"\x01" * 32, b"key"),
    "str": ("main", "dév"),
}


def strategy(field: Field) -> st.SearchStrategy:
    """A hypothesis strategy for the values ``field`` encodes."""
    if field.kind in _LEAF_STRATEGIES:
        return _LEAF_STRATEGIES[field.kind]
    if field.kind == "opt":
        return st.none() | strategy(field.parts[0])
    if field.kind == "list":
        return st.lists(strategy(field.parts[0]), max_size=6).map(field.builds)
    if field.kind == "tuple":
        return st.tuples(*[strategy(item) for item in field.parts])
    return st.builds(field.builds,
                     *[strategy(member) for _, member in field.parts])


def sample(field: Field, variant: int = 0) -> Any:
    """A fixed value for ``field``; ``variant`` picks between alternatives."""
    if field.kind in _LEAF_SAMPLES:
        return _LEAF_SAMPLES[field.kind][variant % 2]
    if field.kind == "opt":
        return None if variant % 2 else sample(field.parts[0], variant)
    if field.kind == "list":
        return field.builds([sample(field.parts[0], 0), sample(field.parts[0], 1)])
    if field.kind == "tuple":
        return tuple(sample(item, variant + position)
                     for position, item in enumerate(field.parts))
    return field.builds(*[sample(member, variant + position)
                          for position, (_, member) in enumerate(field.parts)])


def _modes_of(row: Row) -> Iterator[Tuple[Dict[str, bool], List[Tuple[str, Field]]]]:
    """Each mode of ``row``: its flag settings and its flat field list."""
    for position, (name, field) in enumerate(row):
        if isinstance(field, Modes):
            for flag, selected in ((True, field.when_true), (False, field.when_false)):
                for flags, fields in _modes_of(row[:position] + selected
                                               + row[position + 1:]):
                    yield {name: flag, **flags}, fields
            return
    yield {}, list(row)


def fields_of(message: Any) -> List[Tuple[str, Field]]:
    """The flat ``(attribute, field)`` list of an OK message's op and mode."""
    schema = SCHEMA[message.op]
    row = schema.request if isinstance(message, Request) else schema.response
    return next(fields for flags, fields in _modes_of(row)
                if all(getattr(message, name) == flag for name, flag in flags.items()))


def _messages(cls, row_of, **header: st.SearchStrategy) -> st.SearchStrategy:
    """Strategy over ``cls`` messages of every op and mode."""
    variants = []
    for op in Op:
        for flags, fields in _modes_of(row_of(SCHEMA[op])):
            variants.append(st.builds(
                cls, op=st.just(op), request_id=st.integers(0, 2**32 - 1),
                **header,
                **{name: st.just(flag) for name, flag in flags.items()},
                **{name: strategy(field) for name, field in fields}))
    return st.one_of(variants)


def requests() -> st.SearchStrategy:
    """Every request the schema can express."""
    return _messages(Request, lambda schema: schema.request)


def responses() -> st.SearchStrategy:
    """Every OK response the schema can express."""
    return _messages(Response, lambda schema: schema.response,
                     status=st.just(Status.OK))


def sample_messages() -> List[Tuple[str, Any]]:
    """``(name, message)``: a request and an OK response per op and mode,
    then an ``ERROR`` and a ``BUSY`` response."""
    named: List[Tuple[str, Any]] = []
    for op in Op:
        for cls, row, header in (
                (Request, SCHEMA[op].request, {}),
                (Response, SCHEMA[op].response, {"status": Status.OK})):
            for flags, fields in _modes_of(row):
                mode = "".join(f"/{name}={int(flag)}" for name, flag in flags.items())
                values = {name: sample(field, position)
                          for position, (name, field) in enumerate(fields)}
                named.append((f"{cls.__name__.lower()}/{op.name}{mode}", cls(
                    op=op, request_id=int(op) * 1000 + 1, **header, **flags, **values)))
    named.append(("response/ERROR", Response(
        status=Status.ERROR, op=Op.GET, request_id=2001,
        error_code="key_not_found", error_message="no such key: b'k'")))
    named.append(("response/BUSY", Response(
        status=Status.BUSY, op=Op.PUT_MANY, request_id=4001,
        error_code="busy", error_message="admission queue 4 is full")))
    return named


def describe(message: Any) -> str:
    """``message`` as text, naming only the attributes that are not at
    their default (what the golden file shows beside each frame)."""
    shown = [f"{field.name}={getattr(message, field.name)!r}"
             for field in dataclasses.fields(message)
             if field.default is dataclasses.MISSING
             or getattr(message, field.name) != field.default]
    return f"{type(message).__name__}({', '.join(shown)})"
