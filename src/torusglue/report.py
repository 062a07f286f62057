"""Deterministic report serialization: canonical JSON and CSV.

Byte-identical output for identical inputs is part of the contract, so
nothing here defers to locale, hash order, or repr drift: keys are sorted,
floats always print as %.17g, exact scalars use the fixed wire grammar,
and every file ends with exactly one newline.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields
from fractions import Fraction
from functools import cache

from .numerics import QuadScalar, ScalarMode, as_float, format_scalar, parse_scalar


def scalar_json(x):
    """JSON-ready view of a scalar: floats and ints pass through, exact values
    become wire-grammar strings so they survive the round trip losslessly."""
    if isinstance(x, bool):
        return x
    if isinstance(x, (int, float)):
        return x
    if isinstance(x, (Fraction, QuadScalar)):
        return format_scalar(x)
    raise TypeError(f"no JSON form for {type(x).__name__}")


class Record:
    """Mixin for report records: `describe()` is `plain(self)`.

    A record's report is its dataclass fields by name.  A record whose report
    renames, adds or drops keys overrides `report_fields()`; the values it
    returns stay raw (records, scalars, lists), and `plain` converts them.
    """

    def report_fields(self) -> dict:
        return {name: getattr(self, name) for name in _field_names(type(self))}

    def describe(self) -> dict:
        return plain(self)


@cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def plain(x):
    """JSON-ready view of a report value, the form every `describe()` returns.

    Records become dicts of their report fields, lists and tuples become
    lists, exact scalars become wire strings (`scalar_json`), and None,
    bools, ints, floats and strings pass through.  Anything else is a
    TypeError.
    """
    if isinstance(x, Record):
        return {key: plain(value) for key, value in x.report_fields().items()}
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, (list, tuple)):
        return [plain(item) for item in x]
    if isinstance(x, dict):
        return {key: plain(value) for key, value in x.items()}
    if isinstance(x, ScalarMode):
        return x.describe()
    return scalar_json(x)


def _float_text(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float has no place in a report")
    return "%.17g" % x


def _write(obj, parts: list[str], indent: int) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, float):
        parts.append(_float_text(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (Fraction, QuadScalar)):
        parts.append(json.dumps(format_scalar(obj)))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, item in enumerate(obj):
            parts.append(inner)
            _write(item, parts, indent + 1)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        keys = sorted(obj)
        if any(not isinstance(k, str) for k in keys):
            raise TypeError("report keys must be strings")
        parts.append("{\n")
        for i, key in enumerate(keys):
            parts.append(inner + json.dumps(key) + ": ")
            _write(obj[key], parts, indent + 1)
            parts.append(",\n" if i + 1 < len(keys) else "\n")
        parts.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    parts: list[str] = []
    _write(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


DENSITY_CSV_HEADER = "target_u1,target_u2,t,distance"


def density_csv(report) -> str:
    """Flat table of density hits, one row per achieved approach.

    `report` is a density report, its `describe()` dict, or a list of
    either.  Columns are target_u1, target_u2, t, distance; all values print
    as %.17g floats.  Misses (no hit within budget) are skipped: the table
    records achieved distances, the JSON report records failures.
    """
    rows = [DENSITY_CSV_HEADER]
    for rep in report if isinstance(report, list) else [report]:
        u1, u2, hits = _density_values(rep)
        for t, distance in hits:
            rows.append(",".join(_float_text(as_float(v)) for v in (u1, u2, t, distance)))
    return "\n".join(rows) + "\n"


def _density_values(rep):
    """(u1, u2, [(t, distance) per hit]) of a density report or its description."""
    if isinstance(rep, Record):
        hits = [(h.t, h.distance) for h in rep.hits if h is not None]
        return rep.target.u1, rep.target.u2, hits

    def value(x):  # a description carries exact values as wire strings
        return parse_scalar(x) if isinstance(x, str) else x

    hits = [entry["hit"] for entry in rep["results"] if entry["hit"] is not None]
    target = rep["target"]
    return value(target["u1"]), value(target["u2"]), [(value(h["t"]), h["distance"]) for h in hits]


def write_report(text: str, path: str | None) -> None:
    """Write to a file, or stdout when no path is given."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
