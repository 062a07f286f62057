"""Deterministic report serialization: canonical JSON and CSV.

Byte-identical output for identical inputs is part of the contract, so
nothing here defers to locale, hash order, or repr drift: keys are sorted,
floats always print as %.17g, exact scalars use the fixed wire grammar,
and every file ends with exactly one newline.
"""

from __future__ import annotations

import sys
from dataclasses import fields
from fractions import Fraction
from functools import cache, lru_cache
from json.encoder import encode_basestring_ascii as _quoted

from .numerics import QuadScalar, ScalarMode, format_scalar, parse_scalar


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


_LEAVES = frozenset((type(None), bool, int, float, str))


def plain(x):
    """JSON-ready view of a report value, the form every `describe()` returns.

    Records become dicts of their report fields, lists and tuples become
    lists, exact scalars become wire strings (`scalar_json`), and None,
    bools, ints, floats and strings pass through.  Anything else is a
    TypeError.
    """
    t = type(x)
    if t in _LEAVES:
        return x
    if t is QuadScalar or t is Fraction:
        return str(x)
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


# `_quoted` is what json.dumps(str) calls with its default ensure_ascii=True.
# Report keys come from a small fixed vocabulary, so their texts are memoized.
@lru_cache(maxsize=1024)
def _key_text(key) -> str:
    if not isinstance(key, str):
        raise TypeError("report keys must be strings")
    return _quoted(key) + ": "


def _scalar_text(x) -> str:
    return _quoted(str(x))


# the text of each leaf type, by exact type: a subclass, such as a numpy
# float, goes through `_write` and takes the branch of the first of
# `_BASES` it is an instance of
_LEAF_TEXT = {
    str: _quoted,
    float: _float_text,
    int: str,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
    Fraction: _scalar_text,
    QuadScalar: _scalar_text,
}
_BASES = (float, int, str, Fraction, QuadScalar, list, tuple, dict)


def _write(obj, parts: list[str], indent: int) -> None:
    """Append the text of obj.  Containers write their leaf entries inline,
    one part each, and recurse only into nested containers and subclasses."""
    t = type(obj)
    leaf = _LEAF_TEXT.get(t)
    if leaf is None and t is not dict and t is not list and t is not tuple:
        t = next((base for base in _BASES if isinstance(obj, base)), None)
        if t is None:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
        leaf = _LEAF_TEXT.get(t)
    if leaf is not None:
        parts.append(leaf(obj))
        return
    if not obj:
        parts.append("{}" if t is dict else "[]")
        return
    inner = "\n" + "  " * (indent + 1)
    sep = ("{" if t is dict else "[") + inner
    if t is dict:
        for key in sorted(obj):
            value = obj[key]
            leaf = _LEAF_TEXT.get(type(value))
            if leaf is None:
                parts.append(sep + _key_text(key))
                _write(value, parts, indent + 1)
            else:
                parts.append(sep + _key_text(key) + leaf(value))
            sep = "," + inner
        parts.append("\n" + "  " * indent + "}")
    else:
        for item in obj:
            leaf = _LEAF_TEXT.get(type(item))
            if leaf is None:
                parts.append(sep)
                _write(item, parts, indent + 1)
            else:
                parts.append(sep + leaf(item))
            sep = "," + inner
        parts.append("\n" + "  " * indent + "]")


def canonical_json(obj) -> str:
    parts: list[str] = []
    _write(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


DENSITY_CSV_HEADER = "target_u1,target_u2,t,distance"


def density_csv(report) -> str:
    """Flat table of density hits, one row per achieved approach.

    `report` is a density report, its `describe()` dict, or a list of
    either; it is read through `plain`, so records and descriptions give
    the same rows.  Columns are target_u1, target_u2, t, distance; all
    values print as %.17g floats.  Misses (no hit within budget) are
    skipped: the table records achieved distances, the JSON report records
    failures.
    """
    rows = [DENSITY_CSV_HEADER]
    described = plain(report)
    for rep in described if isinstance(described, list) else [described]:
        target = rep["target"]
        for hit in (entry["hit"] for entry in rep["results"]):
            if hit is not None:
                values = (target["u1"], target["u2"], hit["t"], hit["distance"])
                rows.append(",".join(_float_text(_csv_float(v)) for v in values))
    return "\n".join(rows) + "\n"


def _csv_float(x) -> float:
    # a description carries exact values as wire strings
    return float(parse_scalar(x) if isinstance(x, str) else x)


def write_report(text: str, path: str | None) -> None:
    """Write to a file, or stdout when no path is given."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
