"""Canonical serialization: stable bytes, sorted keys, fixed float format."""

from dataclasses import dataclass
from fractions import Fraction

import pytest

from torusglue.numerics import EXACT, FLOAT, QuadScalar, parse_scalar
from torusglue.orbit import density_report
from torusglue.report import (
    DENSITY_CSV_HEADER,
    Record,
    canonical_json,
    density_csv,
    plain,
    scalar_json,
    write_report,
)
from torusglue.torus import OneParamSubgroup, TorusPoint

SQRT2 = QuadScalar(0, 1, 2)
LINE = OneParamSubgroup.canonical(SQRT2)


def test_scalar_json_types():
    assert scalar_json(True) is True
    assert scalar_json(3) == 3
    assert scalar_json(0.25) == 0.25
    assert scalar_json(Fraction(1, 3)) == "1/3"
    assert scalar_json(SQRT2) == "0 + 1*sqrt(2)"
    with pytest.raises(TypeError):
        scalar_json(object())


@dataclass(frozen=True)
class _Leaf(Record):
    x: object
    flag: bool = False


@dataclass(frozen=True)
class _Node(Record):
    leaf: _Leaf
    items: tuple
    note: object = None


@dataclass(frozen=True)
class _Renamed(Record):
    inner_part: _Leaf
    weight: Fraction

    def report_fields(self) -> dict:
        return {"inner": self.inner_part, "weight": self.weight, "weight_value": float(self.weight)}


def test_plain_leaves():
    assert plain(None) is None
    assert plain(True) is True and plain(False) is False
    assert plain(3) == 3 and type(plain(3)) is int
    assert plain(0.25) == 0.25
    assert plain("text") == "text"
    assert plain(Fraction(-3, 7)) == "-3/7"
    assert plain(SQRT2) == "0 + 1*sqrt(2)"
    assert plain(EXACT) == {"kind": "exact"}
    assert plain(FLOAT) == {"kind": "float", "eps": 1e-9, "identity_eps": 1e-12}
    with pytest.raises(TypeError):
        plain(object())
    with pytest.raises(TypeError):
        plain({"k": [object()]})


def test_plain_containers():
    assert plain((1, Fraction(1, 2))) == [1, "1/2"]
    assert plain([(), (SQRT2,)]) == [[], ["0 + 1*sqrt(2)"]]
    assert plain({"a": (None, 2.5)}) == {"a": [None, 2.5]}


def test_record_report_is_its_fields():
    node = _Node(_Leaf(Fraction(1, 3), True), (SQRT2, _Leaf(2)))
    expected = {
        "leaf": {"x": "1/3", "flag": True},
        "items": ["0 + 1*sqrt(2)", {"x": 2, "flag": False}],
        "note": None,
    }
    assert node.describe() == plain(node) == expected
    assert canonical_json(node.describe()) == canonical_json(expected)


def test_record_report_fields_override():
    rec = _Renamed(_Leaf(Fraction(5, 4)), Fraction(1, 8))
    assert rec.describe() == {
        "inner": {"x": "5/4", "flag": False},
        "weight": "1/8",
        "weight_value": 0.125,
    }
    # the override returns raw values; only plain() turns them into wire strings
    assert rec.report_fields()["weight"] == Fraction(1, 8)
    assert plain([rec]) == [rec.describe()]


def test_canonical_json_sorts_and_indents():
    text = canonical_json({"b": 1, "a": [1, 2], "c": {"z": None, "y": True}})
    assert text == (
        '{\n'
        '  "a": [\n'
        '    1,\n'
        '    2\n'
        '  ],\n'
        '  "b": 1,\n'
        '  "c": {\n'
        '    "y": true,\n'
        '    "z": null\n'
        '  }\n'
        '}\n'
    )


def test_canonical_json_floats_fixed_format():
    assert canonical_json(0.1) == "0.10000000000000001\n"
    assert canonical_json(1.0) == "1\n"
    assert canonical_json(2.0 ** 1000) == "1.0715086071862673e+301\n"
    with pytest.raises(ValueError):
        canonical_json(float("nan"))
    with pytest.raises(ValueError):
        canonical_json(float("inf"))


def test_canonical_json_exact_scalars_as_wire_strings():
    text = canonical_json({"x": Fraction(-3, 7), "y": SQRT2})
    assert '"x": "-3/7"' in text
    assert '"y": "0 + 1*sqrt(2)"' in text
    # and the strings parse back to the same values
    assert parse_scalar("-3/7") == Fraction(-3, 7)
    assert parse_scalar("0 + 1*sqrt(2)") == SQRT2


def test_canonical_json_empties_and_strings():
    assert canonical_json([]) == "[]\n"
    assert canonical_json({}) == "{}\n"
    assert canonical_json("a\"b") == '"a\\"b"\n'
    assert canonical_json(("x",)) == '[\n  "x"\n]\n'


def test_canonical_json_rejects_bad_keys_and_types():
    with pytest.raises(TypeError):
        canonical_json({1: "x"})
    with pytest.raises(TypeError):
        canonical_json({"x": object()})


def test_canonical_json_is_deterministic():
    payload = {"k": [0.1, Fraction(1, 3), {"n": 7}], "m": "text"}
    assert canonical_json(payload) == canonical_json(payload)
    assert canonical_json(payload).endswith("}\n")


def test_density_csv_schema():
    target = TorusPoint(Fraction(0), Fraction(1, 2))
    rep = density_report(target, LINE, [Fraction(1, 100)], budget=1_000_000)
    text = density_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == DENSITY_CSV_HEADER == "target_u1,target_u2,t,distance"
    assert len(lines) == 2
    u1, u2, t, dist = lines[1].split(",")
    assert float(u1) == 0.0 and float(u2) == 0.5
    assert float(dist) < 0.01
    # list form: rows from several reports concatenate under one header
    multi = density_csv([rep.describe(), rep.describe()])
    assert multi.count("\n") == 3


def test_density_csv_skips_misses():
    target = TorusPoint(Fraction(0), Fraction(1, 2))
    rep = density_report(target, LINE, [Fraction(1, 10 ** 7)], budget=1000)
    assert not rep.passed
    text = density_csv(rep)
    assert text == DENSITY_CSV_HEADER + "\n"


def test_write_report_file_and_stdout(tmp_path, capsys):
    out = tmp_path / "r.json"
    write_report("line\n", str(out))
    assert out.read_text() == "line\n"
    write_report("to-console\n", None)
    assert capsys.readouterr().out == "to-console\n"
