"""Rules the package source keeps, checked on its syntax tree and under `python -O`.

- No `assert` statement: `python -O` strips them, and a certificate must
  not depend on how the interpreter was started.  Certification checks
  raise CertificationError, an AssertionError subclass, explicitly instead,
  and never a bare AssertionError.
- No function-local `from .report import`: `report` imports only
  `numerics`, so every module can import it at the top.
- One field join: the text of a field mismatch is written only in
  `numerics._field`, so every caller joins fields by that one rule.
- One reader of a point's lift: `TorusPoint._lift` is read only in
  `torus`, where `_lift_difference` unpacks it for every caller.
- One memo descriptor: `torus._memo`; no module uses
  `functools.cached_property`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torusglue

PACKAGE = Path(torusglue.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"report.py", "numerics.py", "orbit.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_certification_raises_are_typed(path):
    lines = [
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id == "AssertionError"
    ]
    assert lines == [], f"{path.name}: bare AssertionError raised on lines {lines}"


def test_certification_error_is_an_assertion_error():
    assert issubclass(torusglue.CertificationError, AssertionError)
    assert "CertificationError" in torusglue.__all__


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_function_local_report_import(path):
    lines = [
        inner.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, ast.ImportFrom) and inner.level == 1 and inner.module == "report"
    ]
    assert lines == [], f"{path.name}: function-local report imports on lines {lines}"


def test_field_mismatch_text_lives_only_in_the_field_rule():
    places = []
    for path in SOURCES:
        tree = _tree(path)
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "cannot mix sqrt(" in node.value:
                inner = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                places.append((path.name, inner[-1] if inner else None))
    assert places == [("numerics.py", "_field")]


def test_lifts_are_read_only_in_torus():
    readers = sorted({
        path.name
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr == "_lift"
    })
    assert readers == ["torus.py"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_cached_property(path):
    lines = [
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and any(alias.name == "cached_property" for alias in node.names)
        or isinstance(node, ast.Attribute) and node.attr == "cached_property"
        or isinstance(node, ast.Name) and node.id == "cached_property"
    ]
    assert lines == [], f"{path.name}: cached_property on lines {lines}"


# Each script plants one fault that a certification check must catch, and
# runs under `python -O`, where an `assert` statement would let it through.
PLANTED = {
    "circle-landing": """
from fractions import Fraction
from torusglue import orbit
from torusglue.numerics import QuadScalar, frac

orbit._circle_dist_sq = lambda w, g_axis: Fraction(1)
theta = frac(1 / QuadScalar(0, 1, 2))
orbit.circle_density_hit(Fraction(1, 3), theta, Fraction(0), Fraction(1, 1000))
""",
    "line-transitivity": """
from fractions import Fraction
from torusglue import isometry
from torusglue.numerics import QuadScalar
from torusglue.torus import OneParamSubgroup

isometry.LiftedIsometry.apply = lambda self, p: p
line = OneParamSubgroup.canonical(QuadScalar(0, 1, 2))
isometry.line_transitivity_witness(Fraction(0), Fraction(1, 2), line)
""",
}

RUNNER = """
import sys
if not sys.flags.optimize:
    sys.exit("not running under -O")
try:
    exec(sys.argv[1])
except AssertionError as exc:
    print("rejected:", type(exc).__name__, exc)
else:
    print("accepted")
"""


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_fault_rejected_under_optimize(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", RUNNER, PLANTED[name]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected: CertificationError"), proc.stdout
