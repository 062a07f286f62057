"""Offsets, line maps, winding points and torus distances on integer triples.

The cylinder offset (`gluing._capped_gap`), `LineIsometry.apply`,
`OneParamSubgroup.point` and the exact torus distance work on integer
triples; the oracles keep the operator forms (`oracles.capped_gap`,
`line_apply`, `winding_point`) and the unreduced window
(`naive_torus_distance_sq`).  Results must agree in value, in type and in
the field index of a QuadScalar, and the same FieldMismatchError text must
come out.  Two planted faults, each a small edit of the source recompiled
in place, must be caught by the same comparisons.
"""

import inspect
import textwrap
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from torusglue import gluing, torus
from torusglue.gluing import GluedPoint, GluingParams, _capped_gap, glued_distance
from torusglue.isometry import LineIsometry
from torusglue.numerics import FieldMismatchError, QuadScalar, frac
from torusglue.torus import (
    GramMatrix,
    OneParamSubgroup,
    TorusPoint,
    naive_torus_distance_sq,
    torus_distance_sq,
)

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
rationals = st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 10**3))
Q2, Q3 = QuadScalar(Fraction(1, 3), Fraction(1, 5), 2), QuadScalar(Fraction(1, 2), Fraction(-1, 7), 3)


@st.composite
def scalars(draw):
    """An int, a Fraction, a QuadScalar over sqrt(2) or sqrt(3), a
    rational-valued QuadScalar over sqrt(5), or a float."""
    kind = draw(st.sampled_from(("int", "fraction", "quad", "rational-quad", "float")))
    if kind == "int":
        return draw(st.integers(-50, 50))
    if kind == "float":
        return draw(st.floats(-50, 50, allow_nan=False))
    a = draw(rationals)
    if kind == "fraction":
        return a
    if kind == "rational-quad":
        return QuadScalar(a, 0, 5)
    return QuadScalar(a, draw(rationals), draw(st.sampled_from((2, 3))))


def field(x):
    return x.d if isinstance(x, QuadScalar) else None


def same(got, want):
    return type(got) is type(want) and got == want and field(got) == field(want)


def outcome(fn, *args):
    """(result, None) or (None, the FieldMismatchError text)."""
    try:
        return fn(*args), None
    except FieldMismatchError as exc:
        return None, str(exc)


def check(fn, oracle, *args):
    (got, got_err), (want, want_err) = outcome(fn, *args), outcome(oracle, *args)
    assert got_err == want_err, (args, got_err, want_err)
    if want_err is None:
        assert same(got, want), (args, got, want)


def mutant(module, name: str, old: str, new: str):
    """module.name recompiled from its source with `old` replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), f"<mutant of {name}>", "exec"), namespace)
    return namespace[name]


# -- the cylinder offset ---------------------------------------------------------------

positive = st.builds(Fraction, st.integers(1, 10**4), st.integers(1, 10**3))
caps = st.one_of(
    st.integers(1, 20),
    positive,
    st.builds(QuadScalar, positive, st.just(0), st.sampled_from((2, 3, 5))),
    st.sampled_from((Q2 + 1, Q3 + 1, QuadScalar(2, 1, 5))),
)
# |ta - tb| == M exactly, in each type the gap and the cap can take
TIES = [
    (Fraction(7, 2), Fraction(1, 2), Fraction(3)),
    (QuadScalar(3, 1, 2), QuadScalar(1, 1, 2), Fraction(2)),
    (QuadScalar(3, 1, 2), QuadScalar(1, 1, 2), QuadScalar(2, 0, 3)),
    (Fraction(1, 2), QuadScalar(Fraction(5, 2), 0, 5), 2),
    (Q2 + 2, Fraction(1, 2), Q2 + Fraction(3, 2)),
    (Fraction(1, 2), Q3 + 3, Q3 + Fraction(5, 2)),
    (5, 2, 3),
    (Fraction(-1, 3), Fraction(2, 3), QuadScalar(1, 0, 2)),
]


@SETTINGS
@given(scalars(), scalars(), caps)
@example(Q2, Q3, Fraction(1))
@example(Q2 + 5, Q2, Q3 + 1)
@example(Q2 + 5, Fraction(1, 2), QuadScalar(3, 1, 3))
@example(1.5, Fraction(1, 2), Fraction(1))
@example(QuadScalar(Fraction(1, 2), 0, 3), Q2, Q2 + 1)
def test_offset_matches_the_operator_form(ta, tb, M):
    for a, b in ((ta, tb), (tb, ta), (ta, ta)):
        check(_capped_gap, oracles.capped_gap, a, b, M)


@pytest.mark.parametrize("ta, tb, M", TIES)
def test_offset_at_the_cap_is_the_cap(ta, tb, M):
    for a, b in ((ta, tb), (tb, ta)):
        got = _capped_gap(a, b, M)
        assert got is M and same(got, oracles.capped_gap(a, b, M))


def test_glued_distance_takes_the_triple_offset():
    params, gram = GluingParams(Fraction(1), Fraction(2)), GramMatrix(2, 1, 3)
    y, z = TorusPoint(Q2 - 1, Fraction(1, 3)), TorusPoint(Fraction(1, 4), Fraction(2, 5))
    for ta, tb, _ in TIES + [(Q2, Fraction(-1, 3), None), (Fraction(9, 4), 0, None)]:
        a, b = GluedPoint.cylinder(y, ta), GluedPoint.cylinder(z, tb)
        got = glued_distance(a, b, params, gram)
        assert same(got.offset, oracles.capped_gap(ta, tb, params.M))
        assert same(got.torus_sq, torus_distance_sq(y, z, gram))


# -- line isometries ---------------------------------------------------------------------


@SETTINGS
@given(st.sampled_from((1, -1)), scalars(), scalars())
@example(1, Q2, Q3)
@example(-1, Q2, Q3)
@example(-1, QuadScalar(Fraction(1, 2), 0, 3), Q2)
@example(1, 2, 3)
@example(-1, Fraction(1, 2), 0.25)
def test_line_isometry_matches_the_operator_form(sign, shift, t):
    iso = LineIsometry(sign, shift)
    check(iso.apply, lambda u: oracles.line_apply(iso, u), t)


# -- points of a winding line --------------------------------------------------------------

lines = st.sampled_from((
    OneParamSubgroup.canonical(QuadScalar(0, 1, 2)),
    OneParamSubgroup.canonical(QuadScalar(0, Fraction(-3, 7), 3)),
    OneParamSubgroup(Fraction(2, 3), Q2),
    OneParamSubgroup(Q3, Fraction(5, 4)),
    OneParamSubgroup(QuadScalar(Fraction(3, 2), 0, 5), QuadScalar(Fraction(1, 9), 2, 2)),
    OneParamSubgroup(3, QuadScalar(-1, Fraction(1, 11), 3)),
))


@SETTINGS
@given(lines, scalars())
@example(OneParamSubgroup(Fraction(2, 3), Q2), Q3)
@example(OneParamSubgroup(Q3, Fraction(5, 4)), QuadScalar(Fraction(1, 2), 0, 2))
@example(OneParamSubgroup(3, QuadScalar(-1, Fraction(1, 11), 3)), 7)
@example(OneParamSubgroup.canonical(QuadScalar(0, 1, 2)), -1e-20)
def test_winding_point_matches_the_reducing_constructor(line, t):
    (got, got_err), (want, want_err) = outcome(line.point, t), outcome(oracles.winding_point, line, t)
    assert got_err == want_err, (line, t, got_err, want_err)
    if want_err is None:
        assert type(got) is TorusPoint and got == want
        assert same(got.u1, want.u1) and same(got.u2, want.u2), (line, t, got, want)


def test_alpha_is_computed_once():
    line = OneParamSubgroup(Fraction(2, 3), Q2)
    assert line.alpha is line.alpha and line.alpha == Q2 / Fraction(2, 3)
    assert line == OneParamSubgroup(Fraction(2, 3), Q2) and "alpha" not in line.describe()


# -- torus distances by linear corner differences ----------------------------------------

def _skewed(g11, g12, excess):
    """The form (g11, g12, g12^2 / g11 + excess), positive definite for excess > 0."""
    return GramMatrix(g11, g12, g12 * g12 / g11 + excess)


# Grams the bench does not run: a reduction with U = ((1, 0), (-1, 1)), thin
# and skewed forms, the hexagonal form with its ties, and entries with large
# denominators, reduced or not
GRAMS = (
    GramMatrix(5, 4, 4),
    GramMatrix(1, 0, 10**6),
    GramMatrix(Fraction(1, 10**6), 0, 1),
    GramMatrix(1, Fraction(-1, 2), 1),
    _skewed(Fraction(1, 10**6), Fraction(1, 3 * 10**6), Fraction(10**9 + 7, 10**9)),
    GramMatrix(Fraction(10**9 + 7, 3**20), Fraction(-(10**9 + 6), 2 * 3**20), Fraction(10**9 + 9, 3**20)),
    _skewed(Fraction(7, 12345679), Fraction(14, 12345679) + Fraction(1, 10**9 + 7), Fraction(11, 7654321)),
)


def window(gram) -> int:
    """A window of the unreduced oracle that holds the nearest shift: the
    minimizer has reduced coordinates within 3/2, so raw shifts within
    1 + 3 * max |U_ij|."""
    return 1 + 3 * max(abs(x) for row in gram.reduction[0] for x in row)


def test_grams_cover_other_reductions():
    assert GRAMS[0].reduction[0] == ((1, 0), (-1, 1))
    assert GRAMS[-1].reduction[0] not in (((1, 0), (0, 1)), ((1, 0), (-1, 1)))
    assert all(window(g) <= 7 for g in GRAMS)


@st.composite
def point_pairs(draw):
    """Two points whose exact coordinates lie in [0, 1) over one field
    sqrt(d), d = 2 or 3: int 0, Fractions with denominators up to 10^12 or
    QuadScalars.  (Points that mix irrational fields are checked against
    the lifts' oracle in test_point_lifts.py: the unreduced window takes
    differences coordinate by coordinate and accepts some pairs, a point
    and itself among them, that the lifts reject.)"""
    d = draw(st.sampled_from((2, 3)))

    def coordinate():
        kind = draw(st.sampled_from(("int", "fraction", "quad")))
        if kind == "int":
            return 0
        den = draw(st.sampled_from((10**3, 10**12)))
        a = Fraction(draw(st.integers(-den, den)), draw(st.integers(1, den)))
        if kind == "fraction":
            return frac(a)
        return frac(QuadScalar(a, Fraction(draw(st.integers(-den, den)), draw(st.integers(1, den))), d))

    return TorusPoint(coordinate(), coordinate()), TorusPoint(coordinate(), coordinate())


CASES = [
    (TorusPoint(Fraction(1, 10), 0), TorusPoint(0, 0)),
    (TorusPoint(Q2 - 1, Fraction(2, 5)), TorusPoint(Fraction(1, 3), Q2 - 1)),
    (TorusPoint(Q3, Fraction(1, 2)), TorusPoint(Fraction(3, 4), Fraction(1, 8))),
    (TorusPoint(Fraction(1, 2), Fraction(1, 2)), TorusPoint(0, 0)),
    (TorusPoint(Fraction(9, 10), Fraction(7, 10)), TorusPoint(Fraction(1, 10), Fraction(1, 3))),
]


def distance_cases():
    for gram in GRAMS:
        for p, q in CASES:
            yield p, q, gram


def check_distance(p, q, gram):
    def naive(x, y):
        return naive_torus_distance_sq(x, y, gram, window(gram))

    check(lambda x, y: torus_distance_sq(x, y, gram), naive, p, q)


@SETTINGS
@given(point_pairs(), st.sampled_from(GRAMS))
def test_corner_values_match_the_unreduced_window(pair, gram):
    p, q = pair
    for a, b in ((p, q), (q, p), (p, p)):
        check_distance(a, b, gram)


def test_fixed_cases_match_the_unreduced_window():
    for p, q, gram in distance_cases():
        check_distance(p, q, gram)


# -- planted faults ------------------------------------------------------------------------


def test_corner_value_with_a_single_cross_term_is_caught(monkeypatch):
    monkeypatch.setattr(torus, "_exact_distance_sq", mutant(
        torus, "_exact_distance_sq", "2 * n12 * x2", "n12 * x2",
    ))
    wrong = [
        (p, q, gram) for p, q, gram in distance_cases()
        if not same(torus_distance_sq(p, q, gram), naive_torus_distance_sq(p, q, gram, window(gram)))
    ]
    assert wrong, "a corner value with n12 x1 x2 for 2 n12 x1 x2 went unnoticed"


def test_offset_cap_decided_with_at_most_is_caught(monkeypatch):
    monkeypatch.setattr(gluing, "_capped_gap", mutant(
        gluing, "_capped_gap", "D, sd) >= 0:", "D, sd) > 0:",
    ))
    wrong = [
        (ta, tb, M) for ta, tb, M in TIES
        if not same(gluing._capped_gap(ta, tb, M), oracles.capped_gap(ta, tb, M))
    ]
    assert wrong, "a cap decided with <= went unnoticed"
