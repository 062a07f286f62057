"""Torus translates and inversions on reduced points against re-reduction.

`TorusPoint.translate`, `invert` and `inverted_translate` start from
coordinates already in [0, 1) and, on exact ones, take one conditional
+-1 instead of reducing the raw sum again.  The oracles in `oracles.py`
reduce the raw sums with floor_frac.  Results must agree in value, in type
and in the field index of a QuadScalar, which for a rational value is
DEFAULT_D; where the oracle raises FieldMismatchError the reduced path
must too.  Float coordinates must give the bits the constructor gives.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from torusglue.isometry import TorusIsometry
from torusglue.numerics import FieldMismatchError, QuadScalar, frac
from torusglue.torus import TorusPoint

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@st.composite
def unit_scalars(draw, fields=(2, 3)):
    """An exact value in [0, 1): Fraction, int 0, or a QuadScalar over
    sqrt(d), irrational or rational-valued, zeros included."""
    kind = draw(st.sampled_from(("fraction", "zero", "quad", "rational-quad", "quad-zero")))
    d = draw(st.sampled_from(fields))
    if kind == "zero":
        return draw(st.sampled_from((0, Fraction(0))))
    if kind == "quad-zero":
        return QuadScalar(0, 0, d)
    a = draw(rationals)
    if kind == "fraction":
        return frac(a)
    b = 0 if kind == "rational-quad" else draw(rationals.filter(bool))
    return frac(QuadScalar(a, b, d))


@st.composite
def point_pairs(draw):
    """Two reduced points; some coordinates of the second are the first's
    complement 1 - u (so u + x == 1 exactly), zero, or equal to it."""
    p = TorusPoint(draw(unit_scalars()), draw(unit_scalars()))
    coords = []
    for u in (p.u1, p.u2):
        how = draw(st.sampled_from(("free", "complement", "zero", "same")))
        if how == "complement":
            coords.append(1 - u if u else u)
        elif how == "zero":
            coords.append(Fraction(0))
        elif how == "same":
            coords.append(u)
        else:
            coords.append(draw(unit_scalars()))
    return p, TorusPoint(*coords)


def field(x):
    return x.d if isinstance(x, QuadScalar) else None


def assert_same(got, want):
    """Coordinates equal in value, type and field index."""
    for g, w in zip((got.u1, got.u2), want):
        assert type(g) is type(w), (got, want)
        assert g == w and field(g) == field(w), (got, want)
        assert 0 <= g < 1


def check(fn, oracle, *args):
    try:
        want = oracle(*args)
    except FieldMismatchError:
        with pytest.raises(FieldMismatchError):
            fn(*args)
        return
    assert_same(fn(*args), want)


@SETTINGS
@given(point_pairs())
@example((TorusPoint(Fraction(1, 3), QuadScalar(Fraction(1, 2), 0, 3)),
          TorusPoint(Fraction(2, 3), QuadScalar(Fraction(1, 2), 0, 2))))
@example((TorusPoint(QuadScalar(-1, 1, 2), 0), TorusPoint(QuadScalar(2, -1, 2), Fraction(0))))
def test_reduced_paths_match_re_reduction(pair):
    p, q = pair
    for a, b in ((p, q), (q, p)):
        check(TorusPoint.translate, oracles.translate, a, b)
        check(TorusPoint.invert, oracles.invert, a)
        check(TorusPoint.inverted_translate, oracles.inverted_translate, a, b)


@SETTINGS
@given(point_pairs(), st.booleans(), st.booleans())
def test_torus_isometry_apply_and_compose_match_re_reduction(pair, inv_s, inv_o):
    p, q = pair
    s, o = TorusIsometry(p, inv_s), TorusIsometry(q, inv_o)
    check(s.apply, lambda y: oracles.torus_apply(s, y), q)
    try:
        (x1, x2), inverts = oracles.torus_compose(s, o)
    except FieldMismatchError:
        with pytest.raises(FieldMismatchError):
            s.compose(o)
        return
    got = s.compose(o)
    assert got.inverts == inverts
    assert_same(got.x, (x1, x2))


def bits(x):
    return x.hex() if isinstance(x, float) else (type(x), x, field(x))


FLOATS = st.one_of(
    st.floats(0, 1, exclude_max=True),
    st.sampled_from((0.0, -0.0, 5e-324, 1e-20, 0.5, 1 - 2.0**-53, 2.0**-55)),
)


@SETTINGS
@given(st.lists(st.one_of(FLOATS, unit_scalars(fields=(2,))), min_size=4, max_size=4))
def test_float_coordinates_keep_the_constructor_bits(coords):
    p, q = TorusPoint(*coords[:2]), TorusPoint(*coords[2:])
    negated = TorusPoint(-p.u1, -p.u2)
    cases = [
        (p.translate(q), TorusPoint(p.u1 + q.u1, p.u2 + q.u2)),
        (p.invert(), negated),
        (p.inverted_translate(q), TorusPoint(negated.u1 + q.u1, negated.u2 + q.u2)),
    ]
    for got, want in cases:
        assert (bits(got.u1), bits(got.u2)) == (bits(want.u1), bits(want.u2))


def test_tiny_negative_float_reduces_to_zero():
    # -1e-20 - floor(-1e-20) rounds to 1.0, which is outside [0, 1)
    assert -1e-20 - math.floor(-1e-20) == 1.0
    p = TorusPoint(-1e-20, 0.5)
    assert p.u1 == 0.0 and p.u2 == 0.5
    assert TorusPoint(1e-20, 0.25).invert().u1 == 0.0
    assert TorusPoint(-0.0, 0.25).u1 == 0.0
    assert TorusPoint(-0.25, 1.0) == TorusPoint(0.75, 0.0)
