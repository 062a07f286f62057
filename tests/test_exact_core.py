"""The integer-backed exact core against independent oracles.

`QuadScalar` arithmetic is checked against sympy's exact algebra; signs,
floors, enclosures and float views against mpmath at a precision large
enough to separate every value from the comparison at hand.  Coefficients
reach 10^40.  The four-corner exact `torus_distance_sq` is checked against
the unreduced `naive_torus_distance_sq` for equal values and equal types,
including exact ties, near-ties below float resolution and Grams whose float
copy overflows.
"""

import math
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from torusglue.numerics import (
    FieldMismatchError,
    QuadScalar,
    format_scalar,
    frac,
    parse_scalar,
    sqrt_as_float,
)
from torusglue.orbit import circle_density_hit
from torusglue.torus import GramMatrix, TorusPoint, naive_torus_distance_sq, torus_distance_sq

BIG = 10**40
FIELDS = (2, 3, 5, 6, 7, 10, 11)
SETTINGS = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])

rationals = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
small_rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
coefficients = st.one_of(rationals, small_rationals, st.just(Fraction(0)))


@st.composite
def quads(draw, d=None):
    d = draw(st.sampled_from(FIELDS)) if d is None else d
    return QuadScalar(draw(coefficients), draw(coefficients), d)


@st.composite
def quad_pairs(draw):
    d = draw(st.sampled_from(FIELDS))
    return draw(quads(d)), draw(quads(d))


@st.composite
def same_denominator_pairs(draw):
    """Two scalars whose normalized triples share D.  Either or both may be
    rational-valued, and then they may come from different fields."""
    d = draw(st.sampled_from(FIELDS))
    D = draw(st.one_of(st.integers(1, 12), st.integers(1, BIG)))
    ints = st.one_of(st.integers(-50, 50), st.integers(-BIG, BIG))
    (A1, B1, d1), (A2, B2, d2) = [(draw(ints), draw(ints), d) for _ in range(2)]
    rational = draw(st.sampled_from(("neither", "second", "both")))
    if rational != "neither":
        B2, d2 = 0, draw(st.sampled_from(FIELDS))
    if rational == "both":
        B1, d1 = 0, draw(st.sampled_from(FIELDS))
    assume(math.gcd(A1, B1, D) == 1 and math.gcd(A2, B2, D) == 1)
    x = QuadScalar(Fraction(A1, D), Fraction(B1, D), d1)
    return x, QuadScalar(Fraction(A2, D), Fraction(B2, D), d2)


def sym(x):
    if isinstance(x, QuadScalar):
        a, b = x.a, x.b
        return sympy.Rational(a.numerator, a.denominator) + sympy.Rational(
            b.numerator, b.denominator
        ) * sympy.sqrt(x.d)
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def digits_needed(*xs) -> int:
    # |A + B sqrt d| >= 1 / (|A| + |B| sqrt d): three times the written
    # digits separates every value here from zero and from the integers
    return 60 + 3 * sum(len(str(x)) for x in xs)


def mp_value(x):
    """x as an mpf at the current mpmath precision."""
    if isinstance(x, QuadScalar):
        a, b = x.a, x.b
        return mpmath.mpf(a.numerator) / a.denominator + mpmath.mpf(
            b.numerator
        ) / b.denominator * mpmath.sqrt(x.d)
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def assert_same(got, expected_sym):
    assert isinstance(got, QuadScalar)
    assert sympy.expand(sym(got) - expected_sym) == 0


# -- arithmetic ------------------------------------------------------------------


@SETTINGS
@given(quad_pairs(), st.one_of(st.integers(-BIG, BIG), rationals))
def test_arithmetic_matches_sympy(pair, r):
    x, y = pair
    sx, sy, sr = sym(x), sym(y), sym(r)
    assert_same(x + y, sx + sy)
    assert_same(x - y, sx - sy)
    assert_same(x * y, sx * sy)
    assert_same(x + r, sx + sr)
    assert_same(r - x, sr - sx)
    assert_same(r * x, sr * sx)
    assert_same(-x, -sx)
    if not y.is_zero():
        # the quotient q is the unique field element with q * y == x
        assert sympy.expand(sym(x / y) * sy - sx) == 0
        assert sympy.expand(sym(y.reciprocal()) * sy - 1) == 0
    if r != 0:
        assert sympy.expand(sym(x / r) * sr - sx) == 0
    if not x.is_zero():
        assert sympy.expand(sym(r / x) * sx - sr) == 0


@SETTINGS
@given(same_denominator_pairs())
@example((QuadScalar(Fraction(1, 3), 0, 2), QuadScalar(Fraction(1, 3), 0, 3)))
@example((QuadScalar(Fraction(1, 6), Fraction(5, 6), 7), QuadScalar(Fraction(-5, 6), Fraction(1, 6), 7)))
def test_same_denominator_operands_match_sympy_and_mpmath(pair):
    x, y = pair
    assert x._D == y._D
    r = y.a  # shares x's denominator whenever y is rational-valued
    sx, sy, sr = sym(x), sym(y), sym(r)
    assert_same(x + y, sx + sy)
    assert_same(x - y, sx - sy)
    assert_same(y - x, sy - sx)
    assert_same(x + r, sx + sr)
    assert_same(x - r, sx - sr)
    assert_same(r - x, sr - sx)
    with mpmath.workdps(digits_needed(x, y)):
        vx, vy, vr = mp_value(x), mp_value(y), mp_value(r)
        assert (x < y, x <= y, x > y, x >= y) == (vx < vy, vx <= vy, vx > vy, vx >= vy)
        assert (r < x, r <= x, r > x, r >= x) == (vr < vx, vr <= vx, vr > vx, vr >= vx)


@SETTINGS
@given(quads())
def test_triple_is_normalized(x):
    A, B, D = x._A, x._B, x._D
    assert D > 0 and math.gcd(A, B, D) == 1
    assert x.a == Fraction(A, D) and x.b == Fraction(B, D)
    y = (x * 3 + Fraction(1, 7)) - x * 3
    assert (y._A, y._B, y._D) == (1, 0, 7)


def test_division_by_zero_and_field_mismatch():
    x = QuadScalar(Fraction(1, 3), 5, 2)
    for zero in (0, Fraction(0), QuadScalar(0, 0, 3)):
        with pytest.raises(ZeroDivisionError):
            x / zero
    with pytest.raises(ZeroDivisionError):
        QuadScalar(0, 0, 2).reciprocal()
    with pytest.raises(FieldMismatchError):
        x * QuadScalar(0, 1, 3)
    assert (x * QuadScalar(2, 0, 3)).d == 2
    assert (QuadScalar(2, 0, 3) * x).d == 2


# -- signs, floors, enclosures ---------------------------------------------------


@SETTINGS
@given(quad_pairs(), st.one_of(st.integers(-BIG, BIG), rationals))
@example((QuadScalar(Fraction(-14142135623730950, 10**16), 1, 2), QuadScalar(0, 0, 2)), 0)
@example((QuadScalar(3, 0, 2), QuadScalar(3, 0, 2)), 3)
@example((QuadScalar(Fraction(7, 3), 0, 5), QuadScalar(0, 1, 5)), Fraction(7, 3))
def test_sign_and_order_match_mpmath(pair, r):
    x, y = pair
    with mpmath.workdps(digits_needed(x, y, r)):
        vx, vy, vr = mp_value(x), mp_value(y), mp_value(r)
        assert x.sign() == (vx > 0) - (vx < 0)
        assert (x < y) == (vx < vy)
        assert (x <= y) == (vx <= vy)
        assert (x > y) == (vx > vy)
        assert (x >= y) == (vx >= vy)
        # an int or Fraction on the left reaches the reflected QuadScalar method
        assert (r < x, r <= x, r > x, r >= x) == (vr < vx, vr <= vx, vr > vx, vr >= vx)
        assert abs(x) == (x if vx >= 0 else -x)


@SETTINGS
@given(quads())
@example(QuadScalar(0, 10**36 + 1, 2))
@example(QuadScalar(1, 1, 2) ** 40)
@example(QuadScalar(1, -1, 2) ** 41)
@example(QuadScalar(-(10**40), 7 * 10**39, 2))
def test_floor_matches_mpmath(x):
    with mpmath.workdps(digits_needed(x)):
        n = int(mpmath.floor(mp_value(x)))
    assert x.floor() == n
    whole, part = x.floor_frac()
    assert whole == n and part == x - n
    assert part.sign() >= 0 and (part - 1).sign() < 0


@SETTINGS
@given(quads(), st.sampled_from((0, 5, 30, 60)))
def test_interval_matches_mpmath(x, digits):
    lo, hi = x.interval(digits)
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
    assert hi - lo == abs(x.b) / 10**digits
    with mpmath.workdps(digits_needed(x) + 2 * digits):
        v = mp_value(x)
        assert mp_value(lo) <= v <= mp_value(hi)


# -- float views -------------------------------------------------------------------


@SETTINGS
@given(quads())
@example(QuadScalar(Fraction(1 - BIG, 3), Fraction(BIG, 3 * math.isqrt(2 * 10**72)), 2))
@example(QuadScalar(Fraction(1, 10**40), Fraction(-1, 10**40), 7))
def test_float_views_match_mpmath(x):
    with mpmath.workdps(digits_needed(x)):
        v = mp_value(x)
        f = float(x)
        assert abs(f - v) <= abs(v) * 2.0**-52
        root = sqrt_as_float(abs(x))
        assert abs(root - mpmath.sqrt(abs(v))) <= mpmath.sqrt(abs(v)) * 2.0**-52


def test_float_views_of_huge_values():
    huge = QuadScalar(10**400, 1, 2)
    with pytest.raises(OverflowError):
        float(huge)
    assert math.isclose(sqrt_as_float(huge), 10**200, rel_tol=1e-15)
    with pytest.raises(ValueError):
        sqrt_as_float(QuadScalar(1, -1, 2))


@pytest.mark.parametrize("eps_exp", [6, 11, 16])
def test_circle_hit_float_fields_match_mpmath(eps_exp):
    # the landing error is far below 1 while the coefficients of distance_sq
    # grow like 1/eps: the float view must not lose it to cancellation
    theta = frac(1 / QuadScalar(0, 1, 2))
    hit = circle_density_hit(Fraction(1, 3), theta, Fraction(0), Fraction(1, 10**eps_exp), 1)
    with mpmath.workdps(digits_needed(hit.distance_sq)):
        dist_sq = mp_value(hit.distance_sq)
        assert 0 < dist_sq < mpmath.mpf(10) ** (-2 * eps_exp)
        assert abs(float(hit.distance_sq) - dist_sq) <= dist_sq * 2.0**-52
        assert abs(hit.distance - mpmath.sqrt(dist_sq)) <= mpmath.sqrt(dist_sq) * 2.0**-52


# -- wire form, hashing, equality ----------------------------------------------------


@SETTINGS
@given(quads())
def test_wire_round_trip_hash_and_equality(x):
    text = format_scalar(x)
    back = parse_scalar(text)
    if x.is_rational():
        assert isinstance(back, Fraction) and back == x.a
        assert x == x.a and hash(x) == hash(x.a)
        assert str(x) == str(x.a)
        if x.a.denominator == 1:
            assert x == int(x.a) and hash(x) == hash(int(x.a))
    else:
        assert back == x and hash(back) == hash(x)
        assert x != x.a and hash(x) == hash((x.a, x.b, x.d))
        assert text == f"{x.a} + {x.b}*sqrt({x.d})"
    assert repr(x) == f"QuadScalar({x.a}, {x.b}, d={x.d})"
    other_field = QuadScalar(x.a, 0, 3 if x.d != 3 else 2)
    assert (x == other_field) == x.is_rational()


# -- four-corner exact torus distance -------------------------------------------------------

IDENTITY = GramMatrix.identity()
SKEWED = GramMatrix(2, 1, 3)


@st.composite
def unit_coordinates(draw, d):
    a = draw(st.builds(Fraction, st.integers(0, 10**6), st.integers(1, 10**6)))
    if draw(st.booleans()):
        return a
    b = draw(st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)))
    return QuadScalar(a, b, d)


@st.composite
def point_pairs(draw):
    d = draw(st.sampled_from((2, 3)))
    pts = [TorusPoint(draw(unit_coordinates(d)), draw(unit_coordinates(d))) for _ in range(2)]
    return pts


def assert_matches_naive(p, q, gram):
    got = torus_distance_sq(p, q, gram)
    want = naive_torus_distance_sq(p, q, gram)
    assert got == want
    assert type(got) is type(want)
    return got


@SETTINGS
@given(point_pairs(), st.sampled_from((IDENTITY, SKEWED)))
def test_filtered_distance_matches_naive(pair, gram):
    p, q = pair
    assert_matches_naive(p, q, gram)
    assert_matches_naive(q, p, gram)


@pytest.mark.parametrize("big", [10**308, 10**400])
def test_overflowing_float_gram_falls_back(big):
    """Grams at and beyond the float range: the exact four-corner distance
    reads no float copy of the form, so it needs none."""
    gram = GramMatrix(big, 0, big)
    if big > 2**1024:
        with pytest.raises(OverflowError):
            gram._float_data
    p = TorusPoint(Fraction(1, 3), QuadScalar(0, Fraction(1, 5), 2))
    q = TorusPoint(Fraction(5, 7), Fraction(1, 9))
    assert assert_matches_naive(p, q, gram) > 0
    assert assert_matches_naive(q, p, gram) > 0


def test_exact_ties_keep_every_minimizer():
    """Half points and cell corners tie two or four corners exactly; the
    first minimizer in window order wins, as in the unreduced window."""
    origin = TorusPoint.origin()
    half = TorusPoint(Fraction(1, 2), Fraction(0))
    assert assert_matches_naive(origin, half, IDENTITY) == Fraction(1, 4)
    corner = TorusPoint(Fraction(1, 2), Fraction(1, 2))
    assert assert_matches_naive(origin, corner, IDENTITY) == Fraction(1, 2)
    assert_matches_naive(origin, corner, SKEWED)
    assert_matches_naive(corner, origin, SKEWED)
    # rational-valued scalars built over two fields: the result is a
    # rational QuadScalar, whose field index is DEFAULT_D on both paths
    mixed = TorusPoint(QuadScalar(Fraction(1, 2), 0, 3), QuadScalar(Fraction(1, 2), 0, 2))
    for gram in (IDENTITY, SKEWED):
        got = assert_matches_naive(origin, mixed, gram)
        assert got.d == naive_torus_distance_sq(origin, mixed, gram).d


def test_near_ties_below_float_resolution_are_settled_exactly():
    origin = TorusPoint.origin()
    # the two nearest shifts' squared lengths differ by 2^-50, a few ulps
    q = TorusPoint(Fraction(1, 2) + Fraction(1, 2**51), Fraction(0))
    assert assert_matches_naive(origin, q, IDENTITY) == (Fraction(1, 2) - Fraction(1, 2**51)) ** 2
    tiny = Fraction(1, 2 * 10**30)
    # rational: the shifts -1/2 + tiny and 1/2 + tiny differ by 1e-30
    for u in (Fraction(1, 2) + tiny, Fraction(1, 2) - tiny):
        q = TorusPoint(u, Fraction(0))
        assert assert_matches_naive(origin, q, IDENTITY) == (Fraction(1, 2) - tiny) ** 2
    # irrational: 0 < sqrt(2) - r < 1e-40, so delta lies in (0, 1e-30)
    r = Fraction(math.isqrt(2 * 10**80), 10**40)
    delta = (QuadScalar(0, 1, 2) - r) * 10**10
    for u in (Fraction(1, 2) + delta, Fraction(1, 2) - delta):
        q = TorusPoint(u, Fraction(1, 3))
        got = assert_matches_naive(origin, q, IDENTITY)
        assert got == (Fraction(1, 2) - delta) ** 2 + Fraction(1, 9)
