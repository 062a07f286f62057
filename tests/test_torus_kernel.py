"""The integer torus distance against the unreduced oracle, and fractional parts.

`torus_distance_sq` computes exact distances on integer pairs over one
common denominator.  `naive_torus_distance_sq` evaluates the unreduced Gram
form on every shift of q - p in QuadScalar and Fraction arithmetic; the two
must agree in value, in type, and in the field index of a QuadScalar result,
which for a rational value is DEFAULT_D.  Cases mix
Fraction and QuadScalar coordinates with denominators up to 10^40, add
rational-valued QuadScalars of a second field, hit exact ties and use a Gram
whose float copy overflows.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from torusglue.numerics import FieldMismatchError, QuadScalar, floor_frac
from torusglue.torus import GramMatrix, TorusPoint, naive_torus_distance_sq, torus_distance_sq

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
BIG = 10**40
GRAMS = {
    "identity": GramMatrix.identity(),
    "skewed": GramMatrix(2, 1, 3),
    "thin": GramMatrix(Fraction(1, 3), Fraction(1, 7), Fraction(5, 2)),
}
gram_names = st.sampled_from(sorted(GRAMS))
denominators = st.one_of(st.integers(1, 64), st.integers(1, BIG))
rationals = st.builds(Fraction, st.integers(-BIG, BIG), denominators)


def field(x):
    return x.d if isinstance(x, QuadScalar) else None


def assert_matches_naive(p, q, gram):
    for a, b in ((p, q), (q, p)):
        got, want = torus_distance_sq(a, b, gram), naive_torus_distance_sq(a, b, gram)
        assert got == want
        assert type(got) is type(want)
        assert field(got) == field(want), (a, b, got, want)


@st.composite
def coordinates(draw, d):
    """A Fraction, or a QuadScalar over d that may be rational-valued."""
    a = draw(rationals)
    kind = draw(st.sampled_from(("fraction", "rational-quad", "quad")))
    if kind == "fraction":
        return a
    return QuadScalar(a, 0 if kind == "rational-quad" else draw(rationals), d)


@st.composite
def mixed_points(draw):
    d = draw(st.sampled_from((2, 3)))
    return [TorusPoint(draw(coordinates(d)), draw(coordinates(d))) for _ in range(2)]


@SETTINGS
@given(mixed_points(), gram_names)
def test_mixed_coordinates_match_naive(points, gram_name):
    assert_matches_naive(*points, GRAMS[gram_name])


@st.composite
def two_field_coordinates(draw, d):
    """Small coordinates: a Fraction, a rational-valued QuadScalar over 2 or 3,
    or an irrational QuadScalar over d."""
    a = Fraction(draw(st.integers(0, 12)), draw(st.sampled_from((1, 2, 3, 4, 6, 8))))
    kind = draw(st.sampled_from(("fraction", "int", "rational-quad", "quad")))
    if kind == "fraction":
        return a
    if kind == "int":
        return draw(st.integers(0, 1))
    if kind == "rational-quad":
        return QuadScalar(a, 0, draw(st.sampled_from((2, 3))))
    return QuadScalar(a, Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4))), d)


@st.composite
def two_field_points(draw):
    d = draw(st.sampled_from((2, 3)))
    p = TorusPoint(draw(two_field_coordinates(d)), draw(two_field_coordinates(d)))
    q = TorusPoint(draw(two_field_coordinates(d)), draw(two_field_coordinates(d)))
    # shared coordinates cancel irrational parts and make rational results likely
    share = draw(st.sampled_from(("none", "u1", "u2")))
    if share == "u1":
        q = TorusPoint(p.u1, q.u2)
    elif share == "u2":
        q = TorusPoint(q.u1, p.u2)
    return p, q


ROOT2_QUARTER = QuadScalar(1, Fraction(-1, 4), 2)


@SETTINGS
@given(two_field_points(), gram_names)
# rational results whose field index the unreduced form takes from the first coordinate
@example((TorusPoint(0, ROOT2_QUARTER), TorusPoint(QuadScalar(0, 0, 3), 0)), "skewed")
@example((TorusPoint(0, 0), TorusPoint(QuadScalar(0, 0, 2), QuadScalar(1, Fraction(-1, 4), 3))), "skewed")
def test_rational_quads_of_two_fields_match_naive(points, gram_name):
    assert_matches_naive(*points, GRAMS[gram_name])


@pytest.mark.parametrize("gram_name", sorted(GRAMS))
@pytest.mark.parametrize(
    "half",
    [Fraction(1, 2), QuadScalar(Fraction(1, 2), 0, 2), QuadScalar(Fraction(1, 2), 0, 3)],
)
def test_exact_ties_match_naive(gram_name, half):
    gram = GRAMS[gram_name]
    origin = TorusPoint.origin()
    for q in (TorusPoint(half, Fraction(0)), TorusPoint(half, half), TorusPoint(Fraction(0), half)):
        assert_matches_naive(origin, q, gram)
        assert_matches_naive(TorusPoint(QuadScalar(0, 0, 3), 0), q, gram)


@pytest.mark.parametrize("big", [10**308, 10**400])
def test_overflowing_gram_matches_naive(big):
    gram = GramMatrix(big, 1, big)
    p = TorusPoint(Fraction(1, 3), QuadScalar(0, Fraction(1, 5), 2))
    for q in (
        TorusPoint(Fraction(5, 7), Fraction(1, 9)),
        TorusPoint(QuadScalar(Fraction(1, 2), 0, 3), Fraction(1, 2)),
        TorusPoint(QuadScalar(Fraction(1, 11), Fraction(1, 13), 2), Fraction(0)),
    ):
        assert_matches_naive(p, q, gram)


def test_irrational_coordinates_of_two_fields_are_rejected():
    p = TorusPoint(QuadScalar(0, Fraction(1, 3), 2), Fraction(0))
    q = TorusPoint(Fraction(0), QuadScalar(0, Fraction(1, 3), 3))
    with pytest.raises(FieldMismatchError):
        torus_distance_sq(p, q, GramMatrix.identity())


def test_exact_points_do_not_evaluate_the_form(monkeypatch):
    def no_form(self, v1, v2):
        raise AssertionError("GramMatrix.form was called on a single-field input")

    monkeypatch.setattr(GramMatrix, "form", no_form)
    p = TorusPoint(Fraction(1, 3), QuadScalar(Fraction(1, 5), Fraction(1, 7), 2))
    q = TorusPoint(QuadScalar(Fraction(1, 2), 0, 2), Fraction(9, 10))
    for gram in GRAMS.values():
        torus_distance_sq(p, q, gram)


def test_integer_gram_is_the_reduced_gram_over_one_denominator():
    for gram in GRAMS.values():
        (n11, n12, n22), g = gram._int_data
        _, reduced = gram.reduction
        assert g == math.lcm(*(x.denominator for x in (reduced.g11, reduced.g12, reduced.g22)))
        assert (Fraction(n11, g), Fraction(n12, g), Fraction(n22, g)) == (
            reduced.g11, reduced.g12, reduced.g22)


# -- fractional parts of values already in [0, 1) -------------------------------------


@pytest.mark.parametrize(
    "x",
    [
        0,
        Fraction(0),
        Fraction(3, 7),
        QuadScalar(0, 0, 3),
        QuadScalar(Fraction(1, 3), 0, 3),
        QuadScalar(-1, 1, 2),
        0.0,
        -0.0,
        0.25,
    ],
)
def test_floor_frac_returns_a_reduced_value_itself(x):
    n, part = floor_frac(x)
    assert n == 0 and part is x
    assert type(part) is type(x) and field(part) == field(x)
    if isinstance(x, float):
        assert math.copysign(1.0, part) == math.copysign(1.0, x)
    if isinstance(x, QuadScalar):
        assert x.floor_frac() == (0, x) and x.floor_frac()[1] is x
    point = TorusPoint(x, x)
    assert point.u1 is x and point.u2 is x

