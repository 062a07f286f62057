"""Exact scalars in one normal form.

A rational value lies in every quadratic field, so a QuadScalar whose value
is rational carries the field index DEFAULT_D, whatever field it was built
or computed in; an irrational one carries its own.  Equal values then have
equal (A, B, D, d): equality is equality of that form, and equal values hash
alike.  Every operator, the constructor, pickles and copies give the normal
form, and the exact torus distance gives the one that the unreduced oracle's
operators give.
"""

import copy
import pickle
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from torusglue.numerics import DEFAULT_D, FieldMismatchError, QuadScalar, _new
from torusglue.torus import GramMatrix, TorusPoint, naive_torus_distance_sq, torus_distance_sq

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
FIELDS = (2, 3, 5)
rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
nonzero_rationals = rationals.filter(bool)


@st.composite
def quads(draw):
    """A QuadScalar over sqrt(2), sqrt(3) or sqrt(5), its radical part
    possibly 0."""
    b = draw(st.one_of(st.just(Fraction(0)), rationals))
    return QuadScalar(draw(rationals), b, draw(st.sampled_from(FIELDS)))


scalars = st.one_of(st.integers(-20, 20), rationals, quads())


@st.composite
def pairs(draw):
    """Two scalars, often related so that a sum, difference, product or
    quotient of irrational operands is rational, or the two are equal in
    value but built over different fields."""
    x = draw(scalars)
    kind = draw(st.sampled_from(("free", "same value", "shifted", "scaled", "conjugate")))
    if kind == "free" or not isinstance(x, QuadScalar):
        return x, draw(scalars)
    # a rational x may be rebuilt over any field
    d = x.d if x.b else draw(st.sampled_from(FIELDS))
    if kind == "same value":
        y = QuadScalar(x.a, x.b, d)
    elif kind == "shifted":  # x - y rational
        y = QuadScalar(x.a + draw(rationals), x.b, d)
    elif kind == "scaled":  # x / y rational
        r = draw(nonzero_rationals)
        y = QuadScalar(x.a * r, x.b * r, d)
    else:  # x + y and x * y rational
        y = QuadScalar(draw(rationals), -x.b, d)
    return (x, y) if draw(st.booleans()) else (y, x)


def form(x):
    return x._A, x._B, x._D, x.d


def assert_normal(result, *operands):
    """A QuadScalar result reads DEFAULT_D when rational and the field of its
    irrational operands otherwise."""
    if not isinstance(result, QuadScalar):
        return
    if result.is_rational():
        assert result.d == DEFAULT_D, (operands, result)
    else:
        fields = {o.d for o in operands if isinstance(o, QuadScalar) and not o.is_rational()}
        assert fields == {result.d}, (operands, result)


def test_rational_values_read_the_default_field():
    assert QuadScalar(Fraction(1, 2), 0, 3).d == DEFAULT_D
    assert repr(QuadScalar(Fraction(1, 2), 0, 3)) == "QuadScalar(1/2, 0, d=2)"
    assert (QuadScalar(1, 1, 3) - QuadScalar(0, 1, 3)).d == DEFAULT_D
    assert QuadScalar(1, 1, 5).d == 5 and (QuadScalar(1, 1, 5) + Fraction(1, 2)).d == 5


@SETTINGS
@given(pairs())
@example((QuadScalar(1, 1, 3), QuadScalar(0, 1, 3)))
@example((QuadScalar(2, 1, 5), QuadScalar(2, -1, 5)))
@example((QuadScalar(Fraction(1, 2), 0, 3), QuadScalar(0, 1, 5)))
def test_operator_results_are_in_normal_form(pair):
    x, y = pair
    for a, b in ((x, y), (y, x)):
        for op in (lambda s, o: s + o, lambda s, o: s - o, lambda s, o: s * o, lambda s, o: s / o):
            try:
                result = op(a, b)
            except FieldMismatchError:
                # only two irrational operands of different fields may raise
                assert not (a.is_rational() or b.is_rational()) and a.d != b.d
                continue
            except ZeroDivisionError:
                assert b == 0
                continue
            assert_normal(result, a, b)
    for a in (x, y):
        if isinstance(a, QuadScalar):
            for result in (-a, +a, abs(a), a**0, a**3, a.frac(), a.floor_frac()[1]):
                assert_normal(result, a)
            if a:
                assert_normal(a.reciprocal(), a)


def sym(x):
    return sympy.Rational(x.a) + sympy.Rational(x.b) * sympy.sqrt(x.d)


@SETTINGS
@given(pairs())
@example((QuadScalar(Fraction(1, 2), 0, 3), QuadScalar(Fraction(1, 2), 0, 5)))
@example((QuadScalar(0, 1, 2), QuadScalar(0, 1, 3)))
def test_equality_is_equality_of_the_normal_form(pair):
    x, y = pair
    assume(isinstance(x, QuadScalar) and isinstance(y, QuadScalar))
    equal = x == y
    # square-free radicals are linearly independent over Q, so a + b sqrt(d)
    # in sympy is equal exactly when the values are
    assert equal == (form(x) == form(y)) == (sympy.simplify(sym(x) - sym(y)) == 0)
    assert (x != y) == (not equal)
    if equal:
        assert hash(x) == hash(y)
    if x.is_rational():
        assert x == x.a and hash(x) == hash(x.a)


@SETTINGS
@given(scalars.filter(lambda x: isinstance(x, QuadScalar)))
def test_pickles_and_copies_give_the_normal_form(x):
    for clone in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(clone) is QuadScalar and form(clone) == form(x)
        assert_normal(clone, x)


def test_a_reduce_tuple_with_a_rational_value_normalizes():
    # a pickle written before the normal form may name another field for a
    # rational value; loading it gives the normal form
    q = _new(1, 0, 2, 3)
    assert form(q) == (1, 0, 2, DEFAULT_D) and q == Fraction(1, 2)
    assert form(_new(1, 1, 2, 3)) == (1, 1, 2, 3)


@given(rationals, st.sampled_from((0, 1, 4, 8, 9, 12)))
def test_a_bad_field_index_raises_even_for_a_rational_value(q, d):
    with pytest.raises(ValueError):
        QuadScalar(q, 0, d)


def test_bools_and_rationals_mix_with_quads_as_ints_do():
    x = QuadScalar(Fraction(1, 3), Fraction(1, 5), 3)
    assert x + True == x + 1 and True + x == 1 + x
    assert x - True == x - 1 and True - x == 1 - x
    assert x * True == x and True / x == 1 / x and x / True == x
    assert (x < True) == (x < 1)
    assert form(QuadScalar(1, 0, 3) * False) == (0, 0, 1, DEFAULT_D)


# -- the exact torus distance --------------------------------------------------------

Q2 = QuadScalar(Fraction(1, 3), Fraction(1, 5), 2)
GRAMS = (GramMatrix.identity(), GramMatrix(2, 1, 3), GramMatrix(5, 4, 4))


def same(got, want):
    fields = [x.d if isinstance(x, QuadScalar) else None for x in (got, want)]
    return type(got) is type(want) and got == want and fields[0] == fields[1]


@st.composite
def coordinates(draw):
    """A coordinate, which TorusPoint reduces to [0, 1): an int 0, a
    Fraction, a rational-valued QuadScalar built over sqrt(2), sqrt(3) or
    sqrt(5), or an irrational one over sqrt(2)."""
    kind = draw(st.sampled_from(("int", "fraction", "rational-quad", "quad")))
    if kind == "int":
        return 0
    a = draw(rationals)
    if kind == "fraction":
        return a
    if kind == "rational-quad":
        return QuadScalar(a, 0, draw(st.sampled_from(FIELDS)))
    return QuadScalar(a, draw(nonzero_rationals), 2)


points = st.builds(TorusPoint, coordinates(), coordinates())


@pytest.mark.parametrize("gram", GRAMS, ids=["identity", "2,1,3", "5,4,4"])
def test_distance_over_rational_quads_of_several_fields(gram):
    # rational-valued QuadScalars built over 3 and 5 beside sqrt(2) values
    cases = [
        (TorusPoint(QuadScalar(Fraction(1, 4), 0, 3), 0), TorusPoint(Q2, Fraction(1, 2))),
        (TorusPoint(QuadScalar(Fraction(1, 4), 0, 3), QuadScalar(0, 0, 5)), TorusPoint(Q2, 0)),
        (TorusPoint(QuadScalar(Fraction(1, 2), 0, 3), QuadScalar(Fraction(1, 2), 0, 5)), TorusPoint(0, 0)),
    ]
    for p, q in cases:
        for a, b in ((p, q), (q, p)):
            got, want = torus_distance_sq(a, b, gram), naive_torus_distance_sq(a, b, gram, 3)
            assert same(got, want), (a, b, got, want)
            assert type(got) is QuadScalar and (got.is_rational() or got.d == 2)


@SETTINGS
@given(points, points, st.sampled_from(range(len(GRAMS))))
def test_distance_normal_form_matches_naive(p, q, gram_index):
    gram = GRAMS[gram_index]
    for a, b in ((p, q), (q, p), (p, p)):
        got, want = torus_distance_sq(a, b, gram), naive_torus_distance_sq(a, b, gram, 3)
        assert same(got, want), (a, b, got, want)
