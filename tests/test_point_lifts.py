"""Exact torus points on integer triples against operator dispatch.

Exact points carry one cached integer lift (`TorusPoint._lift`); wrap-around
sums and differences (`_plus`, `_minus`) and the exact torus distance work
on the triples, and the seeded samplers build their scalars as one triple.
The oracles in `oracles.py` keep the Fraction and QuadScalar operator forms.
Results must agree in value, in type and in the field index of a
QuadScalar, which for a rational value is DEFAULT_D, and the same
FieldMismatchError text must come out.  The exact distance takes its field
from the two differences q.u_i - p.u_i (`numerics._field`), so a distance
whose radical parts cancel axis by axis is defined, and only an axis or a
pair of differences irrational over two fields raises.  The lift must not
show in equality, hashing, reports, pickles or copies.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from torusglue import gluing, orbit, torus
from torusglue.numerics import DEFAULT_D, FieldMismatchError, QuadScalar, _field, frac
from torusglue.report import canonical_json
from torusglue.sampling import random_span_scalar, random_torus_point, random_unit_scalar, rng_for
from torusglue.torus import GramMatrix, TorusPoint, _minus, _plus, naive_torus_distance_sq, torus_distance_sq

SETTINGS = settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
rationals = st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 10**3))
GRAMS = (GramMatrix.identity(), GramMatrix(2, 1, 3), GramMatrix(Fraction(7, 3), Fraction(-5, 6), 4))


@st.composite
def coordinates(draw):
    """An exact value in [0, 1): int 0, a Fraction, or a QuadScalar over
    sqrt(2), sqrt(3) or sqrt(5), its radical part possibly 0."""
    kind = draw(st.sampled_from(("int", "fraction", "quad", "rational-quad")))
    if kind == "int":
        return 0
    a = draw(rationals)
    if kind == "fraction":
        return frac(a)
    d = draw(st.sampled_from((2, 3, 5)))
    b = 0 if kind == "rational-quad" else draw(rationals)
    return frac(QuadScalar(a, b, d))


points = st.builds(TorusPoint, coordinates(), coordinates())


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


Q2, Q3 = QuadScalar(Fraction(1, 3), Fraction(1, 5), 2), QuadScalar(Fraction(1, 2), Fraction(1, 7), 3)


@SETTINGS
@given(coordinates(), coordinates())
@example(Q2, Q3)
@example(Q2, QuadScalar(Fraction(1, 2), 0, 3))
@example(QuadScalar(Fraction(1, 2), 0, 3), Q2)
@example(QuadScalar(Fraction(1, 2), 0, 3), QuadScalar(Fraction(1, 2), 0, 5))
@example(Fraction(1, 2), Fraction(1, 2))
@example(0, Fraction(0))
@example(Fraction(0), QuadScalar(0, 0, 5))
def test_plus_and_minus_match_operator_dispatch(u, x):
    for a, b in ((u, x), (x, u)):
        check(_plus, oracles.plus, a, b)
        check(_minus, oracles.minus, a, b)


@SETTINGS
@given(points, points)
@example(TorusPoint(Q2, Q3), TorusPoint(0, 0))
@example(TorusPoint(Q2, 0), TorusPoint(QuadScalar(Fraction(1, 4), 0, 3), Fraction(1, 2)))
def test_translates_match_operator_dispatch(p, q):
    for a, b in ((p, q), (q, p)):
        for fn, oracle in (
            (TorusPoint.translate, lambda y, x: (oracles.plus(y.u1, x.u1), oracles.plus(y.u2, x.u2))),
            (TorusPoint.inverted_translate, lambda y, x: (oracles.minus(x.u1, y.u1), oracles.minus(x.u2, y.u2))),
        ):
            (got, got_err), (want, want_err) = outcome(fn, a, b), outcome(oracle, a, b)
            assert got_err == want_err
            if want_err is None:
                assert same(got.u1, want[0]) and same(got.u2, want[1]), (a, b, got, want)


@SETTINGS
@given(points, points, st.sampled_from(GRAMS))
@example(TorusPoint(Q2, Fraction(1, 3)), TorusPoint(Q3, 0), GRAMS[0])
@example(TorusPoint(Q2, Q3), TorusPoint(QuadScalar(0, Fraction(1, 9), 5), 0), GRAMS[1])
@example(TorusPoint(QuadScalar(Fraction(1, 4), 0, 3), 0), TorusPoint(Fraction(1, 2), QuadScalar(0, 0, 2)), GRAMS[1])
@example(TorusPoint(QuadScalar(Fraction(1, 4), 0, 3), QuadScalar(0, 0, 5)), TorusPoint(Q2, 0), GRAMS[2])
@example(TorusPoint(Q2, Q3), TorusPoint(Q2, Fraction(1, 2)), GRAMS[1])
@example(TorusPoint(Q2, Q3), TorusPoint(0, 0), GRAMS[0])
def test_lifted_distance_matches_operator_dispatch(p, q, gram):
    for a, b in ((p, q), (q, p), (p, p)):
        check(lambda x, y: torus_distance_sq(x, y, gram), lambda x, y: oracles.exact_distance_sq(x, y, gram), a, b)


# coordinates over two fields: a distance takes its field from the differences
TWO_FIELDS = TorusPoint(QuadScalar(-1, 1, 2), QuadScalar(-1, 1, 3))
NAIVE_GRAMS = (GramMatrix(1, 0, 1), GramMatrix(2, 1, 3), GramMatrix(5, 4, 4))


@pytest.mark.parametrize("gram", NAIVE_GRAMS, ids=["identity", "skewed", "wide"])
def test_distances_whose_radical_parts_cancel_match_the_naive_form(gram):
    shifted = TorusPoint(TWO_FIELDS.u1 + Fraction(1, 4), TWO_FIELDS.u2 + Fraction(5, 6))
    # axis 1 cancels; axis 2 keeps its sqrt(3) part
    half = TorusPoint(TWO_FIELDS.u1 + Fraction(1, 3), Q3)
    for p, q in ((TWO_FIELDS, TWO_FIELDS), (TWO_FIELDS, shifted), (shifted, TWO_FIELDS), (TWO_FIELDS, half)):
        got, want = torus_distance_sq(p, q, gram), naive_torus_distance_sq(p, q, gram)
        assert same(got, want), (p, q, got, want)
    zero = torus_distance_sq(TWO_FIELDS, TWO_FIELDS, gram)
    assert type(zero) is QuadScalar and zero == 0 and zero.d == DEFAULT_D
    rational = torus_distance_sq(TWO_FIELDS, shifted, gram)
    assert rational.is_rational() and rational == torus_distance_sq(
        TorusPoint.origin(), TorusPoint(Fraction(1, 4), Fraction(5, 6)), gram)
    assert torus_distance_sq(TWO_FIELDS, half, gram).d == 3


def test_mixed_fields_raise_by_axis_then_by_difference():
    Q5 = QuadScalar(Fraction(1, 9), Fraction(1, 11), 5)
    cases = [
        # one axis mixes two irrational fields: the text of q.u_i - p.u_i
        (TorusPoint(Q5, Q2), TorusPoint(Q3, 0), 3, 5),
        (TorusPoint(0, Q5), TorusPoint(0, Q2), 2, 5),
        (TWO_FIELDS, TorusPoint(0, Q5), 5, 3),
        # both differences irrational over different fields: axis 1's first
        (TorusPoint(0, 0), TorusPoint(Q2, Q3), 2, 3),
        (TorusPoint(Q3, 0), TorusPoint(0, Q2), 3, 2),
        (TWO_FIELDS, TorusPoint(0, 0), 2, 3),
    ]
    for p, q, d1, d2 in cases:
        for gram in NAIVE_GRAMS:
            with pytest.raises(FieldMismatchError, match=rf"^cannot mix sqrt\({d1}\) and sqrt\({d2}\) scalars$"):
                torus_distance_sq(p, q, gram)
    with pytest.raises(FieldMismatchError, match=r"^cannot mix sqrt\(3\) and sqrt\(2\) scalars$"):
        _plus(Q3, Q2)


def test_one_field_rule():
    assert (_field(0, 0), _field(2, 0), _field(0, 3), _field(5, 5)) == (0, 2, 3, 5)
    with pytest.raises(FieldMismatchError, match=r"^cannot mix sqrt\(2\) and sqrt\(3\) scalars$"):
        _field(2, 3)
    # the callers raise the same text, their own operands in operator order
    with pytest.raises(FieldMismatchError, match=r"^cannot mix sqrt\(3\) and sqrt\(2\) scalars$"):
        orbit._field_triple(Q3, 2)
    assert orbit._field_triple(QuadScalar(Fraction(1, 2), 0, 3), 2) == (1, 0, 2)
    with pytest.raises(FieldMismatchError, match=r"^cannot mix sqrt\(2\) and sqrt\(3\) scalars$"):
        gluing._capped_gap(Q2, Fraction(0), Q3 + 5)
    assert gluing._capped_gap(Q2, Q2 - 1, Q3 + 5) == 1


# -- the lift is invisible -----------------------------------------------------------


def views(p):
    return p, hash(p), repr(p), canonical_json(p.describe()), pickle.dumps(p), dataclasses.replace(p)


@pytest.mark.parametrize("p", [
    TorusPoint(Q2, Fraction(1, 3)),
    TorusPoint(0, QuadScalar(Fraction(1, 2), 0, 3)),
    TorusPoint(Q2, Q3),
])
def test_lift_leaves_the_point_unchanged(p):
    before = views(p)
    deep_before = copy.deepcopy(p)
    assert "_lift" not in vars(p)
    assert p._lift is not None and "_lift" in vars(p)
    after = views(p)
    assert after[:5] == before[:5] and after[5] == before[5] == p
    for clone in (copy.deepcopy(p), pickle.loads(pickle.dumps(p)), after[5], deep_before):
        assert clone == p and hash(clone) == hash(p) and "_lift" not in vars(clone)
        assert clone._lift == p._lift


def test_lift_holds_one_denominator_and_each_field():
    # (a1, b1, a2, b2, L, quad, f1, f2): quad tells whether a coordinate is a
    # QuadScalar, f_i is u_i's field, 0 for a rational u_i
    assert TorusPoint(Fraction(1, 4), Fraction(1, 6))._lift == (3, 0, 2, 0, 12, False, 0, 0)
    # (1/3 + 1/5 sqrt 2, 1/2): over 30
    assert TorusPoint(Q2, Fraction(1, 2))._lift == (10, 6, 15, 0, 30, True, 2, 0)
    assert TorusPoint(QuadScalar(Fraction(1, 2), 0, 3), Fraction(1, 3))._lift == (3, 0, 2, 0, 6, True, 0, 0)
    assert TorusPoint(Q2, QuadScalar(Fraction(1, 2), 0, 3))._lift[5:] == (True, 2, 0)
    assert TorusPoint(Q2, Q3)._lift[5:] == (True, 2, 3)
    assert TorusPoint(Q3, Q2)._lift[5:] == (True, 3, 2)


@SETTINGS
@given(points, points)
@example(TWO_FIELDS, TorusPoint(0, 0))
@example(TWO_FIELDS, TorusPoint(TWO_FIELDS.u1 + Fraction(1, 4), Q3))
@example(TorusPoint(Q2, Q3), TorusPoint(QuadScalar(Fraction(1, 3), Fraction(1, 5), 5), Q2))
# the radical parts' coefficients cancel across two fields: still a mismatch
@example(TorusPoint(QuadScalar(Fraction(1, 4), Fraction(1, 4), 2), 0), TorusPoint(QuadScalar(0, Fraction(1, 4), 3), 0))
def test_lift_difference_matches_the_operator_differences(p, q):
    def operators(x, y):
        return y.u1 - x.u1, y.u2 - x.u2

    for a, b in ((p, q), (q, p), (p, p)):
        (got, got_err), (want, want_err) = outcome(torus._lift_difference, a, b), outcome(operators, a, b)
        assert got_err == want_err, (a, b, got_err, want_err)
        if want_err is not None:
            continue
        a1, b1, a2, b2, L, quad, f1, f2 = got
        assert quad == any(type(u) is QuadScalar for u in (a.u1, a.u2, b.u1, b.u2))
        for (A, B, f), diff in zip(((a1, b1, f1), (a2, b2, f2)), want):
            assert (B == 0) == (f == 0), (a, b, got)
            assert diff == (QuadScalar(Fraction(A, L), Fraction(B, L), f) if B else Fraction(A, L)), (a, b, got)
            assert field(diff) in (None, f or DEFAULT_D), (a, b, got)


def test_float_point_takes_the_batch_path(monkeypatch):
    p, q = TorusPoint(0.25, Fraction(1, 3)), TorusPoint(Q2, 0.5)
    assert p._lift is None and not p.is_exact()
    calls = []
    batch = torus.batch_torus_distance_sq
    monkeypatch.setattr(torus, "batch_torus_distance_sq", lambda *a: calls.append(1) or batch(*a))
    got = torus_distance_sq(p, q, GRAMS[1])
    assert calls == [1] and type(got) is float
    assert got == float(batch(np.array([p.as_floats()]), np.array([q.as_floats()]), GRAMS[1])[0])


# -- seeded samples ------------------------------------------------------------------


def sample_pairs():
    return [(seed, index) for seed in range(40) for index in range(50)]


@pytest.mark.parametrize("d", [2, 3, 94])
def test_samplers_match_the_operator_composition(d):
    samplers = [
        (lambda r: random_unit_scalar(r, d), lambda r: oracles.unit_scalar(r, d)),
        (lambda r: random_span_scalar(r, 3, d), lambda r: oracles.span_scalar(r, 3, d)),
        (lambda r: random_torus_point(r, True, d), lambda r: oracles.torus_point(r, d)),
    ]
    for seed, index in sample_pairs():
        for new, old in samplers:
            r1, r2 = rng_for(seed, index), rng_for(seed, index)
            got, want = new(r1), old(r2)
            assert r1.getstate() == r2.getstate()
            if isinstance(want, TorusPoint):
                assert same(got.u1, want.u1) and same(got.u2, want.u2), (seed, index, got, want)
                assert type(got) is TorusPoint and got == want
            else:
                assert same(got, want), (seed, index, got, want)


def test_unit_scalar_checks_d_after_the_same_draws():
    for index in range(50):
        r1, r2 = rng_for(3, index), rng_for(3, index)
        got = outcome_value(lambda: random_unit_scalar(r1, 4, radical_prob=1.0))
        want = outcome_value(lambda: oracles.unit_scalar(r2, 4, radical_prob=1.0))
        assert got == want and r1.getstate() == r2.getstate()
        assert got[0] is ValueError


def outcome_value(fn):
    try:
        return None, fn()
    except ValueError as exc:
        return type(exc), str(exc)
