"""Seeded sampler determinism, value ranges and the sampled height span."""

from fractions import Fraction

from torusglue import EXACT, GluingParams, GramMatrix, QuadScalar, check_metric_axioms, verify_isometry
from torusglue.numerics import is_exact, sign_of
from torusglue.sampling import (
    _height_span,
    random_fraction,
    random_glued_point,
    random_product_isometry,
    random_torus_point,
    random_unit_scalar,
    rng_for,
)


def test_rng_for_streams_are_stable_and_independent():
    a = rng_for(5, 0).random()
    assert rng_for(5, 0).random() == a
    assert rng_for(5, 1).random() != a
    assert rng_for(6, 0).random() != a
    # index 10 is not a prefix artifact of index 1
    assert rng_for(5, 10).random() != rng_for(5, 1).random()


def test_random_fraction_bounds():
    for i in range(100):
        f = random_fraction(rng_for(7, i))
        assert 0 <= f < 1 and f.denominator <= 32


def test_random_points_exactness():
    saw_quad = False
    for i in range(100):
        rng = rng_for(8, i)
        p = random_torus_point(rng)
        assert is_exact(p.u1) and is_exact(p.u2)
        assert sign_of(p.u1) >= 0 and sign_of(p.u1 - 1) < 0
        u = random_unit_scalar(rng)
        assert sign_of(u) >= 0 and sign_of(u - 1) < 0
        saw_quad = saw_quad or not isinstance(u, Fraction)
    assert saw_quad  # radical coordinates must actually occur


def test_random_glued_point_covers_both_components():
    kinds = {random_glued_point(rng_for(9, i), 4).is_compact for i in range(40)}
    assert kinds == {True, False}


def test_random_product_isometry_shape():
    for i in range(50):
        iso = random_product_isometry(rng_for(10, i))
        assert iso.line_part.sign in (1, -1)
        assert is_exact(iso.line_part.shift)
        assert iso.torus_part.inverts in (True, False)


def test_height_span_is_three_times_the_exact_ceiling():
    cases = {
        1: 3, 2: 6, Fraction(1, 2): 3, Fraction(3, 2): 6, Fraction(5, 2): 9,
        QuadScalar(0, 1, 2): 6, QuadScalar(1, 1, 2): 9, 10**400: 3 * 10**400,
        Fraction(10**400 + 1, 10): 3 * (10**399 + 1),
    }
    for M, span in cases.items():
        assert _height_span(M) == span and type(_height_span(M)) is int, M


def test_exact_checks_sample_heights_beyond_the_float_range():
    # no float(M) on the way: an M past 1.8e308 draws its heights exactly
    params, gram = GluingParams(10**400, 10**400), GramMatrix.identity()
    report = check_metric_axioms(3, params, gram, EXACT)
    assert report.checks > 0 and report.violations_total == 0
    verified = verify_isometry(lambda p: p, 3, params, gram, mode=EXACT)
    assert verified.describe()["passed"] and verified.describe()["samples"] == 3
