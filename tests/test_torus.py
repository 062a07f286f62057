"""Flat torus geometry: lattice reduction, distances, subgroups.

The closed-form distance is checked against a brute-force oracle that
enumerates lattice translates over a wide window, and the reduction is
checked by recomputing U^T G U by hand.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from torusglue.numerics import ExactnessError, QuadScalar, frac, sign_of
from torusglue.sampling import random_torus_point, rng_for
from torusglue.torus import (
    GramMatrix,
    OneParamSubgroup,
    Subtorus,
    TangentVector,
    TorusPoint,
    batch_torus_distance_sq,
    naive_torus_distance_sq,
    systole,
    systole_sq,
    tangent_norm_sq,
    torus_distance,
    torus_distance_sq,
)

SQRT2 = QuadScalar(0, 1, 2)


def random_gram(rng, spread=6):
    # random SPD form via A^T A with integer A, then a rational scale
    while True:
        a, b, c, d = (rng.randrange(-spread, spread + 1) for _ in range(4))
        if a * d - b * c != 0:
            break
    s = Fraction(rng.randrange(1, 5), rng.randrange(1, 5))
    return GramMatrix(
        s * (a * a + c * c), s * (a * b + c * d), s * (b * b + d * d)
    )


def brute_distance_sq(p, q, gram, window):
    d1, d2 = frac(q.u1 - p.u1), frac(q.u2 - p.u2)
    best = None
    for i in range(-window, window + 1):
        for j in range(-window, window + 1):
            v = gram.form(d1 + i, d2 + j)
            if best is None or v < best:
                best = v
    return best


def test_gram_validation():
    with pytest.raises(ValueError):
        GramMatrix(Fraction(1), Fraction(2), Fraction(1))  # det < 0
    with pytest.raises(ValueError):
        GramMatrix(Fraction(-1), Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        GramMatrix(Fraction(1), Fraction(0), Fraction(0))
    g = GramMatrix(2, Fraction(1, 2), 1)
    assert g.det() == Fraction(7, 4)


def test_reduction_is_unimodular_congruence():
    for i in range(150):
        rng = rng_for(201, i)
        g = random_gram(rng)
        u, gr = g.reduction
        det = u[0][0] * u[1][1] - u[0][1] * u[1][0]
        assert det in (1, -1)
        # recompute U^T G U entry by entry
        c1 = (u[0][0], u[1][0])
        c2 = (u[0][1], u[1][1])
        assert gr.g11 == g.form(*c1)
        assert gr.g22 == g.form(*c2)
        mixed = (
            g.g11 * c1[0] * c2[0]
            + g.g12 * (c1[0] * c2[1] + c1[1] * c2[0])
            + g.g22 * c1[1] * c2[1]
        )
        assert gr.g12 == mixed
        assert 2 * abs(gr.g12) <= gr.g11 <= gr.g22
        # inverse really inverts
        ui = g.unimodular_inverse
        prod = (
            u[0][0] * ui[0][0] + u[0][1] * ui[1][0],
            u[0][0] * ui[0][1] + u[0][1] * ui[1][1],
            u[1][0] * ui[0][0] + u[1][1] * ui[1][0],
            u[1][0] * ui[0][1] + u[1][1] * ui[1][1],
        )
        assert prod == (1, 0, 0, 1)


def test_systole_by_enumeration():
    for i in range(60):
        rng = rng_for(202, i)
        g = random_gram(rng)
        best = min(
            g.form(a, b)
            for a in range(-8, 9)
            for b in range(-8, 9)
            if (a, b) != (0, 0)
        )
        assert systole_sq(g) == best
        assert math.isclose(systole(g), math.sqrt(float(best)), rel_tol=1e-12)
    assert systole_sq(GramMatrix.identity()) == 1


def test_point_coordinates_reduce_to_unit_square():
    p = TorusPoint(Fraction(7, 3), Fraction(-1, 4))
    assert p.u1 == Fraction(1, 3) and p.u2 == Fraction(3, 4)
    q = TorusPoint(SQRT2, -SQRT2)
    assert sign_of(q.u1) >= 0 and sign_of(q.u1 - 1) < 0
    assert frac(q.u1 + q.u2) == 0
    assert TorusPoint.origin().translate(p) == p
    assert p.translate(p.invert()) == TorusPoint.origin()


def test_distance_matches_brute_force():
    for i in range(200):
        rng = rng_for(203, i)
        g = random_gram(rng)
        p = random_torus_point(rng)
        q = random_torus_point(rng)
        got = torus_distance_sq(p, q, g)
        assert got == brute_distance_sq(p, q, g, window=4)
        assert torus_distance_sq(q, p, g) == got
        assert torus_distance_sq(p, p, g) == 0


def test_distance_on_skewed_lattice_needs_reduction():
    # nearly parallel basis: naive window-1 search around raw coordinates
    # misses the true minimum unless the basis is reduced first
    g = GramMatrix(5, Fraction(49, 10), 5)
    p = TorusPoint(Fraction(0), Fraction(0))
    q = TorusPoint(Fraction(1, 2), Fraction(1, 2))
    d = torus_distance_sq(p, q, g)
    assert d == brute_distance_sq(p, q, g, window=5)
    assert d == naive_torus_distance_sq(p, q, g, window=5)


def test_distance_irrational_coordinates():
    g = GramMatrix.identity()
    p = TorusPoint(frac(SQRT2), Fraction(0))
    q = TorusPoint(Fraction(0), Fraction(0))
    d = torus_distance_sq(p, q, g)
    # frac(sqrt 2) = sqrt 2 - 1 ~ 0.414 is already the nearest representative
    assert d == (SQRT2 - 1) ** 2
    assert isinstance(d, QuadScalar)


def test_torus_distance_length_wrapper():
    g = GramMatrix.identity()
    ln = torus_distance(TorusPoint(Fraction(1, 2), Fraction(0)), TorusPoint.origin(), g)
    assert ln.sq == Fraction(1, 4)
    assert ln.value == 0.5
    assert float(ln) == 0.5


def test_batch_matches_scalar():
    for i in range(30):
        rng = rng_for(204, i)
        g = random_gram(rng)
        pts_a = [random_torus_point(rng) for _ in range(12)]
        pts_b = [random_torus_point(rng) for _ in range(12)]
        ya = np.array([p.as_floats() for p in pts_a])
        yb = np.array([p.as_floats() for p in pts_b])
        got = batch_torus_distance_sq(ya, yb, g)
        want = [float(torus_distance_sq(a, b, g)) for a, b in zip(pts_a, pts_b)]
        assert np.allclose(got, want, atol=1e-9)


def test_tangent_norm():
    g = GramMatrix(2, Fraction(1, 2), 3)
    v = TangentVector(Fraction(1), SQRT2)
    n = tangent_norm_sq(v, g)
    assert n == QuadScalar(8, 1, 2)  # 2 + 1*sqrt2 + 3*2


def test_subgroup_validation_and_points():
    line = OneParamSubgroup.canonical(SQRT2)
    assert line.v1 == 1 and line.v2 == SQRT2
    assert line.alpha == SQRT2
    p = line.point(Fraction(3, 2))
    assert p.u1 == Fraction(1, 2)
    assert p.u2 == frac(Fraction(3, 2) * SQRT2)
    with pytest.raises(ValueError):
        OneParamSubgroup(Fraction(1), Fraction(2))  # rational slope
    with pytest.raises(ValueError):
        OneParamSubgroup(Fraction(0), SQRT2)
    with pytest.raises(ValueError):
        OneParamSubgroup.canonical(QuadScalar(1, 1, 2))  # not a pure radical
    with pytest.raises(ExactnessError):
        OneParamSubgroup(1.0, math.sqrt(2))
    # non-canonical but valid direction
    skew = OneParamSubgroup(Fraction(2), SQRT2)
    assert skew.alpha == SQRT2 / 2


def test_subtorus_membership():
    circle = Subtorus(0)
    assert circle.contains(TorusPoint(Fraction(1, 3), Fraction(0)))
    assert not circle.contains(TorusPoint(Fraction(1, 3), Fraction(1, 2)))
    assert circle.coordinate(TorusPoint(Fraction(1, 3), Fraction(0))) == Fraction(1, 3)
    assert circle.point(Fraction(2, 5)) == TorusPoint(Fraction(2, 5), Fraction(0))
    other = Subtorus(1)
    assert other.contains(TorusPoint(Fraction(0), frac(SQRT2)))
    assert other.gram_entry(GramMatrix(2, 0, 3)) == 3
    with pytest.raises(ValueError):
        Subtorus(2)
