"""Orbit structure of the winding line: approximation, membership, local rigidity.

Continued-fraction output is checked against the best-approximation
property (no smaller denominator does better), and every density hit is
re-measured with the brute-force lattice oracle.
"""

import math
from fractions import Fraction

import pytest

from torusglue import orbit
from torusglue.gluing import GluingParams
from torusglue.numerics import QuadScalar, frac, scalar_lt, sign_of
from torusglue.orbit import (
    CircleMembership,
    CircleNonMembership,
    NonMembershipCertificate,
    OrbitMembership,
    ValidityRadiusError,
    cf_convergents,
    cf_expansion,
    circle_density_hit,
    circle_orbit_membership,
    density_report,
    derive_branch,
    local_isometry_check,
    non_closure_report,
    orbit_membership,
    torus_density_hit,
)
from torusglue.sampling import rng_for
from torusglue.torus import (
    GramMatrix,
    OneParamSubgroup,
    TorusPoint,
    naive_torus_distance_sq,
)

SQRT2 = QuadScalar(0, 1, 2)
LINE = OneParamSubgroup.canonical(SQRT2)
GRAM = GramMatrix.identity()
PARAMS = GluingParams(Fraction(1), Fraction(2))
THETA = frac(1 / SQRT2)  # rotation step sqrt(2)/2 on the circle


def wrap_dist(x):
    f = frac(x)
    return f if scalar_lt(f, Fraction(1, 2)) else 1 - f


def test_cf_expansion_sqrt2():
    assert cf_expansion(SQRT2, 8) == [1, 2, 2, 2, 2, 2, 2, 2]
    assert cf_expansion(THETA, 6) == [0, 1, 2, 2, 2, 2]
    assert cf_expansion(QuadScalar(0, 1, 3), 7) == [1, 1, 2, 1, 2, 1, 2]
    with pytest.raises(ValueError):
        cf_expansion(Fraction(3, 7), 5)
    with pytest.raises(ValueError):
        cf_expansion(QuadScalar(5, 0, 2), 5)


def test_convergents_sqrt2_known_values():
    cs = cf_convergents(SQRT2, 6)
    assert [(c.p, c.q) for c in cs] == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70)]
    for c in cs:
        assert math.gcd(c.p, c.q) == 1
        assert c.err == c.q * SQRT2 - c.p


def test_convergents_alternate_and_shrink():
    cs = cf_convergents(SQRT2, 12)
    for prev, cur in zip(cs, cs[1:]):
        assert sign_of(prev.err) == -sign_of(cur.err)
        assert scalar_lt(abs(cur.err), abs(prev.err))


def test_convergents_are_best_approximations():
    # no denominator below q gets as close to an integer multiple
    for x in (SQRT2, THETA, QuadScalar(0, 1, 3)):
        for c in cf_convergents(x, 7):
            if c.q < 2:
                continue
            record = abs(c.err)
            for q in range(1, c.q):
                assert scalar_lt(record, wrap_dist(q * x)), (c.p, c.q, q)


def test_membership_direct_rational_parameter():
    for i in range(60):
        rng = rng_for(501, i)
        t = Fraction(rng.randrange(-400, 400), rng.randrange(1, 40))
        y0 = TorusPoint(
            Fraction(rng.randrange(0, 12), 12), Fraction(rng.randrange(0, 12), 12)
        )
        target = LINE.point(t).translate(y0)
        got = orbit_membership(target, LINE, y0)
        assert isinstance(got, OrbitMembership)
        assert got.branch == "direct"
        assert got.t == t
        assert got.orbit_point(LINE) == target


def test_membership_inverted_branch():
    t = Fraction(7, 5)
    y0 = TorusPoint(Fraction(1, 3), Fraction(1, 4))
    target = LINE.point(t).translate(y0.invert())
    got = orbit_membership(target, LINE, y0)
    assert isinstance(got, OrbitMembership)
    assert got.branch == "inverted"
    assert got.t == t
    assert got.orbit_point(LINE) == target


def test_membership_irrational_parameter():
    t = SQRT2 / 3
    target = LINE.point(t)
    got = orbit_membership(target, LINE)
    assert isinstance(got, OrbitMembership)
    assert got.t == t


def test_non_membership_certificate():
    for target in (
        TorusPoint(Fraction(0), Fraction(1, 2)),
        TorusPoint(Fraction(3, 7), Fraction(2, 9)),
        TorusPoint(Fraction(1, 2), frac(SQRT2 / 5)),
    ):
        got = orbit_membership(target, LINE)
        assert isinstance(got, NonMembershipCertificate)
        assert len(got.branches) == 2
        assert {b.branch for b in got.branches} == {"direct", "inverted"}
        assert not any(b.member for b in got.branches)
        assert got.replay(LINE)


def test_derive_branch_pins_single_candidate():
    # radical coordinate slope is alpha_b = 1, so m_star is unique
    target = TorusPoint(Fraction(0), Fraction(1, 2))
    der = derive_branch(target, LINE, TorusPoint.origin(), "direct")
    assert der.m_star == 0 and der.m_is_integer
    assert der.residue == Fraction(-1, 2)
    assert not der.member
    with pytest.raises(ValueError):
        derive_branch(target, LINE, TorusPoint.origin(), "sideways")


def test_membership_rejects_float_inputs():
    from torusglue.numerics import ExactnessError

    with pytest.raises(ExactnessError):
        orbit_membership(TorusPoint(0.5, 0.5), LINE)


def test_torus_density_hit_certified():
    target = TorusPoint(Fraction(0), Fraction(1, 2))
    for eps in (Fraction(1, 100), Fraction(1, 1000)):
        hit = torus_density_hit(target, LINE, eps=eps, budget=1_000_000)
        assert hit is not None
        # independent recheck with the brute-force lattice oracle
        oracle = naive_torus_distance_sq(hit.point, target, GRAM)
        assert oracle == hit.distance_sq
        assert scalar_lt(hit.distance_sq, eps * eps)
        assert hit.point == LINE.point(hit.t)
        assert math.isclose(hit.distance, math.sqrt(float(oracle)), rel_tol=1e-12)


def test_torus_density_hit_respects_budget():
    target = TorusPoint(Fraction(0), Fraction(1, 2))
    assert torus_density_hit(target, LINE, eps=Fraction(1, 10 ** 7), budget=1000) is None


def test_torus_density_hit_offset_base_point():
    y0 = TorusPoint(Fraction(1, 3), Fraction(1, 7))
    target = TorusPoint(Fraction(2, 5), Fraction(4, 5))
    hit = torus_density_hit(target, LINE, y0=y0, eps=Fraction(1, 100), budget=1_000_000)
    assert hit is not None
    assert hit.point == LINE.point(hit.t).translate(y0)
    assert scalar_lt(naive_torus_distance_sq(hit.point, target, GRAM), Fraction(1, 10000))


def test_density_report_multiple_epsilons():
    target = TorusPoint(Fraction(0), Fraction(1, 2))
    rep = density_report(target, LINE, [Fraction(1, 100), 1e-3], budget=5_000_000)
    assert rep.passed
    assert len(rep.hits) == 2
    assert rep.method == "first-entry search"
    ks = [h.k for h in rep.hits]
    assert ks[0] <= ks[1]  # tighter tolerance cannot need fewer returns


def test_circle_density_hit():
    for j in (1, 3, 7):
        target = Fraction(j, 10)
        hit = circle_density_hit(target, THETA, eps=Fraction(1, 1000))
        assert hit.position == frac(hit.k * THETA)
        assert scalar_lt(hit.distance_sq, Fraction(1, 1000) ** 2)
        assert hit.convergent is not None
    # base point equal to target: zero steps
    hit = circle_density_hit(Fraction(1, 4), THETA, x0=Fraction(1, 4))
    assert hit.k == 0 and hit.distance == 0.0


def test_circle_density_hit_weighted_axis():
    # heavier metric on the axis demands a sharper convergent
    light = circle_density_hit(Fraction(1, 3), THETA, eps=Fraction(1, 500), g_axis=Fraction(1))
    heavy = circle_density_hit(Fraction(1, 3), THETA, eps=Fraction(1, 500), g_axis=Fraction(100))
    assert scalar_lt(heavy.distance_sq, Fraction(1, 500) ** 2)  # already weighted
    assert heavy.convergent.q >= light.convergent.q


def test_circle_dist_sq_matches_scalar_arithmetic():
    # the reference is the scalar formula _circle_dist_sq ran before it
    # moved onto integer triples: value, type and field index must agree
    ws = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(5, 7), frac(THETA), frac(-THETA),
          frac(QuadScalar(Fraction(1, 3), Fraction(-2, 9), 3)), QuadScalar(Fraction(3, 4), 0, 5),
          QuadScalar(Fraction(1, 4), 0, 3), QuadScalar(Fraction(1, 2), 0, 2)]
    for w in ws:
        for g_axis in (Fraction(1), Fraction(7, 3), 2):
            wrap = w if scalar_lt(w, 1 - w) else 1 - w
            want = wrap * wrap * g_axis
            got = orbit._circle_dist_sq(w, g_axis)
            assert got == want and type(got) is type(want)
            assert getattr(got, "d", None) == getattr(want, "d", None)


def test_circle_membership():
    got = circle_orbit_membership(frac(5 * THETA), THETA)
    assert isinstance(got, CircleMembership)
    assert got.k == 5 and got.branch == "direct"
    x0 = Fraction(1, 5)
    inv = circle_orbit_membership(frac(3 * THETA - x0), THETA, x0=x0)
    assert isinstance(inv, CircleMembership)
    assert inv.branch == "inverted" and inv.k == 3
    miss = circle_orbit_membership(Fraction(1, 3), THETA)
    assert isinstance(miss, CircleNonMembership)
    assert miss.replay(THETA)
    with pytest.raises(ValueError):
        circle_orbit_membership(Fraction(1, 3), Fraction(1, 2))


def test_non_closure_report():
    target = TorusPoint(Fraction(0), Fraction(1, 2))
    rep = non_closure_report(target, LINE, [Fraction(1, 100)], budget=1_000_000)
    assert rep.passed
    assert rep.certificate_replayed
    assert rep.density.passed
    assert isinstance(rep.certificate, NonMembershipCertificate)


def test_non_closure_rejects_orbit_members():
    member = LINE.point(Fraction(3, 4))
    with pytest.raises(ValueError):
        non_closure_report(member, LINE, [Fraction(1, 100)], budget=1000)


def test_local_isometry_inside_radius():
    # |v|^2 = 1 + 2 = 3, cap = min(M^2, 1/4) = 1/4, radius = sqrt(1/12)
    rec = local_isometry_check(Fraction(1, 4), Fraction(1, 10), LINE, PARAMS)
    assert rec.passed and rec.exact_match
    delta = Fraction(1, 4) - Fraction(1, 10)
    assert rec.distance.torus_sq == delta * delta * 3
    assert rec.distance.offset == delta
    assert math.isclose(rec.slope, 1 + math.sqrt(3), rel_tol=1e-14)
    assert math.isclose(rec.lhs, rec.rhs, rel_tol=1e-12)
    assert math.isclose(rec.radius, math.sqrt(1 / 12), rel_tol=1e-12)


def test_local_isometry_irrational_separation():
    rec = local_isometry_check(SQRT2 / 10, Fraction(0), LINE, PARAMS)
    assert rec.passed
    assert rec.distance.offset == SQRT2 / 10


def test_local_isometry_refuses_outside_radius():
    with pytest.raises(ValidityRadiusError) as info:
        local_isometry_check(Fraction(1, 2), Fraction(0), LINE, PARAMS)
    assert math.isclose(info.value.radius, math.sqrt(1 / 12), rel_tol=1e-12)
    assert info.value.separation == 0.5


def test_local_isometry_radius_tracks_m():
    thin = GluingParams(Fraction(1), Fraction(1, 10))
    rec = local_isometry_check(Fraction(1, 50), Fraction(0), LINE, thin)
    assert math.isclose(rec.radius, math.sqrt(float(Fraction(1, 300))), rel_tol=1e-12)
    with pytest.raises(ValidityRadiusError):
        local_isometry_check(Fraction(1, 10), Fraction(0), LINE, thin)


def test_local_isometry_small_tangent_branch():
    # |v|^2 = 1/3 < 1: the radius is capped by the systole alone
    g = GramMatrix(Fraction(1, 9), Fraction(0), Fraction(1, 9))
    rec = local_isometry_check(Fraction(1, 20), Fraction(0), LINE, PARAMS, gram=g)
    assert rec.passed
    assert rec.distance.torus_sq == Fraction(1, 400) * Fraction(1, 3)
    assert math.isclose(rec.radius, math.sqrt(float(Fraction(1, 36))), rel_tol=1e-12)
