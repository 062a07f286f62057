"""Orbit membership against brute force, and replay of tampered certificates.

`derive_branch` and the circle derivation pin the one candidate shift by
the sqrt(d) coordinate.  Brute force instead evaluates the orbit at every
shift in a window and compares points exactly; the two must agree on
every target, including targets planted on the orbit.
"""

from dataclasses import replace
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torusglue.numerics import QuadScalar, frac
from torusglue.orbit import (
    CircleMembership,
    CircleNonMembership,
    NonMembershipCertificate,
    OrbitMembership,
    circle_orbit_membership,
    derive_branch,
    orbit_membership,
)
from torusglue.torus import OneParamSubgroup, TorusPoint

SETTINGS = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
WINDOW = 20  # every planted shift below lies inside [-WINDOW, WINDOW]

small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def scalars(draw, d):
    """A rational, or a rational plus a rational multiple of sqrt(d)."""
    b = draw(small) if draw(st.booleans()) else Fraction(0)
    return QuadScalar(draw(small), b, d) if b else draw(small)


@st.composite
def lines(draw, d):
    b = draw(small.filter(bool))
    return draw(
        st.sampled_from(
            (
                OneParamSubgroup.canonical(QuadScalar(0, b, d)),
                OneParamSubgroup(Fraction(1), QuadScalar(Fraction(1, 2), 1, d)),
                OneParamSubgroup(Fraction(2, 3), QuadScalar(Fraction(1, 3), b, d)),
            )
        )
    )


@st.composite
def torus_cases(draw):
    d = draw(st.sampled_from((2, 3)))
    line = draw(lines(d))
    y0 = TorusPoint(draw(scalars(d)), draw(scalars(d)))
    if draw(st.booleans()):
        target = TorusPoint(draw(scalars(d)), draw(scalars(d)))
    else:  # planted on the direct or the inverted branch
        base = y0 if draw(st.booleans()) else y0.invert()
        target = line.point(draw(scalars(d))).translate(base)
    return line, y0, target


def brute_force_shifts(line, y0, target, branch):
    """Every m in the window with g((w1 + m) / v1) + base == target, evaluated."""
    base = y0 if branch == "direct" else y0.invert()
    w1 = frac(target.u1 - base.u1)
    return [
        m
        for m in range(-WINDOW, WINDOW + 1)
        if line.point((w1 + m) / line.v1).translate(base) == target
    ]


@SETTINGS
@given(torus_cases())
def test_derive_branch_agrees_with_brute_force(case):
    line, y0, target = case
    members = []
    for branch in ("direct", "inverted"):
        der = derive_branch(target, line, y0, branch)
        found = brute_force_shifts(line, y0, target, branch)
        in_window = der.member and abs(der.m_star) <= WINDOW
        assert found == ([int(der.m_star)] if in_window else []), (branch, der)
        if der.member:
            members.append(branch)
    got = orbit_membership(target, line, y0)
    if members:
        assert isinstance(got, OrbitMembership) and got.branch == members[0]
    else:
        assert isinstance(got, NonMembershipCertificate) and got.replay(line)


@st.composite
def circle_cases(draw):
    d = draw(st.sampled_from((2, 3)))
    theta = QuadScalar(draw(small), draw(small.filter(bool)), d)
    x0 = draw(scalars(d))
    if draw(st.booleans()):
        return theta, x0, draw(scalars(d)), False
    k = draw(st.integers(-WINDOW, WINDOW))
    inverted = draw(st.booleans())
    return theta, x0, frac(k * theta - x0 if inverted else x0 + k * theta), True


@SETTINGS
@given(circle_cases())
def test_circle_membership_agrees_with_brute_force(case):
    theta, x0, target, planted = case
    landings = [
        (branch, k)
        for branch in ("direct", "inverted")
        for k in range(-WINDOW, WINDOW + 1)
        if frac(x0 + k * theta if branch == "direct" else k * theta - x0) == frac(target)
    ]
    branches = [branch for branch, _ in landings]
    assert len(set(branches)) == len(branches)  # each branch pins one k
    got = circle_orbit_membership(target, theta, x0)
    if isinstance(got, CircleMembership):
        assert (got.branch, got.k) in landings or abs(got.k) > WINDOW
        if got.branch == "inverted":
            assert "direct" not in branches
    else:
        assert isinstance(got, CircleNonMembership) and got.replay(theta)
        assert landings == [] and not planted


def tampered(cert):
    first = cert.branches[0]
    return replace(cert, branches=(replace(first, residue=first.residue + 1), *cert.branches[1:]))


def test_tampered_certificates_fail_replay():
    line = OneParamSubgroup.canonical(QuadScalar(0, 1, 2))
    cert = orbit_membership(TorusPoint(Fraction(0), Fraction(1, 2)), line)
    assert isinstance(cert, NonMembershipCertificate) and cert.replay(line)
    assert cert.branches[0].residue is not None
    assert not tampered(cert).replay(line)

    theta = frac(1 / QuadScalar(0, 1, 2))
    circle = circle_orbit_membership(Fraction(1, 3), theta)
    assert isinstance(circle, CircleNonMembership) and circle.replay(theta)
    assert circle.branches[0].residue is not None
    assert not tampered(circle).replay(theta)
