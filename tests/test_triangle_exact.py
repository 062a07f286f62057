"""The exact triangle decision against mpmath, on ties and near-ties.

`_triangle_exact` decides lhs <= r1 + r2 for distances sqrt(X) + offset with
X and the offsets in Q(sqrt(d)).  The cases here are built around exact
ties: a shared torus leg, a doubled leg, and the sheet detour at 2R = M,
each moved by 0 or by +-10^-k with k up to 120, with coefficients up to
10^60.  mpmath at 400 digits is the oracle; a difference below 10^-250 can
only be an exact tie here, which satisfies the inequality.
"""

import math
from fractions import Fraction

import mpmath
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from torusglue.gluing import Distance, _sign_with_root, _triangle_exact
from torusglue.numerics import QuadScalar
from torusglue.orbit import circle_density_hit

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
TIE_SCALE = mpmath.mpf(10) ** -250


def mp_value(x):
    if isinstance(x, QuadScalar):
        a, b = x.a, x.b
        return mpmath.mpf(a.numerator) / a.denominator + mpmath.mpf(
            b.numerator
        ) / b.denominator * mpmath.sqrt(x.d)
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def mp_distance(dist: Distance):
    return mpmath.sqrt(mp_value(dist.torus_sq)) + mp_value(dist.offset)


@st.composite
def nonnegative(draw, d):
    """|a + b sqrt(d)| / den with coefficients up to 10^30, or the tiny
    |p - q sqrt(d)| of a good rational approximation."""
    if draw(st.booleans()):
        q = draw(st.integers(1, 10**30))
        p = math.isqrt(d * q * q) + draw(st.integers(0, 1))
        return abs(QuadScalar(p, -q, d))
    big = draw(st.sampled_from((10, 10**6, 10**30)))
    a, b = draw(st.integers(-big, big)), draw(st.integers(-big, big))
    return abs(QuadScalar(Fraction(a, draw(st.integers(1, big))), Fraction(b, big), d))


offsets = st.builds(Fraction, st.integers(0, 10**6), st.integers(1, 10**3))


@st.composite
def triangles(draw):
    d = draw(st.sampled_from((2, 3)))
    w, v = draw(nonnegative(d)), draw(nonnegative(d))
    b1, b2 = draw(offsets), draw(offsets)
    kind = draw(st.sampled_from(("shared", "doubled", "detour", "offset", "random")))
    if kind == "shared":  # sqrt(v^2) + b1 + b2 + w = sqrt(v^2) + b1 + sqrt(w^2) + b2
        lhs, r1, r2 = Distance(v * v, b1 + b2 + w), Distance(v * v, b1), Distance(w * w, b2)
    elif kind == "doubled":  # 2 sqrt(v^2) = sqrt(v^2) + sqrt(v^2)
        lhs, r1, r2 = Distance(4 * v * v, b1 + b2), Distance(v * v, b1), Distance(v * v, b2)
    elif kind == "detour":  # cylinder gap M against two crossings of R, M = 2R
        lhs, r1, r2 = Distance(w * w, 2 * b1), Distance(w * w, b1), Distance(0, b1)
    elif kind == "offset":  # a torus leg on the left, the same length as an offset on the right
        lhs, r1, r2 = Distance(w * w, b1), Distance(0, b1 + w), Distance(0, 0)
    else:
        lhs, r1, r2 = Distance(w * w, b1), Distance(v * v, b2), Distance(w * v, draw(offsets))
    k = draw(st.integers(20, 120))
    shift = draw(st.sampled_from((0, 1, -1))) * Fraction(1, 10**k)
    return Distance(lhs.torus_sq, lhs.offset + shift), r1, r2


def check(lhs, r1, r2):
    with mpmath.workdps(400):
        gap = mp_distance(lhs) - mp_distance(r1) - mp_distance(r2)
        tie = abs(gap) < TIE_SCALE
    ok, slack = _triangle_exact(lhs, r1, r2)
    assert ok == (tie or gap < 0), (lhs, r1, r2, gap)
    assert slack == 0.0 if ok else slack >= 0.0


def circle_hit_example():
    """The 1e-16 circle hit of 1/3 under frac(1/sqrt 2): |b| of distance_sq ~ 8e62."""
    eps = Fraction(1, 10**16)
    theta = (1 / QuadScalar(0, 1, 2)).frac()
    hit = circle_density_hit(Fraction(1, 3), theta, Fraction(0), eps)
    return Distance(0, eps), Distance(0, 0), Distance(hit.distance_sq, 0)


def test_wide_enclosures_no_longer_hide_a_violation():
    # the 60-digit enclosure of sqrt(distance_sq) is [0, 24.2]; the value is 3.95e-17
    lhs, r1, r2 = circle_hit_example()
    ok, slack = _triangle_exact(lhs, r1, r2)
    assert not ok
    assert 6.0e-17 < slack < 6.1e-17
    check(lhs, r1, r2)
    assert _triangle_exact(Distance(r2.torus_sq, 0), r1, r2) == (True, 0.0)


@SETTINGS
@given(triangles())
@example((Distance(0, Fraction(2)), Distance(0, Fraction(1)), Distance(0, Fraction(1))))
def test_triangle_exact_matches_mpmath(case):
    check(*case)


signs = st.sampled_from((1, -1))
field_triples = st.sampled_from((2, 3)).flatmap(
    lambda d: st.tuples(nonnegative(d), nonnegative(d), nonnegative(d))
)


@SETTINGS
@given(field_triples, signs, signs)
def test_sign_with_root_matches_mpmath(xs, sign_p, sign_q):
    p, q, x = sign_p * xs[0], sign_q * xs[1], xs[2]
    with mpmath.workdps(400):
        value = mp_value(p) + mp_value(q) * mpmath.sqrt(mp_value(x))
        expected = 0 if abs(value) < TIE_SCALE else (1 if value > 0 else -1)
    assert _sign_with_root(p, q, x) == expected
    assert _sign_with_root(p, q, q * q) == (p + q * abs(q)).sign()
