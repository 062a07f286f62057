"""The exact triangle decision against mpmath, on ties and near-ties.

`_triangle_exact` decides lhs <= r1 + r2 for distances sqrt(X) + offset with
X and the offsets in Q(sqrt(d)).  The cases here are built around exact
ties: a shared torus leg, a doubled leg, and the sheet detour at 2R = M,
each moved by 0 or by +-10^-k with k up to 120, with coefficients up to
10^60.  mpmath at 400 digits is the oracle; a difference below 10^-250 can
only be an exact tie here, which satisfies the inequality.

The decision that settled clear cases with 30/60-digit enclosures before
the squaring chain is kept here as a second oracle: the filtered decision
must give the same (ok, slack) on every case.  Planted faults in the
filter, the structural tie and the chain must each be caught.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from torusglue import gluing
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
def nonnegative(draw, d, bigs=(10, 10**6, 10**30)):
    """|a + b sqrt(d)| / den with coefficients up to max(bigs), or the tiny
    |p - q sqrt(d)| of a good rational approximation."""
    if draw(st.booleans()):
        q = draw(st.integers(1, max(bigs)))
        p = math.isqrt(d * q * q) + draw(st.integers(0, 1))
        return abs(QuadScalar(p, -q, d))
    big = draw(st.sampled_from(bigs))
    a, b = draw(st.integers(-big, big)), draw(st.integers(-big, big))
    return abs(QuadScalar(Fraction(a, draw(st.integers(1, big))), Fraction(b, big), d))


offsets = st.builds(Fraction, st.integers(0, 10**6), st.integers(1, 10**3))


@st.composite
def triangles(draw, bigs=(10, 10**6, 10**30), ks=st.integers(20, 120)):
    d = draw(st.sampled_from((2, 3)))
    w, v = draw(nonnegative(d, bigs)), draw(nonnegative(d, bigs))
    b1, b2 = draw(offsets), draw(offsets)
    kind = draw(st.sampled_from(("shared", "doubled", "detour", "offset", "random", "clear")))
    if kind == "shared":  # sqrt(v^2) + b1 + b2 + w = sqrt(v^2) + b1 + sqrt(w^2) + b2
        lhs, r1, r2 = Distance(v * v, b1 + b2 + w), Distance(v * v, b1), Distance(w * w, b2)
    elif kind == "doubled":  # 2 sqrt(v^2) = sqrt(v^2) + sqrt(v^2)
        lhs, r1, r2 = Distance(4 * v * v, b1 + b2), Distance(v * v, b1), Distance(v * v, b2)
    elif kind == "detour":  # cylinder gap M against two crossings of R, M = 2R
        lhs, r1, r2 = Distance(w * w, 2 * b1), Distance(w * w, b1), Distance(0, b1)
    elif kind == "offset":  # a torus leg on the left, the same length as an offset on the right
        lhs, r1, r2 = Distance(w * w, b1), Distance(0, b1 + w), Distance(0, 0)
    elif kind == "random":
        lhs, r1, r2 = Distance(w * w, b1), Distance(v * v, b2), Distance(w * v, draw(offsets))
    else:  # three unrelated distances
        u = draw(nonnegative(d, bigs))
        lhs, r1, r2 = Distance(w, b1), Distance(v, b2), Distance(u, draw(offsets))
    k = draw(ks)
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


# -- the enclosure-first decision as an oracle -----------------------------------------


def enclosures_then_chain(lhs, r1, r2):
    """The decision before the float filter: 30/60-digit enclosures settle
    the cases they separate, the squaring chain the rest."""
    for digits in (30, 60):
        llo, lhi = lhs.interval(digits)
        alo, ahi = r1.interval(digits)
        blo, bhi = r2.interval(digits)
        if lhi <= alo + blo:
            return True, 0.0
        if llo > ahi + bhi:
            return False, float(llo - ahi - bhi)
    X, Y, Z = lhs.torus_sq, r1.torus_sq, r2.torus_sq
    c = lhs.offset - r1.offset - r2.offset
    e = X + c * c - Y - Z
    violated = (
        _sign_with_root(c, 1, X) > 0
        and _sign_with_root(e, 2 * c, X) > 0
        and _sign_with_root(e * e + 4 * c * c * X - 4 * Y * Z, 4 * e * c, X) > 0
    )
    if violated:
        return False, max(0.0, lhs.value - (r1.value + r2.value))
    return True, 0.0


@SETTINGS
@given(triangles(bigs=(10, 10**6, 10**30, 10**60), ks=st.integers(0, 120)))
@example((Distance(0, Fraction(3, 10) + Fraction(1, 10**30)), Distance(0, Fraction(1, 10)),
          Distance(0, Fraction(2, 10))))
def test_filtered_decision_matches_enclosure_oracle(case):
    assert _triangle_exact(*case) == enclosures_then_chain(*case)
    check(*case)


def test_clear_cases_skip_the_enclosures(monkeypatch):
    def no_enclosures(self, digits=30):
        raise AssertionError("an enclosure was computed for a satisfied triangle")

    monkeypatch.setattr(Distance, "interval", no_enclosures)
    root2 = QuadScalar(0, 1, 2)
    assert _triangle_exact(Distance(2, 0), Distance(1, 1), Distance(0, Fraction(1, 2))) == (True, 0.0)
    assert _triangle_exact(Distance(root2, 1), Distance(root2, 1), Distance(0, 0)) == (True, 0.0)
    assert _triangle_exact(Distance(4, 0), Distance(1, 0), Distance(1, 0)) == (True, 0.0)


# -- planted faults ------------------------------------------------------------------


def fault_cases():
    """(lhs, r1, r2, ok) whose verdicts catch every planted fault below."""
    lhs, r1, r2 = circle_hit_example()
    w = QuadScalar(Fraction(1, 3), Fraction(1, 7), 2)
    return [
        # a violation of 6e-17 that 60-digit enclosures cannot see
        (lhs, r1, r2, False),
        # fl(0.1) + fl(0.2) rounds above fl(0.3 + 1e-30): a float gap > 0 on a violation
        (Distance(0, Fraction(3, 10) + Fraction(1, 10**30)), Distance(0, Fraction(1, 10)),
         Distance(0, Fraction(2, 10)), False),
        # a zero side beside a side shorter than lhs
        (Distance(0, 2), Distance(0, 0), Distance(0, 1), False),
        # exact ties the float filter cannot prove
        (Distance(0, 2), Distance(0, 1), Distance(0, 1), True),
        (Distance(w * w, 2), Distance(w * w, 1), Distance(0, 1), True),
        (Distance(4 * w * w, 0), Distance(w * w, 0), Distance(w * w, 0), True),
    ]


def _zero_error_bound(mp):
    gap = gluing._float_gap

    def mutant(lhs, r1, r2):
        fg = gap(lhs, r1, r2)
        return None if fg is None else (fg[0], 0.0)

    mp.setattr(gluing, "_float_gap", mutant)


MUTANTS = {
    "filter error bound 0": _zero_error_bound,
    "any zero side is a tie": lambda mp: mp.setattr(
        gluing, "_structural_tie", lambda lhs, r1, r2: r1.is_zero() or r2.is_zero()
    ),
    "ties and near-ties return True": lambda mp: mp.setattr(
        gluing, "_exceeds", lambda lhs, r1, r2: False
    ),
    "chain skipped after the filter": lambda mp: mp.setattr(
        gluing, "_exceeds", lambda lhs, r1, r2: True
    ),
}


def test_fault_cases_hold():
    for lhs, r1, r2, ok in fault_cases():
        assert _triangle_exact(lhs, r1, r2)[0] == ok
        assert enclosures_then_chain(lhs, r1, r2)[0] == ok
        check(lhs, r1, r2)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_planted_fault_rejected(name, monkeypatch):
    MUTANTS[name](monkeypatch)
    wrong = [case for case in fault_cases() if _triangle_exact(*case[:3])[0] != case[3]]
    assert wrong, f"planted fault {name!r} went unnoticed"


def test_float_components_have_no_float_view():
    assert Distance(0.25, 1).float_view is None
    assert Distance(Fraction(1, 4), 0.5).float_view is None
    assert Distance(QuadScalar(10**700, 1, 2), 0).float_view is None
    s, f, e = Distance(QuadScalar(3, 1, 2), Fraction(1, 3)).float_view
    assert math.isclose(s, math.sqrt(3 + math.sqrt(2)), rel_tol=1e-15)
    assert f == 1 / 3 and 0 < e <= 2.0**-51
