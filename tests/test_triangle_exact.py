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
filter, its float views, the structural tie and the chain must each be
caught.

The filter's float views are evaluated from the integer triples, and their
proven bounds (`numerics.float_eval_with_error`, `Distance._filter_view`)
are checked against mpmath with 60 digits beyond the coefficients' own: on
Pell-type cancellation, coefficients near and beyond 2^53, radicands beyond
2^53, and subnormal and near-overflow magnitudes.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from torusglue import gluing
from torusglue.gluing import Distance, _sign_with_root, _triangle_exact
from torusglue.numerics import QuadScalar, _reduced, float_eval_with_error
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


# 19601^2 - 2*13860^2 = 1351^2 - 3*780^2 = 1: cancellation factors near
# 10^9 and 10^7
PELL_2 = QuadScalar(19601, -13860, 2)  # 2.5508902623608594e-05
PELL_3 = QuadScalar(1351, -780, 3)  # 3.7009627571104859e-04
# coefficients just past 2^53, which round on conversion: the float
# evaluation misses each by 0.19 of its proven bound, from below for
# sqrt(2) and from above for sqrt(3), and the filter view's root misses
# sqrt(NEAR_d) by 0.19 of its own bound the same way
NEAR_2 = QuadScalar(Fraction(19309359253218690, 5), Fraction(-13653778864578739, 5), 2)  # 1057663.7195
NEAR_3 = QuadScalar(Fraction(19937376099592134, 5), Fraction(-11510849457982753, 5), 3)  # 17866.6377


def fault_cases():
    """(lhs, r1, r2, ok) whose verdicts catch every planted fault below."""
    lhs, r1, r2 = circle_hit_example()
    w = QuadScalar(Fraction(1, 3), Fraction(1, 7), 2)
    zero = Distance(0, 0)
    return [
        # violations 0.02 of a view bound beyond NEAR_d or sqrt(NEAR_d), on the
        # side its float view errs to: a filter that trusts the view by more
        # than an eighth of its bound accepts them
        (Distance(0, NEAR_2), Distance(0, Fraction("1057663.58")), zero, False),
        (Distance(NEAR_2, 0), Distance(0, Fraction("1028.42772")), zero, False),
        (Distance(0, Fraction("17866.78")), Distance(0, NEAR_3), zero, False),
        (Distance(0, Fraction("133.66668")), Distance(NEAR_3, 0), zero, False),
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


def _view_bound(change):
    """A mutant whose float evaluations keep f and replace e by change(f, e)."""

    def plant(mp):
        def mutant(x):
            fe = float_eval_with_error(x)
            return None if fe is None else (fe[0], change(*fe))

        mp.setattr(gluing, "float_eval_with_error", mutant)

    return plant


def _root_rounding_only(mp):
    def view(self):
        (fx, _), (f, e) = float_eval_with_error(self.torus_sq), float_eval_with_error(self.offset)
        s = math.sqrt(max(fx, 0.0))
        return s, f, (e + 2.0**-53 * s) * (1 + 2.0**-46)

    mp.setattr(Distance, "_filter_view", property(view))


MUTANTS = {
    "filter error bound 0": _zero_error_bound,
    # the bound of a correctly rounded view, blind to cancellation
    "cancellation factor ignored": _view_bound(lambda f, e: 2.0**-51 * abs(f) + 2.0**-1070),
    # sound at a half or a quarter: no case found errs by more than 0.2 of e
    "view bound an eighth": _view_bound(lambda f, e: e / 8),
    "root bound without the view's error": _root_rounding_only,
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


# -- the filter's float views against mpmath -----------------------------------------


def _pell(d, p1, q1, count=60):
    """(p, q) with p^2 - d*q^2 = +-1: the first count powers of p1 + q1*sqrt(d)."""
    out, p, q = [], p1, q1
    for _ in range(count):
        out.append((p, q))
        p, q = p * p1 + d * q * q1, p * q1 + q * p1
    return out


PELL = {2: _pell(2, 1, 1), 3: _pell(3, 2, 1)}  # up to about 2^76 and 2^114
TWO53 = 2**53
# Mersenne primes, so square-free radicands that round on conversion
BIG_D = (2**61 - 1, 2**89 - 1, 2**107 - 1)


def _big_radicand(A, B, D, d):
    """(A + B*sqrt(d))/D built the way arithmetic builds its results,
    without the square-free check.  Trial division up to the cube root
    takes a fraction of a second for 2^61 - 1, but minutes for 2^89 - 1 and
    hours for 2^107 - 1."""
    return _reduced(A, B, D, d)


@st.composite
def view_scalars(draw):
    """(A + B*sqrt(d))/D over sqrt(2), sqrt(3) or a radicand beyond 2^53, in
    the regimes the views must bound."""
    d = draw(st.sampled_from((2, 3)))
    sign = draw(st.sampled_from((1, -1)))
    kinds = ("pell", "near 2^53", "wide", "subnormal", "near overflow", "rational", "big radicand")
    kind = draw(st.sampled_from(kinds))
    if kind == "big radicand":
        d = draw(st.sampled_from(BIG_D))
        B = draw(signs) * draw(st.integers(1, 2**70))
        # A near -B*sqrt(d), so that the two terms cancel
        A = -B // abs(B) * (math.isqrt(d * B * B) + draw(st.integers(0, 2)))
        return _big_radicand(A, B, draw(st.integers(1, 2**60)), d)
    if kind in ("pell", "subnormal"):
        p, q = draw(st.sampled_from(PELL[d]))
        A, B = sign * p, -sign * q
        if kind == "pell":
            D = draw(st.sampled_from((1, 3, 10**6 + 1, TWO53 - 1, TWO53 + 1, 10**30)))
        else:
            D = 2 ** draw(st.integers(960, 1023)) - draw(st.integers(0, 1))
    elif kind == "near 2^53":
        near = st.integers(TWO53 - 4, TWO53 + 4)
        A, B = sign * draw(near), draw(signs) * draw(near)
        D = draw(st.sampled_from((1, 7))) * draw(st.sampled_from((1, TWO53 - 1, TWO53, TWO53 + 1)))
    elif kind == "wide":
        A, B = draw(st.integers(-(2**200), 2**200)), draw(st.integers(-(2**200), 2**200))
        D = draw(st.integers(1, 2**200))
    elif kind == "near overflow":
        A = sign * 2 ** draw(st.integers(1015, 1025)) + draw(st.integers(-5, 5))
        B = draw(signs) * 2 ** draw(st.integers(1010, 1025))
        D = draw(st.integers(1, 8))
    else:
        A, B = sign * draw(st.integers(0, 2**70)), 0
        D = draw(st.sampled_from((1, 3, TWO53 + 1, 2**1070 + 1, 2**1100)))
    return QuadScalar(Fraction(A, D), Fraction(B, D), d)


def _coefficients(x):
    """(A, B, D, d) with x = (A + B*sqrt(d))/D in lowest terms, D > 0."""
    D = math.lcm(x.a.denominator, x.b.denominator)
    return x.a.numerator * (D // x.a.denominator), x.b.numerator * (D // x.b.denominator), D, x.d


def _beyond_float_range(*xs):
    return max(abs(n) for x in xs for n in _coefficients(x)).bit_length() > 1000


def _digits(*xs):
    """60 digits beyond the coefficients' own, as a cancellation may use them all."""
    return 60 + max(len(str(abs(n))) for x in xs for n in _coefficients(x))


def _scale(x):
    """S/D = (|A| + |B|*sqrt(d))/D, which the view's bound must scale with."""
    A, B, D, d = _coefficients(x)
    return (abs(mpmath.mpf(A)) + abs(mpmath.mpf(B)) * mpmath.sqrt(d)) / D


@SETTINGS
@given(view_scalars())
@example(PELL_2)
@example(PELL_3)
@example(NEAR_2)
@example(NEAR_3)
@example(QuadScalar(TWO53 + 1, -(TWO53 - 1), 2))
@example(QuadScalar(Fraction(1, 2**1100), 0, 2))
@example(QuadScalar(1, Fraction(1, 2**1030), 2))
# float(d) rounds as well: isqrt(d) - sqrt(d) cancels by a factor near 4d
@example(_big_radicand(math.isqrt(2**61 - 1), -1, 1, 2**61 - 1))
@example(_big_radicand(-math.isqrt(2**107 - 1) - 1, 1, 3, 2**107 - 1))
@example(_big_radicand(1, 1, 1, 2**1279 - 1))
def test_float_eval_bound_holds(x):
    fe = float_eval_with_error(x)
    if fe is None:
        assert _beyond_float_range(x)
        return
    f, e = fe
    with mpmath.workdps(_digits(x)):
        assert abs(mpmath.mpf(f) - mp_value(x)) <= e
        # proven, and no looser than its scale
        assert e <= 2.0**-48 * _scale(x) + 2.0**-1069


@SETTINGS
@given(view_scalars(), view_scalars())
@example(PELL_2, QuadScalar(0, 0, 2))
@example(QuadScalar(0, 0, 3), PELL_3)
@example(QuadScalar(10**700, 1, 2), QuadScalar(Fraction(1, 3), 0, 2))
def test_filter_view_bound_holds(X, offset):
    dist = Distance(abs(X), offset)
    view = dist._filter_view
    if view is None:
        assert _beyond_float_range(X, offset)
        return
    s, f, e = view
    with mpmath.workdps(_digits(X, offset)):
        err = abs(mpmath.mpf(s) - mpmath.sqrt(abs(mp_value(X)))) + abs(mpmath.mpf(f) - mp_value(offset))
        assert err <= e


@SETTINGS
@given(triangles(bigs=(10, 10**6, 10**30, 10**60), ks=st.integers(0, 120)))
def test_float_gap_bound_holds(case):
    fg = gluing._float_gap(*case)
    assert fg is not None
    gap, err = fg
    lhs, r1, r2 = case
    with mpmath.workdps(400):
        true_gap = mp_distance(r1) + mp_distance(r2) - mp_distance(lhs)
        assert abs(mpmath.mpf(gap) - true_gap) <= err
