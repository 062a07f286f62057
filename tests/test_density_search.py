"""The exact first-entry density search against independent oracles.

`scan_density_hit` is the vectorized float return-time scan that
`torus_density_hit` used before its exact search: it is kept here as the
reference, and both must return byte-identical hits (or both None) wherever
the scan's float guard is sound.  `_first_entry` is checked against brute
force over k < 10^4, on windows that wrap, touch 0 or 1, or hold k = 0.
"""

import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torusglue.cli import main
from torusglue.numerics import QuadScalar, frac, scalar_lt, sqrt_as_float
from torusglue.orbit import (
    DensityHit,
    _first_entry,
    _tolerance,
    circle_density_hit,
    density_report,
    torus_density_hit,
)
from torusglue.report import canonical_json, density_csv
from torusglue.torus import GramMatrix, OneParamSubgroup, TorusPoint, torus_distance_sq

from oracles import BRUTE_K, brute_first

LINE = OneParamSubgroup.canonical(QuadScalar(0, 1, 2))


def _min_eigen_float(gram: GramMatrix) -> float:
    a, b, c = float(gram.g11), float(gram.g12), float(gram.g22)
    return (a + c - math.sqrt((a - c) ** 2 + 4 * b * b)) / 2


def scan_density_hit(target, subgroup, y0=None, eps=Fraction(1, 100), gram=None,
                     budget=50_000_000, chunk=2_000_000):
    """Reference: scan k = 0..budget in float chunks, re-check survivors exactly.

    Sound while k * ulp stays well below the 1e-6 guard, which holds for the
    budgets used here.
    """
    gram = gram or GramMatrix.identity()
    y0 = y0 or TorusPoint.origin()
    eps_sq = eps * eps
    alpha = subgroup.alpha
    w1 = frac(target.u1 - y0.u1)
    w2 = frac(target.u2 - y0.u2)

    beta = float(alpha)
    base = float(frac(alpha * w1))
    w2f = float(w2)
    tol = float(eps) / math.sqrt(_min_eigen_float(gram)) * 1.0001 + 1e-6

    for start in range(0, budget + 1, chunk):
        stop = min(start + chunk, budget + 1)
        ks = np.arange(start, stop, dtype=np.float64)
        vals = base + beta * ks
        vals -= np.floor(vals)
        diff = np.abs(vals - w2f)
        np.minimum(diff, 1.0 - diff, out=diff)
        for idx in np.nonzero(diff <= tol)[0]:
            k = start + int(idx)
            t = (w1 + k) / subgroup.v1
            point = subgroup.point(t).translate(y0)
            dist_sq = torus_distance_sq(point, target, gram)
            if scalar_lt(dist_sq, eps_sq):
                return DensityHit(
                    target, eps, k, t, point, dist_sq, sqrt_as_float(dist_sq), k + 1
                )
    return None


def _bytes(hit):
    return None if hit is None else canonical_json(hit.describe())


def _case(seed):
    """Random slope (with a rational part), target, base point and budget."""
    rng = random.Random(seed)
    d = (2, 3)[seed % 2]
    gram = (GramMatrix.identity(), GramMatrix(2, 1, 3))[seed // 2 % 2]
    v2 = QuadScalar(
        Fraction(rng.randint(-7, 7), rng.randint(1, 5)),
        Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5)),
        d,
    )
    line = OneParamSubgroup(Fraction(rng.randint(1, 4), rng.randint(1, 4)), v2)

    def point():
        return TorusPoint(Fraction(rng.randrange(64), 64), Fraction(rng.randrange(97), 97))

    y0 = point() if seed % 3 else None
    eps = Fraction(1, 10 ** rng.choice((1, 2, 3, 4, 5, 6)))
    budget = rng.choice((1_000, 200_000, 3_000_000))
    return point(), line, y0, eps, gram, budget


@pytest.mark.parametrize("seed", range(32))
def test_search_matches_scan_oracle(seed):
    target, line, y0, eps, gram, budget = _case(seed)
    got = torus_density_hit(target, line, y0, eps, gram, budget)
    want = scan_density_hit(target, line, y0, eps, gram, budget, chunk=1 << 16)
    assert _bytes(got) == _bytes(want)


@pytest.mark.parametrize("gram", [GramMatrix.identity(), GramMatrix(2, 1, 3)], ids=["I", "213"])
@pytest.mark.parametrize("eps_exp", [2, 4, 6])
def test_search_matches_scan_on_the_canonical_line(gram, eps_exp):
    y0 = TorusPoint(Fraction(1, 3), Fraction(1, 7))
    for target in (TorusPoint(Fraction(0), Fraction(1, 2)), TorusPoint(Fraction(2, 5), 0)):
        eps = Fraction(1, 10 ** eps_exp)
        got = torus_density_hit(target, LINE, y0, eps, gram, 10**7)
        want = scan_density_hit(target, LINE, y0, eps, gram, 10**7)
        assert got is not None
        assert _bytes(got) == _bytes(want)


# -- the first-entry step against brute force ------------------------------------------

slopes = st.builds(
    lambda a, b, sign, d: frac(QuadScalar(Fraction(a, 7), Fraction(sign * b, 5), d)),
    st.integers(-20, 20), st.integers(1, 12), st.sampled_from((-1, 1)), st.sampled_from((2, 3, 5)),
)
rationals = st.builds(Fraction, st.integers(0, 2000), st.integers(1, 2000))


def _check_first_entry(alpha, c, width):
    want = brute_first(alpha, c, lambda v: v < width)
    got = _first_entry(alpha, c, width)
    if want is None:
        assert got >= BRUTE_K
    else:
        assert got == want


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(slopes, rationals, rationals, st.integers(0, 40))
def test_first_entry_matches_brute_force(alpha, q, w, j):
    # c = q - j*alpha lands exactly on the rational frac(q) at k = j, so
    # width = frac(q) puts a value on the excluded endpoint and integral q
    # puts one on the included endpoint 0
    c = frac(q - j * alpha)
    for width in (frac(w) or Fraction(1, 3), frac(q) or Fraction(1), Fraction(1, 1000)):
        _check_first_entry(alpha, c, width)


def _inside(lo, hi):
    """Membership in the window [lo, hi) taken mod 1, for -1 <= lo < hi <= lo + 1 <= 2."""
    return lambda v: any(lo <= v + n < hi for n in (-1, 0, 1))


def _wrapping_past_1(r):
    lo = Fraction(1, 2) + frac(r) / 2
    return lo, 1 - lo + frac(r) / 4 + Fraction(1, 1000)


windows = st.one_of(
    st.tuples(rationals, rationals).map(  # wraps past 0 when lo + width > 0
        lambda p: (frac(p[0]) - Fraction(1, 2), frac(p[1]) / 2 or Fraction(1, 7))
    ),
    rationals.map(lambda r: (Fraction(0), frac(r) or Fraction(1))),  # touches 0
    rationals.map(lambda r: (frac(r), 1 - frac(r))),  # touches 1
    rationals.map(_wrapping_past_1),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(slopes, rationals, windows)
def test_window_search_matches_brute_force(alpha, x, window):
    """The reduction torus_density_hit makes: [lo, hi) mod 1 becomes frac(x - lo) < width."""
    lo, width = window
    x = frac(x)
    want = brute_first(alpha, x, _inside(lo, lo + width))
    got = _first_entry(alpha, frac(x - lo), width)
    if want is None:
        assert got >= BRUTE_K
    else:
        assert got == want


def test_first_entry_k0_and_full_window():
    alpha = frac(QuadScalar(0, 1, 2))
    assert _first_entry(alpha, Fraction(0), Fraction(1, 10**9)) == 0
    assert _first_entry(alpha, Fraction(1, 2), Fraction(1)) == 0
    assert _first_entry(alpha, Fraction(1, 2), Fraction(1, 2)) > 0


# -- the reach of the exact search ------------------------------------------------------


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def test_eps_1e30_hit_checked_with_mpmath():
    target = TorusPoint(Fraction(1, 3), Fraction(1, 5))
    eps = Fraction(1, 10**30)
    hit = torus_density_hit(target, LINE, eps=eps, budget=10**30)
    assert hit is not None and hit.k <= 10**30 and hit.scanned == hit.k + 1
    # the identity Gram: the distance is the wrapped second-coordinate miss
    with mpmath.workdps(300):
        u2 = mpmath.sqrt(2) * (mpmath.mpf(1) / 3 + hit.k)
        delta = u2 - mpmath.floor(u2) - mpmath.mpf(1) / 5
        delta -= mpmath.nint(delta)
        assert abs(delta) < mpmath.mpf(10) ** -30
        exact = _mp(hit.distance_sq.a) + _mp(hit.distance_sq.b) * mpmath.sqrt(2)
        assert mpmath.almosteq(exact, delta**2, rel_eps=mpmath.mpf(10) ** -100)
        assert math.isclose(hit.distance, float(abs(delta)), rel_tol=1e-12)


def test_eps_1e9_within_budget_1e9_is_fast():
    target = TorusPoint(Fraction(1, 3), Fraction(1, 5))
    start = time.process_time()
    hit = torus_density_hit(target, LINE, eps=Fraction(1, 10**9), budget=10**9)
    assert time.process_time() - start < 0.1
    assert hit is not None and hit.k <= 10**9


def test_circle_cap_follows_eps():
    theta = frac(1 / QuadScalar(0, 1, 2))
    hit = circle_density_hit(Fraction(1, 3), theta, eps=Fraction(1, 10**400))
    assert hit.convergent is not None and hit.k > 0
    with pytest.raises(ValueError):
        circle_density_hit(Fraction(1, 3), theta, eps=Fraction(1, 10**400), max_terms=64)


def test_circle_tolerance_is_derived_once_per_eps_and_axis():
    theta = frac(1 / QuadScalar(0, 1, 2))
    eps = Fraction(1, 10**9)
    _tolerance.cache_clear()
    for j in range(50):
        circle_density_hit(Fraction(j, 50), theta, Fraction(0), eps, Fraction(2))
    assert (_tolerance.cache_info().misses, _tolerance.cache_info().hits) == (1, 49)


def test_circle_tolerance_errors_arise_where_they_did():
    theta = frac(1 / QuadScalar(0, 1, 2))
    eps = Fraction(1, 10**9)
    # a zero or negative axis is refused where the tolerance is derived
    for g_axis in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match=r"^g_axis must be positive, got -?[0-9/]+$"):
            circle_density_hit(Fraction(1, 3), theta, eps=eps, g_axis=g_axis)
    # a zero eps is refused there too, before the axis
    with pytest.raises(ValueError, match="eps must be positive"):
        circle_density_hit(Fraction(1, 3), theta, eps=0, g_axis=0)
    with pytest.raises(ValueError, match="eps must be positive"):
        circle_density_hit(Fraction(1, 3), theta, eps=0)
    with pytest.raises(ValueError, match="no convergent within 5 terms"):
        circle_density_hit(Fraction(1, 3), theta, eps=eps, max_terms=5)
    # a float axis is refused, and leaves the equal int axis a Fraction bound
    with pytest.raises(TypeError):
        circle_density_hit(Fraction(1, 3), theta, eps=eps, g_axis=2.0)
    assert circle_density_hit(Fraction(1, 3), theta, eps=eps, g_axis=2) == circle_density_hit(
        Fraction(1, 3), theta, eps=eps, g_axis=Fraction(2)
    )
    assert type(_tolerance(eps, 2)[3]) is Fraction


def test_x1_group_at_eps_1e400_exits_0(capsys):
    assert main(["x1-group", "--count", "3", "--eps", "1e-400"]) == 0
    assert '"ok": true' in capsys.readouterr().out


def test_density_csv_reads_records_and_descriptions_alike():
    targets = (TorusPoint(0, Fraction(1, 2)), TorusPoint(Fraction(1, 3), Fraction(1, 5)))
    reps = [density_report(t, LINE, [Fraction(1, 100), Fraction(1, 10**7)], budget=10**6)
            for t in targets]
    assert density_csv(reps) == density_csv([r.describe() for r in reps])
    assert density_csv(reps[0]) == density_csv(reps[0].describe())


def test_hit_just_inside_eps_is_found():
    # under the identity Gram the window bound is tight: place the target so
    # that k = 5 misses by eps * (1 - 2^-30), inside eps but at the window's edge
    eps = Fraction(1, 1000)
    grid = 2**100
    miss = eps * (1 - Fraction(1, 2**30))
    u2 = Fraction(((frac(5 * QuadScalar(0, 1, 2)) + miss) * grid).floor(), grid)
    target = TorusPoint(Fraction(0), u2)
    hit = torus_density_hit(target, LINE, eps=eps, budget=1000)
    assert hit is not None and hit.k == 5
    low = miss - Fraction(1, grid)
    assert scalar_lt(low * low, hit.distance_sq) and not scalar_lt(miss * miss, hit.distance_sq)
