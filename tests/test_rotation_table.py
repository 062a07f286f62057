"""The shared per-rotation table against the oracles it replaced.

Continued fractions from the integer (P, Q) recurrence are checked against
the QuadScalar stream and sympy; first entries read from cached levels
against the level loop that recomputes them and against brute force, in any
call order and with the table cold or warm; the sharp-convergent memo keeps
`max_terms` exact and stays bounded; and the table stays bounded and gives
the same answers when four threads extend it, or read its memo, at once.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import islice

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torusglue import orbit
from torusglue.numerics import QuadScalar, frac
from torusglue.orbit import (
    _first_entry,
    cf_convergents,
    cf_expansion,
    circle_density_hit,
    torus_density_hit,
)
from torusglue.report import canonical_json
from torusglue.torus import OneParamSubgroup, TorusPoint

from oracles import BRUTE_K, brute_first, convergent_stream, first_entry_levels

FIELDS = (2, 3, 5, 7, 13, 94)
TERMS = 200
SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _clear():
    orbit._table.cache_clear()


def quadratics(top_a, top_b, top_c):
    """(a + b*sqrt(d)) / c with |a| <= top_a, 0 < |b| <= top_b and 0 < c <= top_c."""
    return st.builds(
        lambda a, b, c, d: QuadScalar(Fraction(a, c), Fraction(b, c), d),
        st.integers(-top_a, top_a),
        st.integers(-top_b, top_b).filter(bool),
        st.integers(1, top_c),
        st.sampled_from(FIELDS),
    )


# -- continued fractions ------------------------------------------------------------


@SETTINGS
@given(quadratics(10**6, 10**4, 10**4))
def test_convergents_match_the_quadscalar_stream(x):
    want = list(islice(convergent_stream(x), TERMS))
    assert cf_convergents(x, TERMS) == [c for _, c in want]
    assert cf_expansion(x, TERMS) == [a for a, _ in want]


def _sympy_quotients(x, n):
    # x = (A + B*sqrt(d)) / D = (A + sign(B)*sqrt(d*B^2)) / D
    A, B, D, d = x._A, x._B, x._D, x.d
    *prefix, period = sympy.continued_fraction_periodic(A, D, d * B * B, 1 if B > 0 else -1)
    out = list(prefix)
    while len(out) < n:
        out.extend(period)
    return [int(a) for a in out[:n]]


# sympy computes the whole period, whose length grows like the square root of
# the discriminant d*B^2*D^2, a few ms a term, so b and c stay small
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(quadratics(50, 5, 7))
def test_partial_quotients_match_sympy(x):
    assert cf_expansion(x, TERMS) == _sympy_quotients(x, TERMS)


@pytest.mark.parametrize("d", FIELDS)
def test_sqrt_d_matches_sympy(d):
    x = QuadScalar(0, 1, d)
    assert cf_expansion(x, TERMS) == _sympy_quotients(x, TERMS)


def test_max_terms_holds_when_the_table_is_deeper():
    theta = frac(1 / QuadScalar(0, 1, 7))
    eps = Fraction(1, 10**30)
    _clear()
    with pytest.raises(ValueError) as cold:
        circle_density_hit(Fraction(1, 3), theta, eps=eps, max_terms=8)
    cf_convergents(theta, TERMS)
    assert len(orbit._rotation(theta).convergents) >= TERMS
    with pytest.raises(ValueError) as warm:
        circle_density_hit(Fraction(1, 3), theta, eps=eps, max_terms=8)
    assert str(warm.value) == str(cold.value)
    # the cap is exact: the sharp index is the least max_terms - 1 that works
    hit = circle_density_hit(Fraction(1, 3), theta, eps=eps)
    j = [c.q for c in cf_convergents(theta, TERMS)].index(hit.convergent.q)
    with pytest.raises(ValueError):
        circle_density_hit(Fraction(1, 3), theta, eps=eps, max_terms=j)
    assert circle_density_hit(Fraction(1, 3), theta, eps=eps, max_terms=j + 1) == hit


def test_warm_memo_keeps_max_terms_exact():
    theta = frac(1 / QuadScalar(Fraction(1, 3), 1, 5))
    eps = Fraction(1, 10**20)
    _clear()
    hit = circle_density_hit(Fraction(2, 9), theta, eps=eps)
    j = [c.q for c in cf_convergents(theta, TERMS)].index(hit.convergent.q)
    _clear()
    with pytest.raises(ValueError) as cold:
        circle_density_hit(Fraction(2, 9), theta, eps=eps, max_terms=j)
    circle_density_hit(Fraction(2, 9), theta, eps=eps)
    assert orbit._rotation(theta).sharp == {eps * eps: j}
    for n in (j, j - 1, 1):
        with pytest.raises(ValueError) as warm:
            circle_density_hit(Fraction(2, 9), theta, eps=eps, max_terms=n)
        assert str(warm.value) == str(cold.value).replace(f"within {j} ", f"within {n} ")
    assert circle_density_hit(Fraction(2, 9), theta, eps=eps, max_terms=j + 1) == hit
    assert orbit._rotation(theta).sharp == {eps * eps: j}


def test_memo_is_keyed_by_the_bound():
    theta = frac(1 / QuadScalar(0, 1, 3))
    _clear()
    rot = orbit._rotation(theta)
    # eps^2 / g_axis is 10^-12 for both pairs
    a = circle_density_hit(Fraction(1, 7), theta, eps=Fraction(1, 10**6), g_axis=Fraction(1))
    b = circle_density_hit(Fraction(1, 7), theta, eps=Fraction(2, 10**6), g_axis=Fraction(4))
    assert a.convergent == b.convergent
    assert list(rot.sharp) == [Fraction(1, 10**12)]
    # another bound gets its own entry, even when it picks the same convergent
    circle_density_hit(Fraction(1, 7), theta, eps=Fraction(1, 10**6), g_axis=Fraction(5, 4))
    assert list(rot.sharp) == [Fraction(1, 10**12), Fraction(4, 5 * 10**12)]


def test_memo_is_bounded_and_evicted_with_its_rotation():
    theta = frac(1 / QuadScalar(0, 1, 2))
    _clear()
    rot = orbit._rotation(theta)
    epsilons = [Fraction(1, 10**e) for e in range(3, 3 + orbit._SHARP_MAX + 10)]
    hits = [circle_density_hit(Fraction(3, 11), theta, eps=e) for e in epsilons]
    assert len(rot.sharp) == orbit._SHARP_MAX
    # the oldest bounds went first
    assert list(rot.sharp) == [e * e for e in epsilons[10:]]
    stream = [c for _, c in islice(convergent_stream(theta), 4 * len(epsilons))]
    for e, hit in zip(epsilons, hits):
        assert hit.convergent == next(c for c in stream if c.err * c.err < e * e)
        assert circle_density_hit(Fraction(3, 11), theta, eps=e) == hit
        assert len(rot.sharp) <= orbit._SHARP_MAX
    # pushing theta out of the rotation table drops its memo with it
    for n in range(orbit._ROTATIONS_MAX):
        orbit._rotation(frac(QuadScalar(Fraction(n, 89), 1, 3)))
    fresh = orbit._rotation(theta)
    assert fresh is not rot and fresh.sharp == {}


@pytest.mark.parametrize("exp", [3, 6, 11, 16, 40])
def test_circle_hit_picks_the_first_sharp_convergent(exp):
    """The search returns the convergent a linear scan of the oracle stream finds."""
    theta = frac(1 / QuadScalar(0, 1, 2))
    eps = Fraction(1, 10**exp)
    g_axis = Fraction(3)
    j, want = next(
        (j, c) for j, (_, c) in enumerate(convergent_stream(theta))
        if c.err * c.err * g_axis < eps * eps
    )
    for warm in (False, True):
        if warm:
            cf_convergents(theta, TERMS)  # a table far deeper than the answer
        else:
            _clear()
        assert circle_density_hit(Fraction(2, 7), theta, eps=eps, g_axis=g_axis).convergent == want
        if not warm:
            # a cold search extends the table only to the convergent it returns
            assert len(orbit._rotation(theta).convergents) == j + 1


# -- first entries ----------------------------------------------------------------------


slopes = st.builds(
    lambda a, b, sign, d: frac(QuadScalar(Fraction(a, 7), Fraction(sign * b, 5), d)),
    st.integers(-20, 20), st.integers(1, 12), st.sampled_from((-1, 1)), st.sampled_from(FIELDS),
)
rationals = st.builds(Fraction, st.integers(0, 2000), st.integers(1, 2000))
widths = st.one_of(
    st.builds(Fraction, st.integers(1, 2000), st.integers(2000, 4000)),
    st.integers(3, 60).map(lambda e: Fraction(1, 2**e)),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(slopes, rationals, widths)
def test_first_entry_matches_level_loop_and_brute_force(alpha, c, width):
    c = frac(c)
    got = _first_entry(alpha, c, width)
    assert got == first_entry_levels(alpha, c, width)
    want = brute_first(alpha, c, lambda v: v < width)
    if want is None:
        assert got >= BRUTE_K
    else:
        assert got == want


def _queries(alpha):
    return [(frac(Fraction(j, 13) + j * alpha), Fraction(1, 10**e)) for j, e in
            ((1, 1), (2, 3), (3, 9), (4, 30), (5, 2), (6, 60), (7, 5))]


@pytest.mark.parametrize("d", (2, 13, 94))
def test_first_entry_is_independent_of_call_order(d):
    alpha = frac(QuadScalar(Fraction(1, 3), Fraction(2, 5), d))
    queries = _queries(alpha)
    want = [first_entry_levels(alpha, c, w) for c, w in queries]
    deep_first = sorted(range(len(queries)), key=lambda i: queries[i][1])
    shallow_first = deep_first[::-1]
    for order in (deep_first, shallow_first):
        for clear in (True, False):
            if clear:
                _clear()
            got = {i: _first_entry(alpha, *queries[i]) for i in order}
            assert [got[i] for i in range(len(queries))] == want


def test_table_never_holds_more_than_its_bound():
    _clear()
    for n in range(3 * orbit._ROTATIONS_MAX):
        alpha = frac(QuadScalar(Fraction(n, 97), 1, 2))
        _first_entry(alpha, Fraction(1, 2), Fraction(1, 10**6))
        cf_expansion(alpha, 3)
        assert orbit._table.cache_info().currsize <= orbit._ROTATIONS_MAX
    assert orbit._table.cache_info().currsize == orbit._ROTATIONS_MAX
    # least recently used goes first: the newest rotations are the ones kept
    newest = frac(QuadScalar(Fraction(3 * orbit._ROTATIONS_MAX - 1, 97), 1, 2))
    hits = orbit._table.cache_info().hits
    orbit._rotation(newest)
    assert orbit._table.cache_info().hits == hits + 1


# -- threads --------------------------------------------------------------------------------


def test_four_threads_share_a_fresh_table():
    v2 = QuadScalar(Fraction(2, 9), Fraction(5, 11), 13)
    line = OneParamSubgroup(Fraction(3, 2), v2)
    theta = frac(1 / line.alpha)
    target = TorusPoint(Fraction(1, 5), Fraction(2, 7))

    def work(i, barrier=None):
        if barrier:
            barrier.wait()
        circle = circle_density_hit(Fraction(i + 1, 11), theta, eps=Fraction(1, 10**40))
        torus = torus_density_hit(target, line, eps=Fraction(1, 10**9), budget=10**30)
        return canonical_json(circle.describe()), canonical_json(torus.describe())

    def threaded():
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                return list(pool.map(work, range(4), [threading.Barrier(4)] * 4))
        finally:
            sys.setswitchinterval(interval)

    _clear()
    got = threaded()
    # and again on the warm table, whose memo already holds the sharp index
    assert len(orbit._rotation(theta).sharp) == 1
    warm = threaded()
    _clear()
    want = [work(i) for i in range(4)]
    assert got == want
    assert warm == want
    assert len({t for _, t in got}) == 1
