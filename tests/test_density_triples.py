"""The density searches on integer triples against their operator forms.

`torus_density_hit` and `circle_density_hit` derive the gap, the window,
each start of the first-entry search and each landing from integer triples,
and build scalars only for the record.  `oracles.density_hit` and
`oracles.circle_hit` keep the forms that went through the Fraction and
QuadScalar operators; every record field must agree in value, in type and
in the field index of a QuadScalar.  The membership derivations, also on
triples, are compared with `oracles.branch_derivation` and
`oracles.circle_branch_derivation` the same way.  Also here: the deep
first-entry chain
on unreduced triples, the searches' freedom from scalar operators, the call
chain the benchmark tracer rebinds, and the refusal of eps <= 0.
"""

from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import oracles
from torusglue import orbit
from torusglue.cli import main
from torusglue.numerics import FieldMismatchError, QuadScalar, frac
from torusglue.orbit import (
    BranchDerivation,
    CircleBranchDerivation,
    CircleHit,
    DensityHit,
    _derive_circle_branch,
    _first_entry,
    circle_density_hit,
    density_report,
    derive_branch,
    non_closure_report,
    torus_density_hit,
)
from torusglue.torus import GramMatrix, OneParamSubgroup, TorusPoint

from oracles import BRUTE_K, brute_first, first_entry_levels

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
FIELDS = (2, 3, 5)
GRAMS = (GramMatrix(1, 0, 1), GramMatrix(2, 1, 3), GramMatrix(5, 4, 4))
LINE = OneParamSubgroup.canonical(QuadScalar(0, 1, 2))
THETA = frac(1 / QuadScalar(0, 1, 2))


def same(got, want) -> bool:
    """Equal in value, in type and in the field index of a QuadScalar, field
    by field through records and points."""
    if type(got) is not type(want):
        return False
    if isinstance(got, (DensityHit, CircleHit, orbit.Convergent, TorusPoint, BranchDerivation,
                        CircleBranchDerivation)):
        return all(same(getattr(got, f.name), getattr(want, f.name)) for f in fields(got))
    if isinstance(got, QuadScalar):
        return got == want and got.d == want.d
    return got == want


def outcome(fn, *args, **kwargs):
    """(result, None) or (None, the type of the exception raised)."""
    try:
        return fn(*args, **kwargs), None
    except (FieldMismatchError, ValueError) as exc:
        return None, type(exc)


def check(fn, oracle, *args, **kwargs):
    (got, got_err), (want, want_err) = outcome(fn, *args, **kwargs), outcome(oracle, *args, **kwargs)
    assert got_err is want_err, (args, kwargs, got_err, want_err)
    assert same(got, want), (args, kwargs, got, want)
    return got


rationals = st.builds(Fraction, st.integers(0, 10**4), st.integers(1, 10**3)).map(frac)


@st.composite
def coordinates(draw, d):
    """A coordinate in [0, 1): a Fraction, the int 0, a QuadScalar over
    sqrt(d), or a rational-valued QuadScalar over another radicand."""
    kind = draw(st.sampled_from(("fraction", "int", "quad", "rational-quad")))
    r = draw(rationals)
    if kind == "fraction":
        return r
    if kind == "int":
        return 0
    if kind == "rational-quad":
        return QuadScalar(r, 0, 7)
    return frac(QuadScalar(r, Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9))), d))


@st.composite
def lines(draw):
    """A winding line over sqrt(2), sqrt(3) or sqrt(5) with v1 != 1: a
    rational v1, or an irrational one in the line's field."""
    d = draw(st.sampled_from(FIELDS))
    v2 = QuadScalar(
        Fraction(draw(st.integers(-7, 7)), draw(st.integers(1, 5))),
        Fraction(draw(st.integers(-7, 7).filter(bool)), draw(st.integers(1, 5))),
        d,
    )
    if draw(st.booleans()):
        v1 = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
        assume(v1 != 1)
    else:
        v1 = QuadScalar(Fraction(draw(st.integers(1, 5))), Fraction(draw(st.integers(-3, 3).filter(bool)), 2), d)
        assume((v2 / v1).b != 0)
    return OneParamSubgroup(v1, v2)


epsilons = st.one_of(
    st.integers(1, 7).map(lambda e: Fraction(1, 10**e)),
    st.sampled_from((1.0, 2.0)),  # int-valued floats: wide windows
    st.sampled_from((0.05, 1e-3, 2.5e-5, 1e-6)),
)


@st.composite
def density_cases(draw):
    line = draw(lines())
    d = line.alpha.d
    target = TorusPoint(draw(coordinates(d)), draw(coordinates(d)))
    y0 = draw(st.one_of(st.none(), st.builds(TorusPoint, coordinates(d), coordinates(d))))
    if y0 is not None:
        assume(y0 != TorusPoint.origin())
    # v1 is never an int, so t is never int / int (see
    # test_int_first_coordinates_give_a_fraction_t)
    return target, line, y0, draw(epsilons), draw(st.sampled_from(GRAMS))


@SETTINGS
@given(density_cases())
@example((TorusPoint(Fraction(1, 3), Fraction(1, 5)), LINE, TorusPoint(Fraction(1, 7), QuadScalar(0, 1, 2).frac()),
          Fraction(1, 10**6), GRAMS[1]))
@example((TorusPoint(QuadScalar(Fraction(1, 4), 0, 3), 0), LINE, TorusPoint(QuadScalar(Fraction(1, 2), 0, 5), 0),
          1e-3, GRAMS[2]))
def test_torus_hit_matches_the_operator_form(case):
    target, line, y0, eps, gram = case
    hit = check(torus_density_hit, oracles.density_hit, target, line, y0, eps, gram, 10**12)
    assert hit is not None
    # the budget boundary: a hit at k == budget is returned, one short is not
    assert same(torus_density_hit(target, line, y0, eps, gram, hit.k), hit)
    assert torus_density_hit(target, line, y0, eps, gram, hit.k - 1) is None
    assert oracles.density_hit(target, line, y0, eps, gram, hit.k - 1) is None


def test_int_first_coordinates_give_a_fraction_t():
    # int 0 first coordinates and an int v1: the operators gave a float t and
    # re-checked a float distance; the triples give an exact Fraction t
    line = OneParamSubgroup(1, QuadScalar(0, 1, 2))
    target, y0 = TorusPoint(0, Fraction(1, 3)), TorusPoint(0, Fraction(1, 7))
    hit = torus_density_hit(target, line, y0, Fraction(1, 10**4))
    want = oracles.density_hit(target, OneParamSubgroup(Fraction(1), QuadScalar(0, 1, 2)), y0, Fraction(1, 10**4))
    assert type(hit.t) is Fraction and type(hit.distance_sq) is QuadScalar
    assert (hit.k, hit.t, hit.point, hit.distance_sq) == (want.k, want.t, want.point, want.distance_sq)


def test_torus_field_mismatch_is_refused_as_by_the_operators():
    y0 = TorusPoint(Fraction(1, 3), Fraction(1, 7))
    for target in (TorusPoint(frac(QuadScalar(0, 1, 3)), Fraction(1, 2)),
                   TorusPoint(Fraction(1, 2), frac(QuadScalar(0, 1, 5)))):
        check(torus_density_hit, oracles.density_hit, target, LINE, y0, Fraction(1, 100))
        assert outcome(torus_density_hit, target, LINE, y0, Fraction(1, 100))[1] is FieldMismatchError
    # radical parts over sqrt(3) that cancel leave a rational gap
    u = frac(QuadScalar(Fraction(1, 3), 1, 3))
    check(torus_density_hit, oracles.density_hit, TorusPoint(u, u), LINE, TorusPoint(u, u - Fraction(1, 9)),
          Fraction(1, 1000))


@st.composite
def circle_cases(draw):
    d = draw(st.sampled_from(FIELDS))
    theta = frac(QuadScalar(Fraction(draw(st.integers(-20, 20)), 7),
                            Fraction(draw(st.integers(-12, 12).filter(bool)), 5), d))
    target = draw(coordinates(d))
    x0 = draw(st.one_of(st.just(Fraction(0)), coordinates(d)))
    g_axis = draw(st.sampled_from((Fraction(1), Fraction(7, 3), 2)))
    eps = draw(st.one_of(st.integers(1, 16).map(lambda e: Fraction(1, 10**e)), epsilons))
    return target, theta, x0, eps, g_axis


@SETTINGS
@given(circle_cases())
@example((Fraction(1, 3), THETA, Fraction(0), Fraction(1, 10**11), Fraction(1)))
@example((QuadScalar(Fraction(1, 4), 0, 7), THETA, frac(3 * THETA), 1e-6, 2))
@example((Fraction(1, 4), THETA, Fraction(1, 4), Fraction(1, 10**6), Fraction(1)))  # k == 0
def test_circle_hit_matches_the_operator_form(case):
    target, theta, x0, eps, g_axis = case
    check(circle_density_hit, oracles.circle_hit, target, theta, x0, eps, g_axis)
    # too few terms: the same ValueError on both sides, or the same k == 0 hit
    check(circle_density_hit, oracles.circle_hit, target, theta, x0, eps, g_axis, max_terms=1)


def test_circle_field_mismatch_is_refused_as_by_the_operators():
    for target, x0 in ((frac(QuadScalar(0, 1, 3)), Fraction(0)),
                       (Fraction(1, 3), frac(QuadScalar(0, 1, 5))),
                       (frac(QuadScalar(Fraction(1, 3), 1, 3)), frac(QuadScalar(0, 1, 3)))):
        check(circle_density_hit, oracles.circle_hit, target, THETA, x0, Fraction(1, 10**6))
        assert outcome(circle_density_hit, target, THETA, x0, Fraction(1, 10**6))[1] is FieldMismatchError


# -- membership derivations on triples --------------------------------------------------


@SETTINGS
@given(density_cases(), st.integers(-5, 5), st.sampled_from(("none", "direct", "inverted")))
def test_branch_derivation_matches_the_operator_form(case, m, member):
    target, line, y0, _, _ = case
    y0 = y0 or TorusPoint.origin()
    if member != "none":
        # a target on the orbit: g(t) + y0 or g(t) - y0
        base = y0 if member == "direct" else y0.invert()
        target = line.point(Fraction(m, 3) + target.u1).translate(base)
    got = [check(derive_branch, oracles.branch_derivation, target, line, y0, b) for b in ("direct", "inverted")]
    if member != "none":
        assert got[member == "inverted"].member


@SETTINGS
@given(circle_cases(), st.integers(-5, 5), st.booleans())
def test_circle_branch_derivation_matches_the_operator_form(case, k, member):
    target, theta, x0, _, _ = case
    if member:
        target = frac(x0 + k * theta)
    got = [check(_derive_circle_branch, oracles.circle_branch_derivation, target, theta, x0, b)
           for b in ("direct", "inverted")]
    assert got[0].member or not member


# -- the first-entry search on unreduced triples ------------------------------------------


@pytest.mark.parametrize("d", FIELDS)
def test_deep_chain_on_unreduced_triples(d):
    # width 2^-200 takes the search about 200 levels down, where the
    # unreduced triples are longest; the QuadScalar level loop reduces
    # every value and must give the same k
    alpha = frac(QuadScalar(Fraction(1, 7), Fraction(3, 5), d))
    width = Fraction(1, 2**200)
    for j in (0, 1, 2, 37, 500, 4321):
        # k = j lands exactly on 0, and no k < BRUTE_K comes within 2^-200 of it
        c = frac(-j * alpha)
        assert _first_entry(alpha, c, width) == first_entry_levels(alpha, c, width) == j
        if j < 600:
            assert brute_first(alpha, c, lambda v: v < width) == j
    deep = [_first_entry(alpha, Fraction(i, 17), width) for i in range(1, 17)]
    assert deep == [first_entry_levels(alpha, Fraction(i, 17), width) for i in range(1, 17)]
    assert min(deep) > BRUTE_K and max(deep) > 2**150


OPERATORS = {
    QuadScalar: ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                 "__rtruediv__", "__neg__", "__pow__", "reciprocal", "floor", "floor_frac"),
    Fraction: ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
               "__rtruediv__", "__neg__", "__pow__", "__floor__"),
}


def _count_operators(monkeypatch) -> dict:
    calls = {}
    for cls, names in OPERATORS.items():
        for name in names:
            original = getattr(cls, name)

            def counted(*args, _key=f"{cls.__name__}.{name}", _original=original):
                calls[_key] = calls.get(_key, 0) + 1
                return _original(*args)

            monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("gram", GRAMS, ids=["I", "213", "544"])
def test_searches_use_no_scalar_operators(gram, monkeypatch):
    y0 = TorusPoint(QuadScalar(Fraction(1, 3), Fraction(1, 4), 2).frac(), Fraction(1, 7))
    targets = [TorusPoint(Fraction(j, 13), Fraction(j * j % 11, 11)) for j in range(1, 12)]
    ladder = [Fraction(1, 10**e) for e in (2, 4, 6, 7, 12)]
    circles = [(Fraction(j, 13), eps) for j in range(1, 12) for eps in (Fraction(1, 10**6), Fraction(1, 10**16))]
    # warm: the rotation chains, convergents, sharp indices and tolerances
    want = [torus_density_hit(t, LINE, y0, eps, gram, 10**30) for t in targets for eps in ladder]
    want_c = [circle_density_hit(t, THETA, Fraction(0), eps, gram.g11) for t, eps in circles]
    calls = _count_operators(monkeypatch)
    got = [torus_density_hit(t, LINE, y0, eps, gram, 10**30) for t in targets for eps in ladder]
    got_c = [circle_density_hit(t, THETA, Fraction(0), eps, gram.g11) for t, eps in circles]
    monkeypatch.undo()
    assert calls == {}
    assert all(map(same, got, want)) and all(map(same, got_c, want_c))
    assert max(h.k for h in got) > 10**10


def test_calls_go_through_the_module_globals(monkeypatch):
    # bench/tracer.py rebinds these names and books its counts on them
    seen = []

    def wrap(name):
        original = getattr(orbit, name)

        def wrapped(*args, **kwargs):
            seen.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(orbit, name, wrapped)

    for name in ("torus_density_hit", "torus_distance_sq", "_circle_dist_sq"):
        wrap(name)
    target = TorusPoint(Fraction(1, 3), Fraction(1, 5))
    rep = density_report(target, LINE, [Fraction(1, 100), Fraction(1, 10**6)])
    assert seen.count("torus_density_hit") == 2
    assert seen.count("torus_distance_sq") >= 2
    seen.clear()
    non_closure_report(target, LINE, [Fraction(1, 100)])
    assert seen[0] == "torus_density_hit" and "torus_distance_sq" in seen
    seen.clear()
    circle_density_hit(Fraction(1, 3), THETA, eps=Fraction(1, 10**9))
    assert seen == ["_circle_dist_sq"]
    assert rep.passed


# -- eps <= 0 --------------------------------------------------------------------------------

BAD_EPS = (0, 0.0, -0.01, Fraction(-1, 100))


@pytest.mark.parametrize("eps", BAD_EPS, ids=repr)
def test_nonpositive_eps_is_refused(eps):
    target = TorusPoint(Fraction(1, 3), Fraction(1, 5))
    with pytest.raises(ValueError, match="eps must be positive"):
        torus_density_hit(target, LINE, eps=eps, budget=10**6)
    with pytest.raises(ValueError, match="eps must be positive"):
        density_report(target, LINE, [Fraction(1, 100), eps], budget=10**6)
    with pytest.raises(ValueError, match="eps must be positive"):
        non_closure_report(target, LINE, [eps], budget=10**6)
    with pytest.raises(ValueError, match="eps must be positive"):
        circle_density_hit(Fraction(1, 3), THETA, eps=eps)


def test_cli_still_refuses_nonpositive_eps(capsys):
    assert main(["density", "--epsilons", "0"]) == 2
    assert "must be positive" in capsys.readouterr().err
