"""Two-component glued space: the metric, its failure threshold, nearest sets."""

import math
from fractions import Fraction

import pytest

from torusglue.gluing import (
    Distance,
    GluedPoint,
    GluingParams,
    TriangleWitness,
    WindingPoint,
    check_metric_axioms,
    glued_distance,
    grid_nearest_in_compact,
    grid_nearest_on_line,
    nearest_in_compact,
    nearest_line_set,
    nearest_on_line,
    triangle_counterexample,
    winding_distance,
)
from torusglue.numerics import (
    EXACT,
    FLOAT,
    ExactnessError,
    QuadScalar,
    scalar_min,
    sign_of,
    sqrt_as_float,
)
from torusglue.sampling import random_glued_point, rng_for
from torusglue.torus import GramMatrix, OneParamSubgroup, TorusPoint, torus_distance_sq

SQRT2 = QuadScalar(0, 1, 2)
PARAMS = GluingParams(Fraction(1), Fraction(2))
GRAM = GramMatrix.identity()


def test_params_validation():
    p = GluingParams(Fraction(2, 5), Fraction(4, 5))
    assert not p.is_degenerate()
    with pytest.raises(ValueError):
        GluingParams(Fraction(2, 5), Fraction(1))
    loose = GluingParams(Fraction(2, 5), Fraction(1), strict=False)
    assert loose.is_degenerate()
    with pytest.raises(ValueError):
        GluingParams(Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        GluingParams(Fraction(1), Fraction(0))


def test_distance_cases():
    y0 = TorusPoint.origin()
    y1 = TorusPoint(Fraction(1, 2), Fraction(0))
    # same component, compact: just the torus metric
    d = glued_distance(GluedPoint.compact(y0), GluedPoint.compact(y1), PARAMS, GRAM)
    assert d.torus_sq == Fraction(1, 4) and d.offset == 0
    assert d.value == 0.5
    # cross components: torus metric plus R regardless of height
    for t in (Fraction(0), Fraction(-500), SQRT2):
        d = glued_distance(GluedPoint.compact(y0), GluedPoint.cylinder(y1, t), PARAMS, GRAM)
        assert d.torus_sq == Fraction(1, 4) and d.offset == PARAMS.R
    # cylinder heights saturate at M
    d = glued_distance(
        GluedPoint.cylinder(y0, Fraction(0)), GluedPoint.cylinder(y0, Fraction(3, 2)), PARAMS, GRAM
    )
    assert d.offset == Fraction(3, 2)
    d = glued_distance(
        GluedPoint.cylinder(y0, Fraction(0)), GluedPoint.cylinder(y0, Fraction(100)), PARAMS, GRAM
    )
    assert d.offset == PARAMS.M
    assert d.value == 2.0


def test_distance_value_and_interval():
    d = Distance(Fraction(2), Fraction(1, 2))
    lo, hi = d.interval()
    assert lo <= Fraction(d.value) or math.isclose(float(lo), d.value, rel_tol=1e-15)
    assert math.isclose(d.value, math.sqrt(2) + 0.5, rel_tol=1e-14)
    assert not d.is_zero()
    assert Distance(Fraction(0), Fraction(0)).is_zero()
    assert d.same_components(Distance(Fraction(2), Fraction(1, 2)))
    assert not d.same_components(Distance(Fraction(2), Fraction(1, 3)))


def test_axioms_exact_small_sample():
    rep = check_metric_axioms(150, PARAMS, GRAM, mode=EXACT, seed=7)
    assert rep.passed
    assert rep.violations_total == 0
    assert rep.checks > 0


def test_axioms_float_batch():
    rep = check_metric_axioms(20000, PARAMS, GRAM, mode=FLOAT, seed=3)
    assert rep.passed
    assert rep.max_abs_error <= FLOAT.eps


def test_axioms_other_valid_params():
    for r, m in ((Fraction(1), Fraction(1)), (Fraction(3), Fraction(2)), (Fraction(1, 2), Fraction(1))):
        rep = check_metric_axioms(80, GluingParams(r, m), GRAM, mode=EXACT, seed=11)
        assert rep.passed, (r, m)


def test_axioms_flag_degenerate_params():
    bad = GluingParams(Fraction(2, 5), Fraction(1), strict=False)
    wit = triangle_counterexample(bad, GRAM)
    rep = check_metric_axioms(
        0, bad, GRAM, mode=EXACT, extra_triples=[wit.as_triple()]
    )
    assert not rep.passed
    assert rep.violations_total >= 1
    assert rep.violations[0].kind == "triangle"


def test_exact_mode_refuses_float_points():
    def float_point(rng):
        return random_glued_point(rng, 6, exact=False)

    bad = GluingParams(Fraction(2, 5), Fraction(1), strict=False)
    a, b, c = (GluedPoint(TorusPoint(0.0, 0.0), t) for t in (0.0, 1.0, None))
    with pytest.raises(ExactnessError):
        check_metric_axioms(200, PARAMS, GRAM, mode=EXACT, seed=5, sampler=float_point)
    with pytest.raises(ExactnessError):
        check_metric_axioms(0, bad, GRAM, mode=EXACT, extra_triples=[(a, b, c)])
    # one float coordinate is enough
    half = GluedPoint.cylinder(TorusPoint(Fraction(1, 3), 0.5), Fraction(0))
    with pytest.raises(ExactnessError):
        check_metric_axioms(0, PARAMS, GRAM, mode=EXACT, extra_triples=[(half, half, half)])

    # float mode takes the same inputs and gives the verdicts exact mode once
    # gave them by falling back to the tolerances
    rep = check_metric_axioms(200, PARAMS, GRAM, mode=FLOAT, seed=5, sampler=float_point)
    assert rep.passed and rep.checks == 8 * 200
    rep = check_metric_axioms(0, bad, GRAM, mode=FLOAT, extra_triples=[(a, b, c)])
    assert [v.kind for v in rep.violations] == ["triangle"]
    assert rep.violations[0].slack == pytest.approx(0.2)
    assert rep.violations[0].a is a and rep.violations[0].c is c


def test_exact_nearest_refuses_float_points():
    y = TorusPoint(0.25, Fraction(1, 3))
    with pytest.raises(ExactnessError):
        nearest_in_compact(GluedPoint.cylinder(y, Fraction(1)), PARAMS, GRAM, grid_n=10)
    with pytest.raises(ExactnessError):
        nearest_in_compact(GluedPoint.cylinder(TorusPoint.origin(), 0.5), PARAMS, GRAM, grid_n=10)
    with pytest.raises(ExactnessError):
        nearest_line_set(y, PARAMS, GRAM, grid_n=10)
    # float mode answers for the same points
    assert nearest_in_compact(GluedPoint.cylinder(y, 1.0), PARAMS, GRAM, grid_n=10, mode=FLOAT).y == y
    assert nearest_line_set(y, PARAMS, GRAM, grid_n=10, mode=FLOAT).line_constant


def test_counterexample_structure():
    bad = GluingParams(Fraction(2, 5), Fraction(1), strict=False)
    wit = triangle_counterexample(bad, GRAM)
    assert isinstance(wit, TriangleWitness)
    # the long way stays on the cylinder, the short cut hops through the torus
    assert wit.d_ab.offset == bad.M and sign_of(wit.d_ab.torus_sq) == 0
    assert wit.d_ac.offset == bad.R and wit.d_cb.offset == bad.R
    assert wit.slack == bad.M - 2 * bad.R == Fraction(1, 5)
    lhs = float(wit.d_ab.offset)
    rhs = float(wit.d_ac.offset) + float(wit.d_cb.offset)
    assert lhs > rhs


def test_counterexample_requires_degenerate_params():
    with pytest.raises(ValueError):
        triangle_counterexample(PARAMS)


def test_winding_distance_embeds():
    line = OneParamSubgroup.canonical(SQRT2)
    a = WindingPoint.line(Fraction(0))
    b = WindingPoint.line(Fraction(1, 4))
    d = winding_distance(a, b, PARAMS, GRAM, line)
    # heights differ by 1/4; torus part is the lattice distance between g(0), g(1/4)
    assert d.offset == Fraction(1, 4)
    assert d.torus_sq == GRAM.form(Fraction(1, 4), SQRT2 / 4)
    # compact copy of the torus sits at distance R from the graph
    c = WindingPoint.torus(TorusPoint.origin())
    d2 = winding_distance(a, c, PARAMS, GRAM, line)
    assert d2.offset == PARAMS.R and sign_of(d2.torus_sq) == 0


def test_nearest_in_compact_closed_form():
    for i in range(25):
        rng = rng_for(301, i)
        p = random_glued_point(rng, 6)
        if p.is_compact:
            p = GluedPoint.cylinder(p.y, Fraction(rng.randrange(-5, 6), 2))
        res = nearest_in_compact(p, PARAMS, GRAM, grid_n=40)
        # the foot of the projection is p.y itself, at distance exactly R
        assert res.y == p.y
        assert sign_of(res.achieved.torus_sq) == 0 and res.achieved.offset == PARAMS.R
        assert sign_of(res.gap.sq) > 0  # every other grid point is strictly farther
        _, oracle = grid_nearest_in_compact(p, PARAMS, GRAM, grid_n=40)
        assert oracle >= res.achieved.value - 1e-9
    with pytest.raises(ValueError):
        nearest_in_compact(GluedPoint.compact(TorusPoint.origin()), PARAMS, GRAM)


def test_nearest_line_set_constant_in_t():
    y = TorusPoint(Fraction(1, 3), Fraction(2, 7))
    res = nearest_line_set(y, PARAMS, GRAM, grid_n=40)
    assert res.line_constant
    assert sign_of(res.margin.sq) > 0
    assert res.base.offset == PARAMS.R


def test_nearest_on_line_matches_grid():
    p = GluedPoint.cylinder(TorusPoint(Fraction(1, 5), Fraction(3, 5)), Fraction(7, 4))
    y2 = TorusPoint(Fraction(2, 3), Fraction(1, 9))
    res = nearest_on_line(p, y2, PARAMS, GRAM)
    assert res.point.t == p.t  # the minimizing height equals the query height
    _, oracle = grid_nearest_on_line(p, y2, PARAMS, GRAM, t_n=201)
    assert abs(oracle - res.achieved.value) <= 1e-9


def _loop_grid_nearest_on_line(p, y2, params, gram, t_n, span=None):
    # a per-step scan; the offset s - p.t is taken exactly, so a float p.t
    # does not cancel against a span that dwarfs it
    if span is None:
        span = 2 * params.M
    base = sqrt_as_float(torus_distance_sq(p.y, y2, gram))
    step = 2 * span / (t_n - 1)
    best_t, best_v = None, None
    for j in range(t_n):
        offset = j * step - span
        s = p.t + offset
        v = base + float(scalar_min(abs(offset), params.M))
        if best_v is None or v < best_v:
            best_t, best_v = s, v
    return best_t, float(best_v)


@pytest.mark.parametrize("t_n", [3, 8, 41, 401])
@pytest.mark.parametrize("d", [2, 3])
def test_grid_nearest_on_line_matches_loop(t_n, d):
    rng = rng_for(4, t_n)
    irrational_cap = GluingParams(3, 1 + QuadScalar(0, 1, d))
    for i in range(9):
        exact = i % 3 != 2
        p = random_glued_point(rng, 3, exact=exact, d=d)
        if p.is_compact:
            p = GluedPoint.cylinder(p.y, Fraction(i, 7) if exact else rng.uniform(-3, 3))
        y2 = random_glued_point(rng, 3, exact=exact, d=d).y
        for params in (PARAMS, GluingParams(Fraction(3), Fraction(7, 3)), irrational_cap):
            for span in (None, Fraction(-5, 3)):
                got = grid_nearest_on_line(p, y2, params, GRAM, t_n, span)
                assert got == _loop_grid_nearest_on_line(p, y2, params, GRAM, t_n, span)


@pytest.mark.parametrize("m", [Fraction(2), Fraction(10**300)])
def test_grid_nearest_on_line_returns_a_float_height_at_the_center(m):
    # the center offset j*step - span is exactly 0, so p.t comes back as itself
    p = GluedPoint.cylinder(TorusPoint(0.25, 0.5), 0.7)
    y2 = TorusPoint(0.375, 0.125)
    t, v = grid_nearest_on_line(p, y2, GluingParams(m, m), GRAM, 401)
    assert type(t) is float and t == 0.7
    assert v == sqrt_as_float(torus_distance_sq(p.y, y2, GRAM))


def test_grid_nearest_on_line_keeps_first_float_minimum():
    # far from y2 the gaps near the middle vanish in the float sum, so several
    # heights tie and the first of them is the answer
    far = GramMatrix(Fraction(10**40), Fraction(0), Fraction(10**40))
    p = GluedPoint.cylinder(TorusPoint(Fraction(0), Fraction(0)), Fraction(1, 3))
    y2 = TorusPoint(Fraction(1, 2), Fraction(1, 2))
    got = grid_nearest_on_line(p, y2, PARAMS, far, 401)
    assert got == _loop_grid_nearest_on_line(p, y2, PARAMS, far, 401)
    assert got[0] < p.t


def test_winding_point_validation():
    with pytest.raises(ValueError):
        WindingPoint(y=TorusPoint.origin(), t=Fraction(1))  # both sheets at once
    with pytest.raises(ValueError):
        WindingPoint()
