"""Exact checks compute float values only for what their reports show.

`check_metric_axioms` in exact mode computes a distance's float value (a
120-bit root) only for a violation it records; an axiom that holds adds 0.0
to the maximum error.  `verify_isometry` computes the error of a pair only
when its distance components differ.  The oracles in `oracles.py` compute
every value, as the checks once did; reports must not tell the two apart.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torusglue import (
    EXACT,
    AxiomReport,
    GluedPoint,
    GluingParams,
    GramMatrix,
    LineIsometry,
    OneParamSubgroup,
    QuadScalar,
    TorusPoint,
    WindingPoint,
    canonical_json,
    check_metric_axioms,
    lift_line_isometry,
    verify_isometry,
)
from torusglue.sampling import random_product_isometry, rng_for

from oracles import exact_axiom_log, exact_isometry_max_error

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

PARAMS = {
    "above": GluingParams(Fraction(1), Fraction(3, 2)),
    "at": GluingParams(Fraction(1), Fraction(2)),
    "below": GluingParams(Fraction(1, 2), Fraction(2), strict=False),
}
GRAMS = (GramMatrix.identity(), GramMatrix(2, 1, 3))


def scalars(d, whole):
    """Exact a + b*sqrt(d) with small rational a and b, |a| up to `whole` + 1."""
    rational = st.builds(Fraction, st.integers(-8 * (whole + 1), 8 * (whole + 1)), st.integers(1, 8))
    radical = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 8))
    return st.builds(lambda a, b: QuadScalar(a, b, d), rational, radical)


def torus_points(d):
    unit = scalars(d, 0).map(lambda x: x.frac())
    return st.builds(TorusPoint, unit, unit)


@st.composite
def glued_points(draw, d):
    y = draw(torus_points(d))
    if draw(st.booleans()):
        return GluedPoint.compact(y)
    return GluedPoint.cylinder(y, draw(scalars(d, 6)))


@st.composite
def triples(draw, d):
    """Triples over sqrt(d): unrelated points, b == a, c == a, or the sheet
    detour, whose cost is exactly 2R = M when M = 2."""
    kind = draw(st.sampled_from(("random", "b is a", "c is a", "detour")))
    a = draw(glued_points(d))
    if kind == "detour":
        a = GluedPoint.cylinder(a.y, draw(scalars(d, 6)))
        b = GluedPoint.cylinder(draw(torus_points(d)), a.t + 2 + draw(scalars(d, 0)).frac())
        return a, b, GluedPoint.compact(a.y)
    b = a if kind == "b is a" else draw(glued_points(d))
    c = a if kind == "c is a" else draw(glued_points(d))
    return a, b, c


exact_triples = st.sampled_from((2, 3)).flatmap(lambda d: st.lists(triples(d), min_size=1, max_size=4))


@SETTINGS
@given(exact_triples, st.sampled_from(sorted(PARAMS)), st.sampled_from(GRAMS))
def test_axiom_report_matches_the_every_value_oracle(triples, params_name, gram):
    params = PARAMS[params_name]
    rep = check_metric_axioms(0, params, gram, EXACT, extra_triples=triples)
    violations, total, max_err = exact_axiom_log(triples, params, gram)
    assert rep.max_abs_error == max_err
    assert rep.violations == violations and rep.violations_total == total
    ref = AxiomReport(params, EXACT, 0, 8 * len(triples), violations, total, max_err, gram, 0)
    assert canonical_json(rep.describe()) == canonical_json(ref.describe())


def test_the_oracle_sees_violations_below_the_threshold():
    # 2R < M: the sheet detour is a violation, whose values both sides compute
    y = TorusPoint(Fraction(1, 3), Fraction(1, 5))
    a, b = GluedPoint.cylinder(y, 0), GluedPoint.cylinder(TorusPoint.origin(), 3)
    triple = (a, b, GluedPoint.compact(y))
    violations, total, max_err = exact_axiom_log([triple], PARAMS["below"], GRAMS[1])
    assert total == 1 and max_err > 0.9
    rep = check_metric_axioms(0, PARAMS["below"], GRAMS[1], EXACT, extra_triples=[triple])
    assert (rep.violations, rep.violations_total, rep.max_abs_error) == (violations, total, max_err)


def _scaled_heights(p):
    """Doubles heights: not an isometry, so its pairs have nonzero errors."""
    if p.is_compact:
        return p
    if isinstance(p, WindingPoint):
        return WindingPoint.line(2 * p.t)
    return GluedPoint.cylinder(p.y, 2 * p.t)


@SETTINGS
@given(
    st.integers(0, 2**32),
    st.sampled_from((2, 3)),
    st.sampled_from(("lift", "product", "scaled winding", "scaled glued")),
    st.sampled_from(("above", "at")),
)
def test_verify_isometry_max_error_matches_the_every_value_oracle(seed, d, kind, params_name):
    params, gram = PARAMS[params_name], GRAMS[1]
    line = OneParamSubgroup.canonical(QuadScalar(0, 1, d))
    if kind == "lift":
        space, apply_map = "winding", lift_line_isometry(LineIsometry(-1, Fraction(2, 7)), line).apply
    elif kind == "product":
        space, apply_map = "glued", random_product_isometry(rng_for(seed, 1), d).apply
    else:
        space, apply_map = kind.split()[1], _scaled_heights
    kwargs = {"seed": seed, "space": space, "subgroup": line, "d": d}
    rep = verify_isometry(apply_map, 8, params, gram, mode=EXACT, **kwargs)
    assert rep.max_error == exact_isometry_max_error(apply_map, 8, params, gram, **kwargs)
    if kind in ("lift", "product"):
        assert rep.passed and rep.max_error == 0.0
    else:  # a sample may hold no pair of cylinder points whose distance changes
        assert rep.passed == (rep.max_error == 0.0)


def test_a_failing_map_reports_the_oracles_nonzero_error():
    params, gram = PARAMS["at"], GRAMS[1]
    line = OneParamSubgroup.canonical(QuadScalar(0, 1, 3))
    for space in ("glued", "winding"):
        kwargs = {"seed": 0, "space": space, "subgroup": line, "d": 3}
        rep = verify_isometry(_scaled_heights, 8, params, gram, mode=EXACT, **kwargs)
        assert not rep.passed and rep.max_error > 0.1
        assert rep.max_error == exact_isometry_max_error(_scaled_heights, 8, params, gram, **kwargs)
