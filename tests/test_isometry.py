"""Isometry groups of both spaces: lifts, verification, decomposition.

Decomposition is exercised on genuine product isometries and on four
impostor maps, each of which must be rejected with its own error class.
Counting black boxes pin its evaluation contract: each distinct point is
mapped once, the cross-check reuses the recorded images, and the seeded
probes are drawn only after the fixed ones pass.
"""

from fractions import Fraction

import pytest

import torusglue.isometry as isometry
from torusglue.gluing import GluedPoint, GluingParams, WindingPoint
from torusglue.isometry import (
    ComponentSwapError,
    LiftedIsometry,
    LineActionError,
    LineIsometry,
    ProductFormError,
    ProductIsometry,
    TorusActionError,
    TorusIsometry,
    decompose_isometry,
    lift_line_isometry,
    line_transitivity_witness,
    subtorus_isometries,
    verify_isometry,
)
from torusglue.numerics import EXACT, FLOAT, QuadScalar, frac, sign_of
from torusglue.sampling import random_product_isometry, random_torus_point, rng_for
from torusglue.torus import GramMatrix, OneParamSubgroup, Subtorus, TorusPoint

SQRT2 = QuadScalar(0, 1, 2)
PARAMS = GluingParams(Fraction(1), Fraction(2))
GRAM = GramMatrix.identity()
LINE = OneParamSubgroup.canonical(SQRT2)


def test_line_isometry_algebra():
    f = LineIsometry.translation(Fraction(3, 2))
    g = LineIsometry.reflection(Fraction(1))
    assert f.apply(Fraction(1, 2)) == Fraction(2)
    assert g.apply(Fraction(1, 2)) == Fraction(3, 2)  # mirror about 1
    assert g.apply(g.apply(Fraction(1, 2))) == Fraction(1, 2)
    fg = f.compose(g)
    assert fg.apply(Fraction(0)) == f.apply(g.apply(Fraction(0)))
    assert f.compose(f.inverse()) == LineIsometry.identity()
    assert g.compose(g) == LineIsometry.identity()
    with pytest.raises(ValueError):
        LineIsometry(2, Fraction(0))


def test_torus_isometry_algebra():
    x = TorusPoint(Fraction(1, 3), Fraction(2, 5))
    tr = TorusIsometry.translation(x)
    inv = TorusIsometry.inversion()
    y = TorusPoint(Fraction(1, 7), Fraction(5, 6))
    assert tr.apply(y) == y.translate(x)
    assert inv.apply(inv.apply(y)) == y
    both = tr.compose(inv)
    assert both.apply(y) == x.translate(y.invert())
    assert both.compose(both.inverse()).apply(y) == y
    assert tr.inverse().apply(tr.apply(y)) == y


def test_lift_forces_torus_part():
    for shift in (Fraction(0), Fraction(1), Fraction(-1, 3), SQRT2 / 2):
        iso = lift_line_isometry(LineIsometry.translation(shift), LINE)
        assert iso.torus_part.x == LINE.point(shift)
        assert not iso.torus_part.inverts
        refl = lift_line_isometry(LineIsometry(-1, shift), LINE)
        assert refl.torus_part.inverts
    wrong = TorusIsometry.translation(TorusPoint(Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        LiftedIsometry(LineIsometry.translation(Fraction(1, 3)), LINE, wrong)


def test_lift_preserves_graph():
    # the graph point over t must land on the graph point over the image of t
    for i in range(50):
        rng = rng_for(401, i)
        shift = Fraction(rng.randrange(-24, 25), rng.randrange(1, 9))
        sign = rng.choice((1, -1))
        iso = lift_line_isometry(LineIsometry(sign, shift), LINE)
        t = Fraction(rng.randrange(-24, 25), rng.randrange(1, 9))
        s = iso.line_part.apply(t)
        assert iso.torus_part.apply(LINE.point(t)) == LINE.point(s)


def test_lift_is_isometry_exact():
    iso = lift_line_isometry(LineIsometry.translation(Fraction(5, 3)), LINE)
    rep = verify_isometry(
        iso.apply, 200, PARAMS, GRAM, mode=EXACT, seed=5, space="winding", subgroup=LINE
    )
    assert rep.passed and rep.max_error == 0.0
    refl = lift_line_isometry(LineIsometry(-1, SQRT2), LINE)
    rep = verify_isometry(
        refl.apply, 200, PARAMS, GRAM, mode=EXACT, seed=6, space="winding", subgroup=LINE
    )
    assert rep.passed and rep.failures_total == 0


def test_lift_compose_and_inverse():
    a = lift_line_isometry(LineIsometry.translation(Fraction(1, 2)), LINE)
    b = lift_line_isometry(LineIsometry(-1, Fraction(2, 7)), LINE)
    ab = a.compose(b)
    p = WindingPoint.line(Fraction(3, 5))
    assert ab.apply(p) == a.apply(b.apply(p))
    q = WindingPoint.torus(TorusPoint(Fraction(1, 9), Fraction(4, 9)))
    assert ab.apply(q) == a.apply(b.apply(q))
    ident = a.compose(a.inverse())
    assert ident.line_part == LineIsometry.identity()
    assert ident.apply(p) == p
    other = OneParamSubgroup.canonical(QuadScalar(0, 2, 2))
    with pytest.raises(ValueError):
        a.compose(lift_line_isometry(LineIsometry.identity(), other))


def test_transitivity_witness():
    for t, s in ((Fraction(0), Fraction(1)), (Fraction(-3, 2), SQRT2), (SQRT2, SQRT2)):
        iso = line_transitivity_witness(t, s, LINE)
        assert iso.apply(WindingPoint.line(t)).t == s


def test_product_isometry_preserves_glued_distance():
    for i in range(40):
        rng = rng_for(402, i)
        iso = random_product_isometry(rng)
        rep = verify_isometry(iso.apply, 60, PARAMS, GRAM, mode=EXACT, seed=1000 + i)
        assert rep.passed, rep.describe()
    rep = verify_isometry(
        ProductIsometry.identity().apply, 500, PARAMS, GRAM, mode=FLOAT, seed=2
    )
    assert rep.passed


def test_decompose_roundtrip():
    for i in range(40):
        rng = rng_for(403, i)
        iso = random_product_isometry(rng)
        got = decompose_isometry(iso.apply, PARAMS, GRAM, mode=EXACT, seed=i)
        assert got.line_part == iso.line_part
        assert got.torus_part == iso.torus_part


def test_decompose_rejects_component_swap():
    # sends a compact point to the cylinder; no product isometry does that
    def swap(p: GluedPoint) -> GluedPoint:
        if p.is_compact:
            return GluedPoint.cylinder(p.y, Fraction(0))
        return GluedPoint.compact(p.y)

    with pytest.raises(ComponentSwapError):
        decompose_isometry(swap, PARAMS, GRAM)


def test_decompose_rejects_height_scaling():
    def stretch(p: GluedPoint) -> GluedPoint:
        if p.is_compact:
            return p
        return GluedPoint.cylinder(p.y, 2 * p.t)

    with pytest.raises(LineActionError):
        decompose_isometry(stretch, PARAMS, GRAM)


def test_decompose_rejects_fiber_dependent_shift():
    # translates different fibers by different heights: not a product map
    def sheared(p: GluedPoint) -> GluedPoint:
        if p.is_compact:
            return p
        bump = Fraction(1) if sign_of(p.y.u1) == 0 else Fraction(2)
        return GluedPoint.cylinder(p.y, p.t + bump)

    with pytest.raises(ProductFormError):
        decompose_isometry(sheared, PARAMS, GRAM)


def test_decompose_rejects_nonrigid_torus_map():
    def crumple(p: GluedPoint) -> GluedPoint:
        y = TorusPoint(p.y.u1 * p.y.u1, p.y.u2)
        if p.is_compact:
            return GluedPoint.compact(y)
        return GluedPoint.cylinder(y, p.t)

    with pytest.raises(TorusActionError):
        decompose_isometry(crumple, PARAMS, GRAM)


def test_decompose_rejects_sheet_dependent_torus_action():
    # translation on the compact sheet, a different one on the cylinder
    a = TorusIsometry.translation(TorusPoint(Fraction(1, 4), Fraction(0)))
    b = TorusIsometry.translation(TorusPoint(Fraction(0), Fraction(1, 4)))

    def two_faced(p: GluedPoint) -> GluedPoint:
        if p.is_compact:
            return GluedPoint.compact(a.apply(p.y))
        return GluedPoint.cylinder(b.apply(p.y), p.t)

    with pytest.raises(ProductFormError):
        decompose_isometry(two_faced, PARAMS, GRAM)


def test_subtorus_family():
    circle = Subtorus(0)
    elems = subtorus_isometries(LINE, circle, -3, 3)
    assert len(elems) == 14  # 7 values of k, two kinds each
    for e in elems:
        assert e.kind in ("translation", "reflection")
        assert e.parameter == e.k / SQRT2
        # anchor really sits on the circle and the recorded shift matches
        anchor = LINE.point(e.parameter)
        assert circle.contains(anchor)
        assert e.circle_shift == frac(e.k / SQRT2)
        # the induced action maps the circle into itself
        for s in (Fraction(0), Fraction(1, 3), Fraction(7, 8)):
            img = e.iso.torus_part.apply(circle.point(s))
            assert circle.contains(img)
            want = frac(e.circle_shift + s) if e.kind == "translation" else frac(e.circle_shift - s)
            assert circle.coordinate(img) == want
    ks = sorted({e.k for e in elems})
    assert ks == list(range(-3, 4))
    with pytest.raises(ValueError):
        subtorus_isometries(LINE, Subtorus(1), 0, 1)
    with pytest.raises(ValueError):
        subtorus_isometries(OneParamSubgroup(Fraction(2), SQRT2), circle, 0, 1)


def test_verify_isometry_catches_fake():
    def fake(p: GluedPoint) -> GluedPoint:
        if p.is_compact:
            return p
        return GluedPoint.cylinder(p.y, p.t / 2)

    rep = verify_isometry(fake, 100, PARAMS, GRAM, mode=EXACT, seed=9)
    assert not rep.passed
    assert rep.failures_total > 0
    assert rep.failures[0].d_before is not None


def counting(apply_map):
    """apply_map with the list of points it was called on."""
    calls = []

    def wrapped(p):
        calls.append(p)
        return apply_map(p)

    return wrapped, calls


@pytest.mark.parametrize("d", [2, 3])
def test_decompose_maps_each_distinct_point_once(d):
    for i in range(6):
        iso = random_product_isometry(rng_for(404, i), d)
        apply_map, calls = counting(iso.apply)
        assert decompose_isometry(apply_map, PARAMS, GRAM, seed=i, d=d) == iso
        assert len(calls) == 32  # 8 probes, each on the torus and at 3 heights
        assert len(set(calls)) == 32


def test_swap_is_rejected_before_any_seeded_draw(monkeypatch):
    draws = []

    def draw(*args, **kwargs):
        draws.append(args)
        return random_torus_point(*args, **kwargs)

    monkeypatch.setattr(isometry, "random_torus_point", draw)
    def swap(p):
        return GluedPoint.cylinder(p.y, Fraction(0)) if p.is_compact else GluedPoint.compact(p.y)

    swap, calls = counting(swap)
    with pytest.raises(ComponentSwapError):
        decompose_isometry(swap, PARAMS, GRAM, seed=5)
    assert len(calls) == 1 and draws == []
    iso = random_product_isometry(rng_for(405, 0))
    assert decompose_isometry(iso.apply, PARAMS, GRAM, seed=5) == iso
    assert len(draws) == 4


def test_decompose_checks_d_before_mapping():
    apply_map, calls = counting(ProductIsometry.identity().apply)
    with pytest.raises(ValueError, match="square-free"):
        decompose_isometry(apply_map, PARAMS, GRAM, d=4)
    assert calls == []


def wrong_at(iso, probe, t, part):
    """iso.apply, except at the cylinder point (probe, t), whose torus or
    height component is moved."""

    def apply_map(p):
        img = iso.apply(p)
        if p.is_compact or p.y != probe or p.t != t:
            return img
        if part == "torus":
            return GluedPoint.cylinder(img.y.translate(TorusPoint(Fraction(1, 2), Fraction(0))), img.t)
        return GluedPoint.cylinder(img.y, img.t + 1)

    return apply_map


@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize("t", [Fraction(0), Fraction(1), Fraction(1, 3)])
def test_decompose_checks_the_torus_part_of_reused_cylinder_images(index, t):
    iso = random_product_isometry(rng_for(406, index))
    probe = isometry._PROBES[index]
    with pytest.raises(ProductFormError):
        decompose_isometry(wrong_at(iso, probe, t, "torus"), PARAMS, GRAM, seed=3)


@pytest.mark.parametrize("part", ["torus", "height"])
def test_decompose_checks_seeded_probe_lines(part):
    seed = 11
    iso = random_product_isometry(rng_for(407, 0))
    for i in range(4):
        probe = random_torus_point(rng_for(seed, i), exact=True)
        apply_map = wrong_at(iso, probe, Fraction(1, 3), part)
        with pytest.raises(ProductFormError):
            decompose_isometry(apply_map, PARAMS, GRAM, seed=seed)


def test_verify_isometry_glued_samples_follow_d():
    iso = random_product_isometry(rng_for(408, 0), 3)
    rep = verify_isometry(iso.apply, 20, PARAMS, GRAM, mode=EXACT, seed=4, d=3)
    assert rep.passed and rep.samples == 20
    assert decompose_isometry(iso.apply, PARAMS, GRAM, seed=4, d=3) == iso


@pytest.mark.parametrize("m", [3e307, 1e308])
@pytest.mark.parametrize("space", ["glued", "winding"])
def test_float_verify_isometry_refuses_heights_beyond_float_naming_m(m, space):
    # 6*max(1, M), the range of the sampled float heights, has no float
    params = GluingParams(Fraction(m), Fraction(m))
    if space == "glued":
        apply_map = random_product_isometry(rng_for(409, 0)).apply
    else:
        apply_map = lift_line_isometry(LineIsometry(1, Fraction(1, 3)), LINE).apply
    with pytest.raises(OverflowError, match=r"^M: the sampled height range 6\*max\(1, M\)"):
        verify_isometry(apply_map, 5, params, GRAM, mode=FLOAT, space=space, subgroup=LINE)
    # exact mode samples exact heights and does not change
    assert verify_isometry(apply_map, 3, params, GRAM, space=space, subgroup=LINE).passed


def test_float_verify_isometry_runs_just_below_the_height_bound():
    m = Fraction(2.9e307)
    lift = lift_line_isometry(LineIsometry(-1, Fraction(2, 7)), LINE)
    rep = verify_isometry(lift.apply, 20, GluingParams(m, m), GRAM, mode=FLOAT, space="winding", subgroup=LINE)
    assert rep.passed
