"""Acceptance gate: the package's headline guarantees, one test per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the scoreboard; each
criterion prints exactly one PASS/FAIL line.  Sizes, tolerances, and time
budgets here are contractual: do not shrink them to make a failure go away.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from torusglue.cli import main
from torusglue.gluing import (
    GluedPoint,
    GluingParams,
    check_metric_axioms,
    grid_nearest_in_compact,
    grid_nearest_on_line,
    nearest_in_compact,
    nearest_line_set,
    nearest_on_line,
    triangle_counterexample,
)
from torusglue.isometry import (
    ComponentSwapError,
    LineActionError,
    LineIsometry,
    decompose_isometry,
    lift_line_isometry,
    line_transitivity_witness,
    subtorus_isometries,
    verify_isometry,
)
from torusglue.numerics import (
    EXACT,
    FLOAT,
    QuadScalar,
    frac,
    scalar_lt,
    sign_of,
    sqrt_interval,
)
from torusglue.orbit import (
    CircleNonMembership,
    NonMembershipCertificate,
    ValidityRadiusError,
    cf_convergents,
    circle_density_hit,
    circle_orbit_membership,
    local_isometry_check,
    non_closure_report,
    orbit_membership,
)
from torusglue.sampling import random_span_scalar, random_torus_point, rng_for
from torusglue.torus import GramMatrix, OneParamSubgroup, Subtorus, TorusPoint

SQRT2 = QuadScalar(0, 1, 2)
LINE = OneParamSubgroup.canonical(SQRT2)
GRAM = GramMatrix.identity()
CANONICAL = GluingParams(Fraction(1), Fraction(2))


@contextmanager
def criterion(n: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {n}] {label}: FAIL")
        raise
    print(f"[criterion {n}] {label}: PASS ({time.perf_counter() - t0:.2f}s)")


def test_criterion_1_metric_valid_at_threshold():
    with criterion(1, "metric axioms at R=1, M=2, 1e5 triples"):
        t0 = time.perf_counter()
        rep = check_metric_axioms(100_000, CANONICAL, GRAM, mode=FLOAT, seed=0)
        elapsed = time.perf_counter() - t0
        assert rep.samples == 100_000
        assert rep.violations_total == 0
        assert rep.max_abs_error <= 1e-9
        assert rep.mode.eps == 1e-9
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_2_sharpness_below_threshold():
    with criterion(2, "triangle violation at R=2/5, M=1 with exact slack 1/5"):
        t0 = time.perf_counter()
        params = GluingParams(Fraction(2, 5), Fraction(1), strict=False)
        witness = triangle_counterexample(params, GRAM)
        assert witness.slack == Fraction(1, 5)  # exactly M - 2R = 0.2
        lhs = witness.d_ab
        assert sign_of(lhs.torus_sq) == 0 and lhs.offset == params.M
        rep = check_metric_axioms(
            0, params, GRAM, mode=EXACT, extra_triples=[witness.as_triple()]
        )
        assert not rep.passed and rep.violations_total >= 1
        # deterministic: a second construction is identical
        again = triangle_counterexample(params, GRAM)
        assert again.describe() == witness.describe()
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_nearest_point_structure():
    with criterion(3, "closed-form nearest points vs 100x100 and 401-pt grids"):
        for i in range(50):
            rng = rng_for(31, i)
            p = GluedPoint.cylinder(random_torus_point(rng), random_span_scalar(rng, 3))
            res = nearest_in_compact(p, CANONICAL, GRAM, grid_n=100, mode=EXACT)
            assert res.y == p.y
            assert sign_of(res.achieved.torus_sq) == 0
            assert res.achieved.offset == CANONICAL.R
            assert sign_of(res.gap.sq) > 0  # strictly positive margin, exact
            _, oracle = grid_nearest_in_compact(p, CANONICAL, GRAM, grid_n=100)
            assert oracle >= res.achieved.value - 1e-9

        for i in range(50):
            rng = rng_for(32, i)
            y = random_torus_point(rng)
            res = nearest_line_set(y, CANONICAL, GRAM, grid_n=100, mode=EXACT)
            assert res.line_constant  # distance R at every sampled height
            assert sign_of(res.margin.sq) > 0

        for i in range(50):
            rng = rng_for(33, i)
            p = GluedPoint.cylinder(random_torus_point(rng), random_span_scalar(rng, 3))
            y2 = random_torus_point(rng)
            res = nearest_on_line(p, y2, CANONICAL, GRAM)
            assert res.point.t == p.t
            _, oracle = grid_nearest_on_line(p, y2, CANONICAL, GRAM, t_n=401)
            assert abs(oracle - res.achieved.value) <= 1e-9


def test_criterion_4_isometry_laws():
    with criterion(4, "lifts exact on 1e3 pairs, 100 decompose round-trips, impostors"):
        for sign, shift, seed in ((1, Fraction(1, 3), 41), (-1, Fraction(2, 7), 42)):
            iso = lift_line_isometry(LineIsometry(sign, shift), LINE)
            rep = verify_isometry(
                iso.apply, 1000, CANONICAL, GRAM,
                mode=EXACT, seed=seed, space="winding", subgroup=LINE,
            )
            assert rep.samples == 1000
            assert rep.max_error == 0.0  # identically zero, not merely small
            assert rep.failures_total == 0

        from torusglue.sampling import random_product_isometry

        for i in range(100):
            iso = random_product_isometry(rng_for(43, i))
            got = decompose_isometry(iso.apply, CANONICAL, GRAM, mode=EXACT, seed=i)
            assert got == iso

        def swap(p: GluedPoint) -> GluedPoint:
            if p.is_compact:
                return GluedPoint.cylinder(p.y, Fraction(0))
            return GluedPoint.compact(p.y)

        with pytest.raises(ComponentSwapError):
            decompose_isometry(swap, CANONICAL, GRAM)

        def scale(p: GluedPoint) -> GluedPoint:
            if p.is_compact:
                return p
            return GluedPoint.cylinder(p.y, 2 * p.t)

        with pytest.raises(LineActionError):
            decompose_isometry(scale, CANONICAL, GRAM)


def test_criterion_5_local_isometry_identity():
    with criterion(5, "scaled-isometry identity, slope 1+sqrt(3), 100 exact pairs"):
        # canonical configuration: |v|^2 = 3, radius^2 = min(M^2, 1/4)/3 = 1/12
        radius_lo = sqrt_interval(Fraction(1, 12), 12)[0]
        slope = 1 + math.sqrt(3)
        for i in range(100):
            rng = rng_for(51, i)
            t = random_span_scalar(rng, 3)
            delta = radius_lo * Fraction(rng.randrange(1, 1000), 1000)
            if rng.random() < 0.5:
                delta = -delta
            rec = local_isometry_check(t, t + delta, LINE, CANONICAL, GRAM, EXACT)
            # squared-term comparison: both components match exactly
            assert rec.exact_match
            assert rec.distance.torus_sq == delta * delta * 3
            assert rec.distance.offset == abs(delta)
            assert math.isclose(rec.slope, slope, rel_tol=1e-14)
            assert math.isclose(rec.lhs, slope * rec.separation, rel_tol=1e-10)
            assert math.isclose(rec.rhs, slope * rec.separation, rel_tol=1e-10)
        # separations beyond the gap cap are refused, radius reported
        with pytest.raises(ValidityRadiusError) as info:
            local_isometry_check(Fraction(3), Fraction(0), LINE, CANONICAL, GRAM)
        assert float(CANONICAL.M) < 3.0
        assert math.isclose(info.value.radius, math.sqrt(1 / 12), rel_tol=1e-12)


def test_criterion_6_density_and_non_closure(tmp_path):
    with criterion(6, "target (0,1/2): off-orbit certificate, approaches 1e-2/1e-4/1e-6"):
        t0 = time.perf_counter()
        target = TorusPoint(Fraction(0), Fraction(1, 2))
        cert = orbit_membership(target, LINE)
        assert isinstance(cert, NonMembershipCertificate)
        assert cert.replay(LINE)

        epsilons = [Fraction(1, 100), Fraction(1, 10**4), Fraction(1, 10**6)]
        rep = non_closure_report(target, LINE, epsilons, budget=50_000_000)
        assert rep.passed
        for eps, hit in zip(epsilons, rep.density.hits):
            assert hit is not None
            assert scalar_lt(hit.distance_sq, eps * eps)
            assert hit.k <= 50_000_000

        code = main([
            "non-closure", "--target", "0,1/2", "--epsilons", "1e-2,1e-4,1e-6",
            "--output", str(tmp_path / "nc.json"),
        ])
        assert code == 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_7_continued_fraction_invariants():
    with criterion(7, "sqrt(2) convergents: recurrence, shrinking defect, fifth 41/29"):
        cs = cf_convergents(SQRT2, 30)
        assert len(cs) == 30
        for k in range(2, 30):
            assert cs[k].p == 2 * cs[k - 1].p + cs[k - 2].p
            assert cs[k].q == 2 * cs[k - 1].q + cs[k - 2].q
        for prev, cur in zip(cs, cs[1:]):
            assert scalar_lt(abs(cur.err), abs(prev.err))
            assert cur.err == cur.q * SQRT2 - cur.p  # defect is exact, not float
        assert (cs[4].p, cs[4].q) == (41, 29)


def test_criterion_8_circle_family():
    with criterion(8, "circle family: 1000 targets within 1e-3, rational target off-orbit"):
        circle = Subtorus(0)
        elements = subtorus_isometries(LINE, circle, -10, 10)
        for elem in elements:
            # rotations (and mirror images) of the circle by frac(k*sqrt(2)/2)
            assert elem.circle_shift == frac(elem.k * SQRT2 / 2)
            moved = elem.iso.torus_part.apply(circle.point(Fraction(1, 3)))
            assert circle.contains(moved)

        theta = frac(1 / SQRT2)
        assert theta == SQRT2 / 2
        eps = Fraction(1, 1000)
        for j in range(1000):
            hit = circle_density_hit(Fraction(j, 1000), theta, eps=eps)
            assert scalar_lt(hit.distance_sq, eps * eps)
            assert hit.distance < 1e-3

        cert = circle_orbit_membership(Fraction(1, 3), theta)
        assert isinstance(cert, CircleNonMembership)
        assert cert.replay(theta)

        # the line component is a single orbit: a witness for every pair
        for t, s in ((Fraction(0), Fraction(8)), (Fraction(-5, 3), SQRT2)):
            iso = line_transitivity_witness(t, s, LINE)
            assert iso.line_part.apply(t) == s


def test_criterion_9_byte_identical_reports(tmp_path):
    with criterion(9, "same command, config, and seed give byte-identical reports"):
        jobs = [
            ["verify-metric", "--samples", "5000", "--seed", "29"],
            ["density", "--targets", "0,1/2", "--epsilons", "1e-2,1e-3",
             "--budget", "2000000", "--seed", "7"],
            ["x1-group", "--k-range=-3:3", "--count", "50"],
            ["density", "--targets", "0,1/2", "--epsilons", "1e-2", "--format", "csv",
             "--budget", "1000000"],
        ]
        for idx, argv in enumerate(jobs):
            a = tmp_path / f"{idx}-a.out"
            b = tmp_path / f"{idx}-b.out"
            assert main(argv + ["--output", str(a)]) == 0
            assert main(argv + ["--output", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), argv
