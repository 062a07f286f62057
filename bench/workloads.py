"""The three benchmark workloads: set-up, seeded inputs and the timed operations.

Every input is drawn here from the benchmark's own seed; the program only
receives the generated points, maps and tolerances, and is called through its
public API the way the CLI handlers call it.  Each operation renders its
canonical report with `canonical_json`.

This module imports the program and nothing heavier, because
`setup_probe.py` times its import and `build` in a fresh interpreter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import torusglue as tg

# -- shared input make-up ------------------------------------------------------

SKEWED = (2, 1, 3)
GRAMS = ("identity", "skewed")
RADICANDS = (2, 3)

# exact-certify
TRIPLES_PER_BATCH = 5
EXACT_ROUND_OPS = 20  # 200 triples, so the shares below are exact per round
B_EQUALS_A = 10  # 5% of 200 triples
C_EQUALS_A = 16  # 8% of 200 triples
VERIFY_PAIRS = 4

# orbit-density
LADDER = tuple(Fraction(1, 10**k) for k in (2, 4, 6, 7))
BUDGET = 10**9
CIRCLE_EPS = tuple(Fraction(1, 10**k) for k in (6, 11, 16))

# float-sweep
FLOAT_N = 100_000

def round_rng(seed: int, workload: str, round_index: int) -> random.Random:
    # string seeding hashes with sha512: stable across processes and platforms
    return random.Random(f"bench:{workload}:{seed}:{round_index}")


# -- set-up ----------------------------------------------------------------------


def _grams() -> dict:
    grams = {"identity": tg.GramMatrix.identity(), "skewed": tg.GramMatrix(*SKEWED)}
    for g in grams.values():
        g.reduction, g.unimodular_inverse  # Lagrange reduction, cached on the matrix
    return grams


def build(workload: str) -> SimpleNamespace:
    """What a CLI call builds before its first operation: Grams, lines, params."""
    grams = _grams()
    if workload == "exact-certify":
        return SimpleNamespace(
            grams=grams,
            line=tg.OneParamSubgroup.canonical(tg.QuadScalar(0, 1, 2)),
            above=tg.GluingParams(Fraction(1), Fraction(3, 2)),
            at=tg.GluingParams(Fraction(1), Fraction(2)),
        )
    if workload == "orbit-density":
        line = tg.OneParamSubgroup.canonical(tg.QuadScalar(0, 1, 2))
        return SimpleNamespace(
            grams=grams,
            line=line,
            theta=(1 / line.alpha).frac(),
            circle=tg.Subtorus(0),
        )
    if workload == "float-sweep":
        for g in grams.values():
            g._float_data  # the batch kernel's float copy of the reduction
        return SimpleNamespace(
            grams=grams,
            above=tg.GluingParams(Fraction(1), Fraction(3, 2)),
            below=tg.GluingParams(Fraction(2, 5), Fraction(1), strict=False),
        )
    raise ValueError(f"unknown workload {workload!r}")


# -- seeded exact inputs -----------------------------------------------------------


def _rational(rng: random.Random, max_den: int = 32) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randrange(den), den)


def _coordinate(rng: random.Random, d: int):
    """A rational half of the time, otherwise a + b*sqrt(d) with b != 0."""
    a = _rational(rng)
    if rng.random() < 0.5:
        return a
    return tg.QuadScalar(a, Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 8)), d)


def _torus_point(rng: random.Random, d: int):
    return tg.TorusPoint(_coordinate(rng, d), _coordinate(rng, d))


def _glued_point(rng: random.Random, d: int, span: int):
    y = _torus_point(rng, d)
    if rng.random() < 0.5:
        return tg.GluedPoint.compact(y)
    return tg.GluedPoint.cylinder(y, rng.randint(-span, span - 1) + _coordinate(rng, d))


# -- exact-certify -------------------------------------------------------------------


@dataclass
class ExactOp:
    gram_name: str
    above: list  # triples checked with 2R > M
    at: list  # triples checked with 2R = M; at[0] is a sheet detour
    line_iso: object
    product: object
    seed: int


def exact_round(rng: random.Random) -> list[ExactOp]:
    """One round of 20 bundles: every Gram and radicand 5 times, exact shares."""
    n = EXACT_ROUND_OPS * 2 * TRIPLES_PER_BATCH
    detours = {i for i in range(n) if i % (2 * TRIPLES_PER_BATCH) == TRIPLES_PER_BATCH}
    free = [i for i in range(n) if i not in detours]
    b_is_a = set(rng.sample(free, B_EQUALS_A))
    c_is_a = set(rng.sample(free, C_EQUALS_A))
    span = 3 * 2  # heights in [-3M, 3M) for the largest M
    ops = []
    for j in range(EXACT_ROUND_OPS):
        gram_name = GRAMS[j % 2]
        d = RADICANDS[(j // 2) % 2]
        triples = []
        for i in range(j * 2 * TRIPLES_PER_BATCH, (j + 1) * 2 * TRIPLES_PER_BATCH):
            a = _glued_point(rng, d, span)
            if i in detours:
                # a and b far apart in height; the detour through the torus
                # sheet at a's base costs exactly 2R = M: a tight equality
                a = tg.GluedPoint.cylinder(a.y, rng.randint(-span, 0) + _coordinate(rng, d))
                b = tg.GluedPoint.cylinder(_torus_point(rng, d), a.t + 2 + _coordinate(rng, d))
                triples.append((a, b, tg.GluedPoint.compact(a.y)))
                continue
            b = a if i in b_is_a else _glued_point(rng, d, span)
            c = a if i in c_is_a else _glued_point(rng, d, span)
            triples.append((a, b, c))
        # verify_isometry and decompose_isometry draw their own sample points
        # over sqrt(2) whatever the input's field, so both maps live over sqrt(2)
        shift = _coordinate(rng, 2) + rng.randint(-3, 2)
        line_iso = tg.LineIsometry(1 if j % 4 < 2 else -1, shift)
        product = tg.ProductIsometry(
            tg.TorusIsometry(_torus_point(rng, 2), rng.random() < 0.5),
            tg.LineIsometry(rng.choice((1, -1)), _coordinate(rng, 2) + rng.randint(-3, 2)),
        )
        ops.append(
            ExactOp(gram_name, triples[:TRIPLES_PER_BATCH], triples[TRIPLES_PER_BATCH:],
                    line_iso, product, rng.getrandbits(32))
        )
    return ops


def swap_impostor(p):
    """Moves every point to the other sheet: not an isometry of the glued space."""
    if p.is_compact:
        return tg.GluedPoint.cylinder(p.y, Fraction(0))
    return tg.GluedPoint.compact(p.y)


def scaling_impostor(p):
    """Doubles heights: preserves sheets but not distances along the line."""
    if p.is_compact:
        return p
    return tg.GluedPoint.cylinder(p.y, 2 * p.t)


def _rejection(apply_map, params, gram, seed):
    """Name of the typed error decompose_isometry raises, or None if it accepts."""
    try:
        tg.decompose_isometry(apply_map, params, gram, mode=tg.EXACT, seed=seed)
    except tg.DecompositionError as exc:
        return type(exc).__name__
    return None


def run_exact(op: ExactOp, env):
    gram, line = env.grams[op.gram_name], env.line
    above = tg.check_metric_axioms(0, env.above, gram, tg.EXACT, extra_triples=op.above)
    at = tg.check_metric_axioms(0, env.at, gram, tg.EXACT, extra_triples=op.at)
    lift = tg.lift_line_isometry(op.line_iso, line)
    verified = tg.verify_isometry(
        lift.apply, VERIFY_PAIRS, env.at, gram, mode=tg.EXACT, seed=op.seed, space="winding", subgroup=line
    )
    recovered = tg.decompose_isometry(op.product.apply, env.at, gram, mode=tg.EXACT, seed=op.seed)
    result = SimpleNamespace(
        above=above,
        at=at,
        lift=lift,
        verified=verified,
        recovered=recovered,
        swap=_rejection(swap_impostor, env.at, gram, op.seed),
        scaling=_rejection(scaling_impostor, env.at, gram, op.seed),
    )
    text = tg.canonical_json(exact_payload(result))
    return result, text


def exact_payload(r) -> dict:
    return {
        "axioms_above": r.above.describe(),
        "axioms_at": r.at.describe(),
        "lift": r.lift.describe(),
        "lift_verified": r.verified.describe(),
        "decomposed": r.recovered.describe(),
        "impostors": {"swap": r.swap, "scaling": r.scaling},
    }


# -- orbit-density -----------------------------------------------------------------


@dataclass
class OrbitOp:
    gram_name: str
    target: object  # rational TorusPoint, never the base point (the origin)
    circle_targets: tuple


def _rational_target(rng: random.Random):
    while True:
        u1, u2 = _rational(rng, 64), _rational(rng, 64)
        if u1 or u2:
            return tg.TorusPoint(u1, u2)


def orbit_round(rng: random.Random) -> list[OrbitOp]:
    return [
        OrbitOp(name, _rational_target(rng), tuple(_rational(rng, 64) for _ in CIRCLE_EPS))
        for name in GRAMS
    ]


def run_orbit(op: OrbitOp, env):
    gram = env.grams[op.gram_name]
    report = tg.non_closure_report(op.target, env.line, LADDER, gram=gram, budget=BUDGET)
    g_axis = env.circle.gram_entry(gram)
    circles = [
        tg.circle_density_hit(t, env.theta, Fraction(0), eps, g_axis)
        for t, eps in zip(op.circle_targets, CIRCLE_EPS)
    ]
    result = SimpleNamespace(report=report, circles=circles)
    text = tg.canonical_json(orbit_payload(result))
    return result, text


def orbit_payload(r) -> dict:
    return {"non_closure": r.report.describe(), "circle": [h.describe() for h in r.circles]}


# -- float-sweep -----------------------------------------------------------------------


@dataclass
class FloatOp:
    gram_name: str
    seed_above: int
    seed_below: int


def float_round(rng: random.Random) -> list[FloatOp]:
    return [FloatOp(name, rng.getrandbits(63), rng.getrandbits(63)) for name in GRAMS]


def run_float(op: FloatOp, env):
    gram = env.grams[op.gram_name]
    above = tg.check_metric_axioms(FLOAT_N, env.above, gram, tg.FLOAT, seed=op.seed_above)
    below = tg.check_metric_axioms(FLOAT_N, env.below, gram, tg.FLOAT, seed=op.seed_below)
    result = SimpleNamespace(above=above, below=below)
    text = tg.canonical_json(float_payload(result))
    return result, text


def float_payload(r) -> dict:
    return {"above": r.above.describe(), "below": r.below.describe()}


MAKE_ROUND = {"exact-certify": exact_round, "orbit-density": orbit_round, "float-sweep": float_round}
RUN = {"exact-certify": run_exact, "orbit-density": run_orbit, "float-sweep": run_float}
WORKLOADS = tuple(RUN)
