"""Deterministic seeded samplers for points, scalars, and isometries.

Each sample index gets its own generator derived from (seed, index), so a
run's samples do not depend on evaluation order or worker count.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .numerics import DEFAULT_D, _check_d, _floor, _reduced, floor_frac


def rng_for(seed: int, index: int) -> random.Random:
    # str seeding hashes with sha512, stable across processes and platforms
    return random.Random(f"{seed}:{index}")


def _height_span(M) -> int:
    """3*max(1, ceil(M)) for an exact M, computed without a float: the span
    s of the heights that the metric and isometry checks sample, exact ones
    at s and float ones from [-s, s]."""
    return 3 * max(1, -floor_frac(-M)[0])


def random_fraction(rng: random.Random, max_den: int = 32) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randrange(0, den), den)


def random_unit_scalar(rng: random.Random, d: int = DEFAULT_D, radical_prob: float = 0.5):
    """Exact scalar in [0, 1), sometimes with a radical part.

    A Fraction num/den, or frac(num/den + bn/bd*sqrt(d)) as a QuadScalar
    over sqrt(d), built from the one integer triple
    (num*bd + bn*den*sqrt(d)) / (den*bd) less its floor.
    """
    den = rng.randint(1, 32)
    num = rng.randrange(0, den)
    if rng.random() >= radical_prob:
        return Fraction(num, den)
    bn, bd = rng.randint(-4, 4), rng.randint(1, 8)
    _check_d(d)
    A, B, D = num * bd, bn * den, den * bd
    return _reduced(A - _floor(A, B, D, d) * D, B, D, d)


def random_span_scalar(rng: random.Random, span, d: int = DEFAULT_D):
    """Exact scalar roughly uniform in [-span, span]."""
    whole = rng.randint(-int(span), int(span))
    return whole + random_unit_scalar(rng, d) - random_fraction(rng)


def random_torus_point(rng: random.Random, exact: bool = True, d: int = DEFAULT_D):
    from .torus import TorusPoint, _point

    if exact:
        # both coordinates already lie in [0, 1)
        return _point(random_unit_scalar(rng, d), random_unit_scalar(rng, d))
    return TorusPoint(rng.random(), rng.random())


def random_glued_point(rng: random.Random, t_span, exact: bool = True, d: int = DEFAULT_D):
    from .gluing import GluedPoint

    y = random_torus_point(rng, exact, d)
    if rng.random() < 0.5:
        return GluedPoint.compact(y)
    t = random_span_scalar(rng, t_span, d) if exact else rng.uniform(-float(t_span), float(t_span))
    return GluedPoint.cylinder(y, t)


def random_winding_point(rng: random.Random, t_span, exact: bool = True, d: int = DEFAULT_D):
    from .gluing import WindingPoint

    if rng.random() < 0.5:
        return WindingPoint.torus(random_torus_point(rng, exact, d))
    t = random_span_scalar(rng, t_span, d) if exact else rng.uniform(-float(t_span), float(t_span))
    return WindingPoint.line(t)


def random_line_isometry(rng: random.Random, d: int = DEFAULT_D):
    from .isometry import LineIsometry

    sign = 1 if rng.random() < 0.5 else -1
    return LineIsometry(sign, random_span_scalar(rng, 3, d))


def random_torus_isometry(rng: random.Random, d: int = DEFAULT_D):
    from .isometry import TorusIsometry

    return TorusIsometry(random_torus_point(rng, True, d), rng.random() < 0.5)


def random_product_isometry(rng: random.Random, d: int = DEFAULT_D):
    from .isometry import ProductIsometry

    return ProductIsometry(random_torus_isometry(rng, d), random_line_isometry(rng, d))
