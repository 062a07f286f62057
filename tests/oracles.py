"""Independent reference implementations that tests compare the package against.

Each oracle is the plain form of something the package computes faster:
QuadScalar continued fractions and first-entry levels recomputed on every
call, exact stepping for first entries, and rounding to the nearest integer.
"""

import math
from fractions import Fraction

from torusglue.numerics import (
    CertificationError,
    QuadScalar,
    frac,
    scalar_abs,
    scalar_lt,
    sign_of,
)
from torusglue.orbit import Convergent


def nearest_int(x) -> int:
    """The integer nearest to x, halves rounded up."""
    if isinstance(x, float):
        return math.floor(x + 0.5)
    if isinstance(x, QuadScalar):
        return (x + Fraction(1, 2)).floor()
    return math.floor(x + Fraction(1, 2))


def convergent_stream(x):
    """Yield (a_j, convergent j) of x with QuadScalar floors and reciprocals.

    Each step checks gcd(p, q) = 1, strictly shrinking |q*x - p|, and
    alternating defect signs, and raises CertificationError on a failure.
    """
    p_prev, p_prev2 = 1, 0
    q_prev, q_prev2 = 0, 1
    prev_abs = None
    prev_sign = 0
    cur = x
    while True:
        a = cur.floor()
        cur = (cur - a).reciprocal()
        p = a * p_prev + p_prev2
        q = a * q_prev + q_prev2
        err = q * x - p
        s = sign_of(err)
        if math.gcd(p, q) != 1 or s == 0:
            raise CertificationError(f"convergent {p}/{q} is not reduced or has zero defect")
        if prev_abs is not None and (s != -prev_sign or not scalar_lt(scalar_abs(err), prev_abs)):
            raise CertificationError(f"convergent {p}/{q} breaks the alternating, shrinking defect")
        prev_sign = s
        prev_abs = scalar_abs(err)
        yield a, Convergent(p, q, err)
        p_prev2, p_prev = p_prev, p
        q_prev2, q_prev = q_prev, q


def first_entry_levels(alpha, c, width) -> int:
    """Least k >= 0 with frac(c + k*alpha) < width, recomputing every level's rotation."""
    levels = []
    k = 0
    while not scalar_lt(c, width):
        if scalar_lt(2 * alpha, 1):
            inv = alpha.reciprocal()
            levels.append((alpha, 1 - c, True))
            c, alpha = frac((c - 1) * inv), frac(-inv)
        else:
            step = 1 - alpha
            if not scalar_lt(width, step):
                k = ((c - width) / step).floor() + 1
                break
            inv = step.reciprocal()
            levels.append((step, c, False))
            c, alpha = frac(c * inv), frac(inv)
        width = width * inv
    for step, offset, up in reversed(levels):
        y = (k + offset) / step
        k = -(-y).floor() if up else y.floor()
    return k


BRUTE_K = 10**4


def brute_first(alpha, x, inside):
    """Least k < BRUTE_K with inside(frac(x + k*alpha)), by exact stepping, or None."""
    v = frac(x)
    for k in range(BRUTE_K):
        if inside(v):
            return k
        v = v + alpha
        if v >= 1:
            v = v - 1
    return None
