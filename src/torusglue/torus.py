"""Flat two-torus R^2/Z^2 with a rational Gram tensor.

Distances are computed after Lagrange (Gauss) reduction of the lattice
basis, which makes the {-1,0,1}^2 shift window around the rounded target
provably sufficient; the unreduced wide-window path is kept as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .numerics import (
    CertificationError,
    QuadScalar,
    as_float,
    float_with_error,
    floor_frac,
    is_exact,
    nearest_int,
    require_exact,
    scalar_lt,
    sign_of,
    sqrt_as_float,
)
from .report import Record


def _gram_entry(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(
        f"Gram entries must be exact rationals (int, Fraction, or string), got {type(x).__name__}"
    )


@dataclass(frozen=True)
class GramMatrix(Record):
    """Symmetric positive-definite 2x2 form with exact rational entries."""

    g11: Fraction
    g12: Fraction
    g22: Fraction

    def __post_init__(self):
        object.__setattr__(self, "g11", _gram_entry(self.g11))
        object.__setattr__(self, "g12", _gram_entry(self.g12))
        object.__setattr__(self, "g22", _gram_entry(self.g22))
        if self.g11 <= 0 or self.det() <= 0:
            raise ValueError("Gram matrix must be positive definite")

    @classmethod
    def identity(cls) -> "GramMatrix":
        return cls(Fraction(1), Fraction(0), Fraction(1))

    def det(self) -> Fraction:
        return self.g11 * self.g22 - self.g12 * self.g12

    def form(self, v1, v2):
        """Quadratic form value g11*v1^2 + 2*g12*v1*v2 + g22*v2^2."""
        return self.g11 * v1 * v1 + 2 * self.g12 * v1 * v2 + self.g22 * v2 * v2

    @cached_property
    def reduction(self):
        """(U, reduced GramMatrix): U unimodular with U^T G U Lagrange-reduced."""
        g11, g12, g22 = self.g11, self.g12, self.g22
        c1, c2 = (1, 0), (0, 1)  # columns of U
        while True:
            if g22 < g11:
                g11, g22 = g22, g11
                c1, c2 = c2, c1
            r = math.floor(g12 / g11 + Fraction(1, 2))
            if r == 0:
                break
            g22 = g22 - 2 * r * g12 + r * r * g11
            g12 = g12 - r * g11
            c2 = (c2[0] - r * c1[0], c2[1] - r * c1[1])
        u = ((c1[0], c2[0]), (c1[1], c2[1]))
        det = u[0][0] * u[1][1] - u[0][1] * u[1][0]
        if det not in (1, -1):
            raise CertificationError("the reduction's basis change must be unimodular")
        if not 2 * abs(g12) <= g11 <= g22:
            raise CertificationError("the reduced Gram matrix must satisfy 2|g12| <= g11 <= g22")
        return u, GramMatrix(g11, g12, g22)

    @cached_property
    def unimodular_inverse(self):
        """Integer inverse of the reduction's U (valid since det U = +-1)."""
        u, _ = self.reduction
        det = u[0][0] * u[1][1] - u[0][1] * u[1][0]
        return (
            (det * u[1][1], -det * u[0][1]),
            (-det * u[1][0], det * u[0][0]),
        )

    @cached_property
    def _float_data(self):
        _, gr = self.reduction
        ui = self.unimodular_inverse
        return (
            np.array([[float(ui[0][0]), float(ui[0][1])], [float(ui[1][0]), float(ui[1][1])]]),
            (float(gr.g11), float(gr.g12), float(gr.g22)),
        )

    def systole_sq(self) -> Fraction:
        """Squared length of the shortest nonzero lattice vector."""
        _, gr = self.reduction
        return gr.g11

    def systole(self) -> float:
        return sqrt_as_float(self.systole_sq())


@dataclass(frozen=True)
class TorusPoint(Record):
    """Point of R^2/Z^2 with both coordinates reduced to [0, 1)."""

    u1: object
    u2: object

    def __post_init__(self):
        object.__setattr__(self, "u1", floor_frac(self.u1)[1])
        object.__setattr__(self, "u2", floor_frac(self.u2)[1])

    @classmethod
    def origin(cls) -> "TorusPoint":
        return cls(Fraction(0), Fraction(0))

    def is_exact(self) -> bool:
        return is_exact(self.u1) and is_exact(self.u2)

    def translate(self, other: "TorusPoint") -> "TorusPoint":
        return TorusPoint(self.u1 + other.u1, self.u2 + other.u2)

    def invert(self) -> "TorusPoint":
        return TorusPoint(-self.u1, -self.u2)

    def delta(self, other: "TorusPoint"):
        """Raw coordinate difference other - self, one representative per axis."""
        return other.u1 - self.u1, other.u2 - self.u2

    def as_floats(self) -> tuple[float, float]:
        return as_float(self.u1), as_float(self.u2)


@dataclass(frozen=True)
class Length:
    """A torus distance carried as its squared value; exact when inputs are."""

    sq: object

    @property
    def value(self) -> float:
        return sqrt_as_float(self.sq)

    def __float__(self) -> float:
        return self.value


_U = 2.0**-53  # unit roundoff of float64


def _window_survivors(z1, z2, gram: GramMatrix, window: int):
    """Window shifts (s1, s2) that can hold the exact minimum, in window order.

    z = (z1, z2) is the exact reduced difference, |z_i| <= 1/2.  A float
    pass evaluates F(s) = fl(Q^(x)) for every shift, with x_i = fl(f_i + s_i),
    f_i = float(z_i), and Q^ the reduced form with float entries.  With
    S = window, u = 2^-53, e_i >= |f_i - z_i| from `float_with_error` and
    G >= |g11| + 2|g12| + |g22| (the reduced Gram's entries):

        eps = max e_i + u * (S + max |f_i|)      bounds |x_i - (z_i + s_i)|
        X   = S + max |f_i| + eps                bounds |x_i| and |z_i + s_i|
        |F(s) - Q(z + s)| <= E = G * (6u * X^2 + 2 * eps * X + eps^2) + 2^-1020

    since Q(a) - Q(b) = B(a - b, a + b) with |B(p, q)| <= G * |p| * |q|
    (the 2 * eps * X and eps^2 terms), the float entries are within u of the
    exact ones (u * G * X^2), and each of the three products takes at most
    four roundings on its way into the sum (4u / (1 - 4u) <= 5u, another
    5u * G * X^2); the last term absorbs underflow.  `err` is 2E, which
    also covers the roundings made while computing it and F(s) - F_min.  If
    fl(F(s) - F_min) > 2 * err, then F(s) - F_min > 2E, so
    Q(z + s) >= F(s) - E > F_min + E >= Q at the float argmin, and s is no
    exact minimizer.  None (use the whole window) when a float is
    non-finite or float(z_i) has no proven error.
    """
    fz1, fz2 = float_with_error(z1), float_with_error(z2)
    if fz1 is None or fz2 is None:
        return None
    try:
        _, (g11, g12, g22) = gram._float_data
    except OverflowError:
        return None
    (f1, e1), (f2, e2) = fz1, fz2
    shifts, vals = [], []
    for s1 in range(-window, window + 1):
        x1 = f1 + s1
        for s2 in range(-window, window + 1):
            x2 = f2 + s2
            shifts.append((s1, s2))
            vals.append(g11 * x1 * x1 + 2 * g12 * x1 * x2 + g22 * x2 * x2)
    reach = window + max(abs(f1), abs(f2))
    eps = max(e1, e2) + _U * reach
    x = reach + eps
    g = (abs(g11) + 2 * abs(g12) + abs(g22)) * (1 + 2.0**-50) + 2.0**-1000
    err = 2 * (g * (6 * _U * x * x + 2 * eps * x + eps * eps) + 2.0**-1020)
    if not (math.isfinite(err) and all(map(math.isfinite, vals))):
        return None
    best = min(vals)
    return [s for s, v in zip(shifts, vals) if v - best <= 2 * err]


def torus_distance_sq(p: TorusPoint, q: TorusPoint, gram: GramMatrix, window: int = 1):
    """min over lattice shifts of the Gram form on representatives of q - p.

    Exact inputs are filtered first: shifts whose float value provably
    exceeds the float minimum are skipped, and the rest are compared exactly
    in window order, so the result is the one the full exact window gives.
    """
    d1, d2 = p.delta(q)
    ui = gram.unimodular_inverse
    _, gr = gram.reduction
    w1 = ui[0][0] * d1 + ui[0][1] * d2
    w2 = ui[1][0] * d1 + ui[1][1] * d2
    m1 = -nearest_int(w1)
    m2 = -nearest_int(w2)
    shifts = None
    if is_exact(w1) and is_exact(w2):
        shifts = _window_survivors(w1 + m1, w2 + m2, gram, window)
    if shifts is None:
        span = range(-window, window + 1)
        shifts = [(s1, s2) for s1 in span for s2 in span]
    best = None
    for s1, s2 in shifts:
        v1 = w1 + (m1 + s1)
        v2 = w2 + (m2 + s2)
        val = gr.form(v1, v2)
        if best is None or scalar_lt(val, best):
            best = val
    return best


def torus_distance(p: TorusPoint, q: TorusPoint, gram: GramMatrix, window: int = 1) -> Length:
    return Length(torus_distance_sq(p, q, gram, window))


def naive_torus_distance_sq(p: TorusPoint, q: TorusPoint, gram: GramMatrix, window: int = 2):
    """Oracle path: enumerate shifts of the raw difference without reduction."""
    d1, d2 = p.delta(q)
    best = None
    for k1 in range(-window, window + 1):
        for k2 in range(-window, window + 1):
            val = gram.form(d1 + k1, d2 + k2)
            if best is None or scalar_lt(val, best):
                best = val
    return best


_BATCH_CHUNK = 8192  # rows per pass: the per-axis terms of a chunk stay in cache
_SHIFTS = (-1.0, 0.0, 1.0)


def batch_torus_distance_sq(ya: np.ndarray, yb: np.ndarray, gram: GramMatrix) -> np.ndarray:
    """Vectorized float path over (n, 2) coordinate arrays.

    Each of the 9 window shifts evaluates, per row, the same float expression
    ((g11*v1)*v1 + ((2*g12)*v1)*v2) + (g22*v2)*v2 with v = w + s.  The terms
    that depend on one axis are computed once per shift of that axis, chunk
    by chunk, and the shifts are folded in window order, so the result is
    the one the plain 9-shift loop gives, bit for bit.
    """
    ui, (g11, g12, g22) = gram._float_data
    w = (yb - ya) @ ui.T
    w -= np.rint(w)
    g12x2 = 2 * g12
    best = np.full(len(w), np.inf)
    for lo in range(0, len(w), _BATCH_CHUNK):
        w1, w2 = w[lo:lo + _BATCH_CHUNK].T
        v2 = [w2 + s2 for s2 in _SHIFTS]
        sq2 = [g22 * v * v for v in v2]
        out = best[lo:lo + _BATCH_CHUNK]
        val = np.empty_like(out)
        for s1 in _SHIFTS:
            v1 = w1 + s1
            sq1, cross = g11 * v1 * v1, g12x2 * v1
            for v, sq in zip(v2, sq2):
                np.multiply(cross, v, out=val)
                val += sq1
                val += sq
                np.minimum(out, val, out=out)
    return best


@dataclass(frozen=True)
class TangentVector:
    v1: object
    v2: object

    def as_floats(self) -> tuple[float, float]:
        return as_float(self.v1), as_float(self.v2)


def tangent_norm_sq(v: TangentVector, gram: GramMatrix):
    return gram.form(v.v1, v.v2)


def tangent_norm(v: TangentVector, gram: GramMatrix) -> float:
    return sqrt_as_float(tangent_norm_sq(v, gram))


@dataclass(frozen=True)
class OneParamSubgroup(Record):
    """Dense winding line t -> (frac(t*v1), frac(t*v2)); slope must be irrational."""

    v1: object
    v2: object

    def __post_init__(self):
        require_exact(self.v1, "subgroup direction")
        require_exact(self.v2, "subgroup direction")
        if sign_of(self.v1) == 0:
            raise ValueError("direction must have a nonzero first component")
        ratio = self.v2 / self.v1
        if not isinstance(ratio, QuadScalar) or ratio.b == 0:
            raise ValueError("direction ratio is rational; the winding line is not dense")

    @classmethod
    def canonical(cls, alpha: QuadScalar) -> "OneParamSubgroup":
        """Direction (1, alpha) with alpha a nonzero rational multiple of sqrt(d)."""
        if not isinstance(alpha, QuadScalar) or alpha.a != 0 or alpha.b == 0:
            raise ValueError("canonical slope must be a nonzero rational multiple of sqrt(d)")
        return cls(Fraction(1), alpha)

    @property
    def alpha(self):
        return self.v2 / self.v1

    def point(self, t) -> TorusPoint:
        return TorusPoint(t * self.v1, t * self.v2)

    def tangent(self) -> TangentVector:
        return TangentVector(self.v1, self.v2)


@dataclass(frozen=True)
class Subtorus:
    """Coordinate-axis circle subgroup: free_axis 0 is {(s, 0)}, 1 is {(0, s)}."""

    free_axis: int

    def __post_init__(self):
        if self.free_axis not in (0, 1):
            raise ValueError("free_axis must be 0 or 1")

    def contains(self, p: TorusPoint) -> bool:
        pinned = p.u2 if self.free_axis == 0 else p.u1
        require_exact(pinned, "subtorus membership test input")
        return sign_of(pinned) == 0

    def coordinate(self, p: TorusPoint):
        return p.u1 if self.free_axis == 0 else p.u2

    def point(self, s) -> TorusPoint:
        if self.free_axis == 0:
            return TorusPoint(s, Fraction(0))
        return TorusPoint(Fraction(0), s)

    def gram_entry(self, gram: GramMatrix) -> Fraction:
        return gram.g11 if self.free_axis == 0 else gram.g22


def systole_sq(gram: GramMatrix) -> Fraction:
    return gram.systole_sq()


def systole(gram: GramMatrix) -> float:
    return gram.systole()
