"""Flat two-torus R^2/Z^2 with a rational Gram tensor.

Distances are computed after Lagrange (Gauss) reduction of the lattice
basis.  The difference of two points goes to reduced coordinates and is
rounded to w with |w_i| <= 1/2; then the nearest lattice shift is one of the
four corners {0, -sigma_1} x {0, -sigma_2} of the cell around w,
sigma_i = sign(w_i), and every other shift is at least g11/2 farther
(`_corners`, the classical Voronoi structure of a reduced 2-D lattice).
The exact path evaluates those four shifts on integers alone and compares
them by exact signs, with no float; the float batch kernel evaluates the
same four in float64 (only the zero shift, for a diagonal reduced form) and
is the only code here that loads numpy.  The unreduced wide-window path is
kept as an oracle.

Exact points work on integer triples (A, B, D), value (A + B*sqrt(d)) / D,
in the normal form of `numerics`.  Each exact `TorusPoint` computes its
lift once, on first use: both coordinates over one denominator, whether a
coordinate is a QuadScalar, and each coordinate's field.  The
lift lives in the instance `__dict__`, outside the dataclass fields, so
equality, hashing, reports, pickles and copies never see it; a point with a
float coordinate has none.  One function unpacks lifts,
`_lift_difference`: the exact distance here and the density search of
`orbit` both take q - p from it.  Wrap-around sums and differences (`_plus`,
`_minus`) add the coordinates' triples and take one exact sign test, and
the winding line's points `frac(t*v)` work on triples too; plain sums and
differences are the operators themselves.  Every result keeps the value
and the type (Fraction or QuadScalar) that Fraction and QuadScalar
operators give, and so their field index, under the operand rule of
`numerics._operands`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .numerics import (
    DEFAULT_D,
    CertificationError,
    QuadScalar,
    _field,
    _floor,
    _operands,
    _parts,
    _reduced,
    _sign,
    floor_frac,
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


# Density window radii are eps * sqrt(g11 / det) rounded up on a grid of
# eps / _RADIUS_GRID, so the slack is relative to eps at every scale.
_RADIUS_GRID = 1 << 20


class _memo:
    """The package's one memo descriptor: the first read computes the
    value and stores it in the instance `__dict__` under the same name,
    where later reads find it before this (non-data) descriptor.  There is
    no lock: two threads may both compute a value, and they store equal
    ones."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


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

    @_memo
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

    @_memo
    def unimodular_inverse(self):
        """Integer inverse of the reduction's U (valid since det U = +-1)."""
        u, _ = self.reduction
        det = u[0][0] * u[1][1] - u[0][1] * u[1][0]
        return (
            (det * u[1][1], -det * u[0][1]),
            (-det * u[1][0], det * u[0][0]),
        )

    @_memo
    def _int_data(self):
        """((n11, n12, n22), G): the reduced Gram as integers over the lcm G
        of its denominators."""
        _, gr = self.reduction
        G = math.lcm(gr.g11.denominator, gr.g12.denominator, gr.g22.denominator)
        return (int(gr.g11 * G), int(gr.g12 * G), int(gr.g22 * G)), G

    @_memo
    def _float_data(self):
        """((u11, u12), (u21, u22)), (g11, g12, g22): U^-1 and the reduced
        Gram as floats, for the batch kernel; OverflowError beyond the float
        range."""
        _, gr = self.reduction
        (u11, u12), (u21, u22) = self.unimodular_inverse
        return (
            ((float(u11), float(u12)), (float(u21), float(u22))),
            (float(gr.g11), float(gr.g12), float(gr.g22)),
        )

    @_memo
    def _radius_steps(self) -> int:
        """n = isqrt(floor(g11/det * _RADIUS_GRID^2)) + 1, above
        sqrt(g11/det) * _RADIUS_GRID since isqrt(floor(x)) + 1 > sqrt(x): a
        density window of radius eps * n / _RADIUS_GRID is wider than
        eps * sqrt(g11/det) at every eps."""
        return math.isqrt(math.floor(self.g11 / self.det() * _RADIUS_GRID**2)) + 1

    def systole_sq(self) -> Fraction:
        """Squared length of the shortest nonzero lattice vector."""
        _, gr = self.reduction
        return gr.g11

    def systole(self) -> float:
        return sqrt_as_float(self.systole_sq())


def _unit(x):
    """x mod 1 in x's type.  A float 1.0, which a tiny negative x gives
    (-1e-20 - floor(-1e-20) rounds to 1), becomes 0.0: the same torus point."""
    r = floor_frac(x)[1]
    return 0.0 if isinstance(r, float) and r == 1.0 else r


def _plus(u, x):
    """u + x mod 1 for u, x in [0, 1).  Exact values add their triples and
    take one exactly decided - 1: the value, type and field index of
    `s - 1 if s >= 1 else s` with s = u + x."""
    ops = _operands(u, x)
    if ops is None:
        s = u + x
        if isinstance(s, float):
            return _unit(s)
        return s - 1 if s >= 1 else s
    uA, uB, uD, xA, xB, xD, d = ops
    A, B, D = uA * xD + xA * uD, uB * xD + xB * uD, uD * xD
    if _sign(A - D, B, d) >= 0:
        A -= D
    return _reduced(A, B, D, d)


def _frac_product(t, v):
    """frac(t * v), as `TorusPoint` reduces the product: one product triple
    less its floor, with the value, type and field index of
    `floor_frac(t * v)[1]`; floats, int pairs and other types take the
    operator and `_unit`."""
    ops = _operands(t, v)
    if ops is None:
        return _unit(t * v)
    tA, tB, tD, vA, vB, vD, d = ops
    A, B, D = tA * vA + d * tB * vB, tA * vB + tB * vA, tD * vD
    A -= _floor(A, B, D, d) * D
    return _reduced(A, B, D, d)


def _negated(u):
    """-u mod 1 for u in [0, 1)."""
    if isinstance(u, float):
        return _unit(-u)
    return 1 - u if u else u


def _minus(x, y):
    """x - y mod 1 for x, y in [0, 1), as `_plus(_negated(y), x)` gives it.
    Exact values subtract their triples and take one exactly decided + 1:
    the value and type of `s + 1 if s < 0 else s` with s = -y + x.  The
    operands go to `_operands` in that order, y first, only so that two
    irrational fields raise the FieldMismatchError text that path raises."""
    ops = _operands(y, x)
    if ops is None:
        if isinstance(x, float) or isinstance(y, float):
            return _plus(_negated(y), x)
        s = -y + x
        return s + 1 if s < 0 else s
    yA, yB, yD, xA, xB, xD, d = ops
    A, B, D = xA * yD - yA * xD, xB * yD - yB * xD, yD * xD
    if _sign(A, B, d) < 0:
        A += D
    return _reduced(A, B, D, d)


@dataclass(frozen=True)
class TorusPoint(Record):
    """Point of R^2/Z^2 with both coordinates reduced to [0, 1).

    The constructor reduces any input with `floor_frac`.  `translate`,
    `invert` and `inverted_translate` skip that on exact coordinates, which
    are already reduced: u + x lies in [0, 2) and takes one exactly decided
    conditional - 1, -u is 1 - u or 0, and x - u lies in (-1, 1) and takes
    one conditional + 1.  The value, type and field index are those the
    constructor gives; a float coordinate still goes through it, bit for bit.

    An exact point carries its integer lift (`_lift`), computed on first use
    and cached in the instance `__dict__` (`_memo`), outside the dataclass
    fields:
    `==`, `hash`, `repr`, reports, pickles and copies see the coordinates
    alone.
    """

    u1: object
    u2: object

    def __post_init__(self):
        object.__setattr__(self, "u1", _unit(self.u1))
        object.__setattr__(self, "u2", _unit(self.u2))

    def __getstate__(self):
        """The coordinates alone: the cached lift is not state."""
        return {"u1": self.u1, "u2": self.u2}

    @_memo
    def _lift(self):
        """(a1, b1, a2, b2, L, quad, f1, f2): u_i = (a_i + b_i*sqrt(f_i)) / L
        over the lcm L of the coordinates' denominators; `quad` tells whether
        a coordinate is a QuadScalar, and f_i is u_i's field, 0 for a
        rational u_i.  The fields are not joined here: a distance takes its
        field from the differences (`_lift_difference`).  None when a
        coordinate is not exact (a float)."""
        u1, u2 = self.u1, self.u2
        c1, c2 = _parts(u1), _parts(u2)
        if c1 is None or c2 is None:
            return None
        A1, B1, D1, d1 = c1
        A2, B2, D2, d2 = c2
        L = math.lcm(D1, D2)
        k1, k2 = L // D1, L // D2
        quad = type(u1) is QuadScalar or type(u2) is QuadScalar
        return A1 * k1, B1 * k1, A2 * k2, B2 * k2, L, quad, d1 if B1 else 0, d2 if B2 else 0

    @classmethod
    def origin(cls) -> "TorusPoint":
        return cls(Fraction(0), Fraction(0))

    def is_exact(self) -> bool:
        return self._lift is not None

    def translate(self, other: "TorusPoint") -> "TorusPoint":
        return _point(_plus(self.u1, other.u1), _plus(self.u2, other.u2))

    def invert(self) -> "TorusPoint":
        return _point(_negated(self.u1), _negated(self.u2))

    def inverted_translate(self, other: "TorusPoint") -> "TorusPoint":
        """other - self: `self.invert().translate(other)` in one step."""
        return _point(_minus(other.u1, self.u1), _minus(other.u2, self.u2))

    def delta(self, other: "TorusPoint"):
        """Raw coordinate difference other - self, one representative per axis."""
        return other.u1 - self.u1, other.u2 - self.u2

    def as_floats(self) -> tuple[float, float]:
        return float(self.u1), float(self.u2)


def _point(u1, u2) -> TorusPoint:
    """A TorusPoint of coordinates already in [0, 1), not reduced again."""
    p = object.__new__(TorusPoint)
    p.__dict__.update(u1=u1, u2=u2)
    return p


@dataclass(frozen=True)
class Length:
    """A torus distance carried as its squared value; exact when inputs are."""

    sq: object

    @property
    def value(self) -> float:
        return sqrt_as_float(self.sq)

    def __float__(self) -> float:
        return self.value


@lru_cache(maxsize=None)
def _corners(sign1: int, sign2: int) -> tuple[tuple[int, int], ...]:
    """The shifts {0, -sigma_1} x {0, -sigma_2} in window order, sigma_i = +1
    for sign_i >= 0 and -1 below: the corners of the reduced cell around the
    point, one of which is nearest.

    Lemma.  Let Q be a reduced form, 2|g12| <= g11 <= g22, and w a point with
    |w_i| <= 1/2 and sigma_i w_i >= 0.  For every integer shift s outside the
    four corners, Q(w + s) >= min over the corners c of Q(w + c) + g11 / 2.

    Proof.  Reflecting an axis (w_i -> -w_i, sigma_i -> -sigma_i,
    g12 -> -g12) keeps the form reduced and maps corners to corners, so take
    sigma = (1, 1): 0 <= w_i <= 1/2 and the corners are {0, -1}^2.  Let m be
    their minimum and y = w + s.  Write Q(y) = g11 (y1 + r y2)^2 + D y2^2
    with r = g12 / g11 in [-1/2, 1/2] and D = g22 - r^2 g11 >= 3/4 g11.  For
    y2 in {w2, w2 - 1}, |r y2| <= 1/2 lies within 1/2 of w1 or w1 - 1, so
    (i) m <= g11 / 4 + D y2^2 on both rows of the cell.

    - s2 not in {0, -1}: y2^2 >= w2^2 + 1 (s2 = 1 adds 2 w2 + 1, s2 = -2 adds
      4 - 4 w2, further shifts more), so Q(y) >= D y2^2 >= D w2^2 + 3/4 g11
      >= m + g11 / 2 by (i).
    - s2 in {0, -1} and |s1| >= 2: |y1| >= 3/2, so |y1 + r y2| >= 1 and
      Q(y) >= g11 + D y2^2 >= m + 3/4 g11 by (i).
    - s1 = 1, against the corner 0, with 2|g12| <= g11 <= g22:
      Q(w + (1, 0)) - Q(w) = g11 (2 w1 + 1) + 2 g12 w2 >= g11 (1 - w2)
      >= g11 / 2, and Q(w + (1, -1)) - Q(w) = g11 (2 w1 + 1)
      + 2 g12 (w2 - w1 - 1) + g22 (1 - 2 w2) >= g11 (1 + w1 - w2) >= g11 / 2.

    The bound is tight: at 2 g12 = -g11 and w = (0, 1/2) the shift (1, 0)
    is exactly g11 / 2 above the corner 0.  A w_i of 0 is covered by either
    sigma_i.
    """
    span1 = (-1, 0) if sign1 >= 0 else (0, 1)
    span2 = (-1, 0) if sign2 >= 0 else (0, 1)
    return tuple((s1, s2) for s1 in span1 for s2 in span2)


def _lift_difference(p: TorusPoint, q: TorusPoint) -> tuple:
    """q - p of exact points p and q, laid out as a lift:
    (a1, b1, a2, b2, L, quad, f1, f2) with q.u_i - p.u_i = (a_i + b_i*sqrt(f_i)) / L.

    The one place a lift is unpacked.  A lift holds both coordinates
    over the lcm of the point's two denominators, so the difference goes
    over L = lcm(Lp, Lq), the lcm of all four.  Each axis joins its two
    coordinates' fields by `_field`, q's named first, as `q.u_i - p.u_i`
    names it: two irrational over different fields raise
    FieldMismatchError with that operator's text, axis 1 before axis 2.
    f_i is 0 when the radical part cancels, since the difference is then
    rational; `quad` tells whether any of the four coordinates is a
    QuadScalar."""
    pa1, pb1, pa2, pb2, Lp, pquad, pf1, pf2 = p._lift
    qa1, qb1, qa2, qb2, Lq, qquad, qf1, qf2 = q._lift
    L = math.lcm(Lp, Lq)
    kp, kq = L // Lp, L // Lq
    a1, b1 = qa1 * kq - pa1 * kp, qb1 * kq - pb1 * kp
    a2, b2 = qa2 * kq - pa2 * kp, qb2 * kq - pb2 * kp
    f1, f2 = _field(qf1, pf1), _field(qf2, pf2)
    return a1, b1, a2, b2, L, pquad or qquad, f1 if b1 else 0, f2 if b2 else 0


def _exact_distance_sq(p: TorusPoint, q: TorusPoint, gram: GramMatrix):
    """`torus_distance_sq` of exact points p and q, on integers (see there),
    from q - p over one denominator L (`_lift_difference`).  The field is
    that of the two differences q.u_i - p.u_i, by `_field`:
    - an axis whose two coordinates are irrational over different fields
      raises FieldMismatchError, as `q.u_i - p.u_i` does;
    - a difference whose radical part cancels is rational;
    - two differences irrational over different fields raise, naming
      axis 1's field first;
    - otherwise d is the differences' field, or DEFAULT_D, the field index
      of a rational QuadScalar, when both are rational;
    - no QuadScalar at all gives d = 0, which `_reduced` makes a Fraction.

    Each of the four corners is evaluated as the integer pair (A, B) of
    G * L^2 * Q(z + s*L) = A + B*sqrt(d), z the rounded point, and the
    first least one in window order is kept, compared by the exact sign of
    the difference of two pairs.
    """
    a1, b1, a2, b2, L, quad, f1, f2 = _lift_difference(p, q)
    d = _field(f1, f2) or (DEFAULT_D if quad else 0)
    # U^-1 (q - p), moved by the nearest integers to (z_i + c_i*sqrt(d)) / L,
    # each within 1/2 of 0
    (u11, u12), (u21, u22) = gram.unimodular_inverse
    w1, c1 = u11 * a1 + u12 * a2, u11 * b1 + u12 * b2
    w2, c2 = u21 * a1 + u22 * a2, u21 * b1 + u22 * b2
    z1 = w1 - _floor(2 * w1 + L, 2 * c1, 2 * L, d) * L
    z2 = w2 - _floor(2 * w2 + L, 2 * c2, 2 * L, d) * L
    # G * L^2 * Q(shifted z) = A + B*sqrt(d), with x_i = z_i + s_i * L:
    #   A = n11 x1^2 + 2 n12 x1 x2 + n22 x2^2 + d (n11 c1^2 + 2 n12 c1 c2 + n22 c2^2)
    #   B = 2 x1 (n11 c1 + n12 c2) + 2 x2 (n12 c1 + n22 c2)
    (n11, n12, n22), G = gram._int_data
    root = d * (n11 * c1 * c1 + 2 * n12 * c1 * c2 + n22 * c2 * c2)
    h1, h2 = 2 * (n11 * c1 + n12 * c2), 2 * (n12 * c1 + n22 * c2)
    best = None
    for s1, s2 in _corners(_sign(z1, c1, d), _sign(z2, c2, d)):
        x1, x2 = z1 + s1 * L, z2 + s2 * L
        A, B = x1 * (n11 * x1 + 2 * n12 * x2) + n22 * x2 * x2 + root, x1 * h1 + x2 * h2
        if best is None or _sign(A - best[0], B - best[1], d) < 0:
            best = A, B
    return _reduced(*best, G * L * L, d)


def torus_distance_sq(p: TorusPoint, q: TorusPoint, gram: GramMatrix, window: int = 1):
    """min over lattice shifts of the Gram form on representatives of q - p.

    Exact points are computed on integers, from their lifts: both points
    have lifts exactly when the four coordinates are exact.  The coordinates
    go over one common denominator L as pairs (a, b), meaning
    (a + b*sqrt(d)) / L; U^-1 and the rounding to the nearest integer act
    on the pairs of q - p, with the closed-form floor.  Only the four
    corners of the cell around the rounded difference can hold the minimum
    (`_corners`), so the result is the same for every `window` >= 1, which
    is accepted for compatibility.  At each corner the reduced form is one
    integer polynomial over G * L^2, G the lcm of the reduced Gram's
    denominators; it is evaluated at each corner and the values are
    compared by exact signs in window order, so the result is the one the
    full exact window gives.  No float is computed.  It is a Fraction when
    every coordinate is an int or a Fraction, else a QuadScalar in normal
    form over the field of the differences q.u_i - p.u_i, by the one field
    rule (`numerics._field`): a difference whose radical part cancels is
    rational, and FieldMismatchError comes only from an axis or a pair of
    differences irrational over two fields, when the squared distance has
    no value in one Q(sqrt(d)).

    A point with a float coordinate makes the result a float: the pair goes
    through `batch_torus_distance_sq`, the one float evaluator.
    """
    if p._lift is not None and q._lift is not None:
        return _exact_distance_sq(p, q, gram)
    import numpy as np

    return float(batch_torus_distance_sq(np.array([p.as_floats()]), np.array([q.as_floats()]), gram)[0])


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


def _axis_shifts(w, away: bool) -> tuple:
    """w + s for the shifts s one axis keeps: 0 and -sigma, sigma = copysign(1, w),
    and the away shift +sigma too when `away`."""
    import numpy as np

    sigma = np.copysign(1.0, w)
    return (w, w - sigma, w + sigma) if away else (w, w - sigma)


def _times(x, y):
    """x * y, written into x."""
    x *= y
    return x


def batch_torus_distance_sq(ya, yb, gram: GramMatrix):
    """Vectorized float path over (n, 2) coordinate arrays; the package's one
    float evaluator of torus distances.

    Per row, (d1, d2) = yb - ya goes to reduced coordinates
    w_i = u_i1*d1 + u_i2*d2 (U^-1 of the reduction), as two elementwise
    products and one sum, and is moved by the nearest integer; w - rint(w)
    is exact, so |w_i| <= 1/2, and it is +0.0 when zero.  The result is the
    minimum, over the 9 shifts s of {-1, 0, 1}^2, of the float expression
    F(s) = ((g11*v1)*v1 + ((2*g12)*v1)*v2) + (g22*v2)*v2 with v = w + s,
    bit for bit, but only the four corners of `_corners` are evaluated, each
    in that expression: v_i = w_i, which is w_i + 0.0 since w_i is no -0.0,
    and v_i = w_i - sigma_i, which is w_i + s_i.  No F(s) is -0.0 either, so
    the minimum does not depend on the order the values are folded in.

    Why the other five cannot be smaller.  Rounding is monotone and 2*g12 is
    exact, so the float entries form a reduced form Q^ and the lemma of
    `_corners` holds for it: Q^(w + s) >= m + g11/2 off the corners, m the
    corners' minimum of Q^.  With x = w + s, |x_i| <= 3/2, each of the three
    terms of Q^(x) reaches F(s) through at most six roundings (two in the
    v_i, two products, two sums), so with u = 2^-53

        |F(s) - Q^(x)| <= E = 6u/(1 - 6u) * 9/4 * (g11 + 2|g12| + g22) + 2^-1070,

    the last term for underflow in the products.  `err` below is at least E
    (9/4 * 6u/(1 - 6u) < 16u = 2^-49, with room for its own roundings), and
    G = g11 + 2|g12| + g22 < 2^1020 keeps every value finite.  If
    4 * err < g11, then off the corners F(s) >= Q^(w + s) - E
    >= m + g11/2 - E >= F(c) + g11/2 - 2E > F(c) at the corner c where Q^
    is least, so the minimum over the corners is the minimum over all nine.
    Otherwise (g22/g11 beyond about 2^47, or entries near the float range)
    each axis keeps its away shift w_i + sigma_i as well, and all nine are
    evaluated.  The terms that depend on one axis are computed once per
    shift of that axis, chunk by chunk.

    Diagonal forms: one shift.  When the float 2*g12 is 0.0 (g12 = 0, or a
    g12 that underflows), the cross term ((2*g12)*v1)*v2 is +-0, and adding
    it to (g11*v1)*v1 >= +0 returns that term unchanged, so
    F(s) = fl(t1(v1) + t2(v2)) with t_i(v) = (g_ii*v)*v.  Rounding is
    symmetric and monotone, so t_i(v) = (g_ii*|v|)*|v| does not decrease
    with |v|, and neither does a rounded sum in either operand.  Every
    shift of an axis, the corners and the away shifts alike, gives
    |w_i + s_i| >= 1/2 >= |w_i| for s_i != 0 (the exact value is at least
    1/2, and 1/2 is a float), so each axis is least at s_i = 0 and the
    minimum over all nine shifts, with or without the away shifts, is
    F(0) = fl(t1(w1) + t2(w2)): two products per axis and one sum, with
    no shift and no minimum.
    """
    import numpy as np

    ((u11, u12), (u21, u22)), (g11, g12, g22) = gram._float_data
    g12x2 = 2 * g12
    g = g11 + abs(g12x2) + g22
    err = 2.0**-49 * g + 2.0**-1070
    away = not (g < 2.0**1020 and 4 * err < g11)
    diagonal = g12x2 == 0.0
    best = np.empty(len(ya))
    for lo in range(0, len(ya), _BATCH_CHUNK):
        a, b = ya[lo:lo + _BATCH_CHUNK], yb[lo:lo + _BATCH_CHUNK]
        d1, d2 = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
        # not (yb - ya) @ ui.T: a matrix product may fuse a multiply and an
        # add, and then the last bit depends on the BLAS build
        w1 = u11 * d1
        w1 += u12 * d2
        w2 = u21 * d1
        w2 += u22 * d2
        w1 -= np.rint(w1)
        w2 -= np.rint(w2)
        out = best[lo:lo + _BATCH_CHUNK]
        if diagonal:
            np.add(_times(g11 * w1, w1), _times(g22 * w2, w2), out=out)
            continue
        v2 = _axis_shifts(w2, away)
        sq2 = [_times(g22 * v, v) for v in v2]
        val = out  # the first value fills out, the others fold into it
        for v1 in _axis_shifts(w1, away):
            sq1, cross = _times(g11 * v1, v1), g12x2 * v1
            for v, sq in zip(v2, sq2):
                np.multiply(cross, v, out=val)
                val += sq1
                val += sq
                if val is out:
                    val = np.empty_like(out)
                else:
                    np.minimum(out, val, out=out)
    return best


@dataclass(frozen=True)
class TangentVector:
    v1: object
    v2: object


def tangent_norm_sq(v: TangentVector, gram: GramMatrix):
    return gram.form(v.v1, v.v2)


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
        ratio = self.alpha
        if not isinstance(ratio, QuadScalar) or ratio.b == 0:
            raise ValueError("direction ratio is rational; the winding line is not dense")

    @classmethod
    def canonical(cls, alpha: QuadScalar) -> "OneParamSubgroup":
        """Direction (1, alpha) with alpha a nonzero rational multiple of sqrt(d)."""
        if not isinstance(alpha, QuadScalar) or alpha.a != 0 or alpha.b == 0:
            raise ValueError("canonical slope must be a nonzero rational multiple of sqrt(d)")
        return cls(Fraction(1), alpha)

    @_memo
    def alpha(self):
        return self.v2 / self.v1

    def point(self, t) -> TorusPoint:
        """(frac(t*v1), frac(t*v2)), each from one product triple
        (`_frac_product`): the point `TorusPoint(t*v1, t*v2)` gives."""
        return _point(_frac_product(t, self.v1), _frac_product(t, self.v2))

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
