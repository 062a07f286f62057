"""Orbit structure on the compact sheet: density, membership, local geometry.

Under the isometry group of the winding space, the orbit of a torus point y0
is {g(c) + y0} united with {g(c) - y0}.  It is dense because the slope is
irrational, yet it misses most points.  Both halves of that statement are
decided here with exact certificates.  Approach witnesses come from the
rotation by the slope on a transversal circle: on the torus, an exact
first-entry search lists the return times whose second coordinate can land
within eps, in increasing order, and the first that passes the exact distance
check is the witness; on a circle, a continued-fraction convergent gives one
in closed form.  Both work for any positive eps.  A two-line linear argument
over the basis {1, sqrt(d)} refutes membership.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

from .numerics import (
    DEFAULT_D,
    EXACT,
    CertificationError,
    QuadScalar,
    ScalarMode,
    _divided,
    _field,
    _floor,
    _new,
    _parts,
    _rat,
    _reduced,
    _sign,
    frac,
    require_exact,
    scalar_lt,
    scalar_min,
    sign_of,
    sqrt_as_float,
)
from .report import Record
from .torus import (
    _RADIUS_GRID,
    GramMatrix,
    OneParamSubgroup,
    TorusPoint,
    _minus,
    _plus,
    tangent_norm_sq,
    torus_distance_sq,
)

if TYPE_CHECKING:  # density and membership load no gluing; local_isometry_check imports it
    from .gluing import Distance, GluingParams


def _field_triple(x, d: int) -> tuple[int, int, int]:
    """(A, B, D) of an exact scalar x = (A + B*sqrt(d)) / D in the field of
    sqrt(d); an irrational x of another field raises (`_field`)."""
    A, B, D, xd = _parts(require_exact(x))
    _field(xd if B else 0, d)
    return A, B, D


def _require_irrational(x, what: str) -> None:
    if not isinstance(x, QuadScalar) or x.b == 0:
        raise ValueError(f"{what} must be a quadratic irrational")


# -- continued fractions ------------------------------------------------------------


@dataclass(frozen=True)
class Convergent(Record):
    """Best rational approximation p/q with signed defect err = q*x - p."""

    p: int
    q: int
    err: object

    def report_fields(self) -> dict:
        return {**super().report_fields(), "err_float": float(self.err)}


def cf_expansion(x, n: int) -> list[int]:
    """First n partial quotients of a quadratic irrational.

    Rationals are rejected: their expansions terminate and every question
    this module asks about them has a direct answer.
    """
    _require_irrational(x, "continued fraction input")
    rot = _rotation(x)
    return [rot.convergent(j)[0] for j in range(n)]


def cf_convergents(x, n: int) -> list[Convergent]:
    """First n convergents via the standard recurrence."""
    _require_irrational(x, "continued fraction input")
    rot = _rotation(x)
    return [rot.convergent(j)[1] for j in range(n)]


# -- one table per rotation ---------------------------------------------------------

# rotations kept by `_table`, least recently used first out
_ROTATIONS_MAX = 64
# sharp indices memoized per rotation, oldest first out
_SHARP_MAX = 64
# guards table extensions and memo writes; entries are appended complete, so
# a reader that finds an index already filled needs no lock
_TABLE_LOCK = threading.Lock()


class _Rotation:
    """The continued fraction and first-entry levels of one quadratic irrational x.

    Both lists only grow, on demand, and are shared by every caller that asks
    about x: every target, eps and search level.

    A third table, `sharp`, memoizes the least sharp convergent index per
    bound `eps^2/g_axis` (see `_sharp_index`), up to _SHARP_MAX bounds.

    The partial quotients come from the integer recurrence for
    x = (P + sqrt(N)) / Q with Q | N - P^2 (Perron 1913; Cohen 1993, ch. 5):
    a = floor(x), P' = a*Q - P, Q' = (N - P'^2) / Q.  Each convergent p/q is
    checked once as it is appended: gcd(p, q) = 1 and a defect q*x - p that
    is nonzero, alternates in sign and strictly shrinks, or CertificationError.
    """

    __slots__ = ("x", "convergents", "levels", "sharp", "_state")

    def __init__(self, x: QuadScalar):
        self.x = x
        A, B, D, d = x._A, x._B, x._D, x.d
        # x = (A*D + sqrt(d*B^2*D^2)) / D^2, with the sign of B moved into Q
        s = 1 if B > 0 else -1
        N = d * B * B * D * D
        # (P, Q, isqrt(N), N, p_(j-1), p_(j-2), q_(j-1), q_(j-2))
        self._state = (s * A * D, s * D * D, math.isqrt(N), N, 1, 0, 0, 1)
        self.convergents: list[tuple[int, Convergent, object]] = []  # (a_j, p/q, err^2)
        # (up, step as (A, B, D), 1/step as (A, B, D), next alpha)
        self.levels: list[tuple] = []
        self.sharp: dict = {}  # bound -> least j with err_j^2 < bound

    def convergent(self, j: int) -> tuple[int, Convergent, object]:
        """(a_j, convergent j, its squared defect), extending the table to j."""
        table = self.convergents
        if j >= len(table):
            with _TABLE_LOCK:
                while len(table) <= j:
                    table.append(self._next_convergent())
        return table[j]

    def _next_convergent(self):
        P, Q, r, N, p1, p2, q1, q2 = self._state
        # floor((P + sqrt(N)) / Q) from isqrt; sqrt(N) is irrational
        a = (P + r) // Q if Q > 0 else (P + r + 1) // Q
        P = a * Q - P
        Q = (N - P * P) // Q
        p, q = a * p1 + p2, a * q1 + q2
        err = q * self.x - p
        s = sign_of(err)
        if math.gcd(p, q) != 1 or s == 0:
            raise CertificationError(f"convergent {p}/{q} is not reduced or has zero defect")
        if self.convergents:
            prev = self.convergents[-1][1].err
            if s != -sign_of(prev) or not scalar_lt(abs(err), abs(prev)):
                raise CertificationError(
                    f"convergent {p}/{q} breaks the alternating, shrinking defect"
                )
        self._state = (P, Q, r, N, p, p1, q, q1)
        return a, Convergent(p, q, err), err * err

    def level(self, i: int) -> tuple:
        """First-entry level i of the rotation by x, extending the chain to i.

        Level 0 rotates by alpha = x in (0, 1).  A level with alpha < 1/2 steps
        up by alpha and hands on frac(-1/alpha); one with alpha > 1/2 steps by
        beta = 1 - alpha and hands on frac(1/beta).  See `_first_entry`.
        """
        chain = self.levels
        if i >= len(chain):
            with _TABLE_LOCK:
                while len(chain) <= i:
                    alpha = chain[-1][-1] if chain else self.x
                    up = scalar_lt(2 * alpha, 1)
                    step = alpha if up else 1 - alpha
                    inv = step.reciprocal()
                    next_alpha = frac(-inv if up else inv)
                    chain.append((up, step._A, step._B, step._D, inv._A, inv._B, inv._D, next_alpha))
        return chain[i]


@lru_cache(maxsize=_ROTATIONS_MAX)
def _table(A: int, B: int, D: int, d: int) -> _Rotation:
    return _Rotation(_new(A, B, D, d))


def _rotation(x: QuadScalar) -> _Rotation:
    """The shared table of x, keyed by its normalized integer triple."""
    return _table(x._A, x._B, x._D, x.d)


def _sharp_index(rot: _Rotation, bound, n: int) -> int | None:
    """Least j < n whose squared defect is below bound, or None.

    The checked defects shrink strictly, so a j found below some n is the
    least sharp index of the whole stream: it is memoized per bound and
    compared with each later caller's n.  A bound not in the memo costs one
    forward scan, which extends the table no further than the answer.
    """
    j = rot.sharp.get(bound)  # a dict read needs no lock; writes take it
    if j is None:
        j = next((j for j in range(n) if rot.convergent(j)[2] < bound), None)
        if j is None:
            return None
        with _TABLE_LOCK:
            memo = rot.sharp
            if len(memo) >= _SHARP_MAX:
                del memo[next(iter(memo))]
            memo[bound] = j
    return j if j < n else None


# -- density: approach witnesses ----------------------------------------------------


@dataclass(frozen=True)
class CircleHit(Record):
    """k rotation steps land within eps of the target circle coordinate."""

    target: object
    eps: Fraction
    k: int
    position: object
    distance_sq: object
    distance: float
    convergent: Convergent | None


def _wrap_sq(A: int, B: int, D: int, d: int, n: int, m: int) -> tuple[int, int, int]:
    """wrap^2 * n/m as a triple over Q(sqrt d), not reduced: wrap = min(w, 1 - w)
    is the short way around from w = (A + B*sqrt(d)) / D in [0, 1), any D > 0.
    1 - w is (D - A, -B, D), and the square times n/m is
    ((A^2 + d B^2) n + 2 A B n sqrt(d)) / (D^2 m)."""
    if _sign(2 * A - D, 2 * B, d) > 0:  # w > 1/2
        A, B = D - A, -B
    return (A * A + d * B * B) * n, 2 * A * B * n, D * D * m


def _circle_dist_sq(w, g_axis):
    """wrap^2 * g_axis for a fractional part w in [0, 1), on w's triple
    (`_wrap_sq`).  The type is the scalar arithmetic's: a QuadScalar over
    w's field when w is one, else a Fraction."""
    A, B, D, d = _parts(w)
    g = _rat(g_axis)
    A, B, D = _wrap_sq(A, B, D, d, g.numerator, g.denominator)
    if isinstance(w, QuadScalar):
        return _reduced(A, B, D, d)
    return Fraction(A, D)


def _positive_eps(eps) -> Fraction:
    """eps as a Fraction (exact comparisons need an exact tolerance), or
    ValueError unless it is positive: no window of width 0 or less holds a
    hit, and a search for one would never end."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return eps


class _Tolerance:
    """What `circle_density_hit` derives from one (eps, g_axis): eps as a
    Fraction (`_positive_eps`), eps^2, and g_axis as an exact (n, m),
    which refuses a float axis; and on first use the sharpness bound and the
    default `max_terms`.  The last two are computed only where the call
    reads them, so a failing division raises there, as inline arithmetic
    would."""

    def __init__(self, eps, g_axis):
        self.eps = _positive_eps(eps)
        self.eps_sq = self.eps * self.eps
        self.g_axis = g_axis
        g = _rat(g_axis)
        self.g = g.numerator, g.denominator

    @cached_property
    def bound(self):
        # read only when d0 >= eps^2 > 0, so g_axis > 0 and
        # delta^2 * g_axis < eps^2 reads delta^2 < eps^2 / g_axis
        return self.eps_sq / self.g_axis

    @cached_property
    def max_terms(self) -> int:
        return math.ceil(1 / self.bound).bit_length() + 1


# typed: a float g_axis of an int's value, which the call rejects, must not
# lend that int's entry a float bound
_tolerance = lru_cache(maxsize=64, typed=True)(_Tolerance)


def _below(x, n: int, m: int) -> bool:
    """Whether the exact scalar x lies below n/m (m > 0), by one sign."""
    A, B, D, d = _parts(x)
    return _sign(A * m - n * D, B * m, d) < 0


def circle_density_hit(
    target,
    theta,
    x0=Fraction(0),
    eps=Fraction(1, 1000),
    g_axis: Fraction = Fraction(1),
    max_terms: int | None = None,
) -> CircleHit:
    """Closed-form approach to `target` by rotations s -> s + theta on the circle.

    Pick the first convergent p/q of theta whose defect delta = q*theta - p
    satisfies delta^2 * g_axis < eps^2, then take m blocks of q steps so that
    m*delta crosses the gap to the target.  The landing error is below |delta|
    by construction and is re-verified exactly before returning.

    Convergent j has |delta| < 1/q_(j+1) <= phi^-j (q_j grows at least like
    the Fibonacci numbers), and phi^2 > 2, so convergent j = bit_length of
    ceil(g_axis / eps^2) is sharp enough: that index plus one is the default
    `max_terms`, O(log 1/eps), read off the bound eps^2 / g_axis that
    `_sharp_index` takes.  eps must be positive (ValueError).

    The gap w = frac(target - x0), its squared wrap d0, the landing
    frac(x0 + k*theta) and frac(landing - target) are integer triples, each
    taken mod 1 with one `_floor`, and every comparison with eps^2 is one
    `_sign`; the record's scalars are built from the triples, with the value,
    type and field index the operators give.  The landing's distance comes
    from `_circle_dist_sq`.
    """
    require_exact(target, "circle density target")
    require_exact(x0, "circle base point")
    _require_irrational(theta, "rotation step")
    tol = _tolerance(eps, g_axis)
    eps, eps_sq = tol.eps, tol.eps_sq
    en, em = eps_sq.numerator, eps_sq.denominator
    gn, gm = tol.g
    tA, tB, tD, td = _parts(target)
    xA, xB, xD, xd = _parts(x0)
    xf = xd if xB else 0
    # w = frac(target - x0), in the field the operator takes
    wd = _field(td if tB else 0, xf) or DEFAULT_D
    wA, wB, wD = tA * xD - xA * tD, tB * xD - xB * tD, tD * xD
    wA -= _floor(wA, wB, wD, wd) * wD
    A, B, D = _wrap_sq(wA, wB, wD, wd, gn, gm)
    if _sign(A * em - en * D, B * em, wd) < 0:
        quad = type(target) is QuadScalar or type(x0) is QuadScalar
        d0 = _reduced(A, B, D, wd) if quad else Fraction(A, D)
        return CircleHit(target, eps, 0, frac(x0), d0, sqrt_as_float(d0), None)
    bound = tol.bound
    if max_terms is None:
        max_terms = tol.max_terms
    rot = _rotation(theta)
    j = _sharp_index(rot, bound, max_terms)
    if j is None:
        raise ValueError(f"no convergent within {max_terms} terms is sharp enough for eps={eps}")
    conv = rot.convergent(j)[1]
    delta = conv.err
    d = delta.d
    _field(wd if wB else 0, d)
    if _sign(delta._A, delta._B, d) < 0:
        wA -= wD  # w - 1
    # m = floor(w / delta), or floor((w - 1) / delta) for delta < 0
    m = _floor(*_divided(wA, wB, wD, delta._A, delta._B, delta._D, d), d)
    k = m * conv.q
    # the landing frac(x0 + k*theta), and frac(landing - target)
    hA, hB, hD = theta._A, theta._B, theta._D
    _field(xf, d)
    pA, pB, pD = xA * hD + k * hA * xD, xB * hD + k * hB * xD, xD * hD
    pA -= _floor(pA, pB, pD, d) * pD
    position = _reduced(pA, pB, pD, d)
    A, B, D = pA * tD - tA * pD, pB * tD - tB * pD, pD * tD
    A -= _floor(A, B, D, d) * D
    dist_sq = _circle_dist_sq(_reduced(A, B, D, d), g_axis)
    if not _below(dist_sq, en, em):
        raise CertificationError(f"rotation by k = {k} steps does not land within eps of the target")
    return CircleHit(target, eps, k, position, dist_sq, sqrt_as_float(dist_sq), conv)


@dataclass(frozen=True)
class DensityHit(Record):
    """Orbit point g(t) + y0 within eps of the target, certified exactly."""

    target: TorusPoint
    eps: Fraction
    k: int
    t: object
    point: TorusPoint
    distance_sq: object
    distance: float
    scanned: int


@lru_cache(maxsize=64, typed=True)
def _window(eps, steps: int) -> tuple:
    """(eps, eps^2, r): what `torus_density_hit` derives from one eps and a
    Gram's grid step count n = `GramMatrix._radius_steps`.  eps is a
    Fraction (`_positive_eps`, so eps <= 0 raises ValueError here, and a
    cache hit pays nothing); eps^2 and the window radius
    r = eps * n / _RADIUS_GRID > eps * sqrt(g11/det) are integer pairs
    (numerator, denominator), not reduced.  Typed like `_tolerance`."""
    eps = _positive_eps(eps)
    a, b = eps.numerator, eps.denominator
    return eps, (a * a, b * b), (a * steps, b * _RADIUS_GRID)


def _first_entry(alpha, c, width) -> int:
    """Least k >= 0 with frac(c + k*alpha) < width, decided exactly.

    alpha is irrational in (0, 1), c lies in [0, 1) and width > 0; the
    window [0, width) is half-open exactly as written.  When k = 0 misses,
    every hit has one of two forms, and each form is a first-entry problem
    for a new rotation with window width / step:

    - alpha < 1/2: the hits with floor(c + k*alpha) = m + 1 are the integers
      in [y, y + width/alpha), y = (m + 1 - c)/alpha.  There is one iff
      frac(-y) = frac((c - 1)/alpha - m/alpha) < width/alpha, and then the
      least is ceil(y).
    - alpha > 1/2, beta = 1 - alpha: the hits with k - floor(c + k*alpha) = m
      are the integers in (z - width/beta, z], z = (c + m)/beta.  There is
      one iff frac(z) = frac(c/beta + m/beta) < width/beta, and then the
      greatest is floor(z); it is the least as well unless width >= beta,
      when block m = 0 holds them all and floor((c - width)/beta) + 1 is
      the answer.

    The blocks increase with m, so the least m gives the least k.  The step
    is at most 1/2, so the window at least doubles per level and a window
    of width w needs at most log2(1/w) + 1 levels, unwound from the inside.
    The chain of rotations depends on alpha alone and comes from its shared
    table (`_Rotation.level`).  The search runs on integer triples
    (`_first_entry_triples`); c and width may be ints, Fractions or
    QuadScalars over alpha's field.
    """
    d = alpha.d
    return _first_entry_triples(_rotation(alpha), d, _field_triple(c, d), _field_triple(width, d))


def _first_entry_triples(rot: _Rotation, d: int, c: tuple, width: tuple) -> int:
    """`_first_entry` for the rotation of table `rot`, with c and width given
    as triples (A, B, D) meaning (A + B*sqrt(d)) / D, D > 0, reduced or not.

    Each level's step and 1/step are integer triples in the table.  A level
    costs one product per triple and one floor, for c mod 1, and each
    comparison is the sign of a cross-multiplied difference.  The triples
    are not divided by their gcd: `_sign` and `_floor` take any D > 0, and
    on a rotation's short level triples the gcd costs more than it saves.
    No scalar objects are built.
    """
    levels = rot.levels
    cA, cB, cD = c
    wA, wB, wD = width
    offsets = []
    k = 0
    # while not c < width
    while _sign(cA * wD - wA * cD, cB * wD - wB * cD, d) >= 0:
        i = len(offsets)
        up, sA, sB, sD, iA, iB, iD, _ = levels[i] if i < len(levels) else rot.level(i)
        if up:
            offsets.append((cD - cA, -cB, cD))  # 1 - c
            cA -= cD  # c - 1
        elif _sign(wA * sD - sA * wD, wB * sD - sB * wD, d) >= 0:
            # not width < step: k = floor((c - width) / step) + 1
            A, B = cA * wD - wA * cD, cB * wD - wB * cD
            k = _floor(A * iA + d * B * iB, A * iB + B * iA, cD * wD * iD, d) + 1
            break
        else:
            offsets.append((cA, cB, cD))
        # c = frac(c * inv), or frac((c - 1) * inv) going up
        cA, cB, cD = cA * iA + d * cB * iB, cA * iB + cB * iA, cD * iD
        cA -= _floor(cA, cB, cD, d) * cD
        wA, wB, wD = wA * iA + d * wB * iB, wA * iB + wB * iA, wD * iD
    for i in reversed(range(len(offsets))):
        up, _, _, _, iA, iB, iD, _ = levels[i]
        oA, oB, oD = offsets[i]
        # y = (k + offset) / step, and k = ceil(y) going up, floor(y) otherwise
        oA += k * oD
        A, B, D = oA * iA + d * oB * iB, oA * iB + oB * iA, oD * iD
        k = -_floor(-A, -B, D, d) if up else _floor(A, B, D, d)
    return k


def torus_density_hit(
    target: TorusPoint,
    subgroup: OneParamSubgroup,
    y0: TorusPoint | None = None,
    eps=Fraction(1, 100),
    gram: GramMatrix | None = None,
    budget: int = 50_000_000,
    chunk: int = 2_000_000,
) -> DensityHit | None:
    """First certified orbit point within eps of the target, or None.

    Follows return times t = (w1 + k)/v1, k = 0, 1, ..., whose first
    coordinate matches the target exactly, so only the second can miss, by
    delta = alpha*(w1 + k) - w2 mod 1.  Completing the square,

        Q(x, y) = g11*(x + y*g12/g11)^2 + (det/g11)*y^2 >= (det/g11)*y^2,

    so every lattice shift of (0, delta) has Gram length^2 at least
    (det/g11)*wrap(delta)^2, and a k within eps has wrap(delta) below
    eps*sqrt(g11/det) < r (`_window`).  The k with frac(alpha*(w1 + k))
    in [w2 - r, w2 + r) mod 1 come from an exact first-entry search
    (`_first_entry_triples`) in increasing order; each is re-checked against
    the full lattice distance (`torus_distance_sq`), and the first within
    eps is returned, with k <= budget.  eps must be positive (ValueError).
    `chunk` is accepted for compatibility and unused.

    Up to the re-check everything is integer arithmetic: eps, eps^2 and r
    come once per (eps, Gram) from `_window`; w1 = frac(target.u1 - y0.u1)
    and w2 come from the points' lifts, and c = frac(alpha*w1 - w2 + r) and
    each later start frac(c + k*step) with one `_floor` each.  The t, point
    and distance of a candidate are built only when it is re-checked, with
    the value, type and field index the scalar operators give (a Fraction t
    where no coordinate or v1 is a QuadScalar), and the distance is compared
    with eps^2 by one `_sign`.
    """
    gram = gram or GramMatrix.identity()
    y0 = y0 or TorusPoint.origin()
    require_exact(target.u1, "density target")
    require_exact(target.u2, "density target")
    require_exact(y0.u1, "orbit base point")
    require_exact(y0.u2, "orbit base point")
    eps, (en, em), (rn, rd) = _window(eps, gram._radius_steps)
    alpha = subgroup.alpha
    aA, aB, aD, d = alpha._A, alpha._B, alpha._D, alpha.d
    # target - y0 over the lcm L of the lifts' denominators: (a_i + b_i*sqrt(d)) / L,
    # each in (-1, 1), with the field rule of the operators on the way to c
    ta1, tb1, ta2, tb2, Lt, _, tf1, tf2 = target._lift
    ya1, yb1, ya2, yb2, Ly, _, yf1, yf2 = y0._lift
    L = math.lcm(Lt, Ly)
    kt, ky = L // Lt, L // Ly
    a1, b1 = ta1 * kt - ya1 * ky, tb1 * kt - yb1 * ky
    a2, b2 = ta2 * kt - ya2 * ky, tb2 * kt - yb2 * ky
    f1, f2 = _field(tf1, yf1), _field(tf2, yf2)
    _field(d, f1 if b1 else 0)
    _field(d, f2 if b2 else 0)
    if _sign(a1, b1, d) < 0:
        a1 += L  # w1 = frac(target.u1 - y0.u1); w2 need not be reduced, c is taken mod 1
    # frac(alpha*(w1 + k)) - (w2 - r) mod 1 is frac(c + k*step), step = frac(alpha)
    cA = (aA * a1 + d * aB * b1 - a2 * aD) * rd + rn * aD * L
    cB = (aA * b1 + aB * a1 - b2 * aD) * rd
    cD = aD * L * rd
    cA -= _floor(cA, cB, cD, d) * cD
    sA = aA - _floor(aA, aB, aD, d) * aD  # step, still normalized
    rot = _table(sA, aB, aD, d)
    width = (2 * rn, 0, rd)
    k = _first_entry_triples(rot, d, (cA, cB, cD), width)
    v1 = subgroup.v1
    vA, vB, vD, _ = _parts(v1)
    quad = type(target.u1) is QuadScalar or type(y0.u1) is QuadScalar or type(v1) is QuadScalar
    while k <= budget:
        tA, tB, tD = _divided(a1 + k * L, b1, L, vA, vB, vD, d)  # t = (w1 + k) / v1
        t = _reduced(tA, tB, tD, d) if quad else Fraction(tA, tD)
        point = subgroup.point(t).translate(y0)
        dist_sq = torus_distance_sq(point, target, gram)
        if _below(dist_sq, en, em):
            return DensityHit(target, eps, k, t, point, dist_sq, sqrt_as_float(dist_sq), k + 1)
        k += 1
        nA, nB, nD = cA * aD + k * sA * cD, cB * aD + k * aB * cD, cD * aD
        nA -= _floor(nA, nB, nD, d) * nD
        k += _first_entry_triples(rot, d, (nA, nB, nD), width)
    return None


@dataclass
class DensityReport(Record):
    target: TorusPoint
    epsilons: list
    hits: list
    budget: int
    method: str

    @property
    def passed(self) -> bool:
        return all(h is not None for h in self.hits)

    def report_fields(self) -> dict:
        return {
            "target": self.target,
            "budget": self.budget,
            "method": self.method,
            "results": [{"eps": e, "hit": h} for e, h in zip(self.epsilons, self.hits)],
            "passed": self.passed,
        }


def density_report(
    target: TorusPoint,
    subgroup: OneParamSubgroup,
    epsilons,
    y0: TorusPoint | None = None,
    gram: GramMatrix | None = None,
    budget: int = 50_000_000,
) -> DensityReport:
    eps_list = [Fraction(e) for e in epsilons]
    hits = [torus_density_hit(target, subgroup, y0, e, gram, budget) for e in eps_list]
    return DensityReport(target, eps_list, hits, budget, "first-entry search")


# -- membership: exact decision over the basis (1, sqrt(d)) -------------------------

_BRANCHES = ("direct", "inverted")


def _solve_rotation(wA: int, wB: int, wD: int, theta) -> tuple:
    """Is k*theta - w an integer for some integer k?  (k_star, k integral, residue, member).

    w = (wA + wB*sqrt(d)) / wD, wD > 0, over theta's field.  The sqrt(d)
    coordinate of k*theta - w is linear in k with slope theta.b != 0, so it
    pins k to the single rational k_star = (wB/wD) / theta.b; membership
    then needs k_star integral and the rational residue
    k_star*theta.a - wA/wD integral.
    """
    tA, tB, tD = theta._A, theta._B, theta._D
    k_star = Fraction(wB * tD, wD * tB)
    if k_star.denominator != 1:
        return k_star, False, None, False
    residue = Fraction(k_star.numerator * tA * wD - wA * tD, tD * wD)
    return k_star, True, residue, residue.denominator == 1


def _decide(derive):
    """(first member derivation or None, the derivations of both branches)."""
    derivations = tuple(derive(branch) for branch in _BRANCHES)
    return next((der for der in derivations if der.member), None), derivations


class _Witness(Record):
    """A branch on which the target lies, with the shift that reaches it."""

    def report_fields(self) -> dict:
        return {"member": True, **super().report_fields()}


class _Refutation(Record):
    """Both orbit branches refuted; replay() re-derives them from the inputs."""

    def replay(self, line) -> bool:
        """Recompute each branch from the inputs and confirm the stored verdicts."""
        for stored in self.branches:
            fresh = self._derive(line, stored.branch)
            if fresh != stored or fresh.member:
                return False
        return True

    def report_fields(self) -> dict:
        return {"member": False, **super().report_fields()}


@dataclass(frozen=True)
class BranchDerivation(Record):
    """One branch of the orbit equation, solved over the basis (1, sqrt(d)).

    Matching the radical coordinate forces a single candidate shift m_star;
    membership then needs m_star integral and the rational residue integral.
    """

    branch: str
    w1: object
    w2: object
    m_star: Fraction
    m_is_integer: bool
    residue: Fraction | None
    member: bool


def derive_branch(
    target: TorusPoint, subgroup: OneParamSubgroup, y0: TorusPoint, branch: str
) -> BranchDerivation:
    """Decide g(t) = target -+ y0 by splitting both coordinates over (1, sqrt(d)).

    Writing t*v1 = w1 + m, the second coordinate needs alpha*(w1 + m) - w2
    integral: the circle question with rotation alpha and w = w2 - alpha*w1.
    """
    if branch not in _BRANCHES:
        raise ValueError("branch must be 'direct' or 'inverted'")
    # frac(target - y0), or frac(target + y0) = frac(target - y0.invert())
    gap = _minus if branch == "direct" else _plus
    w1, w2 = gap(target.u1, y0.u1), gap(target.u2, y0.u2)
    alpha = subgroup.alpha
    aA, aB, aD, d = alpha._A, alpha._B, alpha._D, alpha.d
    # w2 - alpha*w1 over alpha's field
    A1, B1, D1 = _field_triple(w1, d)
    A2, B2, D2 = _field_triple(w2, d)
    wA = A2 * aD * D1 - (aA * A1 + d * aB * B1) * D2
    wB = B2 * aD * D1 - (aA * B1 + aB * A1) * D2
    return BranchDerivation(branch, w1, w2, *_solve_rotation(wA, wB, aD * D1 * D2, alpha))


@dataclass(frozen=True)
class OrbitMembership(_Witness):
    """Witness t with g(t) + y0 (direct) or g(t) - y0 (inverted) equal to target."""

    target: TorusPoint
    y0: TorusPoint
    branch: str
    t: object
    derivation: BranchDerivation

    def orbit_point(self, subgroup: OneParamSubgroup) -> TorusPoint:
        base = self.y0 if self.branch == "direct" else self.y0.invert()
        return subgroup.point(self.t).translate(base)


@dataclass(frozen=True)
class NonMembershipCertificate(_Refutation):
    """Exact refutation of both orbit branches; replay() re-derives it."""

    target: TorusPoint
    y0: TorusPoint
    branches: tuple

    def _derive(self, subgroup: OneParamSubgroup, branch: str) -> BranchDerivation:
        return derive_branch(self.target, subgroup, self.y0, branch)


def orbit_membership(
    target: TorusPoint, subgroup: OneParamSubgroup, y0: TorusPoint | None = None
):
    """Exact membership of target in {g(t) + y0} | {g(t) - y0}.

    Returns OrbitMembership (with the witness re-checked by evaluation) or
    NonMembershipCertificate.  Float coordinates are refused: the decision
    hinges on integrality, which floats cannot attest.
    """
    y0 = y0 or TorusPoint.origin()
    for val, what in ((target.u1, "target"), (target.u2, "target"), (y0.u1, "base"), (y0.u2, "base")):
        require_exact(val, f"orbit membership {what}")
    der, derivations = _decide(lambda branch: derive_branch(target, subgroup, y0, branch))
    if der is None:
        return NonMembershipCertificate(target, y0, derivations)
    t = (der.w1 + der.m_star) / subgroup.v1
    witness = OrbitMembership(target, y0, der.branch, t, der)
    if witness.orbit_point(subgroup) != target:
        raise CertificationError("the membership witness must evaluate to the target")
    return witness


@dataclass(frozen=True)
class CircleBranchDerivation(Record):
    branch: str
    w: object
    k_star: Fraction
    k_is_integer: bool
    residue: Fraction | None
    member: bool


@dataclass(frozen=True)
class CircleMembership(_Witness):
    target: object
    x0: object
    branch: str
    k: int
    derivation: CircleBranchDerivation


@dataclass(frozen=True)
class CircleNonMembership(_Refutation):
    target: object
    x0: object
    branches: tuple

    def _derive(self, theta, branch: str) -> CircleBranchDerivation:
        return _derive_circle_branch(self.target, theta, self.x0, branch)


def _derive_circle_branch(target, theta, x0, branch: str) -> CircleBranchDerivation:
    w = frac(target - x0) if branch == "direct" else frac(target + x0)
    return CircleBranchDerivation(branch, w, *_solve_rotation(*_field_triple(w, theta.d), theta))


def circle_orbit_membership(target, theta, x0=Fraction(0)):
    """Exact membership of target in {x0 + k*theta} | {k*theta - x0} on the circle."""
    require_exact(target, "circle membership target")
    require_exact(x0, "circle base point")
    _require_irrational(theta, "rotation step")
    der, derivations = _decide(lambda branch: _derive_circle_branch(target, theta, x0, branch))
    if der is None:
        return CircleNonMembership(target, x0, derivations)
    k = int(der.k_star)
    landed = frac(x0 + k * theta) if der.branch == "direct" else frac(k * theta - x0)
    if landed != frac(target):
        raise CertificationError(f"k = {k} rotation steps must land on the target")
    return CircleMembership(target, x0, der.branch, k, der)


# -- dense but not closed ------------------------------------------------------------


@dataclass
class NonClosureReport(Record):
    """Orbit misses the target exactly yet approaches it below every eps."""

    target: TorusPoint
    y0: TorusPoint
    certificate: NonMembershipCertificate
    density: DensityReport
    certificate_replayed: bool

    @property
    def passed(self) -> bool:
        return self.certificate_replayed and self.density.passed

    def report_fields(self) -> dict:
        return {**super().report_fields(), "passed": self.passed}


def non_closure_report(
    target: TorusPoint,
    subgroup: OneParamSubgroup,
    epsilons,
    y0: TorusPoint | None = None,
    gram: GramMatrix | None = None,
    budget: int = 50_000_000,
) -> NonClosureReport:
    """Certify the orbit of y0 is not closed: target is a limit point off the orbit."""
    y0 = y0 or TorusPoint.origin()
    membership = orbit_membership(target, subgroup, y0)
    if isinstance(membership, OrbitMembership):
        raise ValueError(
            "target lies on the orbit; a non-closure witness must be a missed limit point"
        )
    density = density_report(target, subgroup, epsilons, y0, gram, budget)
    return NonClosureReport(target, y0, membership, density, membership.replay(subgroup))


# -- local isometry of the line embedding --------------------------------------------


class ValidityRadiusError(ValueError):
    """Separation left the window where the embedded line is a scaled isometry."""

    def __init__(self, radius: float, separation: float):
        self.radius = radius
        self.separation = separation
        super().__init__(
            f"|t - s| = {separation:.6g} exceeds the local isometry radius {radius:.6g}"
        )


@dataclass(frozen=True)
class LocalIsometryRecord(Record):
    """Both sides of d((g(t),t),(g(s),s)) = (1 + |v|) |t - s| on one pair."""

    t: object
    s: object
    separation: float
    radius: float
    distance: Distance
    expected_torus_sq: object
    expected_offset: object
    slope: float
    lhs: float
    rhs: float
    exact_match: bool

    @property
    def passed(self) -> bool:
        return self.exact_match

    def report_fields(self) -> dict:
        out = super().report_fields()
        del out["exact_match"]  # reported as "passed"
        return {**out, "passed": self.passed}


def _validity_radius_sq(subgroup: OneParamSubgroup, params: GluingParams, gram: GramMatrix):
    """(min(M^2, sys^2/4) / max(1, |v|^2), |v|^2): the squared radius of the
    local isometry window, and the squared norm of the line's tangent v."""
    nsq = tangent_norm_sq(subgroup.tangent(), gram)
    cap = scalar_min(params.M * params.M, gram.systole_sq() / 4)
    return cap / (nsq if scalar_lt(1, nsq) else 1), nsq


def local_isometry_check(
    t,
    s,
    subgroup: OneParamSubgroup,
    params: GluingParams,
    gram: GramMatrix | None = None,
    mode: ScalarMode = EXACT,
) -> LocalIsometryRecord:
    """Verify the line parameter is a scaled isometry near the diagonal.

    Inside |t - s|^2 <= min(M^2, sys^2/4) / max(1, |v|^2) the cylinder gap
    stays under the cutoff and the torus leg under half the systole, so the
    glued distance splits exactly into (|t-s|^2 |v|^2, |t-s|).  Outside that
    radius the comparison is meaningless and ValidityRadiusError is raised.
    """
    from .gluing import Distance, WindingPoint, winding_distance

    gram = gram or GramMatrix.identity()
    if mode.exact:
        require_exact(t, "local isometry parameter")
        require_exact(s, "local isometry parameter")
    radius_sq, nsq = _validity_radius_sq(subgroup, params, gram)
    radius = math.sqrt(float(radius_sq))

    delta = t - s
    delta_sq = delta * delta
    separation = abs(float(delta))
    if scalar_lt(radius_sq, delta_sq):
        raise ValidityRadiusError(radius, separation)

    dist = winding_distance(WindingPoint.line(t), WindingPoint.line(s), params, gram, subgroup)
    expected_torus_sq = delta_sq * nsq
    expected_offset = abs(delta)
    slope = 1 + math.sqrt(float(nsq))
    lhs = dist.value
    rhs = slope * separation
    ok = mode.equal(dist, Distance(expected_torus_sq, expected_offset), mode.eps)
    return LocalIsometryRecord(
        t,
        s,
        separation,
        radius,
        dist,
        expected_torus_sq,
        expected_offset,
        slope,
        lhs,
        rhs,
        ok,
    )
