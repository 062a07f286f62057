"""Two-component glued metric space: a flat torus and a cylinder over it.

Points live either on the compact torus Y or on the cylinder Y x R.  The
distance adds a capped line gap min(|t1 - t2|, M) between cylinder points
and a constant offset R across components; the whole thing is a metric
exactly when 2R >= M, and the threshold is witnessed by an explicit
triangle counterexample below it.

Distances are carried as (squared torus part, linear offset) so exact mode
can compare components without ever taking a square root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .numerics import (
    DEFAULT_D,
    EXACT,
    CertificationError,
    ExactnessError,
    QuadScalar,
    ScalarMode,
    _field,
    _operands,
    _reduced,
    _sign,
    float_eval_with_error,
    is_exact,
    rational_interval,
    require_exact,
    scalar_lt,
    scalar_min,
    sign_of,
    sqrt_as_float,
    sqrt_interval,
)
from .report import Record
from .sampling import _float_height_span, _height_span, random_glued_point, rng_for
from .torus import (
    GramMatrix,
    Length,
    OneParamSubgroup,
    TorusPoint,
    _memo,
    batch_torus_distance_sq,
    torus_distance_sq,
)


@dataclass(frozen=True)
class GluingParams(Record):
    """Cross-component offset R and line cap M; strict mode enforces 2R >= M."""

    R: object
    M: object
    strict: bool = True

    def __post_init__(self):
        require_exact(self.R, "gluing offset R")
        require_exact(self.M, "line cap M")
        if sign_of(self.R) <= 0 or sign_of(self.M) <= 0:
            raise ValueError("R and M must be positive")
        if self.strict and self.is_degenerate():
            raise ValueError(
                "2R < M breaks the triangle inequality; pass strict=False to study the failure"
            )

    def is_degenerate(self) -> bool:
        return sign_of(2 * self.R - self.M) < 0


@dataclass(frozen=True)
class GluedPoint(Record):
    """Point of the glued space: torus point y, or cylinder point (y, t)."""

    y: TorusPoint
    t: object = None

    @classmethod
    def compact(cls, y: TorusPoint) -> "GluedPoint":
        return cls(y, None)

    @classmethod
    def cylinder(cls, y: TorusPoint, t) -> "GluedPoint":
        if t is None:
            raise ValueError("cylinder point needs a line coordinate")
        return cls(y, t)

    @property
    def is_compact(self) -> bool:
        return self.t is None

    def is_exact(self) -> bool:
        return self.y.is_exact() and (self.t is None or is_exact(self.t))

    def report_fields(self) -> dict:
        return {"component": "torus" if self.is_compact else "cylinder", **super().report_fields()}


@dataclass(frozen=True)
class WindingPoint(Record):
    """Point of the restricted space: torus point, or winding-line parameter t."""

    y: TorusPoint | None = None
    t: object = None

    def __post_init__(self):
        if (self.y is None) == (self.t is None):
            raise ValueError("exactly one of torus point and line parameter must be set")

    @classmethod
    def torus(cls, y: TorusPoint) -> "WindingPoint":
        return cls(y=y)

    @classmethod
    def line(cls, t) -> "WindingPoint":
        return cls(t=t)

    @property
    def is_compact(self) -> bool:
        return self.y is not None

    def embed(self, line: OneParamSubgroup) -> GluedPoint:
        if self.is_compact:
            return GluedPoint.compact(self.y)
        return GluedPoint.cylinder(line.point(self.t), self.t)

    def report_fields(self) -> dict:
        return {"component": "torus" if self.is_compact else "line", **super().report_fields()}


@dataclass(frozen=True)
class Distance(Record):
    """Glued distance sqrt(torus_sq) + offset, kept in components."""

    torus_sq: object
    offset: object

    @_memo
    def _root(self) -> float:
        """sqrt_as_float(torus_sq), cached: `value` is read more than once
        for a violation."""
        return sqrt_as_float(self.torus_sq)

    @property
    def value(self) -> float:
        return self._root + float(self.offset)

    def __float__(self) -> float:
        return self.value

    @_memo
    def _filter_view(self) -> tuple[float, float, float] | None:
        """(s, f, e) for the triangle filter: float views s of sqrt(torus_sq)
        and f of offset, with a proven |s - sqrt(torus_sq)| + |f - offset| <= e.

        Both come from `float_eval_with_error`, with no 120-bit root.  With
        (fx, ex) the view of X = torus_sq >= 0 and y = max(fx, 0),
        |y - X| <= ex too, and s = fl(sqrt(y)).  If y > ex, then
        sqrt(X) >= sqrt(y - ex) > 0 and
        |sqrt(y) - sqrt(X)| = |y - X| / (sqrt(y) + sqrt(X))
                            <= ex / (sqrt(y) + sqrt(y - ex));
        otherwise |sqrt(y) - sqrt(X)| <= sqrt(|y - X|) <= sqrt(ex).  The
        rounded root adds at most u*sqrt(y) <= 2^-53 * s / (1 - u), u = 2^-53.
        Neither root underflows (y = 0 or y >= 2^-1074), nor does the
        quotient, as ex >= 2^-50 * y.  e adds these to f's error with at most
        seven roundings, each a factor >= 1 - u on a nonnegative value, and
        the factor 1 + 2^-46 covers them.

        None when a component has no such view (a float, or a coefficient
        beyond the float range): the filter then leaves the decision to the
        exact squaring.
        """
        xv, ov = float_eval_with_error(self.torus_sq), float_eval_with_error(self.offset)
        if xv is None or ov is None:
            return None
        (fx, ex), (f, e) = xv, ov
        y = max(fx, 0.0)
        s = math.sqrt(y)
        e += ex / (s + math.sqrt(y - ex)) if y > ex else math.sqrt(ex)
        e += 2.0**-53 * s
        return s, f, e * (1 + 2.0**-46)

    def same_components(self, other: "Distance") -> bool:
        return self.torus_sq == other.torus_sq and self.offset == other.offset

    def is_zero(self) -> bool:
        return sign_of(self.torus_sq) == 0 and sign_of(self.offset) == 0

    def interval(self, digits: int = 30) -> tuple[Fraction, Fraction]:
        slo, shi = sqrt_interval(self.torus_sq, digits)
        olo, ohi = rational_interval(self.offset, digits)
        return slo + olo, shi + ohi

    def report_fields(self) -> dict:
        return {**super().report_fields(), "value": self.value}


_ZERO = Distance(0, 0)


def _capped_gap(ta, tb, M):
    """min(|ta - tb|, M) with the value, type and field index of
    `scalar_min(abs(ta - tb), M)`, which is M when the two are equal.

    Exact heights give one difference triple (`_operands`, with ta as the
    operator's left operand), one sign for the absolute value and one sign
    against M; floats, int pairs and other types take the operators.  An
    irrational gap against an irrational M of another field raises, by
    `_field`, the FieldMismatchError that `abs(ta - tb) - M` raises.
    """
    ops = _operands(ta, tb)
    tm = type(M)
    if ops is None or not (tm is QuadScalar or tm is Fraction or tm is int):
        return scalar_min(abs(ta - tb), M)
    aA, aB, aD, bA, bB, bD, d = ops
    A, B, D = aA * bD - bA * aD, aB * bD - bB * aD, aD * bD
    if _sign(A, B, d) < 0:
        A, B = -A, -B
    sd = d  # the field of the comparison with M
    if tm is QuadScalar:
        mA, mB, mD = M._A, M._B, M._D
        if mB and M.d != d:
            sd = _field(d if B else 0, M.d)
    else:
        mA, mB, mD = M.numerator, 0, M.denominator
    if _sign(A * mD - mA * D, B * mD - mB * D, sd) >= 0:
        return M
    return _reduced(A, B, D, d)


def glued_distance(a: GluedPoint, b: GluedPoint, params: GluingParams, gram: GramMatrix) -> Distance:
    base_sq = torus_distance_sq(a.y, b.y, gram)
    if a.is_compact and b.is_compact:
        return Distance(base_sq, 0)
    if not a.is_compact and not b.is_compact:
        return Distance(base_sq, _capped_gap(a.t, b.t, params.M))
    return Distance(base_sq, params.R)


def winding_distance(
    a: WindingPoint,
    b: WindingPoint,
    params: GluingParams,
    gram: GramMatrix,
    line: OneParamSubgroup,
) -> Distance:
    return glued_distance(a.embed(line), b.embed(line), params, gram)


# -- metric axiom verification ---------------------------------------------------


@dataclass(frozen=True)
class AxiomViolation(Record):
    kind: str
    a: GluedPoint
    b: GluedPoint
    c: GluedPoint | None
    lhs: float
    rhs: float
    slack: float


@dataclass
class AxiomReport(Record):
    params: GluingParams
    mode: ScalarMode
    samples: int
    checks: int
    violations: list[AxiomViolation]
    violations_total: int
    max_abs_error: float
    gram: GramMatrix
    seed: int

    @property
    def passed(self) -> bool:
        return self.violations_total == 0

    def report_fields(self) -> dict:
        out = super().report_fields()
        # the run's gram and seed are reported beside the gluing parameters
        out["params"] = {
            **self.params.report_fields(),
            "gram": out.pop("gram"),
            "seed": out.pop("seed"),
        }
        return {**out, "passed": self.passed}


def _sign_with_root(p, q, x) -> int:
    """Exact sign of p + q*sqrt(x) for p, q in Q(sqrt(d)) and x >= 0.

    With opposite signs the larger magnitude wins, and comparing p^2 with
    q^2 * x decides which one that is without leaving the field.
    """
    sp = sign_of(p)
    sq = sign_of(q) if sign_of(x) else 0
    if sq == 0 or sp in (0, sq):
        return sq or sp
    return sp * sign_of(p * p - q * q * x)


def _structural_tie(lhs: Distance, r1: Distance, r2: Distance) -> bool:
    """lhs <= r1 + r2 read off the components: one side is zero and the other
    has the components of lhs, as when two of the three points coincide."""
    return (r1.is_zero() and r2.same_components(lhs)) or (
        r2.is_zero() and r1.same_components(lhs)
    )


def _float_gap(lhs: Distance, r1: Distance, r2: Distance) -> tuple[float, float] | None:
    """(gap, err): gap = fl(r1 + r2 - lhs) and a proven |gap - (r1 + r2 - lhs)| <= err.

    Each distance sqrt(X) + o enters through its filter view (s, f, e),
    with |s - sqrt(X)| + |f - o| <= e (`Distance._filter_view`: floats
    evaluated from the integer triples, with bounds that scale with their
    cancellation).  With u = 2^-53, the float expression
    gap = fl(fl(fl(s1 + f1) + fl(s2 + f2)) - fl(s0 + f0)) passes every term
    through at most three roundings, so it is within gamma_3 * m of the
    exact sum of its float terms, with m = s0 + |f0| + s1 + |f1| + s2 +
    |f2| (sums of floats do not underflow); index 0 is lhs.  Together

        |gap - (r1 + r2 - lhs)| <= gamma_3 * m + (e0 + e1 + e2),

    and err = 2^-48 * m + (e0 + e1 + e2) * (1 + 2^-46) + 2^-1000 exceeds
    that even after the roundings that compute it: at most seven on the way
    of any nonnegative term, each a factor of at least 1 - u, while 2^-48
    is above 8 * gamma_3 and (1 + 2^-46) * (1 - u)^7 > 1; the 2^-1000
    covers an underflow of 2^-48 * m.  So gap > err proves lhs < r1 + r2.
    None when a distance has no filter view; a non-finite gap or err never
    passes gap > err.
    """
    views = lhs._filter_view, r1._filter_view, r2._filter_view
    if None in views:
        return None
    (s0, f0, e0), (s1, f1, e1), (s2, f2, e2) = views
    gap = (s1 + f1) + (s2 + f2) - (s0 + f0)
    m = s0 + abs(f0) + s1 + abs(f1) + s2 + abs(f2)
    return gap, 2.0**-48 * m + (e0 + e1 + e2) * (1 + 2.0**-46) + 2.0**-1000


def _exceeds(lhs: Distance, r1: Distance, r2: Distance) -> bool:
    """lhs > r1 + r2, decided exactly by sign-tracked squaring.

    With X, Y, Z the squared torus parts and c the offset difference, the
    question is the sign of sqrt(X) + c - sqrt(Y) - sqrt(Z), and three exact
    signs in Q(sqrt(d)) settle it (see `_sign_with_root`).
    """
    X, Y, Z = lhs.torus_sq, r1.torus_sq, r2.torus_sq
    c = lhs.offset - r1.offset - r2.offset
    e = X + c * c - Y - Z
    # sqrt(X) + c > sqrt(Y) + sqrt(Z) iff P = sqrt(X) + c > 0 and
    # P^2 - (sqrt(Y) + sqrt(Z))^2 = U - 2 sqrt(YZ) > 0 with U = e + 2c sqrt(X),
    # that is, iff P > 0, U > 0 and U^2 - 4YZ > 0
    return (
        _sign_with_root(c, 1, X) > 0
        and _sign_with_root(e, 2 * c, X) > 0
        and _sign_with_root(e * e + 4 * c * c * X - 4 * Y * Z, 4 * e * c, X) > 0
    )


def _violation_slack(lhs: Distance, r1: Distance, r2: Distance) -> float:
    """Float slack lhs - (r1 + r2) of a decided violation.

    The 30- and 60-digit rational enclosures price it when they separate
    the sides; otherwise it is a float estimate, 0.0 below float resolution.
    """
    for digits in (30, 60):
        llo, _ = lhs.interval(digits)
        _, ahi = r1.interval(digits)
        _, bhi = r2.interval(digits)
        if llo > ahi + bhi:
            return float(llo - ahi - bhi)
    return max(0.0, lhs.value - (r1.value + r2.value))


def _triangle_exact(lhs: Distance, r1: Distance, r2: Distance) -> tuple[bool, float]:
    """Decide lhs <= r1 + r2 exactly; a violation carries its slack.

    In order: a float filter whose error is proven (`_float_gap`), which
    only ever accepts; an exact structural tie (`_structural_tie`), which
    only ever accepts too, for what the filter leaves (a tie has a gap of
    zero, which the filter cannot prove positive); the exact squaring
    chain (`_exceeds`) for what both leave; and, for a violation only, the
    enclosures that price its slack.  Either acceptance proves
    lhs <= r1 + r2, so their order changes no verdict.  No float decides a
    violation, and the enclosures decide nothing.
    """
    fg = _float_gap(lhs, r1, r2)
    if fg is not None and fg[0] > fg[1]:
        return True, 0.0
    if _structural_tie(lhs, r1, r2):
        return True, 0.0
    if not _exceeds(lhs, r1, r2):
        return True, 0.0
    return False, _violation_slack(lhs, r1, r2)


class _ViolationLog:
    def __init__(self, max_recorded: int):
        self.max_recorded = max_recorded
        self.entries: list[AxiomViolation] = []
        self.total = 0
        self.max_err = 0.0

    def note_error(self, err: float):
        if err > self.max_err:
            self.max_err = err

    def add(self, kind, a, b, c, lhs, rhs, slack):
        self.total += 1
        self.note_error(max(0.0, slack))
        if len(self.entries) < self.max_recorded:
            self.entries.append(AxiomViolation(kind, a, b, c, lhs, rhs, slack))

    def add_flagged(self, flagged, slack, fields):
        """Count the violations at the index array `flagged`, taken in order.

        Only those that still fit in the log become records, each built from
        `fields(i)`; the largest nonnegative slack among them is noted.
        """
        self.total += len(flagged)
        if len(flagged):
            self.note_error(max(0.0, float(slack[flagged].max())))
        room = max(0, self.max_recorded - len(self.entries))
        self.entries.extend(AxiomViolation(*fields(i)) for i in flagged[:room])


def _require_exact_points(*points) -> None:
    """Exact mode decides nothing about a point with a float coordinate."""
    for p in points:
        if not p.is_exact():
            raise ExactnessError(f"exact mode takes exact points only, got {p!r}")


def _check_triple(a, b, c, params, gram, log: _ViolationLog) -> int:
    """Exact checks of one triple, every comparison decided in Q(sqrt(d)).

    The distance between two identical point objects is computed once:
    with `b is a`, d_ab, d_ba and d_aa are one `Distance`, and with
    `c is a`, d_ac is d_aa and d_bc is d_ba.  `glued_distance` is a pure
    function, so each is the `Distance` a second call would give.

    Float values are computed only for what the log records.  A symmetry
    or identity error the exact test finds absent is 0.0 without one:
    equal components have equal float values, as `value` reads only the
    normalized triples (and ignores d when B = 0).
    """
    _require_exact_points(a, b, c)
    d_ab = glued_distance(a, b, params, gram)
    if b is a:
        d_ba = d_aa = d_ab
    else:
        d_ba = glued_distance(b, a, params, gram)
        d_aa = glued_distance(a, a, params, gram)
    d_ac = d_aa if c is a else glued_distance(a, c, params, gram)
    d_bc = d_ba if c is a else glued_distance(b, c, params, gram)
    if d_ab != d_ba:
        log.add("symmetry", a, b, None, d_ab.value, d_ba.value, abs(d_ab.value - d_ba.value))
    if d_aa != _ZERO:
        log.add("identity-zero", a, a, None, d_aa.value, 0.0, abs(d_aa.value))
    for p, q, d in ((a, b, d_ab), (a, c, d_ac), (b, c, d_bc)):
        if d == _ZERO and p != q:
            log.add("identity-distinct", p, q, None, d.value, 0.0, d.value)
    for lhs, r1, r2, pa, pb, pc in (
        (d_ab, d_ac, d_bc, a, b, c),
        (d_ac, d_ab, d_bc, a, c, b),
        (d_bc, d_ab, d_ac, b, c, a),
    ):
        ok, slack = _triangle_exact(lhs, r1, r2)
        if not ok:
            log.add("triangle", pa, pb, pc, lhs.value, r1.value + r2.value, slack)
    return 8


def _batch_glued_values(ka, ya, ta, kb, yb, tb, params, gram):
    """Glued distances of rows of points, kinds 0 (torus) and 1 (cylinder):
    sqrt(torus distance) + off, off = min(|ta - tb|, M) between two
    cylinder points, R across components and 0 on the torus.

    off comes from arithmetic, not masked selects, bit for bit: the capped
    gap is finite and >= +0 (M has a finite float view), so multiplying it
    by the 0/1 kinds gives it or +0.0, and R * (ka != kb) is R or +0.0; at
    most one of the two terms is not +0.0, and adding +0.0 to a value
    >= +0.0 returns that value, so base + gap + R-term is base + off.
    """
    import numpy as np

    base = batch_torus_distance_sq(ya, yb, gram)
    np.sqrt(np.maximum(base, 0.0, out=base), out=base)
    gap = np.subtract(ta, tb)
    np.abs(gap, out=gap)
    np.minimum(gap, float(params.M), out=gap)
    gap *= ka
    gap *= kb
    base += gap
    base += np.multiply(ka != kb, float(params.R), out=gap)
    return base


def _batch_points_equal(ka, ya, ta, kb, yb, tb, eps: float):
    """Float points equal within eps, row by row: same component, y and t within eps."""
    import numpy as np

    wrapped = batch_torus_distance_sq(ya, yb, GramMatrix.identity())
    return (ka == kb) & ~(wrapped > eps * eps) & ((ka == 0) | (np.abs(ta - tb) <= eps))


def _float_point(kind: int, y, t: float) -> GluedPoint:
    p = TorusPoint(float(y[0]), float(y[1]))
    return GluedPoint.compact(p) if kind == 0 else GluedPoint.cylinder(p, float(t))


_PAIRS = ((0, 1), (1, 0), (0, 2), (1, 2), (0, 0))


def _check_floats(kind, y, t, dists, mode: ScalarMode, log: _ViolationLog, point) -> int:
    """Float-mode decisions of n triples, one numpy pass per axiom.

    kind (3, n), y (3, n, 2) and t (3, n) describe the points of the
    columns a, b, c; dists holds the arrays d_ab, d_ba, d_ac, d_bc, d_aa
    (`_PAIRS`); point(col, i) gives the point a recorded violation shows.
    The flags, totals and maximum error come from whole arrays; point
    objects are asked for only for the violations the log records.
    """
    import numpy as np

    d_ab, d_ba, d_ac, d_bc, d_aa = dists

    # one scratch array holds each error array in turn, in place: add_flagged
    # reads it, through the record lambdas too, before the next pass
    err = np.subtract(d_ab, d_ba)
    sym = np.abs(err, out=err)
    log.note_error(float(np.max(sym, initial=0.0)))
    log.add_flagged(np.flatnonzero(sym > mode.eps), sym, lambda i: (
        "symmetry", point(0, i), point(1, i), None, float(d_ab[i]), float(d_ba[i]), float(sym[i])))

    zero = np.abs(d_aa, out=err)
    log.note_error(float(np.max(zero, initial=0.0)))
    log.add_flagged(np.flatnonzero(zero > mode.identity_eps), zero, lambda i: (
        "identity-zero", point(0, i), point(0, i), None, float(d_aa[i]), 0.0, float(zero[i])))

    for dv, c1, c2 in ((d_ab, 0, 1), (d_ac, 0, 2), (d_bc, 1, 2)):
        near = np.flatnonzero(dv <= mode.identity_eps)
        if len(near):
            same = _batch_points_equal(
                kind[c1][near], y[c1][near], t[c1][near],
                kind[c2][near], y[c2][near], t[c2][near], mode.eps,
            )
            near = near[~same]
        log.add_flagged(near, dv, lambda i: (
            "identity-distinct", point(c1, i), point(c2, i), None, float(dv[i]), 0.0, float(dv[i])))

    for lhs, r1, r2, (ca, cb, cc) in (
        (d_ab, d_ac, d_bc, (0, 1, 2)),
        (d_ac, d_ab, d_bc, (0, 2, 1)),
        (d_bc, d_ab, d_ac, (1, 2, 0)),
    ):
        slack = np.subtract(lhs, np.add(r1, r2, out=err), out=err)
        log.note_error(float(np.max(slack, initial=0.0)))
        log.add_flagged(np.flatnonzero(slack > mode.eps), slack, lambda i: (
            "triangle", point(ca, i), point(cb, i), point(cc, i),
            float(lhs[i]), float(r1[i] + r2[i]), float(slack[i])))
    return 8 * len(d_ab)


def _check_batch(n, params, gram, mode, seed, log: _ViolationLog) -> int:
    """Float checks of n sampled triples, their distances from the batch kernel."""
    import numpy as np

    span = _float_height_span(params.M)
    rng = np.random.default_rng(seed)
    kind = rng.integers(0, 2, size=(3, n))
    y = rng.random((3, n, 2))
    t = rng.uniform(-span, span, (3, n))
    dists = [
        _batch_glued_values(kind[c1], y[c1], t[c1], kind[c2], y[c2], t[c2], params, gram)
        for c1, c2 in _PAIRS
    ]

    def point(col, i):
        return _float_point(int(kind[col][i]), y[col][i], float(t[col][i]))

    return _check_floats(kind, y, t, dists, mode, log, point)


def _check_float_triple(a, b, c, params, gram, mode, log: _ViolationLog) -> int:
    """Float checks of one given triple, its distances from `glued_distance`."""
    import numpy as np

    pts = a, b, c
    kind = np.array([[0 if p.is_compact else 1] for p in pts])
    y = np.array([[p.y.as_floats()] for p in pts])
    t = np.array([[0.0 if p.is_compact else float(p.t)] for p in pts])
    dists = [np.array([glued_distance(pts[c1], pts[c2], params, gram).value]) for c1, c2 in _PAIRS]
    return _check_floats(kind, y, t, dists, mode, log, lambda col, i: pts[col])


def check_metric_axioms(
    n: int,
    params: GluingParams,
    gram: GramMatrix,
    mode: ScalarMode = EXACT,
    seed: int = 0,
    sampler=None,
    extra_triples=(),
    max_recorded: int = 100,
    d: int = DEFAULT_D,
) -> AxiomReport:
    """Sample n triples and test symmetry, identity, and the triangle inequality.

    Exact mode decides every comparison with exact arithmetic over
    Q(sqrt(d)), the field its default sampler draws from, and raises
    ExactnessError on a point with a float coordinate.  A triangle
    inequality holds by a float filter with a proven error bound, by an
    exact structural tie, or by sign-tracked squaring, tried in that order;
    only a violation, which the squaring decides, pays for the rational
    enclosures that price its slack (see `_triangle_exact`).  The filter
    reads float views evaluated from the integer triples, with error
    bounds that scale with their cancellation (`float_eval_with_error`); the
    correctly rounded distance values (`Distance.value`, a 120-bit root)
    are computed only for the violations the log records, and an axiom the
    exact test finds to hold adds 0.0 to max_abs_error without one.
    Float mode compares with its tolerances in one array pass per axiom
    (`_check_floats`): the default sampler's triples take their distances
    from the batch kernel, all at once (`_batch_glued_values`, whose
    off-torus term is arithmetic on the 0/1 kinds, bit for bit the
    per-element selects), and `sampler` and `extra_triples` triples from
    `glued_distance`, one triple at a time.  Only the violations the report
    records become point objects.  The default sampler draws exact heights
    at span 3*max(1, ceil(M)), computed without a float
    (`sampling._height_span`), so an M beyond the float range works in exact
    mode.  It draws float heights from [-3*max(1, M), 3*max(1, M)], so float
    mode raises OverflowError, naming M and before drawing anything, when
    that range, 6*max(1, M), has no finite float
    (`sampling._float_height_span`; the CLI exits 2 naming M).
    `verify_isometry` draws its heights by the same two spans.
    """
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    log = _ViolationLog(max_recorded)

    def check(a, b, c) -> int:
        if mode.exact:
            return _check_triple(a, b, c, params, gram, log)
        return _check_float_triple(a, b, c, params, gram, mode, log)

    checks = 0
    if n:
        if not mode.exact and sampler is None:
            checks += _check_batch(n, params, gram, mode, seed, log)
        else:
            span = _height_span(params.M)
            for i in range(n):
                rng = rng_for(seed, i)
                if sampler is None:
                    a = random_glued_point(rng, span, d=d)
                    b = a if rng.random() < 0.05 else random_glued_point(rng, span, d=d)
                    c = a if rng.random() < 0.08 else random_glued_point(rng, span, d=d)
                else:
                    a, b, c = sampler(rng), sampler(rng), sampler(rng)
                checks += check(a, b, c)
    for a, b, c in extra_triples:
        checks += check(a, b, c)
    return AxiomReport(
        params=params,
        mode=mode,
        samples=n,
        checks=checks,
        violations=log.entries,
        violations_total=log.total,
        max_abs_error=log.max_err,
        gram=gram,
        seed=seed,
    )


# -- the threshold counterexample -------------------------------------------------


@dataclass(frozen=True)
class TriangleWitness(Record):
    """Explicit triple with d(a,b) > d(a,c) + d(c,b) when 2R < M."""

    a: GluedPoint
    b: GluedPoint
    c: GluedPoint
    d_ab: Distance
    d_ac: Distance
    d_cb: Distance
    slack: object

    def as_triple(self):
        return self.a, self.b, self.c

    def report_fields(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "lhs": self.d_ab,
            "rhs_1": self.d_ac,
            "rhs_2": self.d_cb,
            "slack": self.slack,
            "slack_value": float(self.slack),
        }


def triangle_counterexample(params: GluingParams, gram: GramMatrix | None = None) -> TriangleWitness:
    """Witness triple through the compact component, gaining M - 2R."""
    if not params.is_degenerate():
        raise ValueError("2R >= M is a valid metric; no counterexample exists")
    gram = gram or GramMatrix.identity()
    y = TorusPoint.origin()
    a = GluedPoint.cylinder(y, 0)
    b = GluedPoint.cylinder(y, params.M)
    c = GluedPoint.compact(y)
    d_ab = glued_distance(a, b, params, gram)
    d_ac = glued_distance(a, c, params, gram)
    d_cb = glued_distance(c, b, params, gram)
    slack = params.M - 2 * params.R
    if sign_of(slack) <= 0:
        raise CertificationError("a degenerate gluing must have positive slack M - 2R")
    return TriangleWitness(a, b, c, d_ab, d_ac, d_cb, slack)


# -- nearest-point structure -------------------------------------------------------


@lru_cache(maxsize=4)
def _grid_dsq(y: tuple[float, float], gram: GramMatrix, grid_n: int):
    """Float squared distances from y to the grid points (k // grid_n, k % grid_n) / grid_n.

    Cached, read-only: a nearest-point check asks for the same y and grid
    several times, once per record and once per oracle.
    """
    import numpy as np

    idx = np.arange(grid_n * grid_n)
    pts = np.stack([(idx // grid_n) / grid_n, (idx % grid_n) / grid_n], axis=1)
    dsq = batch_torus_distance_sq(np.repeat(np.array([y]), len(pts), axis=0), pts, gram)
    dsq.flags.writeable = False
    return dsq


def _grid_min_excluding(y: TorusPoint, gram: GramMatrix, grid_n: int, mode: ScalarMode):
    """Min of torus_distance_sq(y, y') over grid points y' != y.

    A vectorized float pass narrows the candidates; in exact mode, whose
    callers pass an exact y, the winner (and the exclusion of y itself) is
    settled exactly.
    """
    import numpy as np

    dsq = _grid_dsq(y.as_floats(), gram, grid_n)

    def grid_point(k: int) -> TorusPoint:
        return TorusPoint(Fraction(int(k) // grid_n, grid_n), Fraction(int(k) % grid_n, grid_n))

    excluded = np.zeros(len(dsq), dtype=bool)
    for k in np.nonzero(dsq < 1e-18)[0]:
        excluded[k] = not mode.exact or grid_point(k) == y
    masked = np.where(excluded, np.inf, dsq)
    best_f = float(np.min(masked))
    cand = np.nonzero(masked <= best_f * (1 + 1e-9) + 1e-12)[0]
    if not mode.exact:
        k = int(cand[0])
        return grid_point(k), float(masked[k])
    best_pt, best_sq = None, None
    for k in cand:
        p = grid_point(int(k))
        sq = torus_distance_sq(y, p, gram)
        if best_sq is None or scalar_lt(sq, best_sq):
            best_pt, best_sq = p, sq
    if sign_of(best_sq) <= 0:
        raise CertificationError("the nearest grid point other than y must be at positive distance")
    return best_pt, best_sq


@dataclass(frozen=True)
class NearestCompactResult(Record):
    """The unique closest torus point to a cylinder point (y, t) is y itself."""

    y: TorusPoint
    achieved: Distance
    gap: Length
    gap_witness: TorusPoint
    grid_n: int

    def report_fields(self) -> dict:
        return {**super().report_fields(), "gap_sq": self.gap.sq, "gap": self.gap.value}


def nearest_in_compact(
    p: GluedPoint,
    params: GluingParams,
    gram: GramMatrix,
    grid_n: int = 100,
    mode: ScalarMode = EXACT,
) -> NearestCompactResult:
    if p.is_compact:
        raise ValueError("nearest_in_compact expects a cylinder point")
    if mode.exact:
        _require_exact_points(p)
    achieved = glued_distance(p, GluedPoint.compact(p.y), params, gram)
    witness, gap_sq = _grid_min_excluding(p.y, gram, grid_n, mode)
    return NearestCompactResult(p.y, achieved, Length(gap_sq), witness, grid_n)


@dataclass(frozen=True)
class LineSetResult(Record):
    """The cylinder points closest to a torus point y form the line {y} x R."""

    y: TorusPoint
    base: Distance
    margin: Length
    margin_witness: TorusPoint
    ts_checked: tuple
    grid_n: int
    line_constant: bool

    def report_fields(self) -> dict:
        return {**super().report_fields(), "margin_sq": self.margin.sq, "margin": self.margin.value}


def nearest_line_set(
    y: TorusPoint,
    params: GluingParams,
    gram: GramMatrix,
    ts=(Fraction(-10), Fraction(0), Fraction(37, 10)),
    grid_n: int = 100,
    mode: ScalarMode = EXACT,
) -> LineSetResult:
    if mode.exact:
        _require_exact_points(y)
    dists = [
        glued_distance(GluedPoint.compact(y), GluedPoint.cylinder(y, t), params, gram) for t in ts
    ]
    constant = all(mode.equal(d, Distance(0, params.R), mode.eps) for d in dists)
    witness, margin_sq = _grid_min_excluding(y, gram, grid_n, mode)
    return LineSetResult(y, dists[0], Length(margin_sq), witness, tuple(ts), grid_n, constant)


@dataclass(frozen=True)
class NearestOnLineResult(Record):
    """On the line {y2} x R, the point closest to (y, r) sits at the same height r."""

    point: GluedPoint
    achieved: Distance


def nearest_on_line(
    p: GluedPoint,
    y2: TorusPoint,
    params: GluingParams,
    gram: GramMatrix,
) -> NearestOnLineResult:
    if p.is_compact:
        raise ValueError("nearest_on_line expects a cylinder point")
    point = GluedPoint.cylinder(y2, p.t)
    return NearestOnLineResult(point, glued_distance(p, point, params, gram))


# -- brute-force grid oracles (independent of the closed forms above) -------------


def grid_nearest_in_compact(
    p: GluedPoint, params: GluingParams, gram: GramMatrix, grid_n: int = 100
) -> tuple[TorusPoint, float]:
    """Argmin of d(p, compact(y')) over the uniform grid, by direct enumeration."""
    import numpy as np

    dsq = _grid_dsq(p.y.as_floats(), gram, grid_n)
    vals = np.sqrt(np.maximum(dsq, 0.0)) + float(params.R)
    k = int(np.argmin(vals))
    return (
        TorusPoint(Fraction(k // grid_n, grid_n), Fraction(k % grid_n, grid_n)),
        float(vals[k]),
    )


def grid_nearest_on_line(
    p: GluedPoint,
    y2: TorusPoint,
    params: GluingParams,
    gram: GramMatrix,
    t_n: int = 401,
    span=None,
) -> tuple[object, float]:
    """Argmin of d(p, (y2, s)) over a uniform s-grid centered at p.t.

    The first minimum wins.  The grid heights are s = p.t + (j*step - span)
    with the offset taken exactly, so the gap |p.t - s| is the offset's
    absolute value |span|*|n - 2j|/n with n = t_n - 1, and p.t, float or
    exact, enters only the s of the argmin; with a rational span and cap the
    gaps are integer ratios, whose true division rounds as float() of the
    Fraction does.
    """
    if span is None:
        span = 2 * params.M
    base = sqrt_as_float(torus_distance_sq(p.y, y2, gram))
    n = t_n - 1
    step = 2 * span / n
    if not isinstance(span, QuadScalar) and not isinstance(params.M, QuadScalar):
        (a, b), (ma, mb) = abs(span).as_integer_ratio(), params.M.as_integer_ratio()
        cap = float(params.M)
        vals = [
            base + (a * c / (b * n) if a * c * mb < ma * b * n else cap)
            for c in map(abs, range(n, -n - 1, -2))
        ]
    else:
        gaps = [abs(j * step - span) for j in range(t_n)]
        vals = [base + float(scalar_min(gap, params.M)) for gap in gaps]
    j = vals.index(min(vals))
    return p.t + (j * step - span), float(vals[j])
