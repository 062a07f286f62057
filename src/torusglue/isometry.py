"""Isometries of the glued space and their lifts from line isometries.

A product isometry acts componentwise: a torus isometry on both sheets and
a line isometry on the cylinder coordinate.  An isometry of the restricted
winding space is pinned down by its line part alone: preserving the graph
of the dense winding line forces the torus part to be translation by g(c)
composed with inversion exactly when the line part reverses orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .gluing import (
    Distance,
    GluedPoint,
    GluingParams,
    WindingPoint,
    _float_height_span,
    glued_distance,
    winding_distance,
)
from .numerics import DEFAULT_D, EXACT, CertificationError, ScalarMode, _check_d, require_exact
from .report import Record
from .sampling import _height_span, random_glued_point, random_torus_point, random_winding_point, rng_for
from .torus import GramMatrix, OneParamSubgroup, Subtorus, TorusPoint, _combine


class DecompositionError(ValueError):
    """The supplied map is not a recognizable product isometry."""


class ComponentSwapError(DecompositionError):
    """The map moves points between the torus and the cylinder."""


class LineActionError(DecompositionError):
    """The induced action on a cylinder line is not a line isometry."""


class ProductFormError(DecompositionError):
    """The map does not split as one torus isometry times one line isometry."""


class TorusActionError(DecompositionError):
    """The torus action is outside the translation / inversion family."""


@dataclass(frozen=True)
class LineIsometry(Record):
    """t -> sign * t + shift with sign in {+1, -1}."""

    sign: int
    shift: object = 0

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @classmethod
    def identity(cls) -> "LineIsometry":
        return cls(1, 0)

    @classmethod
    def translation(cls, a) -> "LineIsometry":
        return cls(1, a)

    @classmethod
    def reflection(cls, center=0) -> "LineIsometry":
        return cls(-1, 2 * center)

    def apply(self, t):
        """t + shift or shift - t, added on triples (`_combine`) with the
        value, type and field index of the operator expression."""
        return _combine(t, self.shift, 1) if self.sign > 0 else _combine(self.shift, t, -1)

    def compose(self, other: "LineIsometry") -> "LineIsometry":
        return LineIsometry(self.sign * other.sign, self.shift + self.sign * other.shift)

    def inverse(self) -> "LineIsometry":
        return LineIsometry(self.sign, -self.sign * self.shift)


@dataclass(frozen=True)
class TorusIsometry(Record):
    """y -> x + y, or y -> x - y when inverts is set."""

    x: TorusPoint
    inverts: bool = False

    @classmethod
    def identity(cls) -> "TorusIsometry":
        return cls(TorusPoint.origin(), False)

    @classmethod
    def translation(cls, x: TorusPoint) -> "TorusIsometry":
        return cls(x, False)

    @classmethod
    def inversion(cls) -> "TorusIsometry":
        return cls(TorusPoint.origin(), True)

    def apply(self, y: TorusPoint) -> TorusPoint:
        return y.inverted_translate(self.x) if self.inverts else y.translate(self.x)

    def compose(self, other: "TorusIsometry") -> "TorusIsometry":
        # x_s + e_s (x_o + e_o y) = (x_s + e_s x_o) + e_s e_o y
        x = self.x.translate(other.x.invert() if self.inverts else other.x)
        return TorusIsometry(x, self.inverts != other.inverts)

    def inverse(self) -> "TorusIsometry":
        return TorusIsometry(self.x if self.inverts else self.x.invert(), self.inverts)


@dataclass(frozen=True)
class ProductIsometry(Record):
    """Componentwise action: torus part on both sheets, line part on heights."""

    torus_part: TorusIsometry
    line_part: LineIsometry

    @classmethod
    def identity(cls) -> "ProductIsometry":
        return cls(TorusIsometry.identity(), LineIsometry.identity())

    def apply(self, p: GluedPoint) -> GluedPoint:
        y = self.torus_part.apply(p.y)
        if p.is_compact:
            return GluedPoint.compact(y)
        return GluedPoint.cylinder(y, self.line_part.apply(p.t))

    def compose(self, other: "ProductIsometry") -> "ProductIsometry":
        return ProductIsometry(
            self.torus_part.compose(other.torus_part),
            self.line_part.compose(other.line_part),
        )

    def inverse(self) -> "ProductIsometry":
        return ProductIsometry(self.torus_part.inverse(), self.line_part.inverse())

    def report_fields(self) -> dict:
        return {"torus": self.torus_part, "line": self.line_part}


@dataclass(frozen=True)
class LiftedIsometry(Record):
    """Isometry of the winding space determined by its line part.

    The torus part is derived, never free: for line part t -> e*t + c it is
    y -> g(c) + e*y, the unique choice mapping the winding graph to itself.
    """

    line_part: LineIsometry
    subgroup: OneParamSubgroup
    torus_part: TorusIsometry = None

    def __post_init__(self):
        require_exact(self.line_part.shift, "lift shift")
        derived = TorusIsometry(
            self.subgroup.point(self.line_part.shift), self.line_part.sign < 0
        )
        if self.torus_part is None:
            object.__setattr__(self, "torus_part", derived)
        elif self.torus_part != derived:
            raise ValueError("torus part must be the one derived from the line part")

    def apply(self, p: WindingPoint) -> WindingPoint:
        if p.is_compact:
            return WindingPoint.torus(self.torus_part.apply(p.y))
        return WindingPoint.line(self.line_part.apply(p.t))

    def compose(self, other: "LiftedIsometry") -> "LiftedIsometry":
        if other.subgroup != self.subgroup:
            raise ValueError("cannot compose lifts over different winding lines")
        return LiftedIsometry(self.line_part.compose(other.line_part), self.subgroup)

    def inverse(self) -> "LiftedIsometry":
        return LiftedIsometry(self.line_part.inverse(), self.subgroup)

    def report_fields(self) -> dict:
        return {"line": self.line_part, "torus": self.torus_part, "subgroup": self.subgroup}


def lift_line_isometry(line_iso: LineIsometry, subgroup: OneParamSubgroup) -> LiftedIsometry:
    """The unique winding-space isometry over a given line isometry."""
    return LiftedIsometry(line_iso, subgroup)


def line_transitivity_witness(t, s, subgroup: OneParamSubgroup) -> LiftedIsometry:
    """The lifted translation carrying (g(t), t) to (g(s), s).

    Its existence for every parameter pair makes the cylinder sheet a single
    orbit, in contrast to the dense non-closed orbits on the compact sheet.
    """
    iso = lift_line_isometry(LineIsometry.translation(s - t), subgroup)
    if iso.apply(WindingPoint.line(t)).t != s:
        raise CertificationError("the lifted translation must carry t to s on the line")
    if iso.torus_part.apply(subgroup.point(t)) != subgroup.point(s):
        raise CertificationError("the lifted translation must carry g(t) to g(s) on the torus")
    return iso


# -- verification ------------------------------------------------------------------


@dataclass(frozen=True)
class PairFailure(Record):
    p: object
    q: object
    d_before: Distance
    d_after: Distance


@dataclass
class VerificationReport(Record):
    kind: str
    samples: int
    max_error: float
    failures: list[PairFailure]
    failures_total: int
    mode: ScalarMode

    @property
    def passed(self) -> bool:
        return self.failures_total == 0

    def report_fields(self) -> dict:
        return {**super().report_fields(), "passed": self.passed}


def verify_isometry(
    apply_map,
    n: int,
    params: GluingParams,
    gram: GramMatrix,
    mode: ScalarMode = EXACT,
    seed: int = 0,
    space: str = "glued",
    subgroup: OneParamSubgroup | None = None,
    max_recorded: int = 25,
    d: int = DEFAULT_D,
) -> VerificationReport:
    """Check d(f(p), f(q)) == d(p, q) on seeded sample pairs.

    Exact mode demands equal distance components; float mode allows
    mode.identity_eps of drift.  max_error is the largest
    |d(f(p), f(q)) - d(p, q)| between float values; exact mode computes
    those values (a 120-bit root each) only for the pairs whose components
    differ, as equal components have equal values and an error of 0.0.

    `apply_map` is any callable on points of the chosen space ('glued' or
    'winding').  Exact glued-space samples are drawn over sqrt(d), exact
    winding-space samples over the subgroup's slope field.  Samples take
    their heights at span s = 3*max(1, ceil(M)), float ones from [-s, s]:
    the rule of `check_metric_axioms`, computed exactly
    (`sampling._height_span`), so an exact M beyond the float range works.
    Float mode raises OverflowError, naming M and before drawing anything,
    when 6*max(1, M) has no finite float.
    """
    if space == "winding":
        if subgroup is None:
            raise ValueError("winding-space verification needs the subgroup")
        line_d = subgroup.alpha.d

        def dist(p, q):
            return winding_distance(p, q, params, gram, subgroup)

        def sample(rng):
            return random_winding_point(rng, span, exact=mode.exact, d=line_d)

    elif space == "glued":

        def dist(p, q):
            return glued_distance(p, q, params, gram)

        def sample(rng):
            return random_glued_point(rng, span, exact=mode.exact, d=d)

    else:
        raise ValueError("space must be 'glued' or 'winding'")
    if not mode.exact:
        _float_height_span(params.M)
    span = _height_span(params.M)

    failures: list[PairFailure] = []
    max_err = 0.0
    total_failures = 0
    for i in range(n):
        rng = rng_for(seed, i)
        p, q = sample(rng), sample(rng)
        d0 = dist(p, q)
        d1 = dist(apply_map(p), apply_map(q))
        same = mode.equal(d0, d1, mode.identity_eps)
        # exactly equal components have equal float values: their error is 0.0
        if not (same and mode.exact):
            max_err = max(max_err, abs(d0.value - d1.value))
        if not same:
            total_failures += 1
            if len(failures) < max_recorded:
                failures.append(PairFailure(p, q, d0, d1))
    return VerificationReport(space, n, max_err, failures, total_failures, mode)


# -- decomposition -----------------------------------------------------------------


def _fit_torus_action(
    probes: list[TorusPoint], images: list[TorusPoint]
) -> tuple[TorusIsometry, list[TorusPoint]]:
    """Identify y -> x + y or y -> x - y from probe images, exactly; returns
    the fitted isometry and its image of each probe."""
    for inverts in (False, True):
        x = images[0].translate(probes[0]) if inverts else probes[0].inverted_translate(images[0])
        fitted, expected = TorusIsometry(x, inverts), []
        for y, out in zip(probes, images):
            expected.append(fitted.apply(y))
            if expected[-1] != out:
                break
        else:
            return fitted, expected
    raise TorusActionError("torus action is neither a translation nor an inverted translation")


_PROBES = (
    TorusPoint.origin(),
    TorusPoint(Fraction(1, 4), Fraction(1, 8)),
    TorusPoint(Fraction(1, 3), Fraction(1, 5)),
    TorusPoint(Fraction(5, 8), Fraction(2, 7)),
)
_HEIGHTS = (Fraction(0), Fraction(1), Fraction(1, 3))


# bounded: a bundle decomposes a map and its impostors with one seed in a row
@lru_cache(maxsize=8, typed=True)
def _seeded_probes(seed: int, count: int, d: int) -> tuple[TorusPoint, ...]:
    """The seeded extra probes of `decompose_isometry`, drawn over sqrt(d)."""
    return tuple(random_torus_point(rng_for(seed, i), exact=True, d=d) for i in range(count))


def _all_probes(seed: int, count: int, d: int):
    """The fixed probes, then the seeded ones, drawn only when reached."""
    yield from _PROBES
    if count > 0:
        yield from _seeded_probes(seed, count, d)


def decompose_isometry(
    apply_map,
    params: GluingParams,
    gram: GramMatrix,
    mode: ScalarMode = EXACT,
    seed: int = 0,
    extra_probes: int = 4,
    d: int = DEFAULT_D,
) -> ProductIsometry:
    """Recover (torus part, line part) from a black-box glued-space map.

    Raises ComponentSwapError if sheets are mixed, LineActionError if some
    line's induced height map is not an isometry of the reals,
    ProductFormError if different lines see different height maps or the
    final cross-check fails, and TorusActionError for torus actions outside
    the recognized family.  The seeded extra probes are drawn over sqrt(d).

    The map is called once per distinct point: each probe y and (y, t) at
    three heights, 32 calls with the default 8 probes.  The torus fit
    matches every compact image exactly, and the cross-check compares each
    line image with the fitted form in every component.
    Seeded probes are drawn only after the 4 fixed ones pass the sheet
    check, so a sheet swap is rejected after one call and no draw.  They
    are drawn once per (seed, extra_probes, d) and kept in a small memo
    (`_seeded_probes`), so a second decomposition with the same seed, as
    of an impostor beside the map it imitates, draws nothing and probes the
    same points.
    """
    if extra_probes > 0:
        _check_d(d)

    # sheets must be preserved
    probes, torus_images = [], []
    for y in _all_probes(seed, extra_probes, d):
        img = apply_map(GluedPoint.compact(y))
        if not img.is_compact:
            raise ComponentSwapError("a torus point landed on the cylinder")
        probes.append(y)
        torus_images.append(img.y)
    line_images = []  # line_images[i][j] is the image of (probes[i], _HEIGHTS[j])
    line_maps = []
    for y in probes[:3]:
        images = []
        for t in _HEIGHTS:
            img = apply_map(GluedPoint.cylinder(y, t))
            if img.is_compact:
                raise ComponentSwapError("a cylinder point landed on the torus")
            images.append(img)
        line_images.append(images)
        c, one, third = (img.t for img in images)
        step = _combine(one, c, -1)
        if step != 1 and step != -1:
            raise LineActionError("height map does not move unit steps to unit steps")
        sign = 1 if step == 1 else -1
        if third != _combine(c, Fraction(sign, 3), 1):
            raise LineActionError("height map is not affine with slope +-1")
        line_maps.append(LineIsometry(sign, c))
    if any(lm != line_maps[0] for lm in line_maps):
        raise ProductFormError("different cylinder lines induce different height maps")

    torus_part, expected = _fit_torus_action(probes, torus_images)
    line_part = line_maps[0]

    # _fit_torus_action matched every compact image exactly; cross-check each
    # probe's line against the fitted product form, where only the lines of
    # probes[3:] are new
    heights = [line_part.apply(t) for t in _HEIGHTS]
    for i, (y, expect) in enumerate(zip(probes, expected)):
        for j, t in enumerate(_HEIGHTS):
            got = line_images[i][j] if i < len(line_images) else apply_map(GluedPoint.cylinder(y, t))
            if got.is_compact or not (
                mode.equal(expect.u1, got.y.u1, mode.eps)
                and mode.equal(expect.u2, got.y.u2, mode.eps)
                and mode.equal(heights[j], got.t, mode.eps)
            ):
                raise ProductFormError("map disagrees with its fitted product form")
    return ProductIsometry(torus_part, line_part)


# -- the discrete family preserving a coordinate circle -----------------------------


@dataclass(frozen=True)
class SubtorusElement(Record):
    """A lifted isometry carrying a coordinate circle to itself."""

    k: int
    kind: str  # "translation" | "reflection"
    parameter: object  # line shift c = k / alpha
    circle_shift: object  # induced move of the circle coordinate, frac(k / alpha)
    iso: LiftedIsometry


def subtorus_isometries(
    subgroup: OneParamSubgroup,
    subtorus: Subtorus,
    k_lo: int,
    k_hi: int,
) -> list[SubtorusElement]:
    """All lifts with shift c = k/alpha, k in [k_lo, k_hi]; they fix the circle.

    For the canonical direction (1, alpha) these are exactly the lifted
    isometries whose torus part maps the circle {(s, 0)} to itself:
    translations rotate it by frac(k/alpha), reflections mirror it.
    Membership of g(c) in the circle is asserted exactly.
    """
    if subtorus.free_axis != 0:
        raise ValueError("the winding direction (1, alpha) preserves only the first-axis circle")
    if subgroup.v1 != 1:
        raise ValueError("subtorus family requires the canonical direction (1, alpha)")
    alpha = subgroup.alpha
    out: list[SubtorusElement] = []
    for k in range(k_lo, k_hi + 1):
        c = k / alpha
        anchor = subgroup.point(c)
        if not subtorus.contains(anchor):
            raise CertificationError("anchor g(k/alpha) must lie on the circle")
        shift = subtorus.coordinate(anchor)
        for kind, sign in (("translation", 1), ("reflection", -1)):
            elem = lift_line_isometry(LineIsometry(sign, c), subgroup)
            out.append(SubtorusElement(k, kind, c, shift, elem))
    return out
