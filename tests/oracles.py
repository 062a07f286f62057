"""Independent reference implementations that tests compare the package against.

Each oracle is the plain form of something the package computes faster:
QuadScalar continued fractions and first-entry levels recomputed on every
call, exact stepping for first entries, rounding to the nearest integer,
torus translates and inversions built by re-reducing the raw coordinates,
wrap-around sums, exact torus distances, seeded samples, cylinder offsets,
line isometries and winding-line points built through scalar operator
dispatch, torus and circle density hits found and re-checked through the
scalar operators, orbit membership derivations by the Fraction views,
report text written through `json.dumps` and Fraction views or
by one type dispatch per value, and exact axiom and isometry checks that
compute the float value of every distance.
"""

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as json_quoted

from torusglue.gluing import AxiomViolation, Distance, _triangle_exact, glued_distance
from torusglue.numerics import (
    DEFAULT_D,
    CertificationError,
    FieldMismatchError,
    QuadScalar,
    _floor,
    _reduced,
    _sign,
    frac,
    scalar_lt,
    scalar_min,
    sign_of,
    sqrt_as_float,
)
from torusglue.orbit import BranchDerivation, CircleBranchDerivation, CircleHit, Convergent, DensityHit
from torusglue.sampling import random_fraction, random_glued_point, random_winding_point, rng_for
from torusglue.torus import _RADIUS_GRID, GramMatrix, TorusPoint, _corners


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
        if prev_abs is not None and (s != -prev_sign or not scalar_lt(abs(err), prev_abs)):
            raise CertificationError(f"convergent {p}/{q} breaks the alternating, shrinking defect")
        prev_sign = s
        prev_abs = abs(err)
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


# -- density hits through operator dispatch -----------------------------------------
#
# Before the density searches ran on integer triples, `torus_density_hit` and
# `circle_density_hit` derived the gap, the window, each start of the
# first-entry search and each landing through Fraction and QuadScalar
# operators.  These oracles keep those forms, with the first entries from
# `first_entry_levels`, the convergents from `convergent_stream` and the
# candidates' points and distances from the oracles below.


def density_hit(target, line, y0=None, eps=Fraction(1, 100), gram=None, budget=50_000_000):
    """`torus_density_hit` through the operators: the same hit, or None."""
    gram = gram or GramMatrix.identity()
    y0 = y0 or TorusPoint.origin()
    eps = Fraction(eps)
    eps_sq = eps * eps
    alpha = line.alpha
    w1 = frac(target.u1 - y0.u1)
    w2 = frac(target.u2 - y0.u2)
    r = eps * gram._radius_steps / _RADIUS_GRID
    step = frac(alpha)
    c = frac(alpha * w1 - w2 + r)
    k = first_entry_levels(step, c, 2 * r)
    while k <= budget:
        t = (w1 + k) / line.v1
        point = TorusPoint(*translate(winding_point(line, t), y0))
        dist_sq = exact_distance_sq(point, target, gram)
        if scalar_lt(dist_sq, eps_sq):
            return DensityHit(target, eps, k, t, point, dist_sq, sqrt_as_float(dist_sq), k + 1)
        k += 1 + first_entry_levels(step, frac(c + (k + 1) * step), 2 * r)
    return None


def wrap_sq(w, g_axis):
    """min(w, 1 - w)^2 * g_axis for w in [0, 1), a Fraction unless a QuadScalar."""
    wrap = w if scalar_lt(w, 1 - w) else 1 - w
    val = wrap * wrap * g_axis
    return val if isinstance(val, QuadScalar) else Fraction(val)


def circle_hit(target, theta, x0=Fraction(0), eps=Fraction(1, 1000), g_axis=Fraction(1), max_terms=None):
    """`circle_density_hit` through the operators: the same hit, or the same
    ValueError when no convergent within max_terms is sharp enough."""
    eps = Fraction(eps)
    eps_sq = eps * eps
    w = frac(target - x0)
    d0 = wrap_sq(w, g_axis)
    if scalar_lt(d0, eps_sq):
        return CircleHit(target, eps, 0, frac(x0), d0, sqrt_as_float(d0), None)
    bound = eps_sq / g_axis
    if max_terms is None:
        max_terms = math.ceil(1 / bound).bit_length() + 1
    stream = convergent_stream(theta)
    for _ in range(max_terms):
        conv = next(stream)[1]
        if scalar_lt(conv.err * conv.err, bound):
            break
    else:
        raise ValueError(f"no convergent within {max_terms} terms is sharp enough for eps={eps}")
    delta = conv.err
    m = ((w - 1 if delta < 0 else w) / delta).floor()
    k = m * conv.q
    position = frac(x0 + k * theta)
    dist_sq = wrap_sq(frac(position - target), g_axis)
    if not scalar_lt(dist_sq, eps_sq):
        raise CertificationError(f"rotation by k = {k} steps does not land within eps of the target")
    return CircleHit(target, eps, k, position, dist_sq, sqrt_as_float(dist_sq), conv)


def _rotation_solution(w, theta) -> tuple:
    """(k_star, k integral, residue, member) for k*theta - w, by the Fraction views."""
    wa, wb = (w.a, w.b) if isinstance(w, QuadScalar) else (Fraction(w), Fraction(0))
    k_star = wb / theta.b
    if k_star.denominator != 1:
        return k_star, False, None, False
    residue = k_star * theta.a - wa
    return k_star, True, residue, residue.denominator == 1


def branch_derivation(target, line, y0, branch):
    """`derive_branch` through the operators: the gap to y0 or to its inverse."""
    base = y0 if branch == "direct" else TorusPoint(*invert(y0))
    w1, w2 = map(frac, base.delta(target))
    alpha = line.alpha
    return BranchDerivation(branch, w1, w2, *_rotation_solution(w2 - alpha * w1, alpha))


def circle_branch_derivation(target, theta, x0, branch):
    w = frac(target - x0) if branch == "direct" else frac(target + x0)
    return CircleBranchDerivation(branch, w, *_rotation_solution(w, theta))


# -- torus points by re-reduction ---------------------------------------------------
#
# Before reduced points skipped it, every torus translate and inversion built
# its result by reducing the raw coordinates with floor_frac.  These oracles
# keep that construction; they return coordinate pairs.


def reduced(u1, u2) -> tuple:
    return frac(u1), frac(u2)


def translate(p, q) -> tuple:
    return reduced(p.u1 + q.u1, p.u2 + q.u2)


def invert(p) -> tuple:
    return reduced(-p.u1, -p.u2)


def inverted_translate(y, x) -> tuple:
    """x - y as the invert-then-translate composition: frac(frac(-y) + x)."""
    n1, n2 = invert(y)
    return reduced(n1 + x.u1, n2 + x.u2)


def torus_apply(iso, y) -> tuple:
    return inverted_translate(y, iso.x) if iso.inverts else translate(y, iso.x)


def torus_compose(s, o) -> tuple:
    """(x, inverts) of s after o: x_s + e_s x_o and e_s e_o."""
    if s.inverts:
        n1, n2 = invert(o.x)
        x = reduced(s.x.u1 + n1, s.x.u2 + n2)
    else:
        x = translate(s.x, o.x)
    return x, s.inverts != o.inverts


# -- exact torus points through operator dispatch ----------------------------------
#
# Before exact points carried integer lifts, wrap-around sums and the exact
# torus distance re-derived each coordinate's triple through Fraction and
# QuadScalar operators, and the seeded samplers built their scalars through
# Fraction -> QuadScalar -> frac.  These oracles keep those forms.


def plus(u, x):
    """u + x mod 1 for exact u, x in [0, 1), by the operators."""
    s = u + x
    return s - 1 if s >= 1 else s


def minus(x, y):
    """x - y mod 1 for exact x, y in [0, 1), as -y + x by the operators."""
    s = -y + x
    return s + 1 if s < 0 else s


def _parts(x) -> tuple:
    if isinstance(x, QuadScalar):
        return x._A, x._B, x._D
    return x.numerator, 0, x.denominator


def exact_distance_sq(p, q, gram):
    """The exact torus distance with the four triples and their lcm rebuilt
    from the coordinates on every call.  Its field is that of the two
    differences q.u_i - p.u_i, taken by the operators: an axis that mixes
    two irrational fields raises as the operator does, and two differences
    irrational over different fields raise, naming axis 1's field first."""
    coords = q.u1, p.u1, q.u2, p.u2
    labels = {x.d for x in coords if isinstance(x, QuadScalar)}
    fields = [x.d for x in (q.u1 - p.u1, q.u2 - p.u2) if isinstance(x, QuadScalar) and x._B]
    if len(set(fields)) > 1:
        raise FieldMismatchError(f"cannot mix sqrt({fields[0]}) and sqrt({fields[1]}) scalars")
    d = fields[0] if fields else DEFAULT_D
    q1, p1, q2, p2 = parts = [_parts(x) for x in coords]
    L = math.lcm(q1[2], p1[2], q2[2], p2[2])
    k = [L // x[2] for x in parts]
    a1, b1 = q1[0] * k[0] - p1[0] * k[1], q1[1] * k[0] - p1[1] * k[1]
    a2, b2 = q2[0] * k[2] - p2[0] * k[3], q2[1] * k[2] - p2[1] * k[3]
    (u11, u12), (u21, u22) = gram.unimodular_inverse
    w1, c1 = u11 * a1 + u12 * a2, u11 * b1 + u12 * b2
    w2, c2 = u21 * a1 + u22 * a2, u21 * b1 + u22 * b2
    z1 = w1 - _floor(2 * w1 + L, 2 * c1, 2 * L, d) * L
    z2 = w2 - _floor(2 * w2 + L, 2 * c2, 2 * L, d) * L
    shifts = _corners(_sign(z1, c1, d), _sign(z2, c2, d))
    (n11, n12, n22), G = gram._int_data
    root = d * (n11 * c1 * c1 + 2 * n12 * c1 * c2 + n22 * c2 * c2)
    h1, h2 = 2 * (n11 * c1 + n12 * c2), 2 * (n12 * c1 + n22 * c2)
    vals = []
    for s1, s2 in shifts:
        x1, x2 = z1 + s1 * L, z2 + s2 * L
        vals.append((x1 * (n11 * x1 + 2 * n12 * x2) + n22 * x2 * x2 + root, x1 * h1 + x2 * h2))
    best = vals[0]
    for A, B in vals[1:]:
        if _sign(A - best[0], B - best[1], d) < 0:
            best = A, B
    if len(labels) > 1:
        (v11, v12), (v21, v22) = gram.reduction[0]
        reps = []
        for (s1, s2), val in zip(shifts, vals):
            if val == best:
                x1, x2 = z1 + s1 * L, z2 + s2 * L
                reps.append(((v11 * x1 + v12 * x2 - a1) // L, (v21 * x1 + v22 * x2 - a2) // L))
        k1, k2 = min(reps)
        d1, d2 = p.delta(q)
        return gram.form(d1 + k1, d2 + k2)
    A, B = best
    if not labels:
        return Fraction(A, G * L * L)
    return _reduced(A, B, G * L * L, d)


def unit_scalar(rng, d=DEFAULT_D, radical_prob=0.5):
    """`random_unit_scalar` as Fraction -> QuadScalar(a, b, d) -> frac."""
    a = random_fraction(rng)
    if rng.random() >= radical_prob:
        return a
    b = Fraction(rng.randint(-4, 4), rng.randint(1, 8))
    return frac(QuadScalar(a, b, d))


def span_scalar(rng, span, d=DEFAULT_D):
    whole = rng.randint(-int(span), int(span))
    return whole + unit_scalar(rng, d) - random_fraction(rng)


def torus_point(rng, d=DEFAULT_D):
    """An exact `random_torus_point`, reduced again by the constructor."""
    return TorusPoint(unit_scalar(rng, d), unit_scalar(rng, d))


# -- heights and winding points through operator dispatch ----------------------------
#
# Before they were built on triples, the cylinder offset, line isometries and
# points of a winding line went through the scalar operators and, for the
# points, the reducing TorusPoint constructor.  These oracles keep those forms.


def capped_gap(ta, tb, M):
    """The cylinder offset min(|ta - tb|, M), M on a tie."""
    return scalar_min(abs(ta - tb), M)


def line_apply(iso, t):
    return t + iso.shift if iso.sign > 0 else iso.shift - t


def winding_point(line, t):
    return TorusPoint(t * line.v1, t * line.v2)


# -- report text through json.dumps and Fraction views ------------------------------


def quad_str(x) -> str:
    """str of a QuadScalar through its Fraction views a and b."""
    if x.b == 0:
        return str(x.a)
    return f"{x.a} + {x.b}*sqrt({x.d})"


def _scalar_text(x) -> str:
    return quad_str(x) if isinstance(x, QuadScalar) else str(x)


def _float_text(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float has no place in a report")
    return "%.17g" % x


def _write(obj, parts: list, indent: int) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, float):
        parts.append(_float_text(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (Fraction, QuadScalar)):
        parts.append(json.dumps(_scalar_text(obj)))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, item in enumerate(obj):
            parts.append(inner)
            _write(item, parts, indent + 1)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        keys = sorted(obj)
        if any(not isinstance(k, str) for k in keys):
            raise TypeError("report keys must be strings")
        parts.append("{\n")
        for i, key in enumerate(keys):
            parts.append(inner + json.dumps(key) + ": ")
            _write(obj[key], parts, indent + 1)
            parts.append(",\n" if i + 1 < len(keys) else "\n")
        parts.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Canonical report text with one json.dumps call per key and per string."""
    parts: list = []
    _write(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


# -- report text by per-value dispatch ------------------------------------------------
#
# Before containers wrote their leaves inline, the writer recursed into every
# value, dispatched on its type (a subclass on the first base it is an
# instance of) and quoted every key afresh.  This oracle keeps that writer.

_BASES = (float, int, str, Fraction, QuadScalar, list, tuple, dict)
_BRANCHES = frozenset((*_BASES, bool, type(None)))


def _dispatch_write(obj, parts: list, indent: int) -> None:
    t = type(obj)
    if t not in _BRANCHES:
        t = next((base for base in _BASES if isinstance(obj, base)), None)
    if t is str:
        parts.append(json_quoted(obj))
    elif t is dict:
        if not obj:
            parts.append("{}")
            return
        inner = "  " * (indent + 1)
        parts.append("{\n")
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError("report keys must be strings")
            parts.append(inner + json_quoted(key) + ": ")
            _dispatch_write(obj[key], parts, indent + 1)
            parts.append(",\n")
        parts[-1] = "\n"
        parts.append("  " * indent + "}")
    elif t is list or t is tuple:
        if not obj:
            parts.append("[]")
            return
        inner = "  " * (indent + 1)
        parts.append("[\n")
        for item in obj:
            parts.append(inner)
            _dispatch_write(item, parts, indent + 1)
            parts.append(",\n")
        parts[-1] = "\n"
        parts.append("  " * indent + "]")
    elif t is QuadScalar or t is Fraction:
        parts.append(json_quoted(str(obj)))
    elif t is int:
        parts.append(str(obj))
    elif t is float:
        parts.append(_float_text(obj))
    elif t is bool:
        parts.append("true" if obj else "false")
    elif obj is None:
        parts.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dispatch_canonical_json(obj) -> str:
    """Canonical report text with one recursive call and one type dispatch per value."""
    parts: list = []
    _dispatch_write(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


# -- exact checks that compute every float value ------------------------------------
#
# Before they skipped it, the exact checks computed each distance's float value
# (`Distance.value`, a 120-bit root) for every sampled triple and pair: the
# symmetry error |d_ab - d_ba| and the identity error |d_aa| went into the
# maximum error whatever the exact tests found, and so did the error of every
# verified pair.  These oracles keep that.


def exact_axiom_log(triples, params, gram, max_recorded: int = 100):
    """(violations, violations_total, max_abs_error) of exact
    `check_metric_axioms` over the given triples, every float value computed."""
    entries, total, max_err = [], 0, 0.0
    zero = Distance(0, 0)

    def add(kind, a, b, c, lhs, rhs, slack):
        nonlocal total, max_err
        total += 1
        max_err = max(max_err, slack)
        if len(entries) < max_recorded:
            entries.append(AxiomViolation(kind, a, b, c, lhs, rhs, slack))

    for a, b, c in triples:
        d_ab, d_ba, d_ac, d_bc, d_aa = (
            glued_distance(p, q, params, gram) for p, q in ((a, b), (b, a), (a, c), (b, c), (a, a))
        )
        err = abs(d_ab.value - d_ba.value)
        max_err = max(max_err, err, abs(d_aa.value))
        if d_ab != d_ba:
            add("symmetry", a, b, None, d_ab.value, d_ba.value, err)
        if d_aa != zero:
            add("identity-zero", a, a, None, d_aa.value, 0.0, abs(d_aa.value))
        for p, q, d in ((a, b, d_ab), (a, c, d_ac), (b, c, d_bc)):
            if d == zero and p != q:
                add("identity-distinct", p, q, None, d.value, 0.0, d.value)
        for lhs, r1, r2, pa, pb, pc in (
            (d_ab, d_ac, d_bc, a, b, c),
            (d_ac, d_ab, d_bc, a, c, b),
            (d_bc, d_ab, d_ac, b, c, a),
        ):
            ok, slack = _triangle_exact(lhs, r1, r2)
            if not ok:
                add("triangle", pa, pb, pc, lhs.value, r1.value + r2.value, slack)
    return entries, total, max_err


def exact_isometry_max_error(apply_map, n, params, gram, seed=0, space="glued", subgroup=None, d=2):
    """max_error of exact `verify_isometry`: the same seeded pairs, the float
    error of every pair computed.  Heights are drawn at span 3*max(1, ceil(M))."""
    span = 3 * max(1, math.ceil(params.M))
    max_err = 0.0
    for i in range(n):
        rng = rng_for(seed, i)
        if space == "winding":
            p, q = (random_winding_point(rng, span, d=subgroup.alpha.d) for _ in range(2))

            def dist(u, v):
                return glued_distance(u.embed(subgroup), v.embed(subgroup), params, gram)
        else:
            p, q = (random_glued_point(rng, span, d=d) for _ in range(2))

            def dist(u, v):
                return glued_distance(u, v, params, gram)
        max_err = max(max_err, abs(dist(p, q).value - dist(apply_map(p), apply_map(q)).value))
    return max_err
