"""Independent checks of every operation's output, run outside the timed phase.

Each check recomputes what the program claims with code that shares nothing
with it (mpmath at fixed precision, numpy brute force over lattice shifts,
integer continued fractions), or tests a property the mathematics forces.
Exact values are read through the wire grammar (`format_scalar`), which is
part of the program's report contract, not through its internal layout.

Each `check_*` returns a list of problems; an empty list means the output
passed.  `planted_errors` feeds each checker a deliberately wrong answer and
reports every one it failed to reject.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import re
from fractions import Fraction

import mpmath
import numpy as np

import torusglue as tg
import workloads as wl

EXACT_DPS = 50
EXACT_TOL = mpmath.mpf(10) ** -40
HIT_TOL = mpmath.mpf(10) ** -36
BRUTE_K = 100_000
SHIFTS = range(-2, 3)

_QUAD = re.compile(r"^(?P<a>[+-]?\d+(?:/\d+)?) \+ (?P<b>[+-]?\d+(?:/\d+)?)\*sqrt\((?P<d>\d+)\)$")


def parts(x) -> tuple[Fraction, Fraction, int]:
    """(a, b, d) with x = a + b*sqrt(d), parsed from the wire form of x."""
    text = tg.format_scalar(x)
    m = _QUAD.match(text)
    if m:
        return Fraction(m["a"]), Fraction(m["b"]), int(m["d"])
    return Fraction(text), Fraction(0), 0


def mp(x):
    """x at the working precision, after summing its parts with enough extra
    digits that cancellation between a and b*sqrt(d) loses nothing."""
    a, b, d = parts(x)
    if not b:
        return mpmath.mpf(a.numerator) / a.denominator
    extra = digits(abs(a.numerator) // a.denominator + abs(b.numerator) // b.denominator)
    with mpmath.workdps(mpmath.mp.dps + extra):
        value = mpmath.mpf(a.numerator) / a.denominator + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(d)
    return +value


def mp_frac(x):
    return x - mpmath.floor(x)


def gram_entries(gram) -> tuple:
    return tuple(mp(g) for g in (gram.g11, gram.g12, gram.g22))


def lattice_min_sq(d1, d2, g):
    """min over shifts in {-2..2}^2 of the unreduced Gram form at (d1, d2) + shift."""
    g11, g12, g22 = g
    return min(
        g11 * (d1 + k1) ** 2 + 2 * g12 * (d1 + k1) * (d2 + k2) + g22 * (d2 + k2) ** 2
        for k1 in SHIFTS
        for k2 in SHIFTS
    )


def np_lattice_min_sq(d1, d2, g) -> np.ndarray:
    g11, g12, g22 = (float(x) for x in g)
    best = np.full(np.shape(d1), np.inf)
    for k1 in SHIFTS:
        for k2 in SHIFTS:
            v1, v2 = d1 + k1, d2 + k2
            best = np.minimum(best, g11 * v1 * v1 + 2 * g12 * v1 * v2 + g22 * v2 * v2)
    return best


def digits(k: int) -> int:
    return len(str(abs(k)))


# -- exact-certify -------------------------------------------------------------------


def check_pair(a, b, params, gram, dist) -> list[str]:
    """`dist` is the program's glued distance of (a, b); recompute it at 50 digits."""
    with mpmath.workdps(EXACT_DPS):
        d1 = mp(b.y.u1) - mp(a.y.u1)
        d2 = mp(b.y.u2) - mp(a.y.u2)
        torus_sq = lattice_min_sq(d1, d2, gram_entries(gram))
        if a.is_compact and b.is_compact:
            offset = mpmath.mpf(0)
        elif not a.is_compact and not b.is_compact:
            offset = min(abs(mp(a.t) - mp(b.t)), mp(params.M))
        else:
            offset = mp(params.R)
        problems = []
        if abs(mp(dist.torus_sq) - torus_sq) > EXACT_TOL:
            problems.append(f"torus_sq {tg.format_scalar(dist.torus_sq)} != brute force {torus_sq}")
        if abs(mp(dist.offset) - offset) > EXACT_TOL:
            problems.append(f"offset {tg.format_scalar(dist.offset)} != {offset}")
    return problems


def _check_axioms(rep, triples: int, what: str) -> list[str]:
    # both parameter sets have 2R >= M, where the gluing is a metric
    problems = []
    if rep.violations_total != 0 or rep.violations or not rep.passed:
        problems.append(f"{what}: {rep.violations_total} violations of a valid metric")
    if rep.checks != 8 * triples:
        problems.append(f"{what}: {rep.checks} checks for {triples} triples")
    return problems


def check_exact(op, r, env) -> list[str]:
    gram = env.grams[op.gram_name]
    problems = _check_axioms(r.above, len(op.above), "2R > M") + _check_axioms(r.at, len(op.at), "2R = M")
    v = r.verified
    if not v.passed or v.failures_total or v.samples != wl.VERIFY_PAIRS:
        problems.append("a lifted line isometry failed verification")
    if r.recovered != op.product:
        problems.append("decompose_isometry did not return the generated isometry")
    if r.swap != "ComponentSwapError":
        problems.append(f"sheet swap impostor gave {r.swap}")
    if r.scaling != "LineActionError":
        problems.append(f"height scaling impostor gave {r.scaling}")
    # one pair per op, from the first random triple at the threshold
    a, b, c = op.at[1]
    other = b if c is a else c
    problems += check_pair(a, other, env.at, gram, tg.glued_distance(a, other, env.at, gram))
    return problems


# -- orbit-density ---------------------------------------------------------------------


def _is_convergent(p: int, q: int, theta) -> bool:
    """Whether p/q is a convergent of theta, by an integer continued fraction."""
    a, b, d = parts(theta)
    # theta = (P + Q*sqrt(d)) / S with integers and S > 0
    S = a.denominator * b.denominator
    P, Q = a.numerator * b.denominator, b.numerator * a.denominator
    h, h_prev, k, k_prev = 1, 0, 0, 1
    while k <= q:
        root = math.isqrt(Q * Q * d)  # Q*sqrt(d) is irrational, so never exact
        floor_qd = root if Q > 0 else -root - 1
        n = (P + floor_qd) // S
        h, h_prev, k, k_prev = n * h + h_prev, h, n * k + k_prev, k
        if (h, k) == (p, q):
            return True
        # 1 / (theta - n) = S (P' - Q sqrt d) / (P'^2 - Q^2 d) with P' = P - nS
        P -= n * S
        P, Q, S = S * P, -S * Q, P * P - Q * Q * d
        if S < 0:
            P, Q, S = -P, -Q, -S
        g = math.gcd(math.gcd(P, Q), S)
        P, Q, S = P // g, Q // g, S // g
    return False


def check_density_hit(hit, target, eps, gram, alpha) -> list[str]:
    """Replay hit k of the return-time family t = u1 + k from the origin."""
    if hit is None:
        return [f"no hit for eps={eps}"]
    k = hit.k
    problems = []
    t = target.u1 + k  # targets are rational and the base point is the origin
    if parts(hit.t) != (t, 0, 0):
        problems.append(f"hit t={tg.format_scalar(hit.t)} is not u1 + k = {t}")
    g = gram_entries(gram)
    with mpmath.workdps(40 + digits(k)):
        u2 = mp_frac(mp(alpha) * t)
        for got, want in ((hit.point.u1, mp(target.u1)), (hit.point.u2, u2)):
            if abs(mp(got) - want) > HIT_TOL:
                problems.append(f"orbit point coordinate {tg.format_scalar(got)} != {want}")
        dist_sq = lattice_min_sq(mpmath.mpf(0), u2 - mp(target.u2), g)
        if not dist_sq < mp(eps) ** 2:
            problems.append(f"k={k}: distance^2 {dist_sq} is not below eps^2 for eps={eps}")
        if abs(mp(hit.distance_sq) - dist_sq) > HIT_TOL:
            problems.append(f"k={k}: distance_sq {tg.format_scalar(hit.distance_sq)} != {dist_sq}")
    if k <= BRUTE_K:
        # first coordinates match exactly along the family; float64 error in
        # the second is below 1e-10 for k <= 1e5, so only near-boundary k need
        # a high-precision second look
        alpha_f = float(mp(alpha))
        ks = np.arange(k, dtype=np.float64)
        w = np.mod(alpha_f * (float(target.u1) + ks), 1.0) - float(target.u2)
        d_sq = np_lattice_min_sq(np.zeros_like(w), w, g)
        eps_sq = float(eps) ** 2
        for j in np.nonzero(d_sq < eps_sq * (1 + 1e-6) + 1e-12)[0]:
            tj = target.u1 + int(j)
            with mpmath.workdps(40):
                dj = lattice_min_sq(mpmath.mpf(0), mp_frac(mp(alpha) * tj) - mp(target.u2), g)
                if dj < mp(eps) ** 2:
                    problems.append(f"k={int(j)} < {k} already lands within eps={eps}")
    return problems


def check_circle_hit(hit, target, eps, theta, g_axis) -> list[str]:
    problems = []
    k, conv = hit.k, hit.convergent
    if conv is None:
        if k != 0:
            problems.append(f"circle hit k={k} without a convergent")
    else:
        if k % conv.q:
            problems.append(f"circle hit k={k} is not a multiple of q={conv.q}")
        if not _is_convergent(conv.p, conv.q, theta):
            problems.append(f"{conv.p}/{conv.q} is not a convergent of theta")
    with mpmath.workdps(40 + digits(k)):
        position = mp_frac(mp(theta) * k)
        w = mp_frac(position - mp(target))
        dist_sq = min(w, 1 - w) ** 2 * mp(g_axis)
        if abs(mp(hit.position) - position) > HIT_TOL:
            problems.append(f"circle position {tg.format_scalar(hit.position)} != {position}")
        if not dist_sq < mp(eps) ** 2:
            problems.append(f"circle k={k}: distance^2 {dist_sq} not below eps^2 for eps={eps}")
        if abs(mp(hit.distance_sq) - dist_sq) > HIT_TOL:
            problems.append(f"circle k={k}: distance_sq {tg.format_scalar(hit.distance_sq)} != {dist_sq}")
    return problems


def check_orbit(op, r, env) -> list[str]:
    gram = env.grams[op.gram_name]
    rep = r.report
    problems = []
    # target and -target are rational and nonzero mod Z^2, while (t, t*alpha)
    # mod Z^2 is rational only at t = 0: the target is off the orbit
    cert = rep.certificate.describe()
    if cert["member"] or any(b["member"] for b in cert["branches"]) or len(cert["branches"]) != 2:
        problems.append("the certificate does not refute both orbit branches")
    if not rep.certificate_replayed or not rep.certificate.replay(env.line) or not rep.passed:
        problems.append("the non-membership certificate does not replay")
    if list(rep.density.epsilons) != list(wl.LADDER):
        problems.append("density report epsilons differ from the ladder")
    for eps, hit in zip(wl.LADDER, rep.density.hits):
        problems += check_density_hit(hit, op.target, eps, gram, env.line.alpha)
    g_axis = env.circle.gram_entry(gram)
    for hit, target, eps in zip(r.circles, op.circle_targets, wl.CIRCLE_EPS):
        problems += check_circle_hit(hit, target, eps, env.theta, g_axis)
    return problems


# -- float-sweep ---------------------------------------------------------------------------


def _float_glued(p, q, params, g) -> np.ndarray:
    """Brute-force glued distances between the float points p[i] and q[i]."""
    yp = np.array([x.y.as_floats() for x in p])
    yq = np.array([x.y.as_floats() for x in q])
    base = np.sqrt(np_lattice_min_sq(yq[:, 0] - yp[:, 0], yq[:, 1] - yp[:, 1], g))
    cp = np.array([not x.is_compact for x in p])
    cq = np.array([not x.is_compact for x in q])
    tp = np.array([x.t if x.t is not None else 0.0 for x in p])
    tq = np.array([x.t if x.t is not None else 0.0 for x in q])
    gap = np.minimum(np.abs(tp - tq), float(params.M))
    return base + np.where(cp & cq, gap, np.where(cp != cq, float(params.R), 0.0))


def check_sweep_violations(rep, params, gram) -> list[str]:
    """Recompute every recorded violation by brute force; each must be a real
    triangle violation no larger than M - 2R, the most the gluing allows."""
    g = tuple(float(x) for x in (gram.g11, gram.g12, gram.g22))
    excess = float(params.M - 2 * params.R)
    problems = [f"a {v.kind} violation: only the triangle inequality can fail"
                for v in rep.violations if v.kind != "triangle"]
    if not rep.violations or problems:
        return problems
    a = [v.a for v in rep.violations]
    b = [v.b for v in rep.violations]
    c = [v.c for v in rep.violations]
    lhs = _float_glued(a, b, params, g)
    rhs = _float_glued(a, c, params, g) + _float_glued(c, b, params, g)
    got_lhs = np.array([v.lhs for v in rep.violations])
    got_rhs = np.array([v.rhs for v in rep.violations])
    if np.max(np.abs(lhs - got_lhs)) > 1e-9 or np.max(np.abs(rhs - got_rhs)) > 1e-9:
        problems.append("recorded violation distances differ from the brute force")
    slack = lhs - rhs
    if not (np.all(slack > tg.FLOAT.eps) and np.all(slack <= excess + 1e-12)):
        problems.append(f"violation slack outside (eps, M - 2R]: {slack.min()} .. {slack.max()}")
    # the batch kernel on the recorded points against the brute force
    ya = np.array([p.y.as_floats() for p in a])
    yb = np.array([p.y.as_floats() for p in b])
    got = tg.torus.batch_torus_distance_sq(ya, yb, gram)
    want = np_lattice_min_sq(yb[:, 0] - ya[:, 0], yb[:, 1] - ya[:, 1], g)
    if np.max(np.abs(got - want)) > 1e-12:
        problems.append("batch_torus_distance_sq disagrees with the brute force")
    return problems


def check_float(op, r, env) -> list[str]:
    problems = []
    gram = env.grams[op.gram_name]
    above, below = r.above, r.below
    if above.violations_total or above.violations or not above.passed:
        problems.append(f"2R > M: {above.violations_total} violations of a valid metric")
    excess = float(env.below.M - 2 * env.below.R)
    if below.violations_total == 0 or below.passed:
        problems.append("2R < M: no violation found")
    if not 0 < below.max_abs_error <= excess + 1e-12:
        problems.append(f"2R < M: max_abs_error {below.max_abs_error} outside (0, M - 2R]")
    for rep in (above, below):
        if rep.checks != 8 * wl.FLOAT_N or rep.samples != wl.FLOAT_N:
            problems.append(f"{rep.checks} checks for {wl.FLOAT_N} triples")
    problems += check_sweep_violations(below, env.below, gram)
    return problems


CHECK = {"exact-certify": check_exact, "orbit-density": check_orbit, "float-sweep": check_float}


# -- the checkers must reject wrong answers ---------------------------------------------


def _replaced(ns, **changes):
    out = copy.copy(ns)
    for key, value in changes.items():
        setattr(out, key, value)
    return out


def plants(workload: str, op, r, env) -> dict:
    """Wrong answers planted into a real result: name -> the checker's verdict."""
    tiny = Fraction(1, 10**30)
    out = {}
    if workload == "exact-certify":
        gram = env.grams[op.gram_name]
        a, b, _ = op.at[0]
        dist = tg.glued_distance(a, b, env.at, gram)
        out["distance perturbed by 1e-30"] = lambda: check_pair(
            a, b, env.at, gram, dataclasses.replace(dist, torus_sq=dist.torus_sq + tiny)
        )
        flipped = _replaced(r.above, violations_total=1)
        out["flipped verdict"] = lambda: check_exact(op, _replaced(r, above=flipped), env)
        line = r.recovered.line_part
        wrong = dataclasses.replace(r.recovered, line_part=dataclasses.replace(line, shift=line.shift + Fraction(1, 7)))
        out["wrong decomposition"] = lambda: check_exact(op, _replaced(r, recovered=wrong), env)
        out["accepted impostor"] = lambda: check_exact(op, _replaced(r, scaling=None), env)
    elif workload == "orbit-density":
        gram = env.grams[op.gram_name]
        hit = r.report.density.hits[1]
        eps = wl.LADDER[1]
        alpha = env.line.alpha
        out["hit with k off by one"] = lambda: check_density_hit(
            dataclasses.replace(hit, k=hit.k + 1), op.target, eps, gram, alpha
        )
        out["hit with k off by one, replayed"] = lambda: check_density_hit(
            dataclasses.replace(hit, k=hit.k + 1, t=hit.t + 1, point=env.line.point(hit.t + 1)),
            op.target, eps, gram, alpha,
        )
        out["distance perturbed by 1e-30"] = lambda: check_density_hit(
            dataclasses.replace(hit, distance_sq=hit.distance_sq + tiny), op.target, eps, gram, alpha
        )
        circle = r.circles[-1]
        out["circle k off by one"] = lambda: check_circle_hit(
            dataclasses.replace(circle, k=circle.k + 1), op.circle_targets[-1], wl.CIRCLE_EPS[-1],
            env.theta, env.circle.gram_entry(gram),
        )
        report = _replaced(r.report, certificate_replayed=False)
        out["flipped verdict"] = lambda: check_orbit(op, _replaced(r, report=report), env)
    elif workload == "float-sweep":
        flipped = _replaced(r.above, violations_total=1)
        out["flipped verdict"] = lambda: check_float(op, _replaced(r, above=flipped), env)
        v = r.below.violations[0]
        moved = _replaced(r.below, violations=[dataclasses.replace(v, lhs=v.lhs + 1e-6)] + r.below.violations[1:])
        out["distance perturbed by 1e-6"] = lambda: check_float(op, _replaced(r, below=moved), env)
        large = _replaced(r.below, max_abs_error=float(env.below.M - 2 * env.below.R) + 1e-9)
        out["error beyond M - 2R"] = lambda: check_float(op, _replaced(r, below=large), env)
    return out


def planted_errors(workload: str, op, r, env) -> list[str]:
    """The planted wrong answers that a checker accepted."""
    return [name for name, verdict in plants(workload, op, r, env).items() if not verdict()]
