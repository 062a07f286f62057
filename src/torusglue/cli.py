"""Command-line front end: verification campaigns with machine-readable reports.

Configuration precedence is config file < flags < TORUSGLUE_SEED; the
environment variable overrides the seed and nothing else.  Every report
embeds the resolved semantic configuration, so its pass/fail verdict can be
reproduced from the report alone, and identical config + seed yields
byte-identical output.  Exit codes: 0 all checks passed, 1 a violation or
failure was found, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple

from .numerics import (
    EXACT,
    FLOAT,
    QuadScalar,
    _check_d,
    format_scalar,
    frac,
    parse_scalar,
    sign_of,
    sqrt_interval,
)
from .report import canonical_json, density_csv, plain, write_report
from .torus import GramMatrix, OneParamSubgroup, Subtorus, TorusPoint

if TYPE_CHECKING:  # density and non-closure load no gluing; the handlers import it
    from .gluing import GluedPoint, GluingParams

ENV_SEED = "TORUSGLUE_SEED"


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


# -- value parsers: (text, d) -> value, raising ValueError on bad input ------------


def _int(text: str, d=None) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _exact(text: str, d=None):
    return parse_scalar(text.strip(), d)


def _rational(text: str, d=None) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational: {text.strip()!r}") from None


def _radicand(text: str, d=None) -> int:
    return _check_d(_int(text))  # raises ValueError unless square-free and >= 2


def _alpha(text: str, d: int) -> QuadScalar:
    val = _exact(text, d) if "sqrt" in text else QuadScalar(0, _rational(text), d)
    if not isinstance(val, QuadScalar) or val.a != 0 or val.b == 0:
        raise ValueError("slope must be a nonzero rational multiple of sqrt(d)")
    return val


def _gram(text: str, d=None) -> GramMatrix:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("expected three entries g11,g12,g22")
    return GramMatrix(*(_rational(p) for p in parts))


def _point(text: str, d: int) -> TorusPoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("expected a point u1,u2")
    return TorusPoint(_exact(parts[0], d), _exact(parts[1], d))


def _k_range(text: str, d=None) -> tuple[int, int]:
    if ":" not in text:
        raise ValueError("expected lo:hi")
    lo, hi = text.split(":", 1)
    return _int(lo), _int(hi)


def _bool(text: str, d=None) -> bool:
    low = text.strip().lower()
    if low not in ("true", "1", "yes", "on", "false", "0", "no", "off"):
        raise ValueError(f"not a boolean: {text!r}")
    return low in ("true", "1", "yes", "on")


def _choice(table: dict):
    def parse(text: str, d=None):
        if text not in table:
            raise ValueError(f"must be one of {', '.join(map(repr, table))}, got {text!r}")
        return table[text]

    return parse


def _list_of(parse):
    def parse_list(text: str, d=None) -> list:
        return [parse(part, d) for part in text.split(",")]

    return parse_list


def _targets(text: str, d: int) -> list[TorusPoint]:
    return [_point(part, d) for part in text.split(";") if part.strip()]


# -- checks: value -> message, or None when the value is acceptable ----------------


def _must(ok, message: str):
    return lambda value: None if ok(value) else message


_positive = _must(lambda v: sign_of(v) > 0, "must be positive")
_nonnegative = _must(lambda v: v >= 0, "must be nonnegative")
_all_positive = _must(lambda v: min(v) > 0, "must be positive")
_unsigned_64 = _must(lambda v: 0 <= v < 2**64, "must be a 64-bit unsigned integer")


def _has_float_view(v) -> bool:
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


# reports and float mode read R and M through their float views
_length = _must(lambda v: sign_of(v) > 0 and _has_float_view(v), "must be positive and fit a float")


def _has_float_gram(gram: GramMatrix) -> bool:
    try:
        gram._float_data
    except OverflowError:
        return False
    return True


# key -> (default text, parser, check, flag help).  Parsers run in this order,
# so d comes before every key whose literals may carry sqrt(d).
KEYS = {
    "d": ("2", _radicand, None, "square-free radicand (default 2)"),
    "alpha": ("1", _alpha, None, "slope coefficient b in b*sqrt(d), or a full scalar literal"),
    "gram": ("1,0,1", _gram, None, "torus metric entries g11,g12,g22"),
    "R": ("1", _exact, _length, "cross-component offset (exact literal)"),
    "M": ("2", _exact, _length, "line gap cap (exact literal)"),
    "mode": ("exact", _choice({"exact": EXACT, "float": FLOAT}), None, "exact or float"),
    "seed": ("0", _int, _unsigned_64, "64-bit unsigned run seed"),
    "format": ("json", _choice({"json": "json", "csv": "csv"}), None, "json or csv"),
    "output": (None, lambda text, d: text, None, "report path (default stdout)"),
    "allow_invalid_metric": ("false", _bool, None, "permit 2R < M configurations"),
    "samples": ("64", _int, _nonnegative, "random samples per check, at least 0"),
    "instances": ("50", _int, _nonnegative, "random instances or round trips, at least 0"),
    "count": ("100", _int, _positive, "sampled parameters or circle targets, at least 1"),
    "grid": (
        "100", _int, _must(lambda v: v >= 2, "needs at least 2 points"),
        "points per axis of the brute-force torus grid, at least 2"),
    # the height grid is centered at the point; only an odd size contains it
    "t_grid": (
        "401", _int, _must(lambda v: v >= 3 and v % 2, "must be odd and at least 3"),
        "points of the height grid around the point, odd, at least 3"),
    "shifts": ("0,1,1/2,-1/3", _list_of(_exact), None, "line shifts c of t -> +-t + c, comma-separated"),
    "targets": (
        "0,1/2", _targets, _must(bool, "no targets given"),
        "torus points u1,u2, separated by ';', at least one"),
    "target": ("0,1/2", _point, None, "torus point u1,u2"),
    "epsilons": ("1e-2,1e-3", _list_of(_rational), _all_positive, "positive rationals, comma-separated"),
    "eps": ("1e-3", _rational, _positive, "circle density tolerance, a positive rational"),
    "budget": ("50000000", _int, _positive, "largest orbit index k searched, at least 1"),
    "t": (None, _exact, None, "line parameter t; give s too, or neither to sample pairs"),
    "s": (None, _exact, None, "line parameter s; give t too, or neither to sample pairs"),
    "k_range": (
        "-5:5", _k_range, _must(lambda v: v[0] <= v[1], "lo must not exceed hi"),
        "integers lo:hi, lo <= hi: the shifts k/alpha of the family"),
}

COMMON_KEYS = (
    "d", "alpha", "gram", "R", "M", "mode", "seed", "format", "output", "allow_invalid_metric"
)


# -- config assembly ---------------------------------------------------------------


def _load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError("config", f"line {lineno} is not key=value: {line!r}")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusglue",
        description="Exact verification toolkit for the glued torus-and-cylinder space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in COMMANDS.items():
        p = sub.add_parser(name, help=row.help)
        p.add_argument("--config", default=None, help="key=value file; flags win")
        for key in COMMON_KEYS + row.own:
            # a bare --allow-invalid-metric sets its key to "true"
            switch = (
                {"action": "store_const", "const": "true"} if key == "allow_invalid_metric" else {}
            )
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=KEYS[key][3], **switch)
    return parser


def _resolve_strings(args: argparse.Namespace) -> dict:
    """Key -> text, from defaults < config file < flags < TORUSGLUE_SEED."""
    row = COMMANDS[args.command]
    merged = {key: KEYS[key][0] for key in COMMON_KEYS + row.own} | row.overrides
    if args.config is not None:
        for key, value in _load_config_file(args.config).items():
            if key not in merged:
                raise ConfigError(key, f"unknown key for command '{args.command}'")
            merged[key] = value
    for key in merged:
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
    if ENV_SEED in os.environ:
        merged["seed"] = os.environ[ENV_SEED]
    return merged


class RunConfig(SimpleNamespace):
    """Resolved, validated configuration for one subcommand run: one attribute per key."""

    def subgroup(self) -> OneParamSubgroup:
        return OneParamSubgroup.canonical(self.alpha)

    def params(self) -> GluingParams:
        from .gluing import GluingParams

        try:
            return GluingParams(self.R, self.M, strict=not self.allow_invalid_metric)
        except ValueError as exc:
            message = str(exc).replace("pass strict=False", "pass --allow-invalid-metric")
            raise ConfigError("R", message)

    def describe(self) -> dict:
        # where and how the report is written does not change its verdict
        return plain({k: v for k, v in vars(self).items() if k not in ("format", "output")})


def _typed_config(command: str, merged: dict) -> RunConfig:
    values = {"command": command}
    for key, (_, parse, check, _) in KEYS.items():
        if key not in merged:
            continue
        text = merged[key]
        try:
            value = None if text is None else parse(text, values.get("d"))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(key, str(exc))
        problem = check(value) if check else None
        if problem:
            raise ConfigError(key, problem)
        values[key] = value
    if "t" in values and (values["t"] is None) != (values["s"] is None):
        raise ConfigError("t", "give both --t and --s, or neither")
    row = COMMANDS[command]
    if values["mode"] in row.kernel_modes and not _has_float_gram(values["gram"]):
        raise ConfigError("gram", "the reduced form's entries must fit a float")
    # float samplers draw heights from [-3 max(1, M), 3 max(1, M)], so the
    # range 6 * max(1, M) must be a float; `nearest`'s grid oracle takes its
    # offsets from t exactly and needs only M as a float, but shares the gate
    if values["mode"] is FLOAT and FLOAT in row.kernel_modes:
        from .gluing import _float_height_span

        try:
            _float_height_span(values["M"])
        except OverflowError:
            raise ConfigError("M", "the sampled height range 6*max(1, M) must fit a float") from None
    if values["format"] == "csv" and row.csv is None:
        raise ConfigError("format", "csv output applies only to density tables")
    return RunConfig(**values)


# -- subcommand implementations: each returns its payload, "passed" included ------
# Each handler imports the layers it calls, so verify-metric, counterexample and
# nearest load neither orbit nor isometry, and density and non-closure load
# neither gluing nor sampling.


def _cmd_verify_metric(cfg: RunConfig) -> dict:
    from .gluing import check_metric_axioms

    rep = check_metric_axioms(
        cfg.samples, cfg.params(), cfg.gram, mode=cfg.mode, seed=cfg.seed, d=cfg.d
    )
    return {"report": rep, "passed": rep.passed}


def _cmd_counterexample(cfg: RunConfig) -> dict:
    from .gluing import check_metric_axioms, triangle_counterexample

    params = cfg.params()
    try:
        witness = triangle_counterexample(params, cfg.gram)
    except ValueError as exc:
        raise ConfigError("R", str(exc))
    axioms = check_metric_axioms(
        cfg.samples, params, cfg.gram, mode=cfg.mode, seed=cfg.seed, d=cfg.d,
        extra_triples=(witness.as_triple(),),
    )
    return {
        "witness": witness,
        "axioms": axioms,
        "flagged": not axioms.passed,
        "passed": False,
    }


def _cmd_nearest(cfg: RunConfig) -> dict:
    from .gluing import (
        Distance,
        GluedPoint,
        grid_nearest_in_compact,
        grid_nearest_on_line,
        nearest_in_compact,
        nearest_line_set,
        nearest_on_line,
    )
    from .sampling import random_span_scalar, random_torus_point, rng_for

    params, mode, grid = cfg.params(), cfg.mode, cfg.grid
    exact = mode.exact
    on_torus = Distance(0, params.R)  # from (y, t) to y, and from y to any (y, t)
    results = []
    passed = True
    for i in range(cfg.instances):
        rng = rng_for(cfg.seed, i)
        y = random_torus_point(rng, exact=exact, d=cfg.d)
        y2 = random_torus_point(rng, exact=exact, d=cfg.d)
        t = random_span_scalar(rng, 3, cfg.d) if exact else rng.uniform(-3.0, 3.0)
        p = GluedPoint.cylinder(y, t)

        rec_a = nearest_in_compact(p, params, cfg.gram, grid, mode)
        _, oracle_a = grid_nearest_in_compact(p, params, cfg.gram, grid)
        ok_a = (
            mode.equal(rec_a.achieved, on_torus, mode.eps)
            and sign_of(rec_a.gap.sq) > 0
            and oracle_a >= rec_a.achieved.value - 1e-9
        )

        rec_b = nearest_line_set(y, params, cfg.gram, grid_n=grid, mode=mode)
        # the grid oracle at (y, s) reads only y and R, as d(y', (y, s)) does
        # not depend on s, so for every s in ts_checked it is oracle_a
        ok_b = rec_b.line_constant and sign_of(rec_b.margin.sq) > 0 and oracle_a >= rec_b.base.value - 1e-9

        rec_c = nearest_on_line(p, y2, params, cfg.gram)
        oracle_t, oracle_c = grid_nearest_on_line(p, y2, params, cfg.gram, cfg.t_grid)
        ok_c = (
            abs(oracle_c - rec_c.achieved.value) <= 1e-9
            and abs(float(oracle_t) - float(p.t)) <= 1e-9
        )
        passed = passed and ok_a and ok_b and ok_c
        results.append(
            {
                "instance": i,
                "nearest_in_compact": {
                    "ok": ok_a, "record": rec_a, "grid_min": oracle_a
                },
                "nearest_line_set": {"ok": ok_b, "record": rec_b},
                "nearest_on_line": {
                    "ok": ok_c,
                    "record": rec_c,
                    "grid_t": float(oracle_t),
                    "grid_min": oracle_c,
                },
            }
        )
    return {"instances": results, "passed": passed}


def _swap_impostor(p: GluedPoint) -> GluedPoint:
    from .gluing import GluedPoint

    if p.is_compact:
        return GluedPoint.cylinder(p.y, Fraction(0))
    return GluedPoint.compact(p.y)


def _scaling_impostor(p: GluedPoint) -> GluedPoint:
    from .gluing import GluedPoint

    if p.is_compact:
        return p
    return GluedPoint.cylinder(p.y, 2 * p.t)


def _lift_check(cfg: RunConfig, params, subgroup, sign: int, shift, seed: int):
    """(lift of the line map t -> sign*t + shift, its verification on the winding space)."""
    from .isometry import LineIsometry, lift_line_isometry, verify_isometry

    iso = lift_line_isometry(LineIsometry(sign, shift), subgroup)
    rep = verify_isometry(
        iso.apply, cfg.samples, params, cfg.gram, mode=cfg.mode, seed=seed,
        space="winding", subgroup=subgroup,
    )
    return iso, rep


def _cmd_isometry_check(cfg: RunConfig) -> dict:
    from .isometry import ComponentSwapError, DecompositionError, LineActionError, decompose_isometry
    from .sampling import random_product_isometry, rng_for

    params = cfg.params()
    subgroup = cfg.subgroup()

    def decompose(apply_map):
        return decompose_isometry(
            apply_map, params, cfg.gram, mode=cfg.mode, seed=cfg.seed, d=cfg.d
        )

    def rejected(apply_map, error) -> bool:
        """decompose raises exactly the typed error the impostor deserves."""
        try:
            decompose(apply_map)
        except error:
            return True
        except DecompositionError:
            pass
        return False

    lift_rows = []
    for j, (sign, shift) in enumerate(
        [(1, Fraction(0)), (1, Fraction(1, 3)), (-1, Fraction(0)), (-1, Fraction(2, 7))]
    ):
        iso, rep = _lift_check(cfg, params, subgroup, sign, shift, cfg.seed + j)
        lift_rows.append(
            {"iso": iso, "verified": rep.passed, "max_error": rep.max_error}
        )

    roundtrip_failures = 0
    for i in range(cfg.instances):
        iso = random_product_isometry(rng_for(cfg.seed, 10_000 + i), cfg.d)
        try:
            roundtrip_failures += decompose(iso.apply) != iso
        except DecompositionError:
            roundtrip_failures += 1

    impostors = {
        "swap_rejected": rejected(_swap_impostor, ComponentSwapError),
        "scaling_rejected": rejected(_scaling_impostor, LineActionError),
    }
    return {
        "lifts": lift_rows,
        "roundtrips": {"total": cfg.instances, "failures": roundtrip_failures},
        "impostors": impostors,
        "passed": all(r["verified"] for r in lift_rows)
        and roundtrip_failures == 0
        and all(impostors.values()),
    }


def _cmd_lift(cfg: RunConfig) -> dict:
    params = cfg.params()
    subgroup = cfg.subgroup()
    rows = []
    for j, shift in enumerate(cfg.shifts):
        for sign in (1, -1):
            iso, rep = _lift_check(cfg, params, subgroup, sign, shift, cfg.seed + j)
            rows.append(
                {
                    "line": iso.line_part,
                    "torus": iso.torus_part,
                    "verified": rep.passed,
                    "max_error": rep.max_error,
                }
            )
    return {"lifts": rows, "passed": all(r["verified"] for r in rows)}


def _cmd_density(cfg: RunConfig) -> dict:
    from .orbit import density_report

    subgroup = cfg.subgroup()
    reports = [
        density_report(target, subgroup, cfg.epsilons, gram=cfg.gram, budget=cfg.budget)
        for target in cfg.targets
    ]
    return {"reports": reports, "passed": all(r.passed for r in reports)}


def _cmd_non_closure(cfg: RunConfig) -> dict:
    from .orbit import non_closure_report

    try:
        rep = non_closure_report(
            cfg.target, cfg.subgroup(), cfg.epsilons, gram=cfg.gram, budget=cfg.budget
        )
    except ValueError as exc:
        raise ConfigError("target", str(exc))
    return {"report": rep, "passed": rep.passed}


def _cmd_local_isometry(cfg: RunConfig) -> dict:
    from .orbit import ValidityRadiusError, _validity_radius_sq, local_isometry_check
    from .sampling import random_span_scalar, rng_for

    params = cfg.params()
    subgroup = cfg.subgroup()
    radius_sq, nsq = _validity_radius_sq(subgroup, params, cfg.gram)
    # the report's slope 1 + |v| and separation |t - s| are floats
    if not _has_float_view(nsq):
        raise ConfigError("gram", "the line's squared tangent norm |v|^2 must fit a float")
    if cfg.t is not None:
        if not _has_float_view(cfg.t - cfg.s):
            raise ConfigError("t", "t - s must fit a float")
        try:
            rec = local_isometry_check(cfg.t, cfg.s, subgroup, params, cfg.gram, cfg.mode)
        except ValidityRadiusError as exc:
            return {
                "refused": True, "radius": exc.radius, "separation": exc.separation, "passed": False
            }
        return {"refused": False, "record": rec, "passed": rec.passed}

    r_lo = sqrt_interval(radius_sq, 12)[0]

    records = []
    for i in range(cfg.count):
        rng = rng_for(cfg.seed, i)
        t_i = random_span_scalar(rng, 3, cfg.d)
        delta = r_lo * Fraction(rng.randrange(1, 1000), 1000)
        if rng.random() < 0.5:
            delta = -delta
        records.append(local_isometry_check(t_i, t_i + delta, subgroup, params, cfg.gram, cfg.mode))
    return {"records": records, "passed": all(r.passed for r in records)}


def _cmd_x1_group(cfg: RunConfig) -> dict:
    from .isometry import line_transitivity_witness, subtorus_isometries
    from .orbit import CircleNonMembership, circle_density_hit, circle_orbit_membership

    cfg.params()  # validates R and M, though the family does not use them
    subgroup = cfg.subgroup()
    circle = Subtorus(0)
    lo, hi = cfg.k_range
    elements = subtorus_isometries(subgroup, circle, lo, hi)

    def acts_on_circle(elem, s) -> bool:
        """elem moves the circle coordinate s to s + shift, or reflects it to shift - s."""
        moved = elem.iso.torus_part.apply(circle.point(s))
        image = s + elem.circle_shift if elem.kind == "translation" else elem.circle_shift - s
        return circle.contains(moved) and circle.coordinate(moved) == frac(image)

    sample_coords = (Fraction(0), Fraction(1, 3), Fraction(5, 8))
    rows = [
        {"element": elem, "circle_action_ok": all(acts_on_circle(elem, s) for s in sample_coords)}
        for elem in elements
    ]

    theta = frac(1 / subgroup.alpha)
    g_axis = circle.gram_entry(cfg.gram)
    worst = 0.0
    density_ok = True
    # each hit is certified exactly inside circle_density_hit; a failure surfaces
    # as an exception rather than a loose distance
    for j in range(cfg.count):
        try:
            hit = circle_density_hit(Fraction(j, cfg.count), theta, Fraction(0), cfg.eps, g_axis)
        except (ValueError, AssertionError):
            density_ok = False
            continue
        worst = max(worst, hit.distance)

    cert = circle_orbit_membership(Fraction(1, 3), theta)
    cert_ok = isinstance(cert, CircleNonMembership) and cert.replay(theta)

    transitivity_ok = True
    for t_val, s_val in ((Fraction(0), Fraction(1, 2)), (Fraction(1, 3), Fraction(-5, 7))):
        try:
            line_transitivity_witness(t_val, s_val, subgroup)
        except AssertionError:
            transitivity_ok = False

    elements_ok = all(r["circle_action_ok"] for r in rows)
    return {
        "elements": rows,
        "circle_density": {
            "theta": format_scalar(theta),
            "targets": cfg.count,
            "eps": cfg.eps,
            "worst_distance": worst,
            "ok": density_ok,
        },
        "rational_target_certificate": {"ok": cert_ok, "certificate": cert},
        "line_transitivity": transitivity_ok,
        "passed": elements_ok and density_ok and cert_ok and transitivity_ok,
    }


class Command(NamedTuple):
    """One subcommand's row: everything the parser, the config and main() know of it."""

    own: tuple  # its keys beyond COMMON_KEYS
    overrides: dict  # the defaults it sets apart from KEYS
    run: Callable  # RunConfig -> payload, "passed" included
    kernel_modes: tuple  # modes in which it runs the float batch kernel on the Gram
    csv: Callable | None  # payload -> the density report data of its CSV form
    help: str


COMMANDS: dict[str, Command] = {
    "verify-metric": Command(
        ("samples",), {"mode": "float", "samples": "100000"}, _cmd_verify_metric,
        (FLOAT,), None, "sample triples and check all metric axioms"),
    "counterexample": Command(
        ("samples",), {}, _cmd_counterexample, (FLOAT,), None,
        "construct the explicit triangle violation when 2R < M"),
    # the grid oracles are float in every mode
    "nearest": Command(
        ("instances", "grid", "t_grid"), {}, _cmd_nearest, (EXACT, FLOAT), None,
        "closed-form nearest-point structure against brute-force grids"),
    "isometry-check": Command(
        ("samples", "instances"), {"samples": "200", "instances": "100"}, _cmd_isometry_check,
        (FLOAT,), None,
        "lift preservation, decompose/construct round-trips, impostor rejection"),
    "lift": Command(
        ("shifts", "samples"), {}, _cmd_lift, (FLOAT,), None,
        "tabulate lifted isometries for given line shifts"),
    "density": Command(
        ("targets", "epsilons", "budget"), {}, _cmd_density, (), lambda payload: payload["reports"],
        "certified orbit approaches to torus targets"),
    "non-closure": Command(
        ("target", "epsilons", "budget"), {"epsilons": "1e-2,1e-4,1e-6"}, _cmd_non_closure, (),
        lambda payload: payload["report"].density,
        "exact off-orbit certificate plus density table for one target"),
    "local-isometry": Command(
        ("count", "t", "s"), {}, _cmd_local_isometry, (), None,
        "scaled-isometry identity for line parameters inside the radius"),
    "x1-group": Command(
        ("k_range", "count", "eps"), {}, _cmd_x1_group, (), None,
        "circle-preserving family, circle density, rational-target certificate"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; keep its verdict
        return exc.code if isinstance(exc.code, int) else 2

    try:
        cfg = _typed_config(args.command, _resolve_strings(args))
        row = COMMANDS[cfg.command]
        payload = {"config": cfg.describe(), **row.run(cfg)}
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if cfg.format == "csv":
        text = density_csv(row.csv(payload))
    else:
        text = canonical_json(plain(payload))
    try:
        write_report(text, cfg.output)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0 if payload["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
