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
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .gluing import (
    GluedPoint,
    GluingParams,
    check_metric_axioms,
    grid_nearest_in_compact,
    grid_nearest_on_line,
    nearest_in_compact,
    nearest_line_set,
    nearest_on_line,
    triangle_counterexample,
)
from .isometry import (
    ComponentSwapError,
    DecompositionError,
    LineActionError,
    LineIsometry,
    decompose_isometry,
    lift_line_isometry,
    line_transitivity_witness,
    subtorus_isometries,
    verify_isometry,
)
from .numerics import (
    EXACT,
    FLOAT,
    QuadScalar,
    as_float,
    format_scalar,
    frac,
    parse_scalar,
    scalar_lt,
    scalar_min,
    sign_of,
    sqrt_interval,
)
from .orbit import (
    CircleNonMembership,
    ValidityRadiusError,
    circle_density_hit,
    circle_orbit_membership,
    density_report,
    local_isometry_check,
    non_closure_report,
)
from .report import canonical_json, density_csv, plain, write_report
from .sampling import (
    random_product_isometry,
    random_span_scalar,
    random_torus_point,
    rng_for,
)
from .torus import GramMatrix, OneParamSubgroup, Subtorus, TorusPoint, tangent_norm_sq

ENV_SEED = "TORUSGLUE_SEED"

COMMON_KEYS = frozenset(
    {"d", "alpha", "gram", "R", "M", "mode", "seed", "format", "output", "allow_invalid_metric"}
)

COMMANDS: dict[str, frozenset] = {
    "verify-metric": frozenset({"samples"}),
    "counterexample": frozenset({"samples"}),
    "nearest": frozenset({"instances", "grid", "t_grid"}),
    "isometry-check": frozenset({"samples", "instances"}),
    "lift": frozenset({"shifts", "samples"}),
    "density": frozenset({"targets", "epsilons", "budget"}),
    "non-closure": frozenset({"target", "epsilons", "budget"}),
    "local-isometry": frozenset({"count", "t", "s"}),
    "x1-group": frozenset({"k_range", "count", "eps"}),
}

COMMON_DEFAULTS = {
    "d": "2",
    "alpha": "1",
    "gram": "1,0,1",
    "R": "1",
    "M": "2",
    "seed": "0",
    "format": "json",
    "output": None,
    "allow_invalid_metric": None,
}

COMMAND_DEFAULTS = {
    "verify-metric": {"mode": "float", "samples": "100000"},
    "counterexample": {"mode": "exact", "samples": "64"},
    "nearest": {"mode": "exact", "instances": "50", "grid": "100", "t_grid": "401"},
    "isometry-check": {"mode": "exact", "samples": "200", "instances": "100"},
    "lift": {"mode": "exact", "shifts": "0,1,1/2,-1/3", "samples": "64"},
    "density": {"mode": "exact", "targets": "0,1/2", "epsilons": "1e-2,1e-3", "budget": "50000000"},
    "non-closure": {
        "mode": "exact",
        "target": "0,1/2",
        "epsilons": "1e-2,1e-4,1e-6",
        "budget": "50000000",
    },
    "local-isometry": {"mode": "exact", "count": "100", "t": None, "s": None},
    "x1-group": {"mode": "exact", "k_range": "-5:5", "count": "100", "eps": "1e-3"},
}

HELP = {
    "verify-metric": "sample triples and check all metric axioms",
    "counterexample": "construct the explicit triangle violation when 2R < M",
    "nearest": "closed-form nearest-point structure against brute-force grids",
    "isometry-check": "lift preservation, decompose/construct round-trips, impostor rejection",
    "lift": "tabulate lifted isometries for given line shifts",
    "density": "certified orbit approaches to torus targets",
    "non-closure": "exact off-orbit certificate plus density table for one target",
    "local-isometry": "scaled-isometry identity for line parameters inside the radius",
    "x1-group": "circle-preserving family, circle density, rational-target certificate",
}


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


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
    for name, extras in COMMANDS.items():
        p = sub.add_parser(name, help=HELP[name])
        p.add_argument("--config", default=None, help="key=value file; flags win")
        p.add_argument("--d", default=None, help="square-free radicand (default 2)")
        p.add_argument("--alpha", default=None, help="slope coefficient b in b*sqrt(d), or a full scalar literal")
        p.add_argument("--gram", default=None, help="torus metric entries g11,g12,g22")
        p.add_argument("--R", default=None, help="cross-component offset (exact literal)")
        p.add_argument("--M", default=None, help="line gap cap (exact literal)")
        p.add_argument("--mode", default=None, choices=("exact", "float"))
        p.add_argument("--seed", default=None, help="64-bit unsigned run seed")
        p.add_argument("--format", default=None, choices=("json", "csv"))
        p.add_argument("--output", default=None, help="report path (default stdout)")
        p.add_argument(
            "--allow-invalid-metric",
            dest="allow_invalid_metric",
            action="store_const",
            const="true",
            default=None,
            help="permit 2R < M configurations",
        )
        for extra in sorted(extras):
            p.add_argument("--" + extra.replace("_", "-"), dest=extra, default=None)
    return parser


def _resolve_strings(args: argparse.Namespace) -> dict:
    command = args.command
    known = COMMON_KEYS | COMMANDS[command]
    merged: dict = {k: v for k, v in COMMON_DEFAULTS.items() if k in known}
    merged.update(COMMAND_DEFAULTS[command])
    if args.config is not None:
        for key, value in _load_config_file(args.config).items():
            if key not in known:
                raise ConfigError(key, f"unknown key for command '{command}'")
            merged[key] = value
    for key in known:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        merged["seed"] = env_seed
    return merged


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(key, f"not an integer: {text!r}")


def _parse_exact(key: str, text: str, d: int | None = None):
    try:
        return parse_scalar(text, d)
    except ValueError as exc:
        raise ConfigError(key, str(exc))


def _parse_alpha(text: str, d: int) -> QuadScalar:
    if "sqrt" in text:
        val = _parse_exact("alpha", text, d)
        if not isinstance(val, QuadScalar):
            raise ConfigError("alpha", "slope must carry a sqrt(d) part")
    else:
        try:
            val = QuadScalar(Fraction(0), Fraction(text), d)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError("alpha", str(exc))
    if val.a != 0 or val.b == 0:
        raise ConfigError("alpha", "slope must be a nonzero rational multiple of sqrt(d)")
    return val


def _parse_gram(text: str) -> GramMatrix:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError("gram", "expected three entries g11,g12,g22")
    try:
        return GramMatrix(Fraction(parts[0]), Fraction(parts[1]), Fraction(parts[2]))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError("gram", str(exc))


def _parse_point(key: str, text: str, d: int) -> TorusPoint:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(key, "expected a point u1,u2")
    return TorusPoint(_parse_exact(key, parts[0], d), _parse_exact(key, parts[1], d))


def _parse_fraction_list(key: str, text: str) -> list[Fraction]:
    out = []
    for part in text.split(","):
        try:
            out.append(Fraction(part.strip()))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(key, f"not a rational: {part.strip()!r}")
    if not out:
        raise ConfigError(key, "empty list")
    return out


def _parse_bool(key: str, text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(key, f"not a boolean: {text!r}")


@dataclass
class RunConfig:
    """Resolved, validated configuration for one subcommand run."""

    command: str
    d: int
    alpha: QuadScalar
    gram: GramMatrix
    R: object
    M: object
    mode: object
    seed: int
    out_format: str
    output: str | None
    allow_invalid_metric: bool
    extras: dict

    def subgroup(self) -> OneParamSubgroup:
        return OneParamSubgroup.canonical(self.alpha)

    def params(self) -> GluingParams:
        try:
            return GluingParams(self.R, self.M, strict=not self.allow_invalid_metric)
        except ValueError as exc:
            message = str(exc).replace("pass strict=False", "pass --allow-invalid-metric")
            raise ConfigError("R", message)

    def describe(self) -> dict:
        return plain(
            {
                "command": self.command,
                "d": self.d,
                "alpha": self.alpha,
                "gram": self.gram,
                "R": self.R,
                "M": self.M,
                "mode": self.mode,
                "seed": self.seed,
                "allow_invalid_metric": self.allow_invalid_metric,
                **self.extras,
            }
        )


def _typed_config(command: str, merged: dict) -> RunConfig:
    d = _parse_int("d", merged["d"])
    try:
        QuadScalar(Fraction(0), Fraction(1), d)
    except ValueError as exc:
        raise ConfigError("d", str(exc))
    alpha = _parse_alpha(merged["alpha"], d)
    gram = _parse_gram(merged["gram"])
    R = _parse_exact("R", merged["R"])
    M = _parse_exact("M", merged["M"])
    for key, value in (("R", R), ("M", M)):
        if sign_of(value) <= 0:
            raise ConfigError(key, "must be positive")
    seed = _parse_int("seed", merged["seed"])
    if not 0 <= seed < 2**64:
        raise ConfigError("seed", "must be a 64-bit unsigned integer")
    mode_text = merged["mode"]
    if mode_text not in ("exact", "float"):
        raise ConfigError("mode", f"must be 'exact' or 'float', got {mode_text!r}")
    mode = EXACT if mode_text == "exact" else FLOAT
    out_format = merged.get("format", "json")
    if out_format not in ("json", "csv"):
        raise ConfigError("format", f"must be 'json' or 'csv', got {out_format!r}")
    allow = merged.get("allow_invalid_metric")
    allow_invalid = _parse_bool("allow_invalid_metric", allow) if allow is not None else False

    extras: dict = {}
    if command in ("verify-metric", "counterexample", "isometry-check", "lift"):
        extras["samples"] = _parse_int("samples", merged["samples"])
        if extras["samples"] < 0:
            raise ConfigError("samples", "must be nonnegative")
    if command in ("nearest", "isometry-check"):
        extras["instances"] = _parse_int("instances", merged["instances"])
    if command == "nearest":
        extras["grid"] = _parse_int("grid", merged["grid"])
        extras["t_grid"] = _parse_int("t_grid", merged["t_grid"])
        if extras["grid"] < 2 or extras["t_grid"] < 3:
            raise ConfigError("grid", "grids need at least a few points")
        if extras["t_grid"] % 2 == 0:
            # the height grid is centered at the point; only an odd size contains it
            raise ConfigError("t_grid", "must be odd so the grid contains the point's own height")
    if command == "lift":
        extras["shifts"] = [
            _parse_exact("shifts", s.strip(), d) for s in merged["shifts"].split(",")
        ]
    if command == "density":
        extras["targets"] = [
            _parse_point("targets", part.strip(), d)
            for part in merged["targets"].split(";")
            if part.strip()
        ]
        if not extras["targets"]:
            raise ConfigError("targets", "no targets given")
    if command == "non-closure":
        extras["target"] = _parse_point("target", merged["target"], d)
    if command in ("density", "non-closure"):
        extras["epsilons"] = _parse_fraction_list("epsilons", merged["epsilons"])
        extras["budget"] = _parse_int("budget", merged["budget"])
        if extras["budget"] <= 0:
            raise ConfigError("budget", "must be positive")
    if command == "local-isometry":
        extras["count"] = _parse_int("count", merged["count"])
        extras["t"] = None if merged["t"] is None else _parse_exact("t", merged["t"], d)
        extras["s"] = None if merged["s"] is None else _parse_exact("s", merged["s"], d)
        if (extras["t"] is None) != (extras["s"] is None):
            raise ConfigError("t", "give both --t and --s, or neither")
    if command == "x1-group":
        text = merged["k_range"]
        if ":" not in text:
            raise ConfigError("k_range", "expected lo:hi")
        lo_text, hi_text = text.split(":", 1)
        lo, hi = _parse_int("k_range", lo_text), _parse_int("k_range", hi_text)
        if lo > hi:
            raise ConfigError("k_range", "lo must not exceed hi")
        extras["k_range"] = (lo, hi)
        extras["count"] = _parse_int("count", merged["count"])
        if extras["count"] < 1:
            raise ConfigError("count", "must be positive")
        extras["eps"] = _parse_fraction_list("eps", merged["eps"])[0]

    return RunConfig(
        command=command,
        d=d,
        alpha=alpha,
        gram=gram,
        R=R,
        M=M,
        mode=mode,
        seed=seed,
        out_format=out_format,
        output=merged.get("output"),
        allow_invalid_metric=allow_invalid,
        extras=extras,
    )


# -- subcommand implementations ------------------------------------------------------


def _cmd_verify_metric(cfg: RunConfig):
    params = cfg.params()
    rep = check_metric_axioms(cfg.extras["samples"], params, cfg.gram, mode=cfg.mode, seed=cfg.seed)
    payload = {"config": cfg.describe(), "report": rep.describe(), "passed": rep.passed}
    return (0 if rep.passed else 1), payload


def _cmd_counterexample(cfg: RunConfig):
    params = cfg.params()
    try:
        witness = triangle_counterexample(params, cfg.gram)
    except ValueError as exc:
        raise ConfigError("R", str(exc))
    axioms = check_metric_axioms(
        cfg.extras["samples"],
        params,
        cfg.gram,
        mode=cfg.mode,
        seed=cfg.seed,
        extra_triples=(witness.as_triple(),),
    )
    payload = {
        "config": cfg.describe(),
        "witness": witness.describe(),
        "axioms": axioms.describe(),
        "flagged": not axioms.passed,
        "passed": False,
    }
    return 1, payload


def _cmd_nearest(cfg: RunConfig):
    params = cfg.params()
    exact = cfg.mode.exact
    grid, t_grid = cfg.extras["grid"], cfg.extras["t_grid"]
    results = []
    all_ok = True
    for i in range(cfg.extras["instances"]):
        rng = rng_for(cfg.seed, i)
        y = random_torus_point(rng, exact=exact, d=cfg.d)
        y2 = random_torus_point(rng, exact=exact, d=cfg.d)
        t = random_span_scalar(rng, 3, cfg.d) if exact else rng.uniform(-3.0, 3.0)
        p = GluedPoint.cylinder(y, t)

        rec_a = nearest_in_compact(p, params, cfg.gram, grid, cfg.mode)
        _, oracle_a = grid_nearest_in_compact(p, params, cfg.gram, grid)
        if exact:
            ok_a = (
                sign_of(rec_a.achieved.torus_sq) == 0
                and rec_a.achieved.offset == params.R
                and sign_of(rec_a.gap.sq) > 0
            )
        else:
            ok_a = abs(rec_a.achieved.value - as_float(params.R)) <= cfg.mode.eps
        ok_a = ok_a and oracle_a >= rec_a.achieved.value - 1e-9

        rec_b = nearest_line_set(y, params, cfg.gram, grid_n=grid, mode=cfg.mode)
        ok_b = rec_b.line_constant and oracle_a >= 0
        if exact:
            ok_b = ok_b and sign_of(rec_b.margin.sq) > 0
        for s in rec_b.ts_checked:
            _, oracle_b = grid_nearest_in_compact(
                GluedPoint.cylinder(y, s), params, cfg.gram, grid
            )
            ok_b = ok_b and oracle_b >= rec_b.base.value - 1e-9

        rec_c = nearest_on_line(p, y2, params, cfg.gram)
        oracle_t, oracle_c = grid_nearest_on_line(p, y2, params, cfg.gram, t_grid)
        ok_c = (
            abs(oracle_c - rec_c.achieved.value) <= 1e-9
            and abs(as_float(oracle_t) - as_float(p.t)) <= 1e-9
        )

        all_ok = all_ok and ok_a and ok_b and ok_c
        results.append(
            {
                "instance": i,
                "nearest_in_compact": {"ok": ok_a, "record": rec_a.describe(), "grid_min": oracle_a},
                "nearest_line_set": {"ok": ok_b, "record": rec_b.describe()},
                "nearest_on_line": {
                    "ok": ok_c,
                    "record": rec_c.describe(),
                    "grid_t": as_float(oracle_t),
                    "grid_min": oracle_c,
                },
            }
        )
    payload = {
        "config": cfg.describe(),
        "instances": results,
        "passed": all_ok,
    }
    return (0 if all_ok else 1), payload


def _swap_impostor(p: GluedPoint) -> GluedPoint:
    if p.is_compact:
        return GluedPoint.cylinder(p.y, Fraction(0))
    return GluedPoint.compact(p.y)


def _cmd_isometry_check(cfg: RunConfig):
    params = cfg.params()
    subgroup = cfg.subgroup()
    n_pairs = cfg.extras["samples"]
    n_iso = cfg.extras["instances"]

    lift_rows = []
    lifts_ok = True
    for j, (sign, shift) in enumerate(
        [(1, Fraction(0)), (1, Fraction(1, 3)), (-1, Fraction(0)), (-1, Fraction(2, 7))]
    ):
        iso = lift_line_isometry(LineIsometry(sign, shift), subgroup)
        rep = verify_isometry(
            iso.apply,
            n_pairs,
            params,
            cfg.gram,
            mode=cfg.mode,
            seed=cfg.seed + j,
            space="winding",
            subgroup=subgroup,
        )
        lifts_ok = lifts_ok and rep.passed
        lift_rows.append({"iso": iso.describe(), "verified": rep.passed, "max_error": rep.max_error})

    roundtrip_failures = 0
    for i in range(n_iso):
        iso = random_product_isometry(rng_for(cfg.seed, 10_000 + i), cfg.d)
        try:
            recovered = decompose_isometry(
                iso.apply, params, cfg.gram, mode=cfg.mode, seed=cfg.seed, d=cfg.d
            )
        except DecompositionError:
            roundtrip_failures += 1
            continue
        if recovered != iso:
            roundtrip_failures += 1

    try:
        decompose_isometry(
            _swap_impostor, params, cfg.gram, mode=cfg.mode, seed=cfg.seed, d=cfg.d
        )
        swap_rejected = False
    except ComponentSwapError:
        swap_rejected = True
    except DecompositionError:
        swap_rejected = False

    def scaling_impostor(p: GluedPoint) -> GluedPoint:
        if p.is_compact:
            return p
        return GluedPoint.cylinder(p.y, 2 * p.t)

    try:
        decompose_isometry(
            scaling_impostor, params, cfg.gram, mode=cfg.mode, seed=cfg.seed, d=cfg.d
        )
        scaling_rejected = False
    except LineActionError:
        scaling_rejected = True
    except DecompositionError:
        scaling_rejected = False

    passed = lifts_ok and roundtrip_failures == 0 and swap_rejected and scaling_rejected
    payload = {
        "config": cfg.describe(),
        "lifts": lift_rows,
        "roundtrips": {"total": n_iso, "failures": roundtrip_failures},
        "impostors": {"swap_rejected": swap_rejected, "scaling_rejected": scaling_rejected},
        "passed": passed,
    }
    return (0 if passed else 1), payload


def _cmd_lift(cfg: RunConfig):
    params = cfg.params()
    subgroup = cfg.subgroup()
    rows = []
    all_ok = True
    for j, shift in enumerate(cfg.extras["shifts"]):
        for sign in (1, -1):
            iso = lift_line_isometry(LineIsometry(sign, shift), subgroup)
            rep = verify_isometry(
                iso.apply,
                cfg.extras["samples"],
                params,
                cfg.gram,
                mode=cfg.mode,
                seed=cfg.seed + j,
                space="winding",
                subgroup=subgroup,
            )
            all_ok = all_ok and rep.passed
            rows.append(
                {
                    "line": iso.line_part.describe(),
                    "torus": iso.torus_part.describe(),
                    "verified": rep.passed,
                    "max_error": rep.max_error,
                }
            )
    payload = {"config": cfg.describe(), "lifts": rows, "passed": all_ok}
    return (0 if all_ok else 1), payload


def _cmd_density(cfg: RunConfig):
    subgroup = cfg.subgroup()
    reports = [
        density_report(
            target,
            subgroup,
            cfg.extras["epsilons"],
            gram=cfg.gram,
            budget=cfg.extras["budget"],
        )
        for target in cfg.extras["targets"]
    ]
    all_ok = all(r.passed for r in reports)
    payload = {
        "config": cfg.describe(),
        "reports": [r.describe() for r in reports],
        "passed": all_ok,
    }
    csv_text = density_csv([r.describe() for r in reports])
    return (0 if all_ok else 1), payload, csv_text


def _cmd_non_closure(cfg: RunConfig):
    subgroup = cfg.subgroup()
    try:
        rep = non_closure_report(
            cfg.extras["target"],
            subgroup,
            cfg.extras["epsilons"],
            gram=cfg.gram,
            budget=cfg.extras["budget"],
        )
    except ValueError as exc:
        raise ConfigError("target", str(exc))
    payload = {"config": cfg.describe(), "report": rep.describe(), "passed": rep.passed}
    csv_text = density_csv(rep.density.describe())
    return (0 if rep.passed else 1), payload, csv_text


def _cmd_local_isometry(cfg: RunConfig):
    params = cfg.params()
    subgroup = cfg.subgroup()
    t, s = cfg.extras["t"], cfg.extras["s"]
    if t is not None:
        try:
            rec = local_isometry_check(t, s, subgroup, params, cfg.gram, cfg.mode)
        except ValidityRadiusError as exc:
            payload = {
                "config": cfg.describe(),
                "refused": True,
                "radius": exc.radius,
                "separation": exc.separation,
                "passed": False,
            }
            return 1, payload
        payload = {
            "config": cfg.describe(),
            "refused": False,
            "record": rec.describe(),
            "passed": rec.passed,
        }
        return (0 if rec.passed else 1), payload

    nsq = tangent_norm_sq(subgroup.tangent(), cfg.gram)
    cap = params.M * params.M
    sys_quarter = cfg.gram.systole_sq() / 4
    radius_sq = scalar_min(cap, sys_quarter) / (nsq if scalar_lt(1, nsq) else 1)
    r_lo = sqrt_interval(radius_sq, 12)[0]

    rows = []
    all_ok = True
    for i in range(cfg.extras["count"]):
        rng = rng_for(cfg.seed, i)
        t_i = random_span_scalar(rng, 3, cfg.d)
        delta = r_lo * Fraction(rng.randrange(1, 1000), 1000)
        if rng.random() < 0.5:
            delta = -delta
        rec = local_isometry_check(t_i, t_i + delta, subgroup, params, cfg.gram, cfg.mode)
        all_ok = all_ok and rec.passed
        rows.append(rec.describe())
    payload = {"config": cfg.describe(), "records": rows, "passed": all_ok}
    return (0 if all_ok else 1), payload


def _cmd_x1_group(cfg: RunConfig):
    params = cfg.params()
    subgroup = cfg.subgroup()
    circle = Subtorus(0)
    lo, hi = cfg.extras["k_range"]
    elements = subtorus_isometries(subgroup, circle, lo, hi)

    sample_coords = (Fraction(0), Fraction(1, 3), Fraction(5, 8))
    elements_ok = True
    rows = []
    for elem in elements:
        ok = True
        for s in sample_coords:
            moved = elem.iso.torus_part.apply(circle.point(s))
            if not circle.contains(moved):
                ok = False
                continue
            got = circle.coordinate(moved)
            expect = (
                frac(s + elem.circle_shift)
                if elem.kind == "translation"
                else frac(elem.circle_shift - s)
            )
            ok = ok and got == expect
        elements_ok = elements_ok and ok
        rows.append({"element": elem.describe(), "circle_action_ok": ok})

    theta = frac(1 / subgroup.alpha)
    g_axis = circle.gram_entry(cfg.gram)
    count = cfg.extras["count"]
    eps = cfg.extras["eps"]
    worst = 0.0
    density_ok = True
    # each hit is certified exactly inside circle_density_hit; a failure surfaces
    # as an exception rather than a loose distance
    for j in range(count):
        try:
            hit = circle_density_hit(Fraction(j, count), theta, Fraction(0), eps, g_axis)
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

    passed = elements_ok and density_ok and cert_ok and transitivity_ok
    payload = {
        "config": cfg.describe(),
        "elements": rows,
        "circle_density": {
            "theta": format_scalar(theta),
            "targets": count,
            "eps": eps,
            "worst_distance": worst,
            "ok": density_ok,
        },
        "rational_target_certificate": {"ok": cert_ok, "certificate": cert.describe()},
        "line_transitivity": transitivity_ok,
        "passed": passed,
    }
    return (0 if passed else 1), payload


HANDLERS = {
    "verify-metric": _cmd_verify_metric,
    "counterexample": _cmd_counterexample,
    "nearest": _cmd_nearest,
    "isometry-check": _cmd_isometry_check,
    "lift": _cmd_lift,
    "density": _cmd_density,
    "non-closure": _cmd_non_closure,
    "local-isometry": _cmd_local_isometry,
    "x1-group": _cmd_x1_group,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; keep its verdict
        return exc.code if isinstance(exc.code, int) else 2

    try:
        merged = _resolve_strings(args)
        cfg = _typed_config(args.command, merged)
        if cfg.out_format == "csv" and cfg.command not in ("density", "non-closure"):
            raise ConfigError("format", "csv output applies only to density tables")
        outcome = HANDLERS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(outcome) == 3:
        code, payload, csv_text = outcome
    else:
        code, payload = outcome
        csv_text = None

    text = csv_text if cfg.out_format == "csv" else canonical_json(payload)
    try:
        write_report(text, cfg.output)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
