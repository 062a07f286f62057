"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 bench/run.py --workload exact-certify --seed 1 --seconds 15 --trace 0

`--trace 0` times whole rounds of operations until `--seconds` of operation
CPU time have passed (and at least MIN_OPS operations ran) and prints the
end-to-end metrics: CPU times scaled by reference work timed in the same
run (see `Calibration` and `setup_pair`), with the unscaled CPU and
wall-clock figures printed next to them.  `--trace 1` runs a fixed set of
operations alternately untraced and traced for `--seconds`, and prints the
per-layer metrics.
Every operation's output is checked independently outside its timer.  The
program is imported from `src/` of the checkout this file sits in; there is
no install step.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

MIN_OPS = 100  # so the 90th percentile has at least 10 operations beyond it
TAIL_PERCENTILE = 90
WALL_LIMIT = 2.5  # a timed phase also ends after this many times --seconds of wall time
CALIBRATION_EVERY_S = 0.5
# each workload's time is scaled by reference work of the kind that dominates it:
# (reference, its CPU seconds on the machine the README's figures come from)
CALIBRATED_BY = {
    "exact-certify": ("python", 0.045),
    "orbit-density": ("numpy", 0.032),
    "float-sweep": ("numpy", 0.032),
}
SETUP_PROBES = 11
REFERENCE_IMPORT_S = 0.090  # CPU seconds of setup_probe.py's reference imports there
WARMUP_OPS = 4
TRACE_MIN_OPS = 8


def import_program():
    """Import torusglue from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import torusglue
    except ImportError as exc:
        sys.exit(f"error: cannot import torusglue from {SRC}: {exc}")
    if Path(torusglue.__file__).resolve().parent != SRC / "torusglue":
        sys.exit(f"error: torusglue was imported from {torusglue.__file__}, not {SRC}")


def python_reference() -> None:
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003


def numpy_reference() -> None:
    import numpy as np

    x = np.arange(500_000, dtype=np.float64)  # small enough to stay below the workloads' peak memory
    for _ in range(12):
        v = x * 1.4142135623730951
        v -= np.floor(v)
        np.abs(v - 0.5, out=v)


REFERENCES = {"python": python_reference, "numpy": numpy_reference}


def machine_probe() -> float:
    """Wall seconds of the pure-Python reference loop: the machine's current speed."""
    start = time.perf_counter()
    python_reference()
    return time.perf_counter() - start


def cpu_seconds(work) -> float:
    start = time.process_time()
    work()
    return time.process_time() - start


class Calibration:
    """Times the workload's reference work (CALIBRATED_BY) in CPU time about
    every CALIBRATION_EVERY_S of wall time through a run, between operations;
    `factor` scales the run's CPU times to a machine on which the reference
    takes its listed CPU time.

    CPU time does not count the time other processes hold the core, and the
    shared machine's slower phases, which stretch CPU time as well, stretch
    the reference's too.  One factor per run, from the median of its samples,
    follows those phases without adding the noise of single samples.
    """

    def __init__(self, workload: str):
        name, self.reference_s = CALIBRATED_BY[workload]
        self.work = REFERENCES[name]
        self.samples: list[float] = []
        self.tick(force=True)

    def tick(self, force: bool = False) -> None:
        if force or time.perf_counter() - self.since >= CALIBRATION_EVERY_S:
            self.samples.append(cpu_seconds(self.work))
            self.since = time.perf_counter()

    def factor(self) -> float:
        self.tick(force=True)
        return self.reference_s / statistics.median(self.samples)


def probe(what: str) -> tuple[float, float]:
    """(CPU s, wall s) of `setup_probe.py <what>` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), what],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    cpu, wall = (float(x) for x in out.stdout.split())
    return cpu, wall


def setup_pair(workload: str) -> tuple[float, float, float]:
    """The reference imports and then the workload's set-up, each in a fresh
    interpreter: (reference CPU s, set-up CPU s, set-up wall s)."""
    reference, _ = probe("reference")
    cpu, wall = probe(workload)
    return reference, cpu, wall


def tail(times: list[float]) -> float:
    ordered = sorted(times)
    return ordered[math.ceil(len(ordered) * TAIL_PERCENTILE / 100) - 1]


def run_op(run, op, env, log):
    """(CPU seconds, wall seconds, result, report text); result and text are
    None if the operation raised."""
    cpu, wall = time.process_time(), time.perf_counter()
    try:
        result, text = run(op, env)
    except Exception as exc:  # a failed operation is counted, not fatal
        log.append(f"{type(exc).__name__}: {exc}")
        result = text = None
    return time.process_time() - cpu, time.perf_counter() - wall, result, text


def warm_up(workload: str, env, seed: int, wl, log) -> int:
    """Run the first operations of round -1, untimed, so first-call costs
    settle; a failure is logged like a timed one.  Returns the operations run."""
    ops = wl.MAKE_ROUND[workload](wl.round_rng(seed, workload, -1))[:WARMUP_OPS]
    for op in ops:
        run_op(wl.RUN[workload], op, env, log)
    return len(ops)


def timed(workload: str, env, seed: int, seconds: float, wl, checks) -> dict:
    run, check, make_round = wl.RUN[workload], checks.CHECK[workload], wl.MAKE_ROUND[workload]
    problems, failures, cpus, walls, setups = [], [], [], [], []
    attempted = warmed = warm_up(workload, env, seed, wl, failures)
    # set-up pairs are spread through the timed phase, between operations
    setup_due = [seconds * (i + 0.5) / SETUP_PROBES for i in range(SETUP_PROBES)]
    busy, first, round_index = 0.0, None, 0
    calibration = Calibration(workload)
    wall_end = time.perf_counter() + WALL_LIMIT * seconds
    while (busy < seconds and time.perf_counter() < wall_end) or attempted - warmed < MIN_OPS:
        for op in make_round(wl.round_rng(seed, workload, round_index)):
            attempted += 1
            dt, wall, result, _ = run_op(run, op, env, failures)
            busy += dt
            if result is not None:
                problems += check(op, result, env)
                calibration.tick()  # after the check, never in the operation's wake
                cpus.append(dt)
                walls.append(wall)
                if first is None:
                    first = (op, result)
            while setup_due and busy >= setup_due[0]:
                setup_due.pop(0)
                setups.append(setup_pair(workload))
        round_index += 1
    setups += [setup_pair(workload) for _ in setup_due]
    factor = calibration.factor()
    times = [x * factor for x in cpus]
    if first:
        problems += [f"checker accepted a planted error: {p}" for p in checks.planted_errors(workload, *first, env)]

    def figures(times):
        return {
            "verdicts_per_s": (len(times) / sum(times), "1/s"),
            "verdict_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "verdict_tail_ms": (tail(times) * 1e3, "ms"),
        } if times else {}

    metrics, unscaled = figures(times), figures(cpus)
    setup_cpu = statistics.median(x[1] for x in setups)
    metrics["setup_s"] = (setup_cpu * REFERENCE_IMPORT_S / statistics.median(x[0] for x in setups), "s")
    unscaled["setup_s"] = (setup_cpu, "s")
    wall_figures = dict(figures(walls), setup_s=(statistics.median(x[2] for x in setups), "s"))
    return dict(attempted=attempted, failed=len(failures), failures=failures, problems=problems,
                metrics=metrics, unscaled=unscaled, wall=wall_figures, timed_s=busy, ops=len(times),
                op_cpu_s=cpus, setups=setups, calibration_s=calibration.samples)


def traced(workload: str, env, seed: int, seconds: float, wl, checks) -> dict:
    from tracer import Tracer

    run, check, make_round = wl.RUN[workload], checks.CHECK[workload], wl.MAKE_ROUND[workload]
    ops, round_index = [], 0
    while len(ops) < TRACE_MIN_OPS:
        ops += make_round(wl.round_rng(seed, workload, round_index))
        round_index += 1
    failures = []
    attempted = warm_up(workload, env, seed, wl, failures)

    tracer = Tracer()
    traced_run = tracer.wrap(run, "bench.op", "op")
    steps = [(wl, name, "report.describe") for name in ("exact_payload", "orbit_payload", "float_payload")]
    untraced_s = traced_s = busy = 0.0
    passes, problems = 0, []
    wall_end = time.perf_counter() + WALL_LIMIT * seconds
    while passes == 0 or (busy < seconds and time.perf_counter() < wall_end):
        texts = []
        for op in ops:
            attempted += 1
            dt, _, _, text = run_op(run, op, env, failures)
            untraced_s += dt
            busy += dt
            texts.append(text)
        results = []
        tracer.install(steps)
        try:
            for i, op in enumerate(ops):
                attempted += 1
                tracer.op = i
                dt, _, result, text = run_op(traced_run, op, env, failures)
                traced_s += dt
                busy += dt
                if text != texts[i]:
                    problems.append(f"op {i}: traced report bytes differ from the untraced run")
                results.append(result)
        finally:
            tracer.uninstall()
        if passes == 0:  # checks call the program too, so they run untraced
            for op, result in zip(ops, results):
                if result is not None:
                    problems += check(op, result, env)
        tracer.recording = False  # spans of the first traced pass are kept
        passes += 1
    RESULTS.mkdir(exist_ok=True)
    spans = tracer.save(RESULTS / f"trace-{workload}-seed{seed}.npz")
    n = len(ops) * passes
    overhead = traced_s / untraced_s - 1
    return dict(attempted=attempted, failed=len(failures), failures=failures, problems=problems,
                metrics=layer_metrics(tracer, n, overhead), timed_s=busy, ops=n, spans=spans, passes=passes)


def layer_metrics(tracer, n: int, overhead: float) -> dict:
    calls, self_s = tracer.bucket_totals()
    count = tracer.counters

    def c(key):
        return calls.get(key, 0) / n

    def s(*keys):
        return sum(self_s.get(k, 0.0) for k in keys) / n

    def k(key):
        return count.get(key, 0) / n

    def ratio(x, y, scale=1.0):
        return x / y * scale if y else 0.0

    return {
        "numerics.arith_calls": (c("numerics.arith"), "count"),
        "numerics.arith_self_s": (s("numerics.arith", "numerics.sign"), "s"),
        "numerics.sign_calls": (c("numerics.sign"), "count"),
        "numerics.interval_calls": (c("numerics.interval"), "count"),
        "numerics.interval_self_s": (s("numerics.interval"), "s"),
        "numerics.floor_calls": (c("numerics.floor"), "count"),
        "numerics.floor_self_s": (s("numerics.floor"), "s"),
        "torus.exact_dist_calls": (c("torus.exact_dist"), "count"),
        "torus.form_calls": (c("torus.form"), "count"),
        "torus.exact_dist_self_s": (s("torus.exact_dist", "torus.form"), "s"),
        "torus.batch_elems": (k("torus.batch_elems"), "count"),
        "torus.batch_self_s": (s("torus.batch"), "s"),
        "torus.batch_ns_per_elem": (ratio(s("torus.batch"), k("torus.batch_elems"), 1e9), "ns"),
        "gluing.glued_dist_calls": (c("gluing.glued_dist"), "count"),
        "gluing.glued_dist_self_s": (s("gluing.glued_dist"), "s"),
        "gluing.axiom_checks": (k("gluing.axiom_checks"), "count"),
        "gluing.axioms_self_s": (s("gluing.axioms"), "s"),
        "gluing.violations_logged": (k("gluing.violations_logged"), "count"),
        "isometry.verify_pairs": (k("isometry.verify_pairs"), "count"),
        "isometry.verify_self_s": (s("isometry.verify"), "s"),
        "isometry.decompose_calls": (c("isometry.decompose"), "count"),
        "isometry.decompose_self_s": (s("isometry.decompose"), "s"),
        "sampling.self_s": (s("sampling"), "s"),
        "orbit.k_scanned": (k("orbit.k_scanned"), "count"),
        "orbit.scan_self_s": (s("orbit.scan"), "s"),
        "orbit.scan_ns_per_k": (ratio(s("orbit.scan"), k("orbit.k_scanned"), 1e9), "ns"),
        "orbit.exact_rechecks": (k("orbit.exact_rechecks"), "count"),
        "orbit.recheck_yield": (ratio(k("orbit.scan_hits"), k("orbit.exact_rechecks")), "ratio"),
        "orbit.membership_calls": (c("orbit.orbit_membership"), "count"),
        "orbit.membership_self_s": (s("orbit.membership"), "s"),
        "orbit.circle_hits": (k("orbit.circle_hits"), "count"),
        "orbit.circle_self_s": (s("orbit.circle"), "s"),
        "report.bytes": (k("report.bytes"), "bytes"),
        "report.serialize_self_s": (s("report.serialize"), "s"),
        "report.describe_self_s": (s("report.describe"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_program()
    import checks
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    probe_start = machine_probe()
    env = wl.build(args.workload)
    if args.trace:
        out = traced(args.workload, env, args.seed, args.seconds, wl, checks)
    else:
        out = timed(args.workload, env, args.seed, args.seconds, wl, checks)
        out["metrics"]["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    probe_end = machine_probe()

    for line in out["failures"] + out["problems"]:
        print(f"{args.workload}: {line}", file=sys.stderr)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()}
    result = {
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    details = {k: v for k, v in out.items() if k not in ("metrics", "failures")}
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                   probe_start_s=probe_start, probe_end_s=probe_end, result=result)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(details, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {out['attempted']} ops attempted, {out['failed']} failed, "
          f"{out['ops']} timed in {out['timed_s']:.2f} s of operation time")
    print(f"machine probe (not a metric): start {probe_start:.4f} s, end {probe_end:.4f} s")
    if "wall" in out:
        print(f"  {'metric (calibrated CPU time)':28s} {'value':>18s} {'unscaled CPU':>18s} {'wall clock':>18s}")
    for name, m in metrics.items():
        line = f"  {name:28s} {m['value']:>13.6g} {m['unit']:4s}"
        for column in ("unscaled", "wall"):
            if name in out.get(column, {}):
                value, unit = out[column][name]
                line += f" {value:>13.6g} {unit:4s}"
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
