"""Layer attribution for traced runs, from outside the program.

`Tracer.install` rebinds the public functions of each torusglue module, in
every module that imported them, and the `QuadScalar` and `GramMatrix.form`
methods on their classes, to wrappers that record a span per call: name,
start, end, parent span and operation id.  A span's self time is its
duration minus the time its child spans cover; the self times of a layer's
spans add up to the layer's self time.  Spans stay in memory and are
written out by `save`.  Timed runs never install a tracer.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# span name -> metric bucket; a bucket's self time is the sum of its spans'
ARITH = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__abs__", "__pow__",
    "__lt__", "__le__", "__gt__", "__ge__", "__eq__", "reciprocal", "norm",
)
METHODS = (
    [("QuadScalar", m, "numerics.arith") for m in ARITH]
    + [
        ("QuadScalar", "sign", "numerics.sign"),
        ("QuadScalar", "interval", "numerics.interval"),
        ("QuadScalar", "floor", "numerics.floor"),
        ("GramMatrix", "form", "torus.form"),
    ]
)
FUNCTIONS = (
    ("numerics", "sqrt_interval", "numerics.interval"),
    ("torus", "torus_distance_sq", "torus.exact_dist"),
    ("torus", "batch_torus_distance_sq", "torus.batch"),
    ("gluing", "glued_distance", "gluing.glued_dist"),
    ("gluing", "check_metric_axioms", "gluing.axioms"),
    ("isometry", "lift_line_isometry", "isometry.verify"),
    ("isometry", "verify_isometry", "isometry.verify"),
    ("isometry", "decompose_isometry", "isometry.decompose"),
    ("sampling", "rng_for", "sampling"),
    ("sampling", "random_torus_point", "sampling"),
    ("sampling", "random_glued_point", "sampling"),
    ("sampling", "random_winding_point", "sampling"),
    ("orbit", "non_closure_report", "orbit.membership"),
    ("orbit", "orbit_membership", "orbit.membership"),
    ("orbit", "torus_density_hit", "orbit.scan"),
    ("orbit", "circle_density_hit", "orbit.circle"),
    ("report", "canonical_json", "report.serialize"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.bucket_of: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = {}
        self.stack: list[list] = []  # [child time, span index, name id]
        self.op = -1
        self.recording = True
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self._bindings: list[tuple] = []  # (owner, attribute, original, wrapper)

    def _name_id(self, name: str, bucket: str) -> int:
        self.names.append(name)
        self.bucket_of.append(bucket)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, bucket: str, on_exit=None):
        nid = self._name_id(name, bucket)
        stack, calls, self_s, clock = self.stack, self.calls, self.self_s, time.perf_counter
        starts, ends = self.span_start, self.span_end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if tracer.recording:
                index = len(starts)
                tracer.span_name.append(nid)
                starts.append(0.0)
                ends.append(0.0)
                tracer.span_parent.append(parent[1] if parent else -1)
                tracer.span_op.append(tracer.op)
            else:
                index = -1
            frame = [0.0, index, nid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[nid] += dur - frame[0]
                calls[nid] += 1
                if parent:
                    parent[0] += dur
                if index >= 0:
                    starts[index] = start
                    ends[index] = end
            if on_exit:
                on_exit(tracer, args, result, parent[2] if parent else -1)
            return result

        return traced

    def install(self, own_steps=()) -> None:
        """Rebind the program's layers, and `own_steps`, (module, attribute,
        bucket) triples naming benchmark functions that should be spans, to
        their wrappers.  The wrappers are made on the first call."""
        if not self._bindings:
            self._bindings = self._bind(own_steps)
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def _bind(self, own_steps) -> list[tuple]:
        from torusglue import gluing, isometry, numerics, orbit, report, sampling, torus

        owners = {
            "numerics": numerics, "torus": torus, "gluing": gluing, "isometry": isometry,
            "orbit": orbit, "report": report, "sampling": sampling,
        }
        classes = {"QuadScalar": numerics.QuadScalar, "GramMatrix": torus.GramMatrix}
        bindings = []
        for cls_name, method, bucket in METHODS:
            original = classes[cls_name].__dict__[method]
            wrapped = self.wrap(original, f"{cls_name}.{method}", bucket)
            bindings.append((classes[cls_name], method, original, wrapped))
        modules = [m for n, m in sys.modules.items() if n == "torusglue" or n.startswith("torusglue.")]
        for mod_name, fn_name, bucket in FUNCTIONS:
            original = getattr(owners[mod_name], fn_name)
            wrapped = self.wrap(original, f"{mod_name}.{fn_name}", bucket, EXIT_HOOKS.get(fn_name))
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        bindings.append((mod, attr, original, wrapped))
        for mod, attr, bucket in own_steps:
            original = getattr(mod, attr)
            bindings.append((mod, attr, original, self.wrap(original, f"bench.{attr}", bucket)))
        return bindings

    # -- results --------------------------------------------------------------

    def bucket_totals(self) -> tuple[dict, dict]:
        """(calls, self seconds) per span name and per bucket."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for name, bucket, n, s in zip(self.names, self.bucket_of, self.calls, self.self_s):
            for key in (name, bucket):
                calls[key] = calls.get(key, 0) + n
                self_s[key] = self_s.get(key, 0.0) + s
        return calls, self_s

    def save(self, path) -> int:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            buckets=np.array(self.bucket_of),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )
        return len(self.span_start)


# Counts taken at the layer boundaries, from arguments and results.


def _batch(t, args, result, parent):
    t.count("torus.batch_elems", len(args[0]))


def _exact_dist(t, args, result, parent):
    if parent >= 0 and t.bucket_of[parent] == "orbit.scan":
        t.count("orbit.exact_rechecks", 1)


def _axioms(t, args, result, parent):
    t.count("gluing.axiom_checks", result.checks)
    t.count("gluing.violations_logged", result.violations_total)


def _verify(t, args, result, parent):
    t.count("isometry.verify_pairs", result.samples)


def _scan(t, args, result, parent):
    if result is not None:
        t.count("orbit.scan_hits", 1)
        t.count("orbit.k_scanned", result.scanned)


def _circle(t, args, result, parent):
    t.count("orbit.circle_hits", 1)


def _serialize(t, args, result, parent):
    t.count("report.bytes", len(result.encode()))


EXIT_HOOKS = {
    "batch_torus_distance_sq": _batch,
    "torus_distance_sq": _exact_dist,
    "check_metric_axioms": _axioms,
    "verify_isometry": _verify,
    "torus_density_hit": _scan,
    "circle_density_hit": _circle,
    "canonical_json": _serialize,
}
