"""The float metric sweep and its batch kernel against their per-element forms.

`oracle_kernel` is the plain 9-shift loop that `batch_torus_distance_sq`
ran before its per-axis terms were hoisted and its rows chunked, and
`oracle_check_batch` is the per-element violation loop that `_check_batch`
ran before its flags were computed on whole arrays: it builds a point pair
or triple for every violation and logs them one by one.  Both are kept here
as references.  The kernel must agree bit for bit, and an AxiomReport made
with the oracle loop must serialize to the same bytes.
"""

from fractions import Fraction

import numpy as np
import pytest

from torusglue import gluing
from torusglue.gluing import (
    GluingParams,
    _batch_points_equal,
    _float_point,
    _points_equal,
    check_metric_axioms,
)
from torusglue.numerics import FLOAT, ScalarMode, as_float
from torusglue.report import canonical_json
from torusglue.torus import _BATCH_CHUNK, GramMatrix, batch_torus_distance_sq

GRAMS = {"identity": GramMatrix.identity(), "skewed": GramMatrix(2, 1, 3)}
KERNEL_GRAMS = {**GRAMS, "reduced": GramMatrix("7/3", "-5/4", "11/5")}
ABOVE = GluingParams(Fraction(1), Fraction(3, 2))
BELOW = GluingParams(Fraction(2, 5), Fraction(1), strict=False)


def oracle_kernel(ya, yb, gram):
    ui, (g11, g12, g22) = gram._float_data
    w = (yb - ya) @ ui.T
    w -= np.rint(w)
    best = None
    for s1 in (-1.0, 0.0, 1.0):
        for s2 in (-1.0, 0.0, 1.0):
            v1 = w[:, 0] + s1
            v2 = w[:, 1] + s2
            val = g11 * v1 * v1 + 2 * g12 * v1 * v2 + g22 * v2 * v2
            best = val if best is None else np.minimum(best, val)
    return best


def _oracle_glued_values(ka, ya, ta, kb, yb, tb, params, gram):
    base = np.sqrt(np.maximum(oracle_kernel(ya, yb, gram), 0.0))
    both_cyl = (ka == 1) & (kb == 1)
    mixed = ka != kb
    m = float(as_float(params.M))
    r = float(as_float(params.R))
    off = np.where(both_cyl, np.minimum(np.abs(ta - tb), m), np.where(mixed, r, 0.0))
    return base + off


def oracle_check_batch(n, params, gram, mode, seed, log):
    rng = np.random.default_rng(seed)
    kind = rng.integers(0, 2, size=(3, n))
    y = rng.random((3, n, 2))
    span = 3.0 * max(1.0, as_float(params.M))
    t = rng.uniform(-span, span, (3, n))

    def glued(c1, c2):
        return _oracle_glued_values(kind[c1], y[c1], t[c1], kind[c2], y[c2], t[c2], params, gram)

    d_ab, d_ba, d_ac, d_bc, d_aa = glued(0, 1), glued(1, 0), glued(0, 2), glued(1, 2), glued(0, 0)

    def point(col, i):
        return _float_point(int(kind[col][i]), y[col][i], float(t[col][i]))

    log.note_error(float(np.max(np.abs(d_ab - d_ba), initial=0.0)))
    for i in np.nonzero(np.abs(d_ab - d_ba) > mode.eps)[0]:
        log.add("symmetry", point(0, i), point(1, i), None,
                float(d_ab[i]), float(d_ba[i]), float(abs(d_ab[i] - d_ba[i])))

    log.note_error(float(np.max(np.abs(d_aa), initial=0.0)))
    for i in np.nonzero(np.abs(d_aa) > mode.identity_eps)[0]:
        log.add("identity-zero", point(0, i), point(0, i), None, float(d_aa[i]), 0.0, float(abs(d_aa[i])))

    for dv, c1, c2 in ((d_ab, 0, 1), (d_ac, 0, 2), (d_bc, 1, 2)):
        for i in np.nonzero(dv <= mode.identity_eps)[0]:
            p, q = point(c1, i), point(c2, i)
            if not _points_equal(p, q, mode):
                log.add("identity-distinct", p, q, None, float(dv[i]), 0.0, float(dv[i]))

    for lhs, r1, r2, cols in (
        (d_ab, d_ac, d_bc, (0, 1, 2)),
        (d_ac, d_ab, d_bc, (0, 2, 1)),
        (d_bc, d_ab, d_ac, (1, 2, 0)),
    ):
        slack = lhs - (r1 + r2)
        log.note_error(float(np.max(slack, initial=0.0)))
        for i in np.nonzero(slack > mode.eps)[0]:
            log.add("triangle", point(cols[0], i), point(cols[1], i), point(cols[2], i),
                    float(lhs[i]), float(r1[i] + r2[i]), float(slack[i]))
    return 8 * n


def _reports(n, params, gram, mode, seed, max_recorded, monkeypatch):
    got = check_metric_axioms(n, params, gram, mode, seed=seed, max_recorded=max_recorded)
    with monkeypatch.context() as m:
        m.setattr(gluing, "_check_batch", oracle_check_batch)
        want = check_metric_axioms(n, params, gram, mode, seed=seed, max_recorded=max_recorded)
    return got, want


# -- the sweep ---------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("gram_name", sorted(GRAMS))
@pytest.mark.parametrize("params", [ABOVE, BELOW], ids=["above", "below"])
def test_sweep_report_matches_oracle(seed, gram_name, params, monkeypatch):
    got, want = _reports(3000, params, GRAMS[gram_name], FLOAT, seed, 100, monkeypatch)
    assert canonical_json(got.describe()) == canonical_json(want.describe())
    if params is BELOW:
        # enough violations that the log is cut at 100
        assert got.violations_total > len(got.violations) == 100


@pytest.mark.parametrize("max_recorded", [0, 1, 100, 10**6])
@pytest.mark.parametrize("gram_name", sorted(GRAMS))
def test_sweep_max_recorded_matches_oracle(max_recorded, gram_name, monkeypatch):
    got, want = _reports(4000, BELOW, GRAMS[gram_name], FLOAT, 5, max_recorded, monkeypatch)
    assert canonical_json(got.describe()) == canonical_json(want.describe())
    assert len(got.violations) == min(max_recorded, got.violations_total)


@pytest.mark.parametrize(
    "mode",
    [ScalarMode.float_mode(identity_eps=0.5), ScalarMode.float_mode(eps=0.3, identity_eps=0.5)],
    ids=["loose-identity", "loose-both"],
)
@pytest.mark.parametrize("params", [ABOVE, BELOW], ids=["above", "below"])
@pytest.mark.parametrize("max_recorded", [1, 100, 10**6])
def test_sweep_loose_identity_matches_oracle(mode, params, max_recorded, monkeypatch):
    """A loose identity tolerance sends many pairs through the points-equal test."""
    got, want = _reports(2000, params, GRAMS["skewed"], mode, 3, max_recorded, monkeypatch)
    assert canonical_json(got.describe()) == canonical_json(want.describe())
    kinds = {v.kind for v in got.violations}
    assert "identity-distinct" in kinds or max_recorded == 1


def test_sweep_edge_sizes_match_oracle(monkeypatch):
    for n in (0, 1, 2, 17):
        for params in (ABOVE, BELOW):
            got, want = _reports(n, params, GRAMS["skewed"], FLOAT, n, 100, monkeypatch)
            assert canonical_json(got.describe()) == canonical_json(want.describe())


def test_batch_points_equal_matches_points_equal():
    rng = np.random.default_rng(0)
    eps = 1e-3
    rows = []
    for _ in range(400):
        ka, kb = rng.integers(0, 2, size=2)
        ya = rng.random(2)
        ta = rng.uniform(-3, 3)
        # near copies, wrapped copies and far points, with kinds that may differ
        yb = (ya + rng.choice([0.0, 1e-4, 2e-3, 0.3]) * rng.standard_normal(2)) % 1.0
        tb = ta + rng.choice([0.0, 5e-4, 2e-3, 1.0])
        rows.append((ka, ya, ta, kb, yb, tb))
    ka, ya, ta, kb, yb, tb = (np.array(col) for col in zip(*rows))
    got = _batch_points_equal(ka, ya, ta, kb, yb, tb, eps)
    mode = ScalarMode.float_mode(eps=eps)
    want = [
        _points_equal(_float_point(int(r[0]), r[1], r[2]), _float_point(int(r[3]), r[4], r[5]), mode)
        for r in rows
    ]
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)


# -- the kernel --------------------------------------------------------------------


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("gram", list(KERNEL_GRAMS.values()), ids=list(KERNEL_GRAMS))
@pytest.mark.parametrize("n", [0, 1, _BATCH_CHUNK - 1, _BATCH_CHUNK, _BATCH_CHUNK + 1, 3 * _BATCH_CHUNK + 5])
def test_kernel_bitwise_equal(gram, n):
    rng = np.random.default_rng(n)
    ya, yb = rng.random((n, 2)), rng.random((n, 2))
    got, want = batch_torus_distance_sq(ya, yb, gram), oracle_kernel(ya, yb, gram)
    assert np.array_equal(got, want) and _same_bits(got, want)


@pytest.mark.parametrize("gram", list(KERNEL_GRAMS.values()), ids=list(KERNEL_GRAMS))
def test_kernel_bitwise_equal_near_coincident(gram):
    rng = np.random.default_rng(1)
    ya = rng.random((3000, 2))
    ya[:500] = rng.choice([0.0, 0.5, 1 - 2**-53, 2**-60], size=(500, 2))
    yb = ya + rng.choice([0.0, 1e-300, 1e-16, -1e-16, 1e-9], size=ya.shape)
    yb[1000:1500] = (ya[1000:1500] + 0.5) % 1.0  # rounding ties of the difference
    got = batch_torus_distance_sq(ya, yb, gram)
    assert _same_bits(got, oracle_kernel(ya, yb, gram))
    assert np.min(got) == 0.0
