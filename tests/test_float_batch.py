"""The float metric sweep and its batch kernel against their per-element forms.

`oracle_kernel` is the plain 9-shift loop that `batch_torus_distance_sq`
ran before its per-axis terms were hoisted, its rows chunked and its
shifts cut to the four corners of the reduced cell (its matrix product is
exact on the Grams it is given, whose reductions have entries in
{-1, 0, 1}), `oracle_scalar_distance_sq` is the per-shift loop
that `torus_distance_sq` ran on float points in Python floats, and
`oracle_check_batch` is the per-element violation loop that `_check_batch`
ran before its flags were computed on whole arrays: it builds a point pair
or triple for every violation and logs them one by one, and compares
near-coincident points with `oracle_points_equal`, the float points-equal
test that float mode ran point by point.  They are kept here as
references.  The kernel must agree bit for bit with both loops, and an
AxiomReport made with the oracle loop must serialize to the same bytes.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusglue import gluing, torus
from torusglue.gluing import (
    GluingParams,
    GluedPoint,
    _batch_points_equal,
    _float_point,
    check_metric_axioms,
)
from torusglue.numerics import FLOAT, ScalarMode
from torusglue.report import canonical_json
from torusglue.torus import (
    _BATCH_CHUNK,
    GramMatrix,
    TorusPoint,
    batch_torus_distance_sq,
    torus_distance_sq,
)

from oracles import nearest_int

GRAMS = {"identity": GramMatrix.identity(), "skewed": GramMatrix(2, 1, 3)}
KERNEL_GRAMS = {
    **GRAMS,
    "reduced": GramMatrix("7/3", "-5/4", "11/5"),
    # the hexagonal boundary 2|g12| = g11, with both signs of g12
    "hexagonal": GramMatrix(1, Fraction(1, 2), 1),
    "hexagonal-neg": GramMatrix(2, -1, 2),
    # elongated: 1e12 inside the proven bound, 1e20 and 2^47 past it
    "elongated-1e12": GramMatrix(1, Fraction(1, 3), 10**12),
    "elongated-1e20": GramMatrix(1, Fraction(-1, 2), 10**20),
    "past-bound": GramMatrix(1, Fraction(1, 2), 2**47),
    # diagonal reduced forms: one separable shift, past the bound too, and
    # with a g12 whose float underflows to +0.0 or -0.0
    "diagonal": GramMatrix(3, 0, 5),
    "diagonal-past-bound": GramMatrix(1, 0, 2**47),
    "diagonal-underflow": GramMatrix(1, Fraction(1, 10**400), 1),
    "diagonal-underflow-neg": GramMatrix(1, Fraction(-1, 10**400), 1),
}
# the Grams whose float error the proof does not cover: each axis keeps w + sigma
PAST_BOUND = ("elongated-1e20", "past-bound")
# the Grams whose float 2*g12 is 0.0: the kernel evaluates the zero shift alone
DIAGONAL = ("identity", "diagonal", "diagonal-past-bound", "diagonal-underflow", "diagonal-underflow-neg")
ABOVE = GluingParams(Fraction(1), Fraction(3, 2))
BELOW = GluingParams(Fraction(2, 5), Fraction(1), strict=False)


def oracle_kernel(ya, yb, gram):
    ui, (g11, g12, g22) = gram._float_data
    w = (yb - ya) @ np.array(ui).T
    w -= np.rint(w)
    best = None
    for s1 in (-1.0, 0.0, 1.0):
        for s2 in (-1.0, 0.0, 1.0):
            v1 = w[:, 0] + s1
            v2 = w[:, 1] + s2
            val = g11 * v1 * v1 + 2 * g12 * v1 * v2 + g22 * v2 * v2
            best = val if best is None else np.minimum(best, val)
    return best


def oracle_scalar_distance_sq(p: TorusPoint, q: TorusPoint, gram: GramMatrix) -> float:
    d1, d2 = p.delta(q)
    ui = gram.unimodular_inverse
    _, gr = gram.reduction
    w1 = ui[0][0] * d1 + ui[0][1] * d2
    w2 = ui[1][0] * d1 + ui[1][1] * d2
    m1, m2 = -nearest_int(w1), -nearest_int(w2)
    best = None
    for s1 in (-1, 0, 1):
        for s2 in (-1, 0, 1):
            val = gr.form(w1 + (m1 + s1), w2 + (m2 + s2))
            if best is None or val < best:
                best = val
    return best


def oracle_points_equal(a: GluedPoint, b: GluedPoint, eps: float) -> bool:
    if a.is_compact != b.is_compact:
        return False
    ya, yb = np.array([a.y.as_floats()]), np.array([b.y.as_floats()])
    if batch_torus_distance_sq(ya, yb, GramMatrix.identity())[0] > eps * eps:
        return False
    return a.is_compact or abs(float(a.t) - float(b.t)) <= eps


def _oracle_glued_values(ka, ya, ta, kb, yb, tb, params, gram):
    base = np.sqrt(np.maximum(oracle_kernel(ya, yb, gram), 0.0))
    both_cyl = (ka == 1) & (kb == 1)
    mixed = ka != kb
    m = float(params.M)
    r = float(params.R)
    off = np.where(both_cyl, np.minimum(np.abs(ta - tb), m), np.where(mixed, r, 0.0))
    return base + off


def oracle_check_batch(n, params, gram, mode, seed, log):
    rng = np.random.default_rng(seed)
    kind = rng.integers(0, 2, size=(3, n))
    y = rng.random((3, n, 2))
    span = 3.0 * max(1.0, float(params.M))
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
            if not oracle_points_equal(p, q, mode.eps):
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
    want = [
        oracle_points_equal(_float_point(int(r[0]), r[1], r[2]), _float_point(int(r[3]), r[4], r[5]), eps)
        for r in rows
    ]
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)


AT = GluingParams(Fraction(1), Fraction(2))


@pytest.mark.parametrize("gram", list(KERNEL_GRAMS.values()), ids=list(KERNEL_GRAMS))
@pytest.mark.parametrize("params", [ABOVE, AT, BELOW], ids=["above", "at", "below"])
def test_glued_values_bitwise_equal(gram, params):
    """The arithmetic off-torus term against the oracle's selects, on random
    kinds, coincident and far heights, and rows that cross chunk borders."""
    rng = np.random.default_rng(4)
    n = 2 * _BATCH_CHUNK + 3
    ka, kb = rng.integers(0, 2, size=(2, n))
    ya, yb = rng.random((n, 2)), rng.random((n, 2))
    ta = rng.uniform(-6.0, 6.0, n)
    tb = ta + rng.choice([0.0, -0.0, 1e-300, 0.5, 2.0, 1e3], size=n) * rng.choice([1.0, -1.0], size=n)
    yb[: n // 4] = ya[: n // 4]
    assert {(a, b) for a, b in zip(ka.tolist(), kb.tolist())} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    got = gluing._batch_glued_values(ka, ya, ta, kb, yb, tb, params, gram)
    want = _oracle_glued_values(ka, ya, ta, kb, yb, tb, params, gram)
    assert _same_bits(got, want)
    assert not np.any(np.signbit(got))


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


def _sheared_gram(rng: random.Random) -> GramMatrix:
    """V^T R V for a random reduced R and a unimodular V with entries up to ~3600."""
    g11 = Fraction(rng.randint(1, 20), rng.randint(1, 9))
    g12 = g11 * Fraction(rng.randint(-50, 50), 100)
    g22 = g11 + Fraction(rng.randint(0, 40), rng.randint(1, 9))
    a, b = rng.randint(-60, 60), rng.randint(-60, 60)
    (v11, v12), (v21, v22) = (1 + a * b, a), (b, 1)
    return GramMatrix(
        g11 * v11 * v11 + 2 * g12 * v11 * v21 + g22 * v21 * v21,
        g11 * v11 * v12 + g12 * (v11 * v22 + v21 * v12) + g22 * v21 * v22,
        g11 * v12 * v12 + 2 * g12 * v12 * v22 + g22 * v22 * v22,
    )


def test_kernel_matches_scalar_loop_on_sheared_grams():
    """Bit for bit against the per-shift scalar loop, where a matrix product
    in the transform could round differently: reductions with entries
    above 1, random points and dyadic points whose reduced differences land
    on rounding ties."""
    rng = random.Random(0)
    # (1, 37, 1370) is the Gram of the `*.float-reduced` goldens
    grams = [GramMatrix(1, 37, 1370)] + [_sheared_gram(rng) for _ in range(60)]
    sheared = sum(max(abs(x) for row in g.unimodular_inverse for x in row) > 1 for g in grams)
    assert sheared >= 40
    ties = 0
    for gram in grams:
        pairs = [(rng.random(), rng.random(), rng.random(), rng.random()) for _ in range(100)]
        pairs += [tuple(rng.randrange(8) / 8 for _ in range(4)) for _ in range(100)]
        ya = np.array([(a1, a2) for a1, a2, _, _ in pairs])
        yb = np.array([(b1, b2) for _, _, b1, b2 in pairs])
        ps = [TorusPoint(a1, a2) for a1, a2, _, _ in pairs]
        qs = [TorusPoint(b1, b2) for _, _, b1, b2 in pairs]
        want = np.array([oracle_scalar_distance_sq(p, q, gram) for p, q in zip(ps, qs)])
        assert _same_bits(batch_torus_distance_sq(ya, yb, gram), want)
        assert [torus_distance_sq(p, q, gram) for p, q in zip(ps, qs)] == want.tolist()
        (u11, u12), (u21, u22) = gram.unimodular_inverse
        ties += sum(
            (u11 * (b1 - a1) + u12 * (b2 - a2)) % 1 == 0.5 or (u21 * (b1 - a1) + u22 * (b2 - a2)) % 1 == 0.5
            for a1, a2, b1, b2 in pairs
        )
    assert ties > 1000


def _edge_rows(rng, n=4000):
    """Rows with yb == ya, differences of exactly +-1/2, signed zeros and
    differences of 1e-300, mixed with random ones."""
    ya = rng.random((n, 2))
    ya[: n // 8] = rng.choice([0.0, -0.0, 0.5, 0.25, 1 - 2**-53], size=(n // 8, 2))
    step = rng.choice([0.0, -0.0, 0.5, -0.5, 1e-300, -1e-300, 2**-1074], size=ya.shape)
    yb = ya + step
    yb[n // 4 : n // 2] = ya[n // 4 : n // 2]  # yb == ya
    yb[n // 2 : 5 * n // 8] = rng.random((n // 8, 2))  # far pairs
    yb[yb == 0.0] = rng.choice([0.0, -0.0], size=int(np.sum(yb == 0.0)))
    return ya, yb


@pytest.mark.parametrize("gram", list(KERNEL_GRAMS.values()), ids=list(KERNEL_GRAMS))
def test_kernel_bitwise_equal_on_edge_rows(gram):
    ya, yb = _edge_rows(np.random.default_rng(2))
    half = (ya - yb) % 1.0 == 0.5
    assert np.any(half[:, 0]) and np.any(half[:, 1])
    assert np.any(np.signbit(ya) & (ya == 0.0)) and np.any(np.all(ya == yb, axis=1))
    got = batch_torus_distance_sq(ya, yb, gram)
    assert _same_bits(got, oracle_kernel(ya, yb, gram))
    assert not np.any(np.signbit(got))


def _kernel_and_away_flags(ya, yb, gram, monkeypatch):
    """The kernel's result and the `away` flags its axes were given."""
    flags = set()
    real = torus._axis_shifts
    with monkeypatch.context() as m:
        m.setattr(torus, "_axis_shifts", lambda w, away: flags.add(away) or real(w, away))
        return batch_torus_distance_sq(ya, yb, gram), flags


@pytest.mark.parametrize("name", sorted(KERNEL_GRAMS))
def test_away_shift_stays_only_past_the_proven_bound(name, monkeypatch):
    """The four corners suffice when 4 * err < g11; past it (g22/g11 of about
    2^47 and above) each axis evaluates its away shift w + sigma too.  A
    diagonal form asks for no shift at all, past the bound or not."""
    gram = KERNEL_GRAMS[name]
    rng = np.random.default_rng(3)
    ya, yb = rng.random((_BATCH_CHUNK + 7, 2)), rng.random((_BATCH_CHUNK + 7, 2))
    got, flags = _kernel_and_away_flags(ya, yb, gram, monkeypatch)
    assert _same_bits(got, oracle_kernel(ya, yb, gram))
    assert flags == (set() if name in DIAGONAL else {name in PAST_BOUND})


def test_diagonal_grams_are_the_ones_with_a_zero_float_cross_term():
    for name, gram in KERNEL_GRAMS.items():
        assert (2 * gram._float_data[1][1] == 0.0) == (name in DIAGONAL)
    assert np.signbit(KERNEL_GRAMS["diagonal-underflow-neg"]._float_data[1][1])


def test_proven_bound_lies_between_2_46_and_2_47(monkeypatch):
    ya, yb = np.zeros((1, 2)), np.full((1, 2), 0.3)
    for g22, away in ((2**46, False), (2**47, True)):
        gram = GramMatrix(1, Fraction(1, 2), g22)
        got, flags = _kernel_and_away_flags(ya, yb, gram, monkeypatch)
        assert flags == {away}
        assert _same_bits(got, oracle_kernel(ya, yb, gram))


# -- the corner lemma, in exact arithmetic ----------------------------------------


def _margin(gram, w1, w2, sign1, sign2, reach=3):
    """Least Q(w + s) - min over the corners of Q(w + c), over the shifts s
    outside the corners with |s_i| <= reach."""
    corners = torus._corners(sign1, sign2)
    best = min(gram.form(w1 + c1, w2 + c2) for c1, c2 in corners)
    span = range(-reach, reach + 1)
    return min(
        gram.form(w1 + s1, w2 + s2) - best for s1 in span for s2 in span if (s1, s2) not in corners
    )


def _signs(w):
    """The signs a coordinate may carry: both for a zero, as +0.0 and -0.0."""
    return (1, -1) if w == 0 else ((w > 0) - (w < 0),)


HALF = Fraction(1, 2)
positive = st.fractions(min_value=Fraction(1, 1000), max_value=1000)
unit_interval = st.fractions(min_value=0, max_value=1)
half_interval = st.fractions(min_value=-HALF, max_value=HALF)
coordinates = st.one_of(st.sampled_from([Fraction(0), HALF, -HALF]), half_interval)


@st.composite
def reduced_grams(draw) -> GramMatrix:
    """2|g12| <= g11 <= g22, the boundaries included."""
    g11 = draw(positive)
    ratio = draw(st.one_of(st.sampled_from([-HALF, HALF, Fraction(0)]), half_interval))
    stretch = draw(st.one_of(st.just(Fraction(0)), unit_interval, positive))
    return GramMatrix(g11, ratio * g11, g11 + stretch * g11)


@settings(max_examples=300, deadline=None)
@given(reduced_grams(), coordinates, coordinates)
def test_corner_margin_is_at_least_half_g11(gram, w1, w2):
    for sign1 in _signs(w1):
        for sign2 in _signs(w2):
            assert _margin(gram, w1, w2, sign1, sign2) >= gram.g11 / 2


def test_corner_margin_is_attained_on_the_hexagonal_boundary():
    # 2 g12 = -g11 and w = (0, 1/2): the shift (1, 0) is g11/2 above the corner 0
    assert _margin(GramMatrix(2, -1, 2), Fraction(0), HALF, 1, 1) == 1


# M from which 6*max(1, M), the range of the sampled float heights, has no float
HEIGHTS_BEYOND_FLOAT = [3e307, 1e308]


@pytest.mark.parametrize("m", HEIGHTS_BEYOND_FLOAT)
def test_float_sweep_refuses_heights_beyond_float_naming_m(m):
    params = GluingParams(Fraction(m), Fraction(m))
    with pytest.raises(OverflowError, match=r"^M: the sampled height range 6\*max\(1, M\)"):
        check_metric_axioms(10, params, GramMatrix.identity(), FLOAT)
    # exact mode samples exact heights and does not change
    assert check_metric_axioms(3, params, GramMatrix.identity()).passed


def test_float_sweep_runs_just_below_the_height_bound():
    m = Fraction(2.9e307)
    assert check_metric_axioms(200, GluingParams(m, m), GramMatrix(2, 1, 3), FLOAT, seed=2).passed
