"""The first-entry search on integer triples against the QuadScalar level loop.

`_first_entry` carries c and width as (A, B, D) triples over Q(sqrt d) and
reads each level's step and 1/step from the shared table.  These tests give
it c and width as int, Fraction, rational-valued QuadScalar and irrational
QuadScalar, and compare it with `first_entry_levels` and brute force; they
pin the exact boundaries c == width and width == step, and check that a
search over a cached chain builds no scalar objects.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torusglue import orbit
from torusglue.numerics import FieldMismatchError, QuadScalar, frac
from torusglue.orbit import _first_entry

from oracles import BRUTE_K, brute_first, first_entry_levels

FIELDS = (2, 3, 5, 13)
SETTINGS = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _slope(a, b, d):
    return frac(QuadScalar(Fraction(a, 7), Fraction(b, 5), d))


slopes = st.builds(
    _slope,
    st.integers(-20, 20),
    st.integers(-12, 12).filter(bool),
    st.sampled_from(FIELDS),
)


@st.composite
def scalar_in_unit(draw, alpha, positive):
    """A value in [0, 1) (or (0, 1) when positive), as one of the four input types."""
    kind = draw(st.sampled_from(("int", "fraction", "rational-quad", "irrational-quad")))
    if kind == "int":
        return 1 if positive else 0
    r = Fraction(draw(st.integers(0, 4000)), draw(st.integers(1, 4000)))
    r = frac(r) or Fraction(1, 3)
    if kind == "fraction":
        return r
    if kind == "rational-quad":
        # a rational value mixes with any radicand
        return QuadScalar(r, 0, draw(st.sampled_from((2, 3, 7))))
    return frac(r + draw(st.integers(1, 9)) * alpha)


def _check(alpha, c, width):
    got = _first_entry(alpha, c, width)
    assert got == first_entry_levels(alpha, c, width)
    want = brute_first(alpha, c, lambda v: v < width)
    if want is None:
        assert got >= BRUTE_K
    else:
        assert got == want
    return got


@SETTINGS
@given(st.data(), slopes)
def test_matches_level_loop_for_every_input_type(data, alpha):
    c = data.draw(scalar_in_unit(alpha, positive=False))
    width = data.draw(scalar_in_unit(alpha, positive=True))
    _check(alpha, c, width)
    # and a window narrow enough to need many levels
    _check(alpha, c, width * Fraction(1, data.draw(st.integers(2, 2**40))))


@SETTINGS
@given(st.data(), slopes)
def test_c_equal_to_width_is_outside_the_window(data, alpha):
    # the window [0, width) is half-open, so k = 0 misses when c == width
    width = data.draw(scalar_in_unit(alpha, positive=True))
    if width == 1:
        width = Fraction(1, 3)
    assert _check(alpha, width, width) > 0


def _boundary_widths(alpha, depth):
    """Widths w0 with width == step at some level i < depth whose slope exceeds 1/2.

    The window at level i is w0 / (step_0 * ... * step_(i-1)), so w0 is the
    product of the steps through level i.
    """
    out = []
    scale = 1
    for i in range(depth):
        up, sA, sB, sD, *_ = orbit._rotation(alpha).level(i)
        step = QuadScalar(Fraction(sA, sD), Fraction(sB, sD), alpha.d)
        if not up:
            out.append((i, scale * step))
        scale = scale * step
    return out


@pytest.mark.parametrize("d", FIELDS)
def test_width_equal_to_step_takes_block_zero(d):
    # frac(sqrt(d) + 1/2) lies above 1/2 for these d, so level 0 steps by 1 - alpha
    alpha = frac(QuadScalar(Fraction(1, 2), 1, d))
    if alpha < Fraction(1, 2):
        alpha = 1 - alpha
    step = 1 - alpha
    # c >= width enters the loop, and width == step is not width < step
    for c in (step, frac(step + Fraction(1, 1000)), Fraction(999, 1000), frac(2 * step)):
        assert not c < step
        _check(alpha, c, step)
    # deeper levels: a width that meets the step of a later level
    boundaries = _boundary_widths(alpha, 10)
    assert boundaries[0] == (0, step) and len(boundaries) > 1
    for _, w0 in boundaries[1:]:
        for c in [Fraction(j, 11) for j in range(11)] + [frac(j * alpha) for j in range(1, 6)]:
            assert _first_entry(alpha, c, w0) == first_entry_levels(alpha, c, w0)


def test_irrational_input_from_another_field_is_refused():
    alpha = frac(QuadScalar(0, 1, 2))
    with pytest.raises(FieldMismatchError):
        _first_entry(alpha, frac(QuadScalar(0, 1, 3)), Fraction(1, 100))
    with pytest.raises(FieldMismatchError):
        _first_entry(alpha, Fraction(1, 2), frac(QuadScalar(0, 1, 5)))


COUNTED = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__neg__", "reciprocal", "floor", "floor_frac")


@pytest.mark.parametrize("d", FIELDS)
def test_cached_chain_search_builds_no_scalars(d, monkeypatch):
    alpha = _slope(3, 4, d)
    width = Fraction(1, 2**60)
    # a window of width w needs at most log2(1/w) + 1 levels
    orbit._rotation(alpha).level(62)
    queries = [(Fraction(j, 17), width) for j in range(17)]
    queries.append((frac(5 * alpha + Fraction(1, 3)), width))
    want = [first_entry_levels(alpha, c, w) for c, w in queries]
    calls = {}
    for name in COUNTED:
        original = getattr(QuadScalar, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(QuadScalar, name, counted)
    got = [_first_entry(alpha, c, w) for c, w in queries]
    monkeypatch.undo()
    assert calls == {}
    assert got == want
    assert max(got) > 2**20  # the searches went deep into the chain
