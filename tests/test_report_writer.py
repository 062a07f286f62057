"""Report text built from integers against the json.dumps and Fraction-view oracles.

`canonical_json` dispatches on exact types, quotes strings with the encoder
json.dumps uses; `QuadScalar.__str__` formats A/D and
B/D with one gcd each.  Both must give the oracles' text byte for byte, and
raise the same errors on values a report cannot hold.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torusglue.numerics import QuadScalar
from torusglue.report import canonical_json

import oracles

SETTINGS = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])

BIG = 10**40
coefficients = st.one_of(
    st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
quads = st.builds(QuadScalar, coefficients, coefficients, st.sampled_from((2, 3, 5, 13, 94)))
texts = st.text(
    st.one_of(
        # st.characters() draws no surrogates; the sample adds lone ones, an astral
        # code point and the characters JSON escapes
        st.characters(),
        st.sampled_from('"\\\x00\x08\t\n\x0c\r\x1f\x7f \xe9/\ud800\udfff\U0001f600'),
    ),
    max_size=12,
)
floats = st.floats(allow_nan=False, allow_infinity=False)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**60), 10**60),
    floats,
    st.sampled_from((0.0, -0.0, 5e-324, 1.7976931348623157e308)),
    floats.map(np.float64),
    texts,
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
    quads,
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(texts, inner, max_size=4),
    ),
    max_leaves=25,
)


@SETTINGS
@given(values)
def test_canonical_json_matches_the_oracle(value):
    assert canonical_json(value) == oracles.canonical_json(value)


@SETTINGS
@given(quads)
def test_quad_str_matches_the_fraction_views(x):
    assert str(x) == oracles.quad_str(x)


@pytest.mark.parametrize(
    "a, b",
    [
        (0, 1),
        (0, -1),
        (0, Fraction(-7, 3)),
        (Fraction(-5, 6), Fraction(5, 6)),
        (BIG, -BIG),
        (Fraction(BIG, 3), Fraction(-1, BIG)),
        (Fraction(-BIG + 1, BIG), 0),  # rational-valued
        (-3, 0),
        (0, 0),
        (Fraction(6, 4), 0),
    ],
)
def test_quad_str_edge_coefficients(a, b):
    for d in (2, 3, 13):
        x = QuadScalar(a, b, d)
        assert str(x) == oracles.quad_str(x)
        assert canonical_json({"x": x}) == oracles.canonical_json({"x": x})


class _Text(str):
    pass


class _Count(int):
    pass


def test_subclasses_take_the_isinstance_chain():
    value = {
        _Text("key"): [_Text("vé"), _Count(7), np.float64(-0.0), np.float64(0.1)],
        "flag": True,
        "none": None,
    }
    assert canonical_json(value) == oracles.canonical_json(value)


@pytest.mark.parametrize(
    "bad",
    [
        {1: 2},
        {"a": 1, 2: 3},
        {("a",): 1},
        {"ok": {None: 1}},
        [{"a": {b"bytes": 1}}],
    ],
    ids=["int-key", "mixed-keys", "tuple-key", "nested-none-key", "bytes-key"],
)
def test_non_string_keys_raise_type_error(bad):
    for write in (canonical_json, oracles.canonical_json):
        with pytest.raises(TypeError):
            write(bad)


@pytest.mark.parametrize(
    "bad",
    [object(), {1, 2}, b"bytes", complex(1, 2), {"a": [object()]}, np.bool_(True), np.int64(3)],
    ids=["object", "set", "bytes", "complex", "nested", "numpy-bool", "numpy-int"],
)
def test_unknown_types_raise_type_error(bad):
    for write in (canonical_json, oracles.canonical_json):
        with pytest.raises(TypeError):
            write(bad)


@pytest.mark.parametrize(
    "bad",
    [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf"), {"x": [1, math.inf]}],
    ids=["nan", "inf", "-inf", "np-nan", "np-inf", "nested"],
)
def test_non_finite_floats_raise_value_error(bad):
    for write in (canonical_json, oracles.canonical_json):
        with pytest.raises(ValueError):
            write(bad)
