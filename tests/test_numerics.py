"""Exact scalar layer: arithmetic, ordering, floor, and the wire grammar.

Everything here is checked against an independent oracle: floats for
arithmetic, high-precision Decimal for floor, and raw string literals for
the wire format.
"""

import inspect
import math
import operator
import textwrap
import time
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest
import sympy

from torusglue import numerics
from torusglue.numerics import (
    EXACT,
    FLOAT,
    ExactnessError,
    FieldMismatchError,
    QuadScalar,
    ScalarMode,
    floor_frac,
    format_scalar,
    frac,
    is_exact,
    is_square_free,
    parse_scalar,
    rational_interval,
    require_exact,
    scalar_lt,
    scalar_min,
    sign_of,
    sqrt_as_float,
    sqrt_interval,
)
from torusglue.sampling import rng_for

from oracles import nearest_int

SQRT2 = QuadScalar(0, 1, 2)


def random_quad(rng, d=2, span=40):
    a = Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 12))
    b = Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 12))
    return QuadScalar(a, b, d)


def _square_free_sieve(limit: int) -> list[bool]:
    """is_square_free(n) for n < limit by definition: cross out multiples of k^2."""
    free = [n >= 2 for n in range(limit)]
    for k in range(2, math.isqrt(limit) + 1):
        free[k * k :: k * k] = [False] * len(free[k * k :: k * k])
    return free


def test_square_free_classifier():
    assert all(is_square_free(n) for n in (2, 3, 5, 6, 7, 10, 11, 13))
    assert not any(is_square_free(n) for n in (4, 8, 9, 12, 16, 18, 20))
    free = _square_free_sieve(20_000)
    assert [n for n in range(20_000) if is_square_free(n) != free[n]] == []


def _square_free_by_factorint(n: int) -> bool:
    return all(e == 1 for e in sympy.factorint(n).values())


P31 = 2**31 - 1  # prime, above the cube root of its square
# a Mersenne prime; the square of a prime above the cube root, alone and
# times 3, which only the last step, the perfect-square test, rejects; and
# a square-free product of two primes above the cube root
LARGE = (2**61 - 1, P31**2, 3 * P31**2, P31 * (2**29 - 3))


def _without_square_test():
    """A planted fault: is_square_free with its last step, the perfect-square
    test of what trial division leaves, replaced by `return True`."""
    src = textwrap.dedent(inspect.getsource(numerics.is_square_free))
    last = src.rstrip().splitlines()[-1]
    assert "isqrt" in last, "the last step moved; update the planted fault"
    scope = {"math": math}
    exec(src.replace(last, "    return True"), scope)
    return scope["is_square_free"]


@pytest.mark.parametrize("n", LARGE)
def test_square_free_matches_factorint(n):
    assert is_square_free(n) == _square_free_by_factorint(n)


def test_square_free_without_square_test_is_caught():
    mutant = _without_square_test()
    wrong = [n for n in LARGE if mutant(n) != _square_free_by_factorint(n)]
    assert wrong == [P31**2, 3 * P31**2]


def test_radicands_stay_below_2_to_the_64():
    # 2^64 - 1 = 3*5*17*257*641*65537*6700417 is square-free and the largest allowed
    assert numerics._check_d(2**64 - 1) == 2**64 - 1
    for d in (2**64, 2**89 - 1, 2**107 - 1):
        start = time.process_time()
        with pytest.raises(ValueError, match=r"below 2\*\*64"):
            QuadScalar(1, 1, d)
        assert time.process_time() - start < 0.1


def test_constructor_rejects_bad_radicand():
    with pytest.raises(ValueError):
        QuadScalar(1, 1, 4)
    with pytest.raises(ValueError):
        QuadScalar(1, 1, 1)
    with pytest.raises(ValueError):
        QuadScalar(1, 1, -2)


def test_validated_index_does_not_admit_values_that_hash_like_it():
    QuadScalar(0, 1, 2)
    with pytest.raises(ValueError):
        QuadScalar(0, 1, 2.0)
    # d*B*B would overflow int64 and give the positive value sign -1
    with pytest.raises(ValueError):
        QuadScalar(-14142135623, 10**10, np.int64(2))


def test_immutability():
    x = QuadScalar(1, 2, 2)
    with pytest.raises(AttributeError):
        x.a = Fraction(3)


def test_arithmetic_matches_float_oracle():
    for i in range(300):
        rng = rng_for(101, i)
        x = random_quad(rng)
        y = random_quad(rng)
        fx, fy = float(x), float(y)
        assert math.isclose(float(x + y), fx + fy, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(float(x - y), fx - fy, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(float(x * y), fx * fy, rel_tol=1e-11, abs_tol=1e-9)
        if y.norm() != 0 and not y.is_zero():
            assert math.isclose(float(x / y), fx / fy, rel_tol=1e-9, abs_tol=1e-9)


def test_division_multiplies_back_exactly():
    for i in range(200):
        rng = rng_for(102, i)
        x, y = random_quad(rng), random_quad(rng)
        if y.is_zero():
            continue
        assert (x / y) * y == x
    # reciprocal agrees with division
    z = QuadScalar(Fraction(3, 7), Fraction(-2, 5), 2)
    assert z.reciprocal() * z == QuadScalar(1, 0, 2)


def test_reflected_operators():
    x = QuadScalar(Fraction(1, 3), Fraction(1, 2), 2)
    assert 1 + x == x + 1
    assert 2 - x == -(x - 2)
    assert Fraction(3, 4) * x == x * Fraction(3, 4)
    assert (1 / x) * x == QuadScalar(1, 0, 2)


def test_float_operands_decay_to_float():
    x = QuadScalar(1, 1, 2)
    got = x + 0.5
    assert isinstance(got, float)
    assert math.isclose(got, float(x) + 0.5, rel_tol=1e-12)
    assert isinstance(0.5 * x, float)
    # every operator, on both sides: the float expression on float(x), bit for bit
    for y in (QuadScalar(1, 1, 2), QuadScalar(Fraction(-2, 7), Fraction(3, 5), 3), QuadScalar(Fraction(5, 3))):
        fy = float(y)
        for f in (0.5, -3.25, 1e-300):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                for got, want in ((op(y, f), op(fy, f)), (op(f, y), op(f, fy))):
                    assert type(got) is float and got.hex() == want.hex(), (op, y, f)
    assert (0.5 - x).hex() == (0.5 - float(x)).hex() and (x - 0.5).hex() == (float(x) - 0.5).hex()
    assert (0.5 / x).hex() == (0.5 / float(x)).hex() and (x / 0.5).hex() == (float(x) / 0.5).hex()


def test_reduced_is_the_result_rule():
    # d = 0 means that no QuadScalar took part: the value is a Fraction
    got = numerics._reduced(6, 0, 4, 0)
    assert type(got) is Fraction and got == Fraction(3, 2)
    got = numerics._reduced(6, 0, 4, 3)
    assert type(got) is QuadScalar and got == Fraction(3, 2) and got.d == numerics.DEFAULT_D
    # `_parts` reads a scalar as the triple and field that `_reduced` turns back into it
    for x in (5, Fraction(-3, 4), QuadScalar(Fraction(5, 3)), QuadScalar(Fraction(1, 2), Fraction(-1, 3), 3)):
        y = numerics._reduced(*numerics._parts(x))
        assert y == x and type(y) is (QuadScalar if isinstance(x, QuadScalar) else Fraction), x


def test_integer_powers():
    x = QuadScalar(1, 1, 2)  # 1 + sqrt(2)
    assert x ** 2 == QuadScalar(3, 2, 2)
    assert x ** 0 == QuadScalar(1, 0, 2)
    assert x ** 5 == x * x * x * x * x


def test_sign_near_cancellation():
    # a is chosen within 1e-16 of -sqrt(2); float arithmetic sits right at
    # its precision edge here while the exact sign is decided by a^2 vs 2b^2
    scale = 10 ** 16
    below = Fraction(-14142135623730950, scale)
    above = Fraction(-14142135623730951, scale)
    assert QuadScalar(below, 1, 2).sign() == 1
    assert QuadScalar(above, 1, 2).sign() == -1
    assert QuadScalar(0, 0, 2).sign() == 0
    assert sign_of(Fraction(-3, 7)) == -1
    assert sign_of(0.0) == 0


def test_ordering_consistent_with_floats():
    for i in range(200):
        rng = rng_for(103, i)
        x, y = random_quad(rng), random_quad(rng)
        if x == y:
            continue
        fx, fy = float(x), float(y)
        if abs(fx - fy) > 1e-9:
            assert (x < y) == (fx < fy)
            assert (x > y) == (fx > fy)
        assert (x <= y) or (x >= y)


def test_floor_against_decimal_oracle():
    getcontext().prec = 60
    root2 = Decimal(2).sqrt()
    for i in range(300):
        rng = rng_for(104, i)
        x = random_quad(rng)
        dec = (
            Decimal(x.a.numerator) / Decimal(x.a.denominator)
            + Decimal(x.b.numerator) / Decimal(x.b.denominator) * root2
        )
        assert x.floor() == math.floor(dec), str(x)


def test_floor_on_near_integers():
    # 3 - sqrt(2) + sqrt(2) is exactly 3; the floor must not land at 2
    x = QuadScalar(3, -1, 2) + SQRT2
    assert x.is_rational() and x.floor() == 3
    # (1 + sqrt 2)^10 is close to an integer from above
    y = QuadScalar(1, 1, 2) ** 10
    assert y.floor() == 6725  # 3363 + 2378*sqrt(2) = 6725.9998...
    assert (QuadScalar(1, -1, 2) ** 10).floor() == 0


def test_frac_in_unit_interval():
    for i in range(200):
        rng = rng_for(105, i)
        x = random_quad(rng)
        n, f = floor_frac(x)
        assert x == n + f
        assert f.sign() >= 0 and (f - 1).sign() < 0
    assert frac(Fraction(-1, 3)) == Fraction(2, 3)
    assert frac(7) == 0


def test_nearest_int_rounds_half_up():
    assert nearest_int(Fraction(1, 2)) == 1
    assert nearest_int(Fraction(-1, 2)) == 0
    assert nearest_int(Fraction(-3, 2)) == -1
    assert nearest_int(SQRT2) == 1
    assert nearest_int(SQRT2 + Fraction(1, 10)) == 2


def test_interval_brackets_value():
    for digits in (5, 30, 50):
        lo, hi = SQRT2.interval(digits)
        assert lo * lo < 2 < hi * hi
        assert hi - lo <= Fraction(1, 10 ** digits)
    lo, hi = rational_interval(Fraction(5, 3))
    assert lo == hi == Fraction(5, 3)


def test_sqrt_interval_and_float():
    for val in (Fraction(2), Fraction(9, 4), SQRT2, QuadScalar(3, 1, 2)):
        lo, hi = sqrt_interval(val, 25)
        assert lo >= 0
        assert scalar_lt(lo * lo, val) or lo * lo == val
        assert scalar_lt(val, hi * hi) or hi * hi == val
        assert math.isclose(sqrt_as_float(val), math.sqrt(float(val)), rel_tol=1e-13)
    assert sqrt_as_float(Fraction(0)) == 0.0


def test_float_conversion_accuracy():
    assert math.isclose(float(SQRT2), math.sqrt(2), rel_tol=0, abs_tol=5e-16)
    big = QuadScalar(0, 10 ** 12, 2)
    assert math.isclose(float(big), 10 ** 12 * math.sqrt(2), rel_tol=1e-15)


def test_field_mismatch_rejected():
    x = QuadScalar(0, 1, 2)
    y = QuadScalar(0, 1, 3)
    with pytest.raises(FieldMismatchError):
        x + y
    # rational elements of a different field are still fine
    z = QuadScalar(5, 0, 3)
    assert x + z == QuadScalar(5, 1, 2)
    assert x != y


@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
def test_comparisons_reject_floats_and_other_radicals(op):
    one = QuadScalar(1, 0, 2)
    for left, right in ((SQRT2, 1.5), (1.5, SQRT2), (one, 1.0), (1.0, one)):
        with pytest.raises(TypeError):
            op(left, right)
    sqrt3 = QuadScalar(0, 1, 3)
    for left, right in ((SQRT2, sqrt3), (sqrt3, SQRT2)):
        with pytest.raises(FieldMismatchError):
            op(left, right)


def test_exactness_guards():
    assert is_exact(Fraction(1, 2)) and is_exact(3) and is_exact(SQRT2)
    assert not is_exact(0.5)
    require_exact(SQRT2, "val")
    with pytest.raises(ExactnessError):
        require_exact(0.5, "val")


def test_scalar_helpers_mix_exact_and_float():
    assert scalar_lt(SQRT2, 1.5)
    assert not scalar_lt(1.5, SQRT2)
    assert scalar_min(SQRT2, Fraction(3, 2)) == SQRT2
    assert abs(QuadScalar(0, -1, 2)) == SQRT2
    assert abs(-2.5) == 2.5


def test_wire_format_examples():
    assert format_scalar(Fraction(-7, 2)) == "-7/2"
    assert format_scalar(Fraction(4, 2)) == "2"
    assert format_scalar(QuadScalar(-1, 1, 2)) == "-1 + 1*sqrt(2)"
    assert format_scalar(QuadScalar(Fraction(1, 3), Fraction(-2, 7), 2)) == "1/3 + -2/7*sqrt(2)"
    assert format_scalar(QuadScalar(5, 0, 2)) == "5"
    with pytest.raises(ExactnessError):
        format_scalar(0.5)


def test_wire_round_trip():
    for i in range(200):
        rng = rng_for(106, i)
        x = random_quad(rng)
        back = parse_scalar(format_scalar(x))
        if x.is_rational():
            assert back == x.a
        else:
            assert back == x
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar(" -2 + 3/5*sqrt(2) ") == QuadScalar(-2, Fraction(3, 5), 2)


def test_parse_rejects_garbage():
    for bad in ("", "abc", "1 +", "sqrt(2)", "1/0", "1 + 2*sqrt(two)"):
        with pytest.raises(ValueError):
            parse_scalar(bad)
    with pytest.raises(FieldMismatchError):
        parse_scalar("0 + 1*sqrt(3)", d=2)


def test_scalar_modes():
    assert EXACT.exact and EXACT.describe() == {"kind": "exact"}
    assert not FLOAT.exact and FLOAT.eps == 1e-9
    with pytest.raises(ValueError):
        ScalarMode.float_mode(eps=0.0)
    custom = ScalarMode.float_mode(eps=1e-6)
    assert custom.describe()["eps"] == 1e-6
