"""Exact scalars (A + B*sqrt(d)) / D over a fixed real quadratic field.

Every certificate-grade decision in this package reduces to a sign test on
one of these scalars.  A scalar is stored as one normalized integer triple
(A, B, D) with D > 0 and gcd(A, B, D) = 1, so arithmetic, signs and floors
are integer operations, and `isqrt` supplies the one irrational ingredient.

Normal form.  A rational value lies in every field, so a scalar with B = 0
carries the field index DEFAULT_D whatever field it was built or computed
in; an irrational one carries its own.  Equal values then have equal
(A, B, D, d).  Operands meet by one rule (`_operands`): two irrational
scalars must share d, and a result takes the field of its irrational
operand.  Results leave by one rule (`_reduced`): a triple with d = 0,
which no QuadScalar took part in, is the Fraction A/D, and any other is a
QuadScalar.  `_parts` reads any exact scalar, int and Fraction included,
as the triple and field that `_reduced` turns back into it.  QuadScalar's
binary operators share one protocol (`_arith`): a float operand leaves the
field, and exact operands' triples meet in an integer kernel.

Values leave the field only through three views, one per job:
- `float(x)` and `sqrt_as_float(x)`, for report values and float mode:
  one rounding of a 120-bit integer, within 2^-52 relative (above the
  subnormal range);
- `float_eval_with_error(x)`, for the triangle filter: a float evaluation
  with an absolute error bound that it proves itself;
- `interval` and `sqrt_interval`, rational enclosures for pricing a slack.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering

DEFAULT_D = 2

_RATIONAL = (int, Fraction)

# bits of relative precision carried before the final rounding to float
_FLOAT_PREC = 120


class FieldMismatchError(ValueError):
    """Scalars from different quadratic fields were mixed in one expression."""


class ExactnessError(TypeError):
    """An exact decision procedure received floating-point input."""


class CertificationError(AssertionError):
    """A certificate failed its own check: the arithmetic or a derivation is wrong.

    An AssertionError subclass, raised explicitly so that `python -O` keeps it.
    """


def is_square_free(n: int) -> bool:
    """Whether n >= 2 has no repeated prime factor, in about n^(1/3) divisions.

    Each k with k^3 <= n (n shrinking as factors are divided out) is
    divided out once; a second division means a square factor.  What is
    left then has no prime factor below k and is below k^3, so it is 1, a
    prime or a product of two primes: square-free unless a perfect square.
    """
    if n < 2:
        return False
    k = 2
    while k * k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return False
        k += 1
    return n == 1 or math.isqrt(n) ** 2 != n


# Radicands stay below 2^64, so that the square-free check of `_check_d`
# divides at most about 2.6 million times (2^(64/3)), under a second; a
# prime near 2^89 would take minutes.
_MAX_D = 2**64


# typed: 2.0 and numpy.int64(2) hash like 2 but are not valid field indices
@lru_cache(maxsize=None, typed=True)
def _check_d(d: int) -> int:
    if isinstance(d, int) and d >= _MAX_D:
        raise ValueError(f"field index must be below 2**64, got {d!r}")
    if not isinstance(d, int) or not is_square_free(d):
        raise ValueError(f"field index must be a square-free integer >= 2, got {d!r}")
    return d


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


# -- integer kernels on (A, B, D) ------------------------------------------------


def _sign(A: int, B: int, d: int) -> int:
    """Sign of A + B*sqrt(d): with opposite signs, A^2 against d*B^2 decides."""
    if B == 0:
        return (A > 0) - (A < 0)
    if A == 0 or (A > 0) == (B > 0):
        return 1 if B > 0 else -1
    # A^2 == d*B^2 would make sqrt(d) rational, impossible for square-free d
    if A * A > d * B * B:
        return 1 if A > 0 else -1
    return 1 if B > 0 else -1


def _floor(A: int, B: int, D: int, d: int) -> int:
    """Closed-form floor of (A + B*sqrt(d)) / D, for any integers with D > 0.

    B*sqrt(d) lies strictly between consecutive integers when B != 0.
    """
    if B == 0:
        return A // D
    s = math.isqrt(d * B * B)
    # floor(x / D) == floor(floor(x) / D) for an integer D > 0
    return (A + s if B > 0 else A - s - 1) // D


def _magnitude_floor(A: int, B: int, D: int, d: int) -> int:
    """An m with |(A + B*sqrt(d)) / D| >= 2^m, for a nonzero value.

    Without cancellation |A + B*sqrt(d)| >= 1.  With it, the product with
    the conjugate is the nonzero integer A^2 - d*B^2, so
    |A + B*sqrt(d)| >= 1 / (|A| + |B|*sqrt(d)).
    """
    if B == 0 or A == 0 or (A > 0) == (B > 0):
        top = 0
    else:
        top = -(abs(A) + abs(B) * (math.isqrt(d) + 1)).bit_length()
    return top - D.bit_length()


def _scaled(A: int, B: int, D: int, d: int, k: int) -> int:
    """An integer n with |n - 2^k * (A + B*sqrt(d)) / D| < 2, for k >= 0."""
    t = math.isqrt(d * B * B << 2 * k)  # floor(|B| * sqrt(d) * 2^k)
    return ((A << k) + (t if B >= 0 else -t)) // D


def _to_float(A: int, B: int, D: int, d: int) -> float:
    if B == 0:
        return A / D  # correctly rounded, as float(Fraction(A, D))
    # 2^k * |value| >= 2^_FLOAT_PREC, so the integer carries a relative error
    # below 2^-119 into one correctly rounded division
    k = max(0, _FLOAT_PREC - _magnitude_floor(A, B, D, d))
    return _scaled(A, B, D, d, k) / (1 << k)


@lru_cache(maxsize=None)
def _sqrt_d_digits(d: int, digits: int) -> int:
    """floor(sqrt(d) * 10^digits)."""
    return math.isqrt(d * 10 ** (2 * digits))


def _new(A: int, B: int, D: int, d: int) -> "QuadScalar":
    """Scalar from a triple already normalized (D > 0, gcd 1), in normal
    form: field index d when B != 0, DEFAULT_D when the value is rational."""
    q = _alloc(QuadScalar)
    _set_A(q, A)
    _set_B(q, B)
    _set_D(q, D)
    _set_d(q, d if B else DEFAULT_D)
    return q


def _reduced(A: int, B: int, D: int, d: int):
    """The value (A + B*sqrt(d)) / D of a triple with D > 0, the one result
    rule of exact arithmetic: d = 0 means that no QuadScalar took part (so
    B = 0), and the value is the Fraction A/D; otherwise it is a QuadScalar,
    divided through by gcd(A, B, D)."""
    if not d:
        return Fraction(A, D)
    g = math.gcd(A, B, D)
    if g != 1:
        A //= g
        B //= g
        D //= g
    return _new(A, B, D, d)


@total_ordering
class QuadScalar:
    """Exact field element (A + B*sqrt(d)) / D, stored as a normalized triple.

    D > 0 and gcd(A, B, D) = 1, and a rational value (B = 0) has
    d = DEFAULT_D, so equal values have equal (A, B, D, d).  The rational
    coefficients of a + b*sqrt(d) are the read-only views `a = A/D` and
    `b = B/D`.  The constructor takes (a, b, d) and validates d even for a
    rational value; arithmetic builds its results from integers directly,
    with the operands and their common field read by `_operands`.
    """

    __slots__ = ("_A", "_B", "_D", "d")

    def __init__(self, a=0, b=0, d: int = DEFAULT_D):
        a, b = _rat(a), _rat(b)
        _check_d(d)
        # the lcm of the reduced denominators already makes gcd(A, B, D) = 1
        D = math.lcm(a.denominator, b.denominator)
        B = b.numerator * (D // b.denominator)
        _set_A(self, a.numerator * (D // a.denominator))
        _set_B(self, B)
        _set_D(self, D)
        _set_d(self, d if B else DEFAULT_D)

    def __setattr__(self, name, value):
        raise AttributeError("QuadScalar is immutable")

    def __reduce__(self):
        # pickle and copy rebuild from the triple: the default would set the
        # slots one by one, which __setattr__ refuses
        return _new, (self._A, self._B, self._D, self.d)

    @property
    def a(self) -> Fraction:
        return Fraction(self._A, self._D)

    @property
    def b(self) -> Fraction:
        return Fraction(self._B, self._D)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self._A == 0 and self._B == 0

    def is_rational(self) -> bool:
        return self._B == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- exact ordering ------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, decided by comparing A^2 against d*B^2."""
        return _sign(self._A, self._B, self.d)

    # total_ordering derives <=, > and >= from < and ==
    def __lt__(self, other):
        o = _operands(self, other)
        if o is None:
            return NotImplemented
        sA, sB, sD, A, B, D, d = o
        return _sign(sA * D - A * sD, sB * D - B * sD, d) < 0

    def __eq__(self, other):
        # normal form: equal values have equal (A, B, D, d)
        if isinstance(other, QuadScalar):
            return self._A == other._A and self._B == other._B and self._D == other._D and self.d == other.d
        if isinstance(other, _RATIONAL):
            return self._B == 0 and self._A == other.numerator and self._D == other.denominator
        return NotImplemented

    def __hash__(self):
        if self._B == 0:
            return hash(Fraction(self._A, self._D))
        return hash((self.a, self.b, self.d))

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self):
        return _new(-self._A, -self._B, self._D, self.d)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __add__(self, other):
        return _arith(self, other, _sum, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return _arith(self, other, _difference, operator.sub)

    def __rsub__(self, other):
        return _arith(self, other, _rdifference, lambda f, o: o - f)

    def __mul__(self, other):
        return _arith(self, other, _product, operator.mul)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """Field norm a^2 - d*b^2; zero only for the zero scalar."""
        return Fraction(self._A * self._A - self.d * self._B * self._B, self._D * self._D)

    def reciprocal(self) -> "QuadScalar":
        return _quotient(1, 0, 1, self._A, self._B, self._D, self.d)

    def __truediv__(self, other):
        return _arith(self, other, _quotient, operator.truediv)

    def __rtruediv__(self, other):
        return _arith(self, other, _rquotient, lambda f, o: o / f)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = _new(1, 0, 1, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- floor / fractional part ---------------------------------------------

    def floor(self) -> int:
        return _floor(self._A, self._B, self._D, self.d)

    def floor_frac(self) -> tuple[int, "QuadScalar"]:
        """(floor, fractional part); a value already in [0, 1) comes back as itself."""
        n = self.floor()
        return n, (self - n if n else self)

    def frac(self) -> "QuadScalar":
        return self.floor_frac()[1]

    # -- rational enclosures and float conversion ------------------------------

    def interval(self, digits: int = 30) -> tuple[Fraction, Fraction]:
        """Rational lo <= value <= hi with width about |b| * 10^-digits."""
        A, B, D = self._A, self._B, self._D
        if B == 0:
            a = Fraction(A, D)
            return a, a
        scale = 10 ** digits
        r = _sqrt_d_digits(self.d, digits)
        lo = Fraction(A * scale + B * r, D * scale)
        hi = Fraction(A * scale + B * (r + 1), D * scale)
        return (lo, hi) if B > 0 else (hi, lo)

    def __float__(self) -> float:
        return _to_float(self._A, self._B, self._D, self.d)

    # -- formatting ------------------------------------------------------------

    def __str__(self) -> str:
        D = self._D
        if self._B == 0:
            return _ratio_text(self._A, D)
        return f"{_ratio_text(self._A, D)} + {_ratio_text(self._B, D)}*sqrt({self.d})"

    def __repr__(self) -> str:
        return f"QuadScalar({self.a}, {self.b}, d={self.d})"


def _ratio_text(n: int, D: int) -> str:
    """str(Fraction(n, D)) for D > 0: the reduced 'n/D', or 'n' over 1."""
    g = math.gcd(n, D)
    if g == D:
        return str(n // D)
    return f"{n // g}/{D // g}"


_alloc = object.__new__
_set_A = QuadScalar._A.__set__
_set_B = QuadScalar._B.__set__
_set_D = QuadScalar._D.__set__
_set_d = QuadScalar.d.__set__


def _parts(x) -> tuple[int, int, int, int] | None:
    """(A, B, D, d), the normal form of an exact scalar
    x = (A + B*sqrt(d)) / D, which `_reduced` turns back into x's value and
    type: an int or a Fraction reads B = 0 and d = 0.  None for a float or
    any other type."""
    if isinstance(x, QuadScalar):
        return x._A, x._B, x._D, x.d
    if isinstance(x, _RATIONAL):
        return x.numerator, 0, x.denominator, 0
    return None


def _field(d1: int, d2: int) -> int:
    """The field two exact values share, the one field rule of the package:
    each argument is a field index, or 0 for a rational value.  The
    irrational index, 0 when there is none; two different irrational ones
    raise FieldMismatchError, naming d1 first."""
    if d1 and d2 and d1 != d2:
        raise FieldMismatchError(f"cannot mix sqrt({d1}) and sqrt({d2}) scalars")
    return d1 or d2


def _operands(s, o):
    """(sA, sB, sD, oA, oB, oD, d): the triples of exact s and o and their
    common field index, by which scalars meet.  The field is `_field` of the
    operands' irrational fields: two of different fields raise
    FieldMismatchError, naming s's field first.  With no irrational operand
    d is DEFAULT_D when a QuadScalar takes part, and 0 when neither is one
    and one is a Fraction, so that `_reduced` makes the result a Fraction.
    None for a float, an int pair or another type, which take the operators
    themselves.

    Types are matched exactly; beside a QuadScalar s, any int or Fraction
    instance (a bool, say) also counts, as the operators accept it.
    """
    ts, to = type(s), type(o)
    if ts is QuadScalar:
        d = s.d
        if to is QuadScalar:
            if o.d != d and o._B:
                d = _field(d if s._B else 0, o.d)
            return s._A, s._B, s._D, o._A, o._B, o._D, d
        if to is Fraction or to is int or isinstance(o, _RATIONAL):
            return s._A, s._B, s._D, o.numerator, 0, o.denominator, d
    elif ts is Fraction or ts is int:
        if to is QuadScalar:
            return s.numerator, 0, s.denominator, o._A, o._B, o._D, o.d
        if to is Fraction or (to is int and ts is Fraction):
            return s.numerator, 0, s.denominator, o.numerator, 0, o.denominator, 0
    return None


def _arith(s: "QuadScalar", o, kernel, float_op):
    """The one protocol of QuadScalar's binary operators, s the operator's
    own operand and o the other: a float o leaves the field,
    float_op(float(s), o); an o that `_operands` does not take gives
    NotImplemented; otherwise `kernel` builds the result from the operands'
    triples and field (`_operands(s, o)`, in that order for the reflected
    operators too, so that field mismatches name s's field first)."""
    if isinstance(o, float):
        return float_op(float(s), o)
    ops = _operands(s, o)
    if ops is None:
        return NotImplemented
    return kernel(*ops)


# kernels: (A1 + B1*sqrt(d))/D1 and (A2 + B2*sqrt(d))/D2 combined, by `_reduced`


def _sum(A1: int, B1: int, D1: int, A2: int, B2: int, D2: int, d: int):
    return _reduced(A1 * D2 + A2 * D1, B1 * D2 + B2 * D1, D1 * D2, d)


def _difference(A1: int, B1: int, D1: int, A2: int, B2: int, D2: int, d: int):
    return _reduced(A1 * D2 - A2 * D1, B1 * D2 - B2 * D1, D1 * D2, d)


def _rdifference(A1: int, B1: int, D1: int, A2: int, B2: int, D2: int, d: int):
    return _difference(A2, B2, D2, A1, B1, D1, d)


def _product(A1: int, B1: int, D1: int, A2: int, B2: int, D2: int, d: int):
    if B2 == 0:
        return _reduced(A1 * A2, B1 * A2, D1 * D2, d)
    return _reduced(A1 * A2 + d * B1 * B2, A1 * B2 + B1 * A2, D1 * D2, d)


def _rquotient(A1: int, B1: int, D1: int, A2: int, B2: int, D2: int, d: int):
    return _quotient(A2, B2, D2, A1, B1, D1, d)


def _quotient(A1: int, B1: int, D1: int, A2: int, B2: int, D2: int, d: int):
    """(A1 + B1*sqrt(d))/D1 divided by (A2 + B2*sqrt(d))/D2, via the conjugate."""
    return _reduced(*_divided(A1, B1, D1, A2, B2, D2, d), d)


def _divided(A1: int, B1: int, D1: int, A2: int, B2: int, D2: int, d: int) -> tuple[int, int, int]:
    """The quotient of `_quotient` as a triple (A, B, den) with den > 0, not reduced."""
    if B2 == 0:
        if A2 == 0:
            raise ZeroDivisionError("division by zero scalar")
        A, B, den = A1 * D2, B1 * D2, D1 * A2
    else:
        # the norm A2^2 - d*B2^2 is nonzero for B2 != 0
        A = D2 * (A1 * A2 - d * B1 * B2)
        B = D2 * (B1 * A2 - A1 * B2)
        den = D1 * (A2 * A2 - d * B2 * B2)
    if den < 0:
        return -A, -B, -den
    return A, B, den


# -- generic scalar helpers (QuadScalar | Fraction | int | float) --------------


def is_exact(x) -> bool:
    return isinstance(x, (QuadScalar, *_RATIONAL))


def require_exact(x, what: str = "value"):
    if not is_exact(x):
        raise ExactnessError(f"{what} must be exact, got {type(x).__name__}")
    return x


def sign_of(x) -> int:
    if isinstance(x, QuadScalar):
        return x.sign()
    return (x > 0) - (x < 0)


def floor_frac(x):
    """(floor, fractional part) with the fractional part in the input's type.

    A value already in [0, 1) is its own fractional part and comes back as
    itself, float -0.0 included.
    """
    if isinstance(x, QuadScalar):
        return x.floor_frac()
    n = math.floor(x)
    return n, (x - n if n else x)


def frac(x):
    return floor_frac(x)[1]


def scalar_lt(x, y) -> bool:
    """Exact order when both operands are exact, float order otherwise."""
    if is_exact(x) and is_exact(y):
        return sign_of(x - y) < 0
    return float(x) < float(y)


def scalar_min(x, y):
    return x if scalar_lt(x, y) else y


def rational_interval(x, digits: int = 30) -> tuple[Fraction, Fraction]:
    """Exact rational enclosure of an exact scalar."""
    if isinstance(x, QuadScalar):
        return x.interval(digits)
    r = _rat(require_exact(x))
    return r, r


def sqrt_interval(x, digits: int = 30) -> tuple[Fraction, Fraction]:
    """Rational enclosure of sqrt(x) for an exact scalar x >= 0."""
    lo, hi = rational_interval(x, digits)
    if lo < 0:
        if sign_of(x) < 0:
            raise ValueError("sqrt of a negative scalar")
        lo = Fraction(0)
    scale = 10 ** digits
    # for f >= 0 and n = floor(f * scale^2): isqrt(n) / scale <= sqrt(f) < (isqrt(n) + 1) / scale
    return (
        Fraction(math.isqrt(lo.numerator * scale * scale // lo.denominator), scale),
        Fraction(math.isqrt(hi.numerator * scale * scale // hi.denominator) + 1, scale),
    )


def sqrt_as_float(x) -> float:
    """sqrt(x) as a float with relative error at most 2^-52; x exact or float."""
    p = _parts(x)
    if p is None:
        return math.sqrt(max(0.0, float(x)))
    A, B, D, d = p
    s = _sign(A, B, d)
    if s == 0:
        return 0.0
    if s < 0:
        raise ValueError("sqrt of a negative scalar")
    # 4^j * x >= 2^(2 * _FLOAT_PREC), so isqrt keeps _FLOAT_PREC - 1 bits
    j = max(0, (2 * _FLOAT_PREC - _magnitude_floor(A, B, D, d) + 1) // 2)
    return math.isqrt(_scaled(A, B, D, d, 2 * j)) / (1 << j)


def float_eval_with_error(x) -> tuple[float, float] | None:
    """(f, e): the exact scalar x = (A + B*sqrt(d))/D evaluated in floats,
    with a proven |f - x| <= e.  None when x is a float or a step overflows,
    as for a coefficient (d included) beyond the float range.

    The triangle filter's view: cheaper than `float(x)`, which rounds once
    from a 120-bit integer, but e scales with S/D, S = |A| + |B|*sqrt(d),
    not with |x|: the cancellation factor S / |A + B*sqrt(d)| can be
    large, and a bound relative to |x| would then be false.

    f = fl(fl(a + p) / den) with a, b, den = float(A), float(B), float(D),
    r = fl(sqrt(float(d))) and p = fl(b*r).  With u = 2^-53, every
    conversion and operation is a factor 1 + delta, |delta| <= u, and
    gamma_n = n*u / (1 - n*u) (Higham, ch. 3).  The root halves the error
    of float(d), so p = B*sqrt(d)*(1 + theta) with |theta| <= gamma_4, and
    a = A*(1 + alpha), den = D*(1 + delta).  Hence
        |a + p - (A + B*sqrt(d))| <= u*|A| + gamma_4*|B|*sqrt(d),
    the sum and the quotient add at most u*|f| / (1 - u)^2 each, and
    1/den - 1/D = -delta/den adds at most u*S/den.  With |A| <= |a| / (1 - u)
    and |B|*sqrt(d) <= |b|*r / (1 - u)^3,
        |f - x| <= 2u*|f| / (1 - u)^2 + (2u*|a| + 5u*|b|*r) * (1 + 8u) / den.
    e = 2^-50 * (|f| + (|a| + |b|*r)/den) + 2^-1070 exceeds that even after
    the roundings that compute it, at most five on the way of any term, each
    a factor >= 1 - u on a nonnegative value, as
    8u * (1 - u)^5 > 5u * (1 + 8u) / (1 - u)^2.  No
    product underflows (|b| and r are 0 or >= 1); the quotients and the
    scaling by 2^-50 can, and lose at most 2^-1075 each, which 2^-1070
    covers.
    """
    p = _parts(x)
    if p is None:
        return None
    A, B, D, d = p
    try:
        a, b, den, r = float(A), float(B), float(D), math.sqrt(d)
    except OverflowError:
        return None
    f = (a + b * r) / den
    e = 2.0**-50 * (abs(f) + (abs(a) + abs(b) * r) / den) + 2.0**-1070
    # e is finite only when every step before it was
    return (f, e) if e < math.inf else None


# -- scalar modes ---------------------------------------------------------------


@dataclass(frozen=True)
class ScalarMode:
    """Exact mode performs no rounding and raises ExactnessError on a float
    point; float mode compares with tolerances."""

    exact: bool = True
    eps: float = 1e-9
    identity_eps: float = 1e-12

    def __post_init__(self):
        if not self.exact and not (self.eps > 0 and self.identity_eps > 0):
            raise ValueError("float mode requires positive tolerances")

    @classmethod
    def float_mode(cls, eps: float = 1e-9, identity_eps: float = 1e-12) -> "ScalarMode":
        return cls(exact=False, eps=eps, identity_eps=identity_eps)

    def equal(self, a, b, tol: float) -> bool:
        """a == b, decided exactly in exact mode and within tol in float mode.

        Operands are scalars or records with a float view, such as distances.
        """
        if self.exact:
            return a == b
        return abs(float(a) - float(b)) <= tol

    def describe(self) -> dict:
        if self.exact:
            return {"kind": "exact"}
        return {"kind": "float", "eps": self.eps, "identity_eps": self.identity_eps}


EXACT = ScalarMode()
FLOAT = ScalarMode.float_mode()


# -- wire grammar -----------------------------------------------------------------

_QUAD_RE = re.compile(
    r"^\s*(?P<a>[+-]?\d+(?:/\d+)?)\s*\+\s*(?P<b>[+-]?\d+(?:/\d+)?)\*sqrt\((?P<d>\d+)\)\s*$"
)


def format_scalar(x) -> str:
    """Canonical text form: '<rat>' or '<rat> + <rat>*sqrt(<int>)', reduced."""
    if isinstance(x, QuadScalar):
        return str(x)
    if isinstance(x, _RATIONAL):
        return str(_rat(x))
    raise ExactnessError(f"no exact wire form for {type(x).__name__}")


def parse_scalar(text: str, d: int | None = None):
    """Inverse of format_scalar; returns Fraction or QuadScalar."""
    m = _QUAD_RE.match(text)
    if m:
        pd = int(m.group("d"))
        if d is not None and pd != d:
            raise FieldMismatchError(f"expected sqrt({d}), got sqrt({pd})")
        return QuadScalar(Fraction(m.group("a")), Fraction(m.group("b")), pd)
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a scalar literal: {text!r}") from exc
