"""Scalar arithmetic: exact Q[sqrt(2)] values, their complexification, and
the approximate rational backend built on a bisection square root.

The exact backend represents every real scalar as ``a + b*sqrt(2)`` with
rational ``a``, ``b``; this field is closed under the arithmetic the gate
set needs (the H gate only ever divides by sqrt(2)) and admits exact sign
tests, so measurement thresholds never need approximation.  The
approximate backend uses plain rationals and ``iter_sqrt``.

A backend, :class:`ExactBackend` or :class:`ApproxBackend`, is its field
and nothing more: the constants zero, one and sqrt(2), the conversion of a
scalar to and from its rational parts (a, b), and sign and sqrt.  The
state, gate, and interpreter modules use only that, so they stay
backend-agnostic; ``to_backend`` moves a complex scalar between backends.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from .errors import ParseError

Rational = Union[Fraction, int]


def sign(p: int, q: int) -> int:
    """Exact sign of p + q*sqrt(2) for integers p, q: -1, 0 or +1.

    With mixed signs, |p| against |q|*sqrt(2) is p^2 against 2 q^2, which
    can never tie (sqrt(2) is irrational).
    """
    sp = (p > 0) - (p < 0)
    sq = (q > 0) - (q < 0)
    if sp == sq or not sq:
        return sp
    if not sp or p * p < 2 * q * q:
        return sq
    return sp


def int_parts(x) -> tuple[int, int, int] | None:
    """Integers (p, q, d) with d > 0 and x = (p + q*sqrt(2)) / d, for a
    QExt or a rational x; None for any other type.

    A QExt's two parts are put over one common denominator, which is free
    when they already share it.
    """
    if isinstance(x, QExt):
        a, b = x.a, x.b
        ad, bd = a.denominator, b.denominator
        if ad == bd:
            return a.numerator, b.numerator, ad
        d = math.lcm(ad, bd)
        return a.numerator * (d // ad), b.numerator * (d // bd), d
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    return None


class QExt:
    """An element a + b*sqrt(2) of Q[sqrt(2)] with exact rational parts.

    It is stored as two reduced ``Fraction``s ``a`` and ``b``, and its
    arithmetic runs on plain integers: each operand is read as
    (p + q*sqrt(2)) / d by ``int_parts``, the operation is done on the
    integers, and the result's two Fractions are made once.
    The representation is unique: sqrt(2) is irrational, so equality is
    componentwise.  Mixed arithmetic with int and Fraction coerces the
    other operand.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Rational = 0, b: Rational = 0):
        # a part that is already a Fraction is stored as it is
        object.__setattr__(self, "a", a if type(a) is Fraction else Fraction(a))
        object.__setattr__(self, "b", b if type(b) is Fraction else Fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("QExt is immutable")

    def __repr__(self) -> str:
        return f"QExt({self.a!s}, {self.b!s})"

    def __str__(self) -> str:
        return format_qext(self)

    @staticmethod
    def _coerce(other) -> "QExt | None":
        if isinstance(other, QExt):
            return other
        if isinstance(other, (int, Fraction)):
            return QExt(other)
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        # a rational element equals its Fraction, so it must hash like one
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __add__(self, other):
        o = int_parts(other)
        if o is None:
            return NotImplemented
        p, q, d = int_parts(self)
        r, s, e = o
        if d == e:
            return _from_ints(p + r, q + s, d)
        return _from_ints(p * e + r * d, q * e + s * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = int_parts(other)
        if o is None:
            return NotImplemented
        p, q, d = int_parts(self)
        r, s, e = o
        if d == e:
            return _from_ints(p - r, q - s, d)
        return _from_ints(p * e - r * d, q * e - s * d, d * e)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        p, q, d = int_parts(self)
        return _from_ints(-p, -q, d)

    def __mul__(self, other):
        o = int_parts(other)
        if o is None:
            return NotImplemented
        p, q, d = int_parts(self)
        r, s, e = o
        return _from_ints(p * r + 2 * q * s, p * s + q * r, d * e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = int_parts(other)
        if o is None:
            return NotImplemented
        # multiply by the conjugate (r - s*sqrt(2)); the field norm
        # r^2 - 2 s^2 is zero only for the zero element
        r, s, e = o
        norm = r * r - 2 * s * s
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q[sqrt(2)]")
        p, q, d = int_parts(self)
        if norm < 0:
            norm, r, s = -norm, -r, -s
        return _from_ints((p * r - 2 * q * s) * e, (q * r - p * s) * e, d * norm)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def sign(self) -> int:
        """Exact sign of the real value a + b*sqrt(2): -1, 0, or +1."""
        a, b = self.a, self.b
        # both denominators are positive, so multiplying by them keeps the sign
        return sign(a.numerator * b.denominator, b.numerator * a.denominator)

    def sqrt(self) -> "QExt | None":
        """In-field square root with nonnegative sign, or None.

        With self = (p + q*sqrt(2)) / d, the root is sqrt(P + Q*sqrt(2)) / d
        for P = p*d and Q = q*d.  Z[sqrt(2)] is the ring of integers of
        Q[sqrt(2)], so a root of P + Q*sqrt(2) that lies in the field is
        some c + e*sqrt(2) with integers c, e, and
        (c + e*sqrt(2))^2 = (c^2 + 2 e^2) + 2ce*sqrt(2).  With Q = 0 either
        e = 0 (P must be a square) or c = 0 (P/2 must be one).  With Q != 0,
        c^2 solves a quadratic whose discriminant P^2 - 2 Q^2 must be a
        square D^2; both roots (P +- D)/2 are tried, and then e = Q / (2c).  None is an
        ordinary outcome, not a failure: callers fall back to deferred
        normalization.
        """
        p, q, d = int_parts(self)
        if sign(p, q) < 0:
            raise ValueError("square root of a negative value")
        big_p, big_q = p * d, q * d
        if not big_q:
            c = math.isqrt(big_p)
            if c * c == big_p:
                return _from_ints(c, 0, d)
            if not big_p & 1:
                e = math.isqrt(big_p >> 1)
                if 2 * e * e == big_p:
                    return _from_ints(0, e, d)
            return None
        disc = big_p * big_p - 2 * big_q * big_q
        if disc < 0:
            return None
        big_d = math.isqrt(disc)
        if big_d * big_d != disc:
            return None
        for c_sq in ((big_p + big_d) >> 1, (big_p - big_d) >> 1):
            if c_sq > 0:
                c = math.isqrt(c_sq)
                if c * c == c_sq:
                    e = big_q // (2 * c)  # exact: the root is in Z[sqrt(2)]
                    if sign(c, e) < 0:
                        c, e = -c, -e
                    return _from_ints(c, e, d)
        return None


def _from_ints(p: int, q: int, d: int) -> QExt:
    """The QExt (p + q*sqrt(2)) / d for integers with d > 0; its two
    Fractions are made here, and set past ``QExt.__init__``'s checks."""
    x = _new_object(QExt)
    _set_a(x, Fraction(p, d) if p else _ZERO)
    _set_b(x, Fraction(q, d) if q else _ZERO)
    return x


_ZERO = Fraction(0)
_new_object = object.__new__
_set_a = QExt.a.__set__
_set_b = QExt.b.__set__


#: Real scalar of either backend: QExt exactly, Fraction approximately.
Scalar = Union[QExt, Fraction]


class CScalar:
    """Complex number whose real and imaginary parts are backend scalars."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        # the real part fixes the backend scalar type; the imaginary part
        # is coerced to match
        if isinstance(re, QExt):
            if not isinstance(im, QExt):
                im = QExt(im)
        else:
            re = Fraction(re)
            if not isinstance(im, Fraction):
                im = Fraction(im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("CScalar is immutable")

    def __repr__(self) -> str:
        return f"CScalar({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_cscalar(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CScalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other: "CScalar") -> "CScalar":
        return CScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CScalar") -> "CScalar":
        return CScalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "CScalar":
        return CScalar(-self.re, -self.im)

    def __mul__(self, other: "CScalar") -> "CScalar":
        return CScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, scalar) -> "CScalar":
        """Divide both components by a real backend scalar."""
        return CScalar(self.re / scalar, self.im / scalar)

    def conjugate(self) -> "CScalar":
        return CScalar(self.re, -self.im)

    def norm_sq(self) -> Scalar:
        """Squared complex norm re^2 + im^2 as a backend scalar."""
        return self.re * self.re + self.im * self.im


def iter_sqrt(x, e) -> Fraction:
    """Rational r with |r - sqrt(x)| <= e, by bisection.

    Brackets on [0, w] with w = max(1, x), halves until the bracket width
    is at most e, and returns the midpoint of the final bracket (halving
    the worst-case error).  Deterministic for given (x, e).

    The bisection is computed in closed form, with the same result.  After
    m halvings (m the least with w/2^m <= e) the lower end is k*w/2^m for
    the largest grid point k below 2^m with (k*w/2^m)^2 <= x, that is
    k = min(2^m - 1, isqrt(floor(x * 4^m / w^2))); the midpoint returned
    is (2k + 1) * w / 2^(m+1).  One integer square root replaces m
    Fraction iterations.
    """
    if type(x) is not int and type(x) is not Fraction:
        x = Fraction(x)
    if type(e) is not int and type(e) is not Fraction:
        e = Fraction(e)
    xn, xd = x.numerator, x.denominator
    en, ed = e.numerator, e.denominator
    if xn < 0:
        raise ValueError("iter_sqrt of a negative value")
    if en <= 0:
        raise ValueError("tolerance must be positive")
    wn, wd = (xn, xd) if xn > xd else (1, 1)  # w = max(1, x)
    # least m >= 0 with w <= e * 2^m, i.e. big <= small * 2^m; the bit
    # lengths give it up to one
    big, small = wn * ed, en * wd
    m = max(0, big.bit_length() - small.bit_length())
    if small << m < big:
        m += 1
    k = math.isqrt((xn * wd * wd << 2 * m) // (xd * wn * wn))
    k = min(k, (1 << m) - 1)
    return Fraction((2 * k + 1) * wn, wd << (m + 1))


def approx_of_parts(a: Rational, b: Rational, e) -> Fraction:
    """Rational approximation of a + b*sqrt(2) with total error <= e.

    The sqrt(2) tolerance is tightened by |b| so the scaled error still
    fits the budget; pure rationals pass through unchanged.
    """
    if not b:
        return Fraction(a)
    return a + b * iter_sqrt(2, Fraction(e) / max(1, abs(b)))


def approx_of_qext(x: QExt, e) -> Fraction:
    """``approx_of_parts`` of a QExt's parts."""
    if Fraction(e) <= 0:
        raise ValueError("tolerance must be positive")
    return approx_of_parts(x.a, x.b, e)


# --- scalar literal grammar ------------------------------------------------
#
#   rat   := ['-'] digits ['/' digits]
#   qext  := rat | [rat ('+'|'-')] rat '*' 's2' | rat ('+'|'-') 's2'
#   cplx  := '(' qext ',' qext ')'

_RAT = r"-?\d+(?:/\d+)?"
_RAT_RE = re.compile(rf"^{_RAT}$")
_QEXT_S2_RE = re.compile(rf"^(?:(?P<a>{_RAT})(?P<sep>[+-]))?(?:(?P<b>{_RAT})\*)?s2$")


def parse_int(text: str) -> int:
    """A string of decimal digits as an int.

    Python converts at most ``sys.get_int_max_str_digits()`` digits (4300
    by default) from text; a longer number is a ParseError that names the
    limit, not Python's own ValueError, whose advice no input can follow.
    """
    try:
        return int(text)
    except ValueError:
        raise ParseError(
            f"number {text[:12]}... has more than {sys.get_int_max_str_digits()}"
            " digits, the most qnet reads"
        ) from None


def _rational(text: str) -> Fraction:
    """A literal that matches the rat grammar as a Fraction; a zero
    denominator raises ZeroDivisionError."""
    num, _, den = text.partition("/")
    return Fraction(parse_int(num), parse_int(den) if den else 1)


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if not _RAT_RE.match(text):
        raise ParseError(f"bad rational literal {text!r}")
    try:
        return _rational(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None


def parse_qext(text: str) -> QExt:
    """Parse a qext literal such as '1/2', '3/2+1*s2', or '-1/2*s2'."""
    text = text.strip()
    if "s2" not in text:
        return QExt(parse_rational(text))
    m = _QEXT_S2_RE.match(text)
    if m is None:
        raise ParseError(f"bad scalar literal {text!r}")
    try:
        a = _rational(m["a"]) if m["a"] is not None else Fraction(0)
        if m["b"] is not None:
            b = _rational(m["b"])
        elif m["sep"] is not None:
            b = Fraction(1)
        else:
            # a bare 's2' is not in the grammar; spell it '1*s2'
            raise ParseError(f"bad scalar literal {text!r}")
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None
    if m["sep"] == "-":
        b = -b
    return QExt(a, b)


def parse_cscalar(text: str) -> CScalar:
    """Parse a cplx literal '(qext, qext)' into an exact CScalar."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"bad complex literal {text!r}")
    parts = text[1:-1].split(",")
    if len(parts) != 2:
        raise ParseError(f"bad complex literal {text!r}")
    return CScalar(parse_qext(parts[0]), parse_qext(parts[1]))


def format_qext(x: QExt) -> str:
    if x.b == 0:
        return str(x.a)
    if x.a == 0:
        return f"{x.b}*s2"
    if x.b < 0:
        return f"{x.a}-{-x.b}*s2"
    return f"{x.a}+{x.b}*s2"


def format_cscalar(z: CScalar) -> str:
    return f"({z.re}, {z.im})"


def format_fixed(x, digits: int) -> str:
    """Fixed-point decimal rendering of a rational (ties round to even)."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    return format_scaled(round(Fraction(x) * 10**digits), digits)


def format_scaled(n: int, digits: int) -> str:
    """The decimal n / 10^digits, written with exactly ``digits`` places."""
    whole, frac = divmod(abs(n), 10**digits)
    return f"{'-' if n < 0 else ''}{whole}.{frac:0{digits}d}"


# --- the backend contract ---------------------------------------------------

# Slack for checks against ideal amplitudes under the approximate backend:
# the whole point of that backend is running rational stand-ins for ideal
# amplitudes (e.g. 131072/185363 for 1/sqrt(2), off by ~9e-6), so the
# check cannot be as tight as eps.
UNIT_HYPOTHESIS_TOL = Fraction(1, 10**4)


# A backend is its scalar field.  The interpreter renormalizes after X, Z,
# H, I and CN as well as after M where ``normalizes_after_unitaries`` is
# set: exact arithmetic keeps the squared norm of a state through every
# unitary gate, rational stand-ins for sqrt(2) and for square roots do not.
# ``parts`` and ``from_parts`` convert a scalar to and from the rationals
# (a, b) of a + b*sqrt(2); every conversion goes through them.


@dataclass(frozen=True)
class ExactBackend:
    """Scalars are QExt values; sqrt may fail, comparisons are exact."""

    name = "exact"
    normalizes_after_unitaries = False
    zero = QExt(0)
    one = QExt(1)
    sqrt_two = QExt(0, 1)

    def parts(self, x: QExt) -> tuple[Fraction, Fraction]:
        return x.a, x.b

    def from_parts(self, a: Rational, b: Rational) -> QExt:
        return QExt(a, b)

    def sign(self, x: QExt) -> int:
        return x.sign()

    def sqrt(self, x: QExt) -> QExt | None:
        return x.sqrt()


@dataclass(frozen=True)
class ApproxBackend:
    """Scalars are plain rationals; sqrt is iter_sqrt at tolerance eps."""

    eps: Fraction = Fraction(1, 10**12)

    name = "approx"
    normalizes_after_unitaries = True
    zero = Fraction(0)
    one = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "eps", Fraction(self.eps))
        # from eps = 1 on, sqrt(2) may be taken as 1 and no approx check can fail
        if not 0 < self.eps < 1:
            raise ValueError("eps must be positive and below 1")

    @cached_property
    def sqrt_two(self) -> Fraction:
        return iter_sqrt(2, self.eps)

    def parts(self, x: Fraction) -> tuple[Fraction, int]:
        return x, 0

    def from_parts(self, a: Rational, b: Rational) -> Fraction:
        """The one place an exact value is rounded: to within eps."""
        return approx_of_parts(a, b, self.eps)

    def sign(self, x: Fraction) -> int:
        return (x > 0) - (x < 0)

    def sqrt(self, x: Fraction) -> Fraction:
        return iter_sqrt(x, self.eps)

    @property
    def check_tol(self) -> Fraction:
        """How far an amplitude may stray from its ideal value in a check."""
        return max(self.eps, UNIT_HYPOTHESIS_TOL)


Backend = Union[ExactBackend, ApproxBackend]

EXACT = ExactBackend()


def to_backend(z: CScalar, backend: Backend) -> CScalar:
    """z with parts of the backend's scalar type: z itself when it has them,
    else each part rebuilt by ``backend.from_parts``."""
    if type(z.re) is type(backend.one):
        return z
    # the other backend's scalar: a QExt, or a rational with no sqrt(2) part
    re, im = ((x.a, x.b) if isinstance(x, QExt) else (x, 0) for x in (z.re, z.im))
    return CScalar(backend.from_parts(*re), backend.from_parts(*im))
