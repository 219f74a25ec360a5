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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from .errors import ParseError

Rational = Union[Fraction, int]


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None if it is not a square.

    A rational in lowest terms is a square iff numerator and denominator
    are both integer perfect squares.
    """
    if q < 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


class QExt:
    """An element a + b*sqrt(2) of Q[sqrt(2)] with exact rational parts.

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QExt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QExt(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return QExt(-self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QExt(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # A divisor d*sqrt(2) (the H gate's sqrt(2)) has a closed form that
        # gives the same reduced parts as the conjugate formula below:
        # (a + b*sqrt(2)) / (d*sqrt(2)) = b/d + (a/2d)*sqrt(2).
        if not o.a and o.b:
            if o.b == 1:
                a = self.a
                return QExt(self.b, Fraction(a.numerator, 2 * a.denominator))
            return QExt(self.b / o.b, self.a / (2 * o.b))
        # multiply by the conjugate (a - b*sqrt(2)); the field norm
        # a^2 - 2 b^2 is zero only for the zero element
        norm = o.a * o.a - 2 * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q[sqrt(2)]")
        num = self * QExt(o.a, -o.b)
        return QExt(num.a / norm, num.b / norm)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def sign(self) -> int:
        """Exact sign of the real value a + b*sqrt(2): -1, 0, or +1."""
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sa == 0:
            return sb
        if sb == 0 or sa == sb:
            return sa
        # mixed signs: |a| vs |b|*sqrt(2) reduces to a^2 vs 2 b^2, which
        # can never tie (sqrt(2) is irrational)
        if self.a * self.a > 2 * self.b * self.b:
            return sa
        return sb

    def sqrt(self) -> "QExt | None":
        """In-field square root with nonnegative sign, or None.

        Seeks (c + d*sqrt(2))^2 = (c^2 + 2 d^2) + 2cd*sqrt(2) = a + b*sqrt(2).
        With b = 0 either d = 0 (a must be a rational square) or c = 0
        (a/2 must be one).  With b != 0, c^2 solves a quadratic whose
        discriminant is a^2 - 2 b^2; both roots (a +- s)/2 are tried.
        None is an ordinary outcome, not a failure: callers fall back to
        deferred normalization.
        """
        if self.sign() < 0:
            raise ValueError("square root of a negative value")
        if self.b == 0:
            r = _rational_sqrt(self.a)
            if r is not None:
                return QExt(r)
            r = _rational_sqrt(self.a / 2)
            if r is not None:
                return QExt(0, r)
            return None
        s = _rational_sqrt(self.a * self.a - 2 * self.b * self.b)
        if s is None:
            return None
        for c_sq in ((self.a + s) / 2, (self.a - s) / 2):
            c = _rational_sqrt(c_sq)
            if c is not None and c != 0:
                root = QExt(c, self.b / (2 * c))
                return -root if root.sign() < 0 else root
        return None


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
    x = Fraction(x)
    e = Fraction(e)
    if x < 0:
        raise ValueError("iter_sqrt of a negative value")
    if e <= 0:
        raise ValueError("tolerance must be positive")
    w = max(Fraction(1), x)
    wn, wd = w.numerator, w.denominator
    # least m >= 0 with w <= e * 2^m, i.e. big <= small * 2^m; the bit
    # lengths give it up to one
    big, small = wn * e.denominator, e.numerator * wd
    m = max(0, big.bit_length() - small.bit_length())
    if small << m < big:
        m += 1
    k = math.isqrt((x.numerator * wd * wd << 2 * m) // (x.denominator * wn * wn))
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


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if not _RAT_RE.match(text):
        raise ParseError(f"bad rational literal {text!r}")
    try:
        return Fraction(text)
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
        a = Fraction(m["a"]) if m["a"] is not None else Fraction(0)
        if m["b"] is not None:
            b = Fraction(m["b"])
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
