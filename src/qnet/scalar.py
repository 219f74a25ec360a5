"""Scalar arithmetic: exact Q[sqrt(2)] values, their complexification, and
the approximate rational backend built on a bisection square root.

The exact backend represents every real scalar as ``a + b*sqrt(2)`` with
rational ``a``, ``b``, stored as one reduced integer triple (p, q, d) for
(p + q*sqrt(2)) / d; this field is closed under the arithmetic the gate
set needs (the H gate only ever divides by sqrt(2)) and admits exact sign
tests, so measurement thresholds never need approximation.  The
approximate backend uses plain rationals and ``iter_sqrt``.

A backend, :class:`ExactBackend` or :class:`ApproxBackend`, is its field
and nothing more: the constants zero, one and sqrt(2), ``from_ints``, which
makes a scalar of the integer triple (p, q, d) that ``int_parts`` reads
from either backend's scalars, sign, and the unit that normalizes integer
lanes of a given squared norm.  The state, gate, and interpreter modules
use only that, so they stay backend-agnostic; ``to_backend`` moves a
complex scalar between backends.
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
    """Integers (p, q, d) with d > 0 and x = (p + q*sqrt(2)) / d, with no
    common factor, for a QExt or a rational x; None for any other type."""
    if isinstance(x, QExt):
        return x.p, x.q, x.d
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    return None


class QExt:
    """An element (p + q*sqrt(2)) / d of Q[sqrt(2)], stored as its reduced
    integer triple: d > 0 and gcd(p, q, d) = 1.

    The representation is unique: sqrt(2) is irrational, so two values are
    equal iff their triples are.  Arithmetic runs on the integers, with
    ints and Fractions read as (numerator, 0, denominator) by
    ``int_parts``; ``a`` and ``b``, the rational parts of a + b*sqrt(2),
    are read-only Fractions made on each read.  A QExt is immutable by
    convention, as a Fraction is: nothing rebinds p, q or d once it is made.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, a: Rational = 0, b: Rational = 0):
        if type(a) is int and type(b) is int:
            p, q, d = a, b, 1
        else:
            # ints and Fractions are reduced, Fraction(x) reads any other input
            # it accepts, and over the parts' lcm the triple is reduced too
            a = a if isinstance(a, (int, Fraction)) else Fraction(a)
            b = b if isinstance(b, (int, Fraction)) else Fraction(b)
            ad, bd = a.denominator, b.denominator
            d = math.lcm(ad, bd)
            p, q = a.numerator * (d // ad), b.numerator * (d // bd)
        self.p, self.q, self.d = p, q, d

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.d)

    def __repr__(self) -> str:
        return f"QExt({self.a!s}, {self.b!s})"

    def __str__(self) -> str:
        return format_qext(self)

    def __eq__(self, other) -> bool:
        o = int_parts(other)
        if o is None:
            return NotImplemented
        return (self.p, self.q, self.d) == o

    def __hash__(self) -> int:
        # a rational element equals its Fraction, so it must hash like one
        if not self.q:
            return hash(self.p if self.d == 1 else Fraction(self.p, self.d))
        return hash((self.p, self.q, self.d))

    def __bool__(self) -> bool:
        return bool(self.p or self.q)

    def __add__(self, other):
        o = int_parts(other)
        if o is None:
            return NotImplemented
        return _sum(self.p, self.q, self.d, *o)

    __radd__ = __add__

    def __sub__(self, other):
        o = int_parts(other)
        if o is None:
            return NotImplemented
        r, s, e = o
        return _sum(self.p, self.q, self.d, -r, -s, e)

    def __rsub__(self, other):
        o = int_parts(other)
        if o is None:
            return NotImplemented
        return _sum(-self.p, -self.q, self.d, *o)

    def __neg__(self):
        return _from_ints(-self.p, -self.q, self.d)

    def __mul__(self, other):
        o = int_parts(other)
        if o is None:
            return NotImplemented
        p, q, d = self.p, self.q, self.d
        r, s, e = o
        return _from_ints(p * r + 2 * q * s, p * s + q * r, d * e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = int_parts(other)
        if o is None:
            return NotImplemented
        return _quotient(self.p, self.q, self.d, *o)

    def __rtruediv__(self, other):
        o = int_parts(other)
        if o is None:
            return NotImplemented
        return _quotient(*o, self.p, self.q, self.d)

    def sign(self) -> int:
        """Exact sign of the real value: -1, 0, or +1."""
        return sign(self.p, self.q)

    def sqrt(self) -> "QExt | None":
        """In-field square root with nonnegative sign, or None.

        The root is sqrt(P + Q*sqrt(2)) / d for P = p*d and Q = q*d, and
        ``zsqrt`` finds that of P + Q*sqrt(2).  None is an ordinary
        outcome, not a failure: callers fall back to deferred normalization.
        """
        p, q, d = self.p, self.q, self.d
        if sign(p, q) < 0:
            raise ValueError("square root of a negative value")
        root = zsqrt(p * d, q * d)
        return None if root is None else _from_ints(*root, d)


def zsqrt(big_p: int, big_q: int) -> tuple[int, int] | None:
    """Integers (c, e) with c + e*sqrt(2) >= 0 and
    (c + e*sqrt(2))^2 = P + Q*sqrt(2), for P + Q*sqrt(2) >= 0; None when
    the root is not in Q[sqrt(2)].

    Z[sqrt(2)] is the ring of integers of Q[sqrt(2)], so a root of
    P + Q*sqrt(2) that lies in the field is some c + e*sqrt(2) with
    integers c, e, and (c + e*sqrt(2))^2 = (c^2 + 2 e^2) + 2ce*sqrt(2).
    With Q = 0 either e = 0 (P must be a square) or c = 0 (P/2 must be
    one).  With Q != 0, c^2 solves a quadratic whose discriminant
    P^2 - 2 Q^2 must be a square D^2; both roots (P +- D)/2 are tried, and
    then e = Q / (2c).
    """
    if not big_q:
        c = math.isqrt(big_p)
        if c * c == big_p:
            return c, 0
        if not big_p & 1:
            e = math.isqrt(big_p >> 1)
            if 2 * e * e == big_p:
                return 0, e
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
                return c, e
    return None


def _from_ints(p: int, q: int, d: int) -> QExt:
    """The QExt (p + q*sqrt(2)) / d for integers with d > 0, reduced."""
    if d != 1:  # gcd(p, q, 1) is 1
        g = math.gcd(p, q, d)
        if g != 1:
            p, q, d = p // g, q // g, d // g
    x = _new_object(QExt)
    x.p, x.q, x.d = p, q, d
    return x


def _sum(p: int, q: int, d: int, r: int, s: int, e: int) -> QExt:
    """(p + q*sqrt(2)) / d + (r + s*sqrt(2)) / e."""
    if d == e:
        return _from_ints(p + r, q + s, d)
    return _from_ints(p * e + r * d, q * e + s * d, d * e)


def _quotient(p: int, q: int, d: int, r: int, s: int, e: int) -> QExt:
    """(p + q*sqrt(2)) / d divided by (r + s*sqrt(2)) / e, by multiplying
    by the conjugate r - s*sqrt(2); the field norm r^2 - 2 s^2 is zero only
    for the zero element."""
    norm = r * r - 2 * s * s
    if norm == 0:
        raise ZeroDivisionError("division by zero in Q[sqrt(2)]")
    if norm < 0:
        norm, r, s = -norm, -r, -s
    return _from_ints((p * r - 2 * q * s) * e, (q * r - p * s) * e, d * norm)


_new_object = object.__new__


#: Real scalar of either backend: QExt exactly, Fraction approximately.
Scalar = Union[QExt, Fraction]


class CScalar:
    """Complex number whose real and imaginary parts are backend scalars;
    immutable by convention, as ``QExt`` is."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        # the real part fixes the backend scalar type; the imaginary part
        # is coerced to match
        if isinstance(re, QExt):
            if not isinstance(im, QExt):
                im = QExt(im)
        else:
            re = re if type(re) is Fraction else Fraction(re)
            if not isinstance(im, Fraction):
                im = Fraction(im)
        self.re, self.im = re, im

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


def _rational(text: str, literal: str) -> tuple[int, int]:
    """(n, d) of a match of the rat grammar, n/d as written; a zero
    denominator is a ParseError that quotes the whole literal."""
    num, _, den = text.partition("/")
    n, d = parse_int(num), parse_int(den) if den else 1
    if not d:
        raise ParseError(f"zero denominator in {literal!r}")
    return n, d


def _rational_literal(text: str) -> tuple[int, int]:
    """(n, d) of a rat literal, as ``_rational`` reads it."""
    text = text.strip()
    if not _RAT_RE.match(text):
        raise ParseError(f"bad rational literal {text!r}")
    return _rational(text, text)


def parse_rational(text: str) -> Fraction:
    return Fraction(*_rational_literal(text))


def parse_qext(text: str) -> QExt:
    """Parse a qext literal such as '1/2', '3/2+1*s2', or '-1/2*s2'."""
    return _from_ints(*_qext_parts(text))


def _qext_parts(text: str) -> tuple[int, int, int]:
    """Integers (p, q, d), d > 0, of a qext literal (p + q*sqrt(2)) / d,
    not reduced."""
    text = text.strip()
    if "s2" not in text:
        n, d = _rational_literal(text)
        return n, 0, d
    m = _QEXT_S2_RE.match(text)
    # a bare 's2' is not in the grammar; spell it '1*s2'
    if m is None or m["b"] is None and m["sep"] is None:
        raise ParseError(f"bad scalar literal {text!r}")
    n, d = (0, 1) if m["a"] is None else _rational(m["a"], text)
    r, e = (1, 1) if m["b"] is None else _rational(m["b"], text)
    return n * e, (-r if m["sep"] == "-" else r) * d, d * e


def parse_cplx_parts(text: str) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The ``_qext_parts`` triples of the real and imaginary parts of a cplx
    literal '(qext, qext)'."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"bad complex literal {text!r}")
    parts = text[1:-1].split(",")
    if len(parts) != 2:
        raise ParseError(f"bad complex literal {text!r}")
    return _qext_parts(parts[0]), _qext_parts(parts[1])


def parse_cscalar(text: str) -> CScalar:
    """Parse a cplx literal '(qext, qext)' into an exact CScalar."""
    re, im = parse_cplx_parts(text)
    return CScalar(_from_ints(*re), _from_ints(*im))


def format_qext(x: QExt) -> str:
    """x as a qext literal, each part written as ``str(Fraction)`` writes
    it, computed from the triple."""
    p, q, d = x.p, x.q, x.d
    if not q:
        return _ratio_text(p, d)
    b = _ratio_text(q, d) + "*s2"
    if not p:
        return b
    return _ratio_text(p, d) + ("" if q < 0 else "+") + b


def _ratio_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for d > 0."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


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
# ``from_ints(p, q, d)`` is the scalar (p + q*sqrt(2)) / d for integers
# with d > 0, and ``int_parts`` reads a scalar of either backend back as
# such a triple: scalars cross module lines only as these triples.
# ``unit_for_norm(unit, x, y)`` is the unit that makes integer lanes whose
# squared norms sum to x + y*sqrt(2) > 0, times ``unit`` != 0, a state of
# norm 1: unit / sqrt(unit^2 * (x + y*sqrt(2))), or None where the exact
# root is not in the field and normalization must defer.


@dataclass(frozen=True)
class ExactBackend:
    """Scalars are QExt values; sqrt may fail, comparisons are exact."""

    name = "exact"
    normalizes_after_unitaries = False
    zero = QExt(0)
    one = QExt(1)
    sqrt_two = QExt(0, 1)

    from_ints = staticmethod(_from_ints)

    def sign(self, x: QExt) -> int:
        return x.sign()

    def unit_for_norm(self, unit: QExt, x: int, y: int) -> QExt | None:
        """sign(unit) / sqrt(x + y*sqrt(2)), or None when that root is not
        in Q[sqrt(2)].

        The root is ``zsqrt``'s c + e*sqrt(2), and its inverse is
        (c - e*sqrt(2)) / (c^2 - 2 e^2).
        """
        root = zsqrt(x, y)
        if root is None:
            return None
        c, e = root
        n = c * c - 2 * e * e
        if (n < 0) != (unit.sign() < 0):
            c, e = -c, -e
        return _from_ints(c, -e, abs(n))


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

    def from_ints(self, p: int, q: int, d: int) -> Fraction:
        """(p + q*sqrt(2)) / d, the one place an exact value is rounded: to
        within eps."""
        a = Fraction(p, d)
        return approx_of_parts(a, Fraction(q, d), self.eps) if q else a

    def sign(self, x: Fraction) -> int:
        return (x > 0) - (x < 0)

    def unit_for_norm(self, unit: Fraction, x: int, y: int) -> Fraction:
        """unit / iter_sqrt(unit^2 * x); y is 0, as the sqrt(2) lanes are.

        ``iter_sqrt`` is not multiplicative, so the root is taken of the
        whole squared norm.
        """
        p, s = unit.numerator, unit.denominator
        root = iter_sqrt(Fraction(x * p * p, s * s), self.eps)
        return unit if root == 1 else unit / root

    @property
    def check_tol(self) -> Fraction:
        """How far an amplitude may stray from its ideal value in a check."""
        return max(self.eps, UNIT_HYPOTHESIS_TOL)


Backend = Union[ExactBackend, ApproxBackend]

EXACT = ExactBackend()


def to_backend(z: CScalar, backend: Backend) -> CScalar:
    """z with parts of the backend's scalar type: z itself when it has them,
    else each part rebuilt from its ``int_parts`` by ``backend.from_ints``."""
    if type(z.re) is type(backend.one):
        return z
    return CScalar(backend.from_ints(*int_parts(z.re)), backend.from_ints(*int_parts(z.im)))
