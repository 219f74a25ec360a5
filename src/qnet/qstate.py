"""Quantum states as coefficient vectors.

A state over n qubits is the paper's term list in dense canonical form:
one complex coefficient per basis vector, in basis-index order.  Basis
index i stands for the bit configuration that is the n-bit binary
expansion of i, qubit 0 being the most significant (leftmost) bit;
``qubit_mask`` is the one place that rule is written down, and bit
configurations exist only where the text grammar needs them, when a
state file is parsed and when a state is rendered.

A state stores four tuples of Python ints, ``lanes = (re.a, re.b, im.a,
im.b)``, and one backend scalar ``unit``:
amps[i] = ((re.a[i] + re.b[i]*sqrt(2)) + i*(im.a[i] + im.b[i]*sqrt(2))) * unit.
Gates do integer work only; common factors move from the integers into
``unit`` lazily (``QState.reduced``), in ``normalize`` only.  The CScalar
view ``amps`` is computed on each read and not stored; every rational in
it is a ``Fraction``, which reduces itself, so the view does not depend on
how far the lanes are reduced.  On the exact backend ``unit`` is in
Q[sqrt(2)]; on the approximate backend it is a rational and the sqrt(2)
lanes re.b and im.b stay zero.

States additionally carry ``scale_sq``, an exact squared scale factor:
the physical amplitude at index i is amps[i] / sqrt(scale_sq).  In the
exact backend this defers normalization whenever sqrt(norm^2) falls
outside Q[sqrt(2)], keeping every probability and comparison exact; the
deferred root only has to be surfaced when an actual amplitude is
printed or extracted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    EntangledError,
    NotDeterministicError,
    NotRepresentableError,
    ParseError,
)
from .scalar import (
    EXACT,
    Backend,
    CScalar,
    Scalar,
    approx_of_parts,
    format_cscalar,
    int_parts,
    iter_sqrt,
    parse_cscalar,
    to_backend,
)

# Dense coefficient vector: 2^n amplitudes per state.  Raise at your own risk.
MAX_QUBITS = 16


def _check_width(nqubits: int) -> None:
    if not 1 <= nqubits <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}")


def qubit_mask(nqubits: int, n: int) -> int:
    """The bit of a basis index that holds qubit n (qubit 0 most significant)."""
    if not 0 <= n < nqubits:
        raise IndexError(f"qubit index {n} out of range for {nqubits} qubits")
    return 1 << (nqubits - 1 - n)


def index_to_bits(index: int, nqubits: int) -> tuple[bool, ...]:
    """Bit configuration of a basis index, one boolean per qubit."""
    return tuple(bool(index & qubit_mask(nqubits, q)) for q in range(nqubits))


def bits_to_index(bits: Sequence[bool]) -> int:
    return sum(qubit_mask(len(bits), q) for q, bit in enumerate(bits) if bit)


def basis_label(index: int, nqubits: int) -> str:
    """The bitstring of a basis index as the state grammar writes it."""
    return format(index, f"0{nqubits}b")


@dataclass(frozen=True)
class Term:
    """One term-list entry: a complex coefficient plus one boolean per qubit.

    The input type of ``sort_and_merge``; states do not store terms.
    """

    coeff: CScalar
    bits: tuple[bool, ...]


class QState:
    """Canonical state: ``amps[i]`` is the coefficient of basis index i,
    a view of ``lanes`` and ``unit`` computed on each read."""

    __slots__ = ("nqubits", "lanes", "unit", "scale_sq", "backend")

    def __init__(
        self,
        nqubits: int,
        amps: Iterable[CScalar],
        scale_sq: Scalar,
        backend: Backend = EXACT,
    ):
        _check_width(nqubits)
        amps = tuple(amps)
        if len(amps) != 1 << nqubits:
            raise ValueError("canonical state needs one coefficient per basis vector")
        if backend.sign(scale_sq) <= 0:
            raise ValueError("scale_sq must be positive")
        lanes, unit = _integer_lanes((to_backend(c, backend) for c in amps), backend)
        self._init(nqubits, lanes, unit, scale_sq, backend)

    def _init(self, nqubits, lanes, unit, scale_sq, backend) -> None:
        values = (nqubits, lanes, unit, scale_sq, backend)
        for name, value in zip(QState.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def from_lanes(cls, nqubits, lanes, unit, scale_sq, backend) -> "QState":
        """A state over already-built lanes; no checks, no conversion."""
        state = object.__new__(cls)
        state._init(nqubits, tuple(lanes), unit, scale_sq, backend)
        return state

    def __setattr__(self, name, value):
        raise AttributeError("QState is immutable")

    def with_lanes(self, lanes: Iterable[tuple], unit: Scalar) -> "QState":
        """The same width, scale and backend over new lanes and unit."""
        return QState.from_lanes(self.nqubits, lanes, unit, self.scale_sq, self.backend)

    def reduced(self) -> "QState":
        """An equal state whose integer lanes share no factor.

        The gcd g of all integers moves into ``unit``; then, if every
        rational part is even, one sqrt(2) does too, because
        (a + b*sqrt(2)) / sqrt(2) = b + (a/2)*sqrt(2).  After the gcd step
        some part is odd, so one sqrt(2) step is all there can be (and on
        the approximate backend, whose sqrt(2) lanes are zero, none).
        """
        lanes, unit = self.lanes, self.unit
        g = math.gcd(*lanes[0], *lanes[1], *lanes[2], *lanes[3])
        if g == 0:
            return self  # the zero vector
        if g > 1:
            lanes = tuple(tuple(x // g for x in lane) for lane in lanes)
            unit = unit * g
        re_a, re_b, im_a, im_b = lanes
        if not any(x & 1 for x in re_a) and not any(x & 1 for x in im_a):
            half_re_a = tuple(x >> 1 for x in re_a)
            lanes = (re_b, half_re_a, im_b, tuple(x >> 1 for x in im_a))
            unit = unit * self.backend.sqrt_two
        if lanes is self.lanes:
            return self
        return self.with_lanes(lanes, unit)

    @property
    def amps(self) -> tuple[CScalar, ...]:
        """The coefficients as CScalars, in basis-index order; one pass over
        the lanes per read, so keep the tuple to index it often."""
        return _cscalars(self.lanes, self.unit, self.backend)

    @property
    def terms(self) -> tuple[Term, ...]:
        """The coefficients as a term list, one term per basis vector."""
        return tuple(
            Term(c, index_to_bits(i, self.nqubits)) for i, c in enumerate(self.amps)
        )

    def coeff(self, index: int) -> CScalar:
        lanes = tuple((lane[index],) for lane in self.lanes)
        return _cscalars(lanes, self.unit, self.backend)[0]

    def coeffs(self) -> list[CScalar]:
        return list(self.amps)

    def __eq__(self, other) -> bool:
        """Exact coefficient-wise equality of fully normalized states.

        Comparing a state whose normalization is still deferred
        (scale_sq != 1) signals NotRepresentableError: its raw
        coefficients are not amplitudes.

        Decided on the lanes by integer cross-multiplication, as in
        ``narrow_to_qubit``: with units (p + q*sqrt(2)) / s and
        (r + t*sqrt(2)) / u, entry z of this state equals entry w of the
        other iff z * (p + q*sqrt(2)) * u == w * (r + t*sqrt(2)) * s, part
        by part in Z[sqrt(2)].
        """
        if not isinstance(other, QState):
            return NotImplemented
        if self.nqubits != other.nqubits or self.backend != other.backend:
            return False
        one = self.backend.one
        if self.scale_sq != one or other.scale_sq != one:
            raise NotRepresentableError(
                "state equality is defined only for scale_sq = 1"
            )
        p, q, s = int_parts(self.unit)
        r, t, u = int_parts(other.unit)
        p, q, r, t = p * u, q * u, r * s, t * s
        mine, theirs = self.lanes, other.lanes
        return all(
            xa * p + 2 * xb * q == ya * r + 2 * yb * t and xa * q + xb * p == ya * t + yb * r
            for i in (0, 2)
            for xa, xb, ya, yb in zip(mine[i], mine[i + 1], theirs[i], theirs[i + 1])
        )

    def __repr__(self) -> str:
        nonzero = [
            f"{format_cscalar(c)}|{basis_label(i, self.nqubits)}>"
            for i, c in enumerate(self.amps)
            if c
        ]
        return f"QState({' + '.join(nonzero) or '0'}, scale_sq={self.scale_sq!s})"


def _integer_lanes(amps: Iterable[CScalar], backend: Backend) -> tuple[tuple, Scalar]:
    """Coefficients as four integer lanes over one common denominator."""
    parts = [x for c in amps for z in (c.re, c.im) for x in backend.parts(z)]
    den = math.lcm(*(x.denominator for x in parts))
    ints = [x.numerator * (den // x.denominator) for x in parts]
    lanes = tuple(tuple(ints[i::4]) for i in range(4))
    return lanes, backend.from_parts(Fraction(1, den), 0)


def _cscalars(lanes: tuple, unit: Scalar, backend: Backend) -> tuple[CScalar, ...]:
    """The CScalar value of every coefficient z * unit.

    With unit = (p + q*sqrt(2)) / s for integers p, q, s, a part
    a + b*sqrt(2) becomes ((a*p + 2*b*q) + (a*q + b*p)*sqrt(2)) / s.
    """
    p, q, s = int_parts(unit)

    def part(a, b):
        x, y = a * p + 2 * b * q, a * q + b * p
        return backend.from_parts(Fraction(x, s), Fraction(y, s))

    zero = CScalar(backend.zero, backend.zero)
    return tuple(
        CScalar(part(ra, rb), part(ia, ib)) if ra or rb or ia or ib else zero
        for ra, rb, ia, ib in zip(*lanes)
    )


def lane_norm_sq(re_a, re_b, im_a, im_b) -> tuple[int, int]:
    """Sum of |z|^2 over integer lanes, as (x, y) for x + y*sqrt(2).

    |(a + b*sqrt(2)) + i*(c + d*sqrt(2))|^2
        = a^2 + 2b^2 + c^2 + 2d^2 + 2(ab + cd)*sqrt(2).
    """
    x = sum(map(mul, re_a, re_a)) + sum(map(mul, im_a, im_a))
    x += 2 * (sum(map(mul, re_b, re_b)) + sum(map(mul, im_b, im_b)))
    y = 2 * (sum(map(mul, re_a, re_b)) + sum(map(mul, im_a, im_b)))
    return x, y


def sort_and_merge(terms: Iterable[Term], nqubits: int, backend: Backend = EXACT) -> QState:
    """Canonicalize an arbitrary term list.

    Coefficients of duplicate basis vectors are summed, missing basis
    vectors get explicit zero entries, and the result is in basis-index
    order; scale_sq starts at 1.
    """
    _check_width(nqubits)
    zero = CScalar(backend.zero, backend.zero)
    amps = [zero] * (1 << nqubits)
    for term in terms:
        if len(term.bits) != nqubits:
            raise ParseError(
                f"term has {len(term.bits)} bits, expected {nqubits}"
            )
        index = bits_to_index(term.bits)
        amps[index] = amps[index] + term.coeff
    return QState(nqubits, amps, backend.one, backend)


def norm_sq(state: QState) -> Scalar:
    """Sum of squared coefficient norms (independent of scale_sq).

    The lanes' sum x + y*sqrt(2) times unit^2, with unit = (p + q*sqrt(2)) / s
    and unit^2 = ((p^2 + 2 q^2) + 2pq*sqrt(2)) / s^2, in integers.
    """
    x, y = lane_norm_sq(*state.lanes)
    p, q, s = int_parts(state.unit)
    u, v, ss = p * p + 2 * q * q, 2 * p * q, s * s
    return state.backend.from_parts(Fraction(x * u + 2 * y * v, ss), Fraction(x * v + y * u, ss))


def normalize(state: QState) -> QState:
    """Scale a nonzero state to norm 1.

    The lanes are reduced first, then the backend's square root of the
    squared norm is taken: in-field on the exact backend, ``iter_sqrt`` on
    the approximate one.  On success ``unit`` is divided by it (a root of
    exactly one leaves it as it is) and scale_sq resets to 1 (fully
    normalized).  An exact root outside Q[sqrt(2)] is None: the squared
    norm becomes the new scale_sq, deferred, and the lanes stay as they are.
    """
    state = state.reduced()
    nsq = norm_sq(state)
    backend = state.backend
    if backend.sign(nsq) == 0:
        raise ValueError("cannot normalize the zero state")
    root = backend.sqrt(nsq)
    if root is None:
        return QState.from_lanes(state.nqubits, state.lanes, state.unit, nsq, backend)
    unit = state.unit if root == backend.one else state.unit / root
    return QState.from_lanes(state.nqubits, state.lanes, unit, backend.one, backend)


def tensor_product(a: QState, b: QState) -> QState:
    """Combined state with a's qubits at the lower indices (leftmost bits).

    Coefficient (i, j) is the product of a's i-th and b's j-th, taken on the
    integer lanes in Z[sqrt(2)][i], with unit a.unit * b.unit.
    """
    if a.backend != b.backend:
        raise ValueError("cannot tensor states from different backends")
    nqubits = a.nqubits + b.nqubits
    _check_width(nqubits)
    ints = [_lane_product(x, y) for x in zip(*a.lanes) for y in zip(*b.lanes)]
    return QState.from_lanes(
        nqubits, zip(*ints), a.unit * b.unit, a.scale_sq * b.scale_sq, a.backend
    )


def _lane_product(x: tuple, y: tuple) -> tuple[int, int, int, int]:
    """The product of two lane coefficients (re.a, re.b, im.a, im.b), by
    (p + q*sqrt(2)) * (r + s*sqrt(2)) = (pr + 2qs) + (ps + qr)*sqrt(2)."""
    ra, rb, ia, ib = x
    sa, sb, ta, tb = y
    return (
        ra * sa + 2 * rb * sb - ia * ta - 2 * ib * tb,
        ra * sb + rb * sa - ia * tb - ib * ta,
        ra * ta + 2 * rb * tb + ia * sa + 2 * ib * sb,
        ra * tb + rb * ta + ia * sb + ib * sa,
    )


def make_qubit(alpha: CScalar, beta: CScalar, backend: Backend = EXACT) -> QState:
    """One-qubit state alpha|0> + beta|1> with scale_sq = 1."""
    if not alpha and not beta:
        raise ValueError("qubit coefficients must not both be zero")
    return QState(1, (alpha, beta), backend.one, backend)


def zero_qstate(nqubits: int, backend: Backend = EXACT) -> QState:
    """n-qubit state |0...0>."""
    _check_width(nqubits)
    zeros = (0,) * (1 << nqubits)
    lanes = ((1,) + zeros[1:], zeros, zeros, zeros)
    return QState.from_lanes(nqubits, lanes, backend.one, backend.one, backend)


def get_deterministic_qubit(state: QState, n: int) -> bool:
    """The single value qubit n takes across all nonzero terms."""
    mask = qubit_mask(state.nqubits, n)
    values = {bool(i & mask) for i, z in enumerate(zip(*state.lanes)) if any(z)}
    if not values:
        raise ValueError("zero state has no deterministic qubits")
    if len(values) > 1:
        raise NotDeterministicError(f"qubit {n} occurs with both values")
    return values.pop()


def narrow_to_qubit(state: QState, n: int) -> QState:
    """Extract qubit n as a normalized one-qubit state.

    The coefficients are viewed as a matrix over (other-qubit
    configuration, qubit-n value); the state is separable in qubit n iff
    that matrix has rank 1, checked exactly by cross-multiplying every
    nonzero row against the first one, x*, on the integer lanes (the common
    factor ``unit`` cancels).  The result is row x*'s lanes, so it inherits
    that row's phase, with ``unit`` divided by the root of the row's squared
    norm, which in the exact backend must exist in-field.
    """
    mask = qubit_mask(state.nqubits, n)
    coeffs = list(zip(*state.lanes))
    rows = [
        (coeffs[i], coeffs[i | mask])
        for i in range(len(coeffs))
        if not i & mask and (any(coeffs[i]) or any(coeffs[i | mask]))
    ]
    if not rows:
        raise ValueError("zero state has no qubit substates")
    a0, a1 = rows[0]
    for x0, x1 in rows[1:]:
        if _lane_product(x0, a1) != _lane_product(x1, a0):
            raise EntangledError(
                f"qubit {n} is entangled with the rest of the state"
            )
    backend = state.backend
    x, y = lane_norm_sq(*zip(a0, a1))
    root = backend.sqrt(backend.from_parts(x, y) * (state.unit * state.unit))
    if root is None:
        raise NotRepresentableError(
            "the extracted qubit's scale has no exact representation"
        )
    return QState.from_lanes(
        1, zip(a0, a1), state.unit / root, backend.one, backend
    )


# --- state file format -------------------------------------------------------
#
# One term per line:  cplx '|' bitstring      e.g.  (1/2*s2, 0) | 01
# '#' starts a comment; bitstring length must be uniform; qubit 0 is the
# leftmost character.  Input need not be canonical.


def parse_state(text: str, backend: Backend = EXACT) -> QState:
    terms: list[Term] = []
    nqubits: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("|")
        if len(parts) != 2:
            raise ParseError("expected 'cplx | bitstring'", line=lineno)
        try:
            coeff = to_backend(parse_cscalar(parts[0]), backend)
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from None
        bits_text = parts[1].strip()
        if not bits_text or set(bits_text) - {"0", "1"}:
            raise ParseError(f"bad bitstring {bits_text!r}", line=lineno)
        if nqubits is None:
            nqubits = len(bits_text)
            if nqubits > MAX_QUBITS:
                raise ParseError(
                    f"qubit count must be in 1..{MAX_QUBITS}", line=lineno
                )
        elif len(bits_text) != nqubits:
            raise ParseError(
                f"bitstring length {len(bits_text)} != {nqubits}", line=lineno
            )
        terms.append(Term(coeff, tuple(c == "1" for c in bits_text)))
    if nqubits is None:
        raise ParseError("state file contains no terms")
    return sort_and_merge(terms, nqubits, backend)


def format_state(state: QState, sparse: bool = False) -> list[str]:
    """Render a state in the exact state-file grammar, one term per line.

    Fails when normalization is deferred: the physical amplitudes would
    need a square root outside the scalar field, and when an amplitude has
    more digits than Python will convert from int to text.
    """
    if state.scale_sq != state.backend.one:
        raise NotRepresentableError(
            "amplitudes have a deferred scale and no exact rendering"
        )
    try:
        return [
            f"{format_cscalar(c)} | {basis_label(i, state.nqubits)}"
            for i, c in enumerate(state.amps)
            if c or not sparse
        ]
    except ValueError:  # str(int) past sys.get_int_max_str_digits()
        raise NotRepresentableError(
            f"an exact amplitude has more than {sys.get_int_max_str_digits()}"
            " digits, Python's limit for int-to-str conversion"
        ) from None


def physical_amplitudes(
    state: QState, digits: int, roots: dict | None = None
) -> list[tuple[int, int]]:
    """Per-basis-vector (re, im) of coeff / sqrt(scale_sq) times 10^digits,
    rounded half to even, computed in integers from the lanes.

    Every part a + b*sqrt(2) and the root are approximated to one absolute
    guard, 10^-(digits+2) / 8, which a small root would magnify, so the
    quotient is taken as (2^k * coeff) / sqrt(4^k * scale_sq) for the least
    k >= 0 that puts 4^k * scale_sq at 1 or above: approximating coeff to
    fine = guard / 2^k is approximating 2^k * coeff to guard.  k and the
    root depend only on (scale_sq, digits); a caller that renders many
    states passes one dict as ``roots``, which keeps them by that pair, so
    the steps of a trace, which unitary gates leave at one scale_sq, take
    the root once.

    A part's sqrt(2) is ``iter_sqrt(2, fine / max(1, |b|))``.  It depends
    on the tolerance only through m, the least m >= 0 with
    2 * max(1, |b|) <= fine * 2^m, and is r / 2^m for an odd r that parts
    with the same m share.  With unit = (p + q*sqrt(2)) / s a part is
    (x + y*sqrt(2)) / s for integers x, y, so its amplitude is
    (x * 2^m + y * r) / (s * 2^m * root), one integer quotient.  Rounding a
    rational does not depend on how it is written, so this is ``round`` of
    the rational the parts stand for.
    """
    inv_tol = 10 ** (digits + 2)
    if roots is None:
        roots = {}
    key = (state.scale_sq, digits)
    if key not in roots:
        roots[key] = _deferred_root(state.scale_sq, inv_tol, state.backend)
    k, root = roots[key]
    p, q, s = int_parts(state.unit)
    scaled = 10**digits * root.denominator
    den = s * root.numerator
    # m is the least m >= 0 with big <= s * 2^m, big = 2 * max(s, |y|) / fine
    two_over_fine = 16 * inv_tol << k
    s_bits = s.bit_length()
    stand_ins: dict[int, int] = {}

    def fixed(a: int, b: int) -> int:
        x, y = a * p + 2 * b * q, a * q + b * p
        if y:
            big = two_over_fine * max(s, abs(y))
            m = max(0, big.bit_length() - s_bits)
            if s << m < big:
                m += 1
            r = stand_ins.get(m)
            if r is None:
                r = stand_ins[m] = iter_sqrt(2, Fraction(2, 1 << m)).numerator
            n, d = ((x << m) + y * r) * scaled, den << m
        elif x:
            n, d = x * scaled, den
        else:
            return 0
        quotient, rest = divmod(n, d)
        rest *= 2
        return quotient + (rest > d or (rest == d and quotient & 1))

    return [(fixed(ra, rb), fixed(ia, ib)) for ra, rb, ia, ib in zip(*state.lanes)]


def _deferred_root(scale_sq: Scalar, inv_tol: int, backend: Backend) -> tuple[int, Fraction]:
    """(k, root) for ``physical_amplitudes``: k is the least k >= 0 with
    4^k * scale_sq >= 1, and root is sqrt(4^k * scale_sq) to within the
    guard 1 / (8 * inv_tol), divided by 2^k; (0, 1) when scale_sq is 1."""
    if scale_sq == backend.one:
        return 0, Fraction(1)
    k = 0
    while backend.sign(scale_sq - 1) < 0:
        k, scale_sq = k + 1, scale_sq * 4
    guard = Fraction(1, 8 * inv_tol)
    return k, iter_sqrt(approx_of_parts(*backend.parts(scale_sq), guard), guard) / (1 << k)
