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
``unit`` lazily (``QState.reduced``), in ``normalize`` only.  Every state
also carries ``lane_norm``, the lanes' squared norms summed as (x, y) for
x + y*sqrt(2) (``lane_norm_sq``); the gates carry it, so ``normalize`` takes
the root of an integer pair it need not sum again.  Only this module and
the gates know the lanes: the kernels build states over new lanes by
``QState.from_lanes``, with the norm they carry, and every other state is
built from integer entries (re.a, re.b, im.a, im.b) by
``QState.from_entries``, which sums the norm, and read by
``QState.entries()``.  An all-zero lane is always ``ZERO_LANES[length]``,
one shared tuple per lane length: the builders, M's collapse and
``reduced()`` hand back that object, and the kernels skip it by identity
(a lane that is zero but not shared is still handled, only not skipped).
The CScalar view ``amps`` is computed on each read and not stored, each
entry as ``backend.from_ints(a, b, 1) * unit``; every scalar in it is
reduced, a ``QExt`` to its integer triple and a ``Fraction`` by itself, so
the view does not depend on how far the lanes are reduced.  On the exact backend
``unit`` is in Q[sqrt(2)]; on the approximate backend it is a rational and
the sqrt(2) lanes re.b and im.b stay zero.

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
    ApproxBackend,
    Backend,
    CScalar,
    Scalar,
    format_cscalar,
    int_parts,
    iter_sqrt,
    parse_cplx_parts,
    to_backend,
)

# Dense coefficient vector: 2^n amplitudes per state.  Raise at your own risk.
MAX_QUBITS = 16


def _check_width(nqubits: int) -> None:
    if not 1 <= nqubits <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}")


class _ZeroLanes(dict):
    """The one all-zero lane of each length, made on first use."""

    def __missing__(self, length: int) -> tuple:
        zero = self[length] = (0,) * length
        return zero


ZERO_LANES = _ZeroLanes()


def _shared(lane: tuple) -> tuple:
    """`lane`, or the shared zero of its length if it is all zero."""
    return lane if any(lane) else ZERO_LANES[len(lane)]


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
    a view of ``lanes`` and ``unit`` computed on each read.  Immutable by
    convention, as ``QExt`` is: no operation changes a state."""

    __slots__ = ("nqubits", "lanes", "unit", "scale_sq", "backend", "lane_norm")

    def __new__(
        cls, nqubits: int, amps: Iterable[CScalar], scale_sq: Scalar, backend: Backend = EXACT
    ) -> "QState":
        """The state with coefficients ``amps`` in the backend's field,
        assembled by ``from_entries`` over their integer entries."""
        _check_width(nqubits)
        amps = tuple(to_backend(c, backend) for c in amps)
        if len(amps) != 1 << nqubits:
            raise ValueError("canonical state needs one coefficient per basis vector")
        if type(scale_sq) is not type(backend.one):
            scale_sq = backend.from_ints(*int_parts(scale_sq))
        if backend.sign(scale_sq) <= 0:
            raise ValueError("scale_sq must be positive")
        entries, unit = _entries_of_rows(enumerate(amps), backend)
        return cls.from_entries(nqubits, entries, unit, scale_sq, backend)

    @classmethod
    def from_entries(cls, nqubits, entries: dict, unit, scale_sq, backend) -> "QState":
        """The state whose coefficient at basis index i is entries[i], an
        integer ``(re.a, re.b, im.a, im.b)``, times ``unit``, and zero at
        every index not given.  ``lane_norm`` is summed here, over the given
        entries (after a zero one, so that an empty dict gives four lanes);
        an all-zero lane is the shared ``ZERO_LANES`` tuple of its length."""
        lanes = zip(*(entries.get(i, (0, 0, 0, 0)) for i in range(1 << nqubits)))
        norm = lane_norm_sq(*zip((0, 0, 0, 0), *entries.values()))
        return cls.from_lanes(nqubits, map(_shared, lanes), unit, scale_sq, backend, norm)

    @classmethod
    def from_lanes(cls, nqubits, lanes, unit, scale_sq, backend, lane_norm) -> "QState":
        """A state over already-built lanes; no checks, no conversion.  For
        the kernels, which carry ``lane_norm``: it must equal
        ``lane_norm_sq(*lanes)``."""
        state = _new_object(cls)
        state.nqubits, state.lanes, state.unit = nqubits, tuple(lanes), unit
        state.scale_sq, state.backend, state.lane_norm = scale_sq, backend, lane_norm
        return state

    def with_lanes(self, lanes: Iterable[tuple], unit: Scalar, lane_norm) -> "QState":
        """The same width, scale and backend over new lanes and unit."""
        return QState.from_lanes(
            self.nqubits, lanes, unit, self.scale_sq, self.backend, lane_norm
        )

    def reduced(self) -> "QState":
        """An equal state whose integer lanes share no factor.

        The gcd g of all integers moves into ``unit``; then, if every
        rational part is even, one sqrt(2) does too, because
        (a + b*sqrt(2)) / sqrt(2) = b + (a/2)*sqrt(2).  After the gcd step
        some part is odd, so one sqrt(2) step is all there can be (and on
        the approximate backend, whose sqrt(2) lanes are zero, none).
        ``lane_norm`` is divided by g^2, and by 2 at the sqrt(2) step.
        The shared zero lane is skipped by identity, never scanned or
        divided, and stays itself.
        """
        lanes, unit, norm = self.lanes, self.unit, self.lane_norm
        zero = ZERO_LANES[len(lanes[0])]
        g = math.gcd(*(math.gcd(*lane) for lane in lanes if lane is not zero))
        if g == 0:
            return self  # the zero vector
        if g > 1:
            lanes = tuple(lane if lane is zero else tuple(x // g for x in lane) for lane in lanes)
            unit = unit * g
            g_sq = g * g
            norm = norm[0] // g_sq, norm[1] // g_sq
        re_a, re_b, im_a, im_b = lanes
        if not any(x & 1 for lane in (re_a, im_a) if lane is not zero for x in lane):
            re_a, im_a = (
                lane if lane is zero else tuple(x >> 1 for x in lane) for lane in (re_a, im_a)
            )
            lanes = (re_b, re_a, im_b, im_a)
            unit = unit * self.backend.sqrt_two
            norm = norm[0] >> 1, norm[1] >> 1
        if lanes is self.lanes:
            return self
        return self.with_lanes(lanes, unit, norm)

    @property
    def amps(self) -> tuple[CScalar, ...]:
        """The coefficients as CScalars, in basis-index order; one pass over
        the lanes per read, so keep the tuple to index it often."""
        return _cscalars(zip(*self.lanes), self.unit, self.backend)

    @property
    def terms(self) -> tuple[Term, ...]:
        """The coefficients as a term list, one term per basis vector."""
        return tuple(
            Term(c, index_to_bits(i, self.nqubits)) for i, c in enumerate(self.amps)
        )

    def coeff(self, index: int) -> CScalar:
        return _cscalars([tuple(lane[index] for lane in self.lanes)], self.unit, self.backend)[0]

    def coeffs(self) -> list[CScalar]:
        return list(self.amps)

    def entries(self) -> list[tuple[int, int, int, int]]:
        """Every coefficient's integer ``(re.a, re.b, im.a, im.b)``, to be
        taken times ``unit``, in basis-index order."""
        return list(zip(*self.lanes))

    def __eq__(self, other) -> bool:
        """Exact coefficient-wise equality of fully normalized states.

        Comparing a state whose normalization is still deferred
        (scale_sq != 1) signals NotRepresentableError: its raw
        coefficients are not amplitudes.

        Decided on the lanes, by ``_differences``: equal iff no
        difference is nonzero.
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
        return not any(map(any, _differences(self, other)[1]))

    def __repr__(self) -> str:
        nonzero = [
            f"{format_cscalar(c)}|{basis_label(i, self.nqubits)}>"
            for i, c in enumerate(self.amps)
            if c
        ]
        return f"QState({' + '.join(nonzero) or '0'}, scale_sq={self.scale_sq!s})"


_new_object = object.__new__


def _differences(a: QState, b: QState) -> tuple[int, Iterable[tuple[int, int]]]:
    """(s*u, diffs): with units (p + q*sqrt(2)) / s and (r + t*sqrt(2)) / u,
    each real and imaginary part of a's entries minus b's is
    (x + y*sqrt(2)) / (s*u), and ``diffs`` yields those (x, y) lazily, by
    x + y*sqrt(2) = z * (p + q*sqrt(2)) * u - w * (r + t*sqrt(2)) * s for
    parts z of a and w of b."""
    p, q, s = int_parts(a.unit)
    r, t, u = int_parts(b.unit)
    p, q, r, t = p * u, q * u, r * s, t * s
    mine, theirs = a.lanes, b.lanes
    return s * u, (
        (xa * p + 2 * xb * q - ya * r - 2 * yb * t, xa * q + xb * p - ya * t - yb * r)
        for i in (0, 2)
        for xa, xb, ya, yb in zip(mine[i], mine[i + 1], theirs[i], theirs[i + 1])
    )


def max_component_gap(a: QState, b: QState) -> Fraction:
    """Largest difference between matching real or imaginary parts.

    Defined on the approximate backend only, where every part is a
    rational: a difference in Q[sqrt(2)] has no ``abs`` (``QExt`` defines
    none), so exact states raise TypeError.  The largest |x| of
    ``_differences`` (whose y are 0 there) over s*u, made one Fraction.
    """
    if not (isinstance(a.backend, ApproxBackend) and isinstance(b.backend, ApproxBackend)):
        raise TypeError("max_component_gap compares approximate-backend states only")
    den, diffs = _differences(a, b)
    return Fraction(max(abs(x) for x, _ in diffs), den)


def _entries_of_rows(rows: Iterable[tuple[int, CScalar]], backend: Backend) -> tuple[dict, Scalar]:
    """Integer entries over one common denominator, and their unit 1/den:
    entry i is the CScalar of row (i, z), in the backend's field, read by
    ``int_parts``."""
    parts = {i: (*int_parts(z.re), *int_parts(z.im)) for i, z in rows}
    den = math.lcm(*(x for p in parts.values() for x in (p[2], p[5])))
    entries = {
        i: (p * (den // d), q * (den // d), r * (den // e), s * (den // e))
        for i, (p, q, d, r, s, e) in parts.items()
    }
    return entries, backend.from_ints(1, 0, den)


def _cscalars(entries: Iterable[tuple], unit: Scalar, backend: Backend) -> tuple[CScalar, ...]:
    """The CScalar value of every integer entry z, times unit."""
    part = backend.from_ints
    zero = CScalar(backend.zero, backend.zero)
    return tuple(
        CScalar(part(ra, rb, 1) * unit, part(ia, ib, 1) * unit) if ra or rb or ia or ib else zero
        for ra, rb, ia, ib in entries
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
    rows: dict[int, CScalar] = {}
    for term in terms:
        if len(term.bits) != nqubits:
            raise ParseError(
                f"term has {len(term.bits)} bits, expected {nqubits}"
            )
        index = bits_to_index(term.bits)
        rows[index] = rows[index] + term.coeff if index in rows else term.coeff
    # summed in the terms' own field, then made backend scalars
    entries, unit = _entries_of_rows(((i, to_backend(z, backend)) for i, z in rows.items()), backend)
    return QState.from_entries(nqubits, entries, unit, backend.one, backend)


def norm_sq(state: QState) -> Scalar:
    """Sum of squared coefficient norms (independent of scale_sq)."""
    unit = state.unit
    return state.backend.from_ints(*state.lane_norm, 1) * unit * unit


def normalize(state: QState) -> QState:
    """Scale a nonzero state to norm 1.

    The lanes are reduced first.  Their squared norm is unit^2 * N for
    N = x + y*sqrt(2), the integer pair ``lane_norm``, so the normalized unit is
    unit / sqrt(unit^2 * N), which ``backend.unit_for_norm`` gives: on the
    exact backend sign(unit) / sqrt(N), from an integer root of N in
    Z[sqrt(2)]; on the approximate one, ``iter_sqrt`` of the whole squared
    norm.  On success scale_sq resets to 1 (fully normalized).  Where N has
    no root in Z[sqrt(2)], and so unit^2 * N none in Q[sqrt(2)], the squared
    norm becomes the new scale_sq, deferred, and the lanes and unit stay as
    they are.
    """
    state = state.reduced()
    x, y = norm = state.lane_norm
    backend, unit = state.backend, state.unit
    if not x or not unit:  # x sums squares: 0 only for all-zero lanes
        raise ValueError("cannot normalize the zero state")
    new_unit = backend.unit_for_norm(unit, x, y)
    if new_unit is None:
        scale_sq = backend.from_ints(x, y, 1) * unit * unit
        return QState.from_lanes(state.nqubits, state.lanes, unit, scale_sq, backend, norm)
    return QState.from_lanes(state.nqubits, state.lanes, new_unit, backend.one, backend, norm)


def tensor_product(a: QState, b: QState) -> QState:
    """Combined state with a's qubits at the lower indices (leftmost bits).

    Coefficient (i, j) is the product of a's i-th and b's j-th, taken on the
    integer lanes in Z[sqrt(2)][i], with unit a.unit * b.unit.  Its
    ``lane_norm`` is the product of the factors', as |zw|^2 = |z|^2 |w|^2:
    (x + y*sqrt(2)) * (z + w*sqrt(2)) = (xz + 2yw) + (xw + yz)*sqrt(2).
    """
    if a.backend != b.backend:
        raise ValueError("cannot tensor states from different backends")
    nqubits = a.nqubits + b.nqubits
    _check_width(nqubits)
    ints = [_lane_product(x, y) for x in zip(*a.lanes) for y in zip(*b.lanes)]
    (x, y), (z, w) = a.lane_norm, b.lane_norm
    return QState.from_lanes(
        nqubits, map(_shared, zip(*ints)), a.unit * b.unit, a.scale_sq * b.scale_sq, a.backend,
        (x * z + 2 * y * w, x * w + y * z),
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
    return QState.from_entries(nqubits, {0: (1, 0, 0, 0)}, backend.one, backend.one, backend)


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
    that row's phase, over ``backend.unit_for_norm`` of the row's integer
    norm sum N, as in ``normalize``; in the exact backend N must be a square
    in Z[sqrt(2)].
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
    norm = lane_norm_sq(*zip(a0, a1))
    unit = backend.unit_for_norm(state.unit, *norm)
    if unit is None:
        raise NotRepresentableError(
            "the extracted qubit's scale has no exact representation"
        )
    return QState.from_lanes(1, map(_shared, zip(a0, a1)), unit, backend.one, backend, norm)


# --- state file format -------------------------------------------------------
#
# One term per line:  cplx '|' bitstring      e.g.  (1/2*s2, 0) | 01
# '#' starts a comment; bitstring length must be uniform; qubit 0 is the
# leftmost character.  Input need not be canonical.


def parse_state(text: str, backend: Backend = EXACT) -> QState:
    """The listed state: each literal made a CScalar by ``backend.from_ints``
    (so the approximate backend rounds each literal, as ``to_backend``
    would), summed per basis vector, and put on lanes over one lcm."""
    rows: dict[int, CScalar] = {}
    nqubits: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("|")
        if len(parts) != 2:
            raise ParseError("expected 'cplx | bitstring'", line=lineno)
        try:
            re, im = parse_cplx_parts(parts[0])
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from None
        z = CScalar(backend.from_ints(*re), backend.from_ints(*im))
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
        index = int(bits_text, 2)  # qubit 0 is the leftmost bit
        rows[index] = rows[index] + z if index in rows else z
    if nqubits is None:
        raise ParseError("state file contains no terms")
    entries, unit = _entries_of_rows(rows.items(), backend)
    return QState.from_entries(nqubits, entries, unit, backend.one, backend)


def format_state(state: QState, sparse: bool = False) -> list[str]:
    """Render a state in the exact state-file grammar, one term per line;
    fails as ``exact_texts`` does."""
    entries = state.entries()
    return [
        f"{text} | {basis_label(i, state.nqubits)}"
        for i, (text, entry) in enumerate(zip(exact_texts(state, entries), entries))
        if any(entry) or not sparse
    ]


def exact_texts(state: QState, entries: Iterable[tuple]) -> list[str]:
    """``format_cscalar`` of each integer entry, as ``entries()`` gives
    them, taken under the state's unit and backend; the entries need not
    be the state's own.

    Fails when the state's normalization is deferred: the physical
    amplitudes would need a square root outside the scalar field, and when
    an amplitude has more digits than Python will convert from int to text.
    """
    if state.scale_sq != state.backend.one:
        raise NotRepresentableError(
            "amplitudes have a deferred scale and no exact rendering"
        )
    try:
        return [format_cscalar(c) for c in _cscalars(entries, state.unit, state.backend)]
    except ValueError:  # str(int) past sys.get_int_max_str_digits()
        raise NotRepresentableError(
            f"an exact amplitude has more than {sys.get_int_max_str_digits()}"
            " digits, Python's limit for int-to-str conversion"
        ) from None


def physical_amplitudes(
    state: QState, entries: Iterable[tuple], digits: int, roots: dict | None = None
) -> list[tuple[int, int]]:
    """Per integer entry (as ``exact_texts`` takes them), the (re, im) of
    entry * unit / sqrt(scale_sq) times 10^digits under the state's unit,
    scale_sq and backend, rounded half to even, computed in integers.

    Every part a + b*sqrt(2) and the root are approximated to one absolute
    guard, 10^-(digits+2) / 8, which a small root would magnify, so the
    quotient is taken as (2^k * coeff) / sqrt(4^k * scale_sq) for the least
    k >= 0 that puts 4^k * scale_sq at 1 or above: approximating coeff to
    fine = guard / 2^k is approximating 2^k * coeff to guard.  k and the
    root depend only on (scale_sq, digits); a caller that renders many
    states passes one dict as ``roots``, which keeps them by that pair, with
    scale_sq as its integer triple, so the steps of a trace, which unitary
    gates leave at one scale_sq, take the root once.

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
    key = (int_parts(state.scale_sq), digits)
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

    return [(fixed(ra, rb), fixed(ia, ib)) for ra, rb, ia, ib in entries]


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
    return k, iter_sqrt(ApproxBackend(guard).from_ints(*int_parts(scale_sq)), guard) / (1 << k)
