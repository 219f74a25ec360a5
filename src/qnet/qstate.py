"""Quantum states as coefficient vectors.

A state over n qubits is the paper's term list in dense canonical form:
one complex coefficient per basis vector, stored in ``amps`` in
basis-index order.  Basis index i stands for the bit configuration that
is the n-bit binary expansion of i, qubit 0 being the most significant
(leftmost) bit; ``qubit_mask`` is the one place that rule is written
down, and bit configurations exist only where the text grammar needs
them, when a state file is parsed and when a state is rendered.

States additionally carry ``scale_sq``, an exact squared scale factor:
the physical amplitude at index i is amps[i] / sqrt(scale_sq).  In the
exact backend this defers normalization whenever sqrt(norm^2) falls
outside Q[sqrt(2)], keeping every probability and comparison exact; the
deferred root only has to be surfaced when an actual amplitude is
printed or extracted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    format_cscalar,
    iter_sqrt,
    parse_cscalar,
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
    return "".join("1" if b else "0" for b in index_to_bits(index, nqubits))


@dataclass(frozen=True)
class Term:
    """One term-list entry: a complex coefficient plus one boolean per qubit.

    The input type of ``sort_and_merge``; states do not store terms.
    """

    coeff: CScalar
    bits: tuple[bool, ...]


@dataclass(frozen=True, eq=False)
class QState:
    """Canonical state: ``amps[i]`` is the coefficient of basis index i."""

    nqubits: int
    amps: tuple[CScalar, ...]
    scale_sq: Scalar
    backend: Backend = EXACT

    def __post_init__(self):
        _check_width(self.nqubits)
        if len(self.amps) != 1 << self.nqubits:
            raise ValueError("canonical state needs one coefficient per basis vector")
        if self.backend.sign(self.scale_sq) <= 0:
            raise ValueError("scale_sq must be positive")

    def with_amps(self, amps: Iterable[CScalar]) -> "QState":
        """The same width, scale and backend over new coefficients."""
        return QState(self.nqubits, tuple(amps), self.scale_sq, self.backend)

    @property
    def terms(self) -> tuple[Term, ...]:
        """The coefficients as a term list, one term per basis vector."""
        return tuple(
            Term(c, index_to_bits(i, self.nqubits)) for i, c in enumerate(self.amps)
        )

    def coeff(self, index: int) -> CScalar:
        return self.amps[index]

    def coeffs(self) -> list[CScalar]:
        return list(self.amps)

    def __eq__(self, other) -> bool:
        """Exact coefficient-wise equality of fully normalized states.

        Comparing a state whose normalization is still deferred
        (scale_sq != 1) signals NotRepresentableError: its raw
        coefficients are not amplitudes.
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
        return self.amps == other.amps

    def __repr__(self) -> str:
        nonzero = [
            f"{format_cscalar(c)}|{basis_label(i, self.nqubits)}>"
            for i, c in enumerate(self.amps)
            if c
        ]
        return f"QState({' + '.join(nonzero) or '0'}, scale_sq={self.scale_sq!s})"


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
    return QState(nqubits, tuple(amps), backend.one, backend)


def norm_sq(state: QState) -> Scalar:
    """Sum of squared coefficient norms (independent of scale_sq)."""
    total = state.backend.zero
    for c in state.amps:
        total = total + c.norm_sq()
    return total


def normalize(state: QState) -> QState:
    """Scale a nonzero state to norm 1.

    Exact backend: the squared norm becomes the new scale_sq, then the
    in-field square root is attempted; on success every coefficient is
    divided by it and scale_sq resets to 1 (fully normalized), otherwise
    the scale stays deferred and the state is unit.  Approximate backend:
    coefficients are divided by iter_sqrt of the squared norm.
    """
    nsq = norm_sq(state)
    backend = state.backend
    if backend.sign(nsq) == 0:
        raise ValueError("cannot normalize the zero state")
    root = backend.sqrt(nsq)
    if root is None:
        return QState(state.nqubits, state.amps, nsq, backend)
    return QState(state.nqubits, tuple(c / root for c in state.amps), backend.one, backend)


def tensor_product(a: QState, b: QState) -> QState:
    """Combined state with a's qubits at the lower indices (leftmost bits)."""
    if a.backend != b.backend:
        raise ValueError("cannot tensor states from different backends")
    nqubits = a.nqubits + b.nqubits
    _check_width(nqubits)
    amps = tuple(x * y for x in a.amps for y in b.amps)
    return QState(nqubits, amps, a.scale_sq * b.scale_sq, a.backend)


def make_qubit(alpha: CScalar, beta: CScalar, backend: Backend = EXACT) -> QState:
    """One-qubit state alpha|0> + beta|1> with scale_sq = 1."""
    alpha = backend.cscalar(alpha)
    beta = backend.cscalar(beta)
    if not alpha and not beta:
        raise ValueError("qubit coefficients must not both be zero")
    return QState(1, (alpha, beta), backend.one, backend)


def zero_qstate(nqubits: int, backend: Backend = EXACT) -> QState:
    """n-qubit state |0...0>."""
    _check_width(nqubits)
    one = CScalar(backend.one, backend.zero)
    zero = CScalar(backend.zero, backend.zero)
    return QState(nqubits, (one,) + (zero,) * ((1 << nqubits) - 1), backend.one, backend)


def get_deterministic_qubit(state: QState, n: int) -> bool:
    """The single value qubit n takes across all nonzero terms."""
    mask = qubit_mask(state.nqubits, n)
    values = {bool(i & mask) for i, c in enumerate(state.amps) if c}
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
    nonzero row against the first one, x*.  The result inherits the phase
    of row x* and is scaled by the root of its squared norm, which in the
    exact backend must exist in-field.
    """
    mask = qubit_mask(state.nqubits, n)
    amps = state.amps
    rows = [
        (amps[i], amps[i | mask])
        for i in range(len(amps))
        if not i & mask and (amps[i] or amps[i | mask])
    ]
    if not rows:
        raise ValueError("zero state has no qubit substates")
    a0, a1 = rows[0]
    for x0, x1 in rows[1:]:
        if x0 * a1 != x1 * a0:
            raise EntangledError(
                f"qubit {n} is entangled with the rest of the state"
            )
    root = state.backend.sqrt(a0.norm_sq() + a1.norm_sq())
    if root is None:
        raise NotRepresentableError(
            "the extracted qubit's scale has no exact representation"
        )
    return make_qubit(a0 / root, a1 / root, backend=state.backend)


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
            coeff = backend.cscalar(parse_cscalar(parts[0]))
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
    need a square root outside the scalar field.
    """
    if state.scale_sq != state.backend.one:
        raise NotRepresentableError(
            "amplitudes have a deferred scale and no exact rendering"
        )
    return [
        f"{format_cscalar(c)} | {basis_label(i, state.nqubits)}"
        for i, c in enumerate(state.amps)
        if c or not sparse
    ]


def physical_amplitudes(state: QState, tol) -> list[tuple[Fraction, Fraction]]:
    """Per-basis-vector (re, im) rationals approximating coeff / sqrt(scale_sq)."""
    tol = Fraction(tol)
    guard = tol / 8
    parts = [
        (
            state.backend.as_fraction(c.re, guard),
            state.backend.as_fraction(c.im, guard),
        )
        for c in state.amps
    ]
    if state.scale_sq == state.backend.one:
        return parts
    scale = state.backend.as_fraction(state.scale_sq, guard)
    root = iter_sqrt(scale, guard)
    return [(re / root, im / root) for re, im in parts]
