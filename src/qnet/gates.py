"""The six gate operations: X, Z, H, I, CN, and the measurement gate M.

Each gate maps a canonical state to a canonical state by permuting,
negating, mixing or zeroing entries of its coefficient vector.  Gates
never renormalize: the interpreter normalizes between successive gates,
so the output of M in particular is left collapsed but unscaled.  All
gates preserve scale_sq.

A gate on qubit n acts on the basis-index bit ``qubit_mask(nqubits, n)``,
which also validates n.
"""

from __future__ import annotations

from fractions import Fraction

from .qstate import QState, qubit_mask
from .scalar import CScalar


def gate_X(state: QState, n: int) -> QState:
    """Negation: flips qubit n in every term."""
    mask = qubit_mask(state.nqubits, n)
    amps = state.amps
    return state.with_amps([amps[i ^ mask] for i in range(len(amps))])


def gate_Z(state: QState, n: int) -> QState:
    """Phase flip: negates the coefficient wherever qubit n is |1>."""
    mask = qubit_mask(state.nqubits, n)
    return state.with_amps([-c if i & mask else c for i, c in enumerate(state.amps)])


def gate_H(state: QState, n: int) -> QState:
    """Hadamard: (a, b) -> ((a+b)/sqrt(2), (a-b)/sqrt(2)) on qubit n."""
    mask = qubit_mask(state.nqubits, n)
    root2 = state.backend.sqrt_two()
    amps = state.amps
    out = list(amps)
    for i in range(len(amps)):
        if i & mask:
            continue
        lo, hi = amps[i], amps[i | mask]
        out[i] = (lo + hi) / root2
        out[i | mask] = (lo - hi) / root2
    return state.with_amps(out)


def gate_I(state: QState, n: int) -> QState:
    """Identity (the index is still validated)."""
    qubit_mask(state.nqubits, n)
    return state


def gate_CN(state: QState, c: int, n: int) -> QState:
    """Controlled not: flips qubit n in the terms where qubit c is |1>."""
    if c == n:
        raise ValueError("CN control and target must differ")
    cmask = qubit_mask(state.nqubits, c)
    nmask = qubit_mask(state.nqubits, n)
    amps = state.amps
    return state.with_amps(
        [amps[i ^ nmask] if i & cmask else amps[i] for i in range(len(amps))]
    )


def gate_M(state: QState, n: int, r) -> QState:
    """Measure qubit n against random draw r in [0, 1].

    The outcome is |0> iff r < p0 (strictly), where p0 is the |0>-side
    share of the squared norm; at r = p0 the outcome is |1>.  In the
    exact backend the comparison is decided by an exact sign test, so a
    threshold can never be misjudged.  Terms on the losing side are
    zeroed; the caller is responsible for renormalizing.
    """
    r = Fraction(r)
    if not 0 <= r <= 1:
        raise ValueError("random draw must lie in [0, 1]")
    mask = qubit_mask(state.nqubits, n)
    backend = state.backend
    zero_side = backend.zero
    total = backend.zero
    for i, c in enumerate(state.amps):
        nsq = c.norm_sq()
        total = total + nsq
        if not i & mask:
            zero_side = zero_side + nsq
    if backend.sign(total) == 0:
        raise ValueError("cannot measure the zero state")
    # ratio of squared norms: correct even on non-unit (deferred) states
    p0 = zero_side / total
    outcome = backend.sign(p0 - r) <= 0
    zero = CScalar(backend.zero, backend.zero)
    return state.with_amps(
        [c if bool(i & mask) == outcome else zero for i, c in enumerate(state.amps)]
    )
