"""The six gate operations: X, Z, H, I, CN, and the measurement gate M.

Each gate maps a canonical state to a canonical state by permuting,
negating, mixing or zeroing entries of its coefficient vector.  Gates
never renormalize, so the output of M in particular is left collapsed but
unscaled.  The interpreter renormalizes after every M and, on the
approximate backend, after every gate; on the exact backend X, Z, I, CN
and H keep the squared norm exactly, so a normalized state stays
normalized through them and the states seen are the same.  All gates
preserve scale_sq.

A gate on qubit n acts on the basis-index bit ``qubit_mask(nqubits, n)``,
which also validates n.  X, Z, H and CN apply to each of a state's four
integer ``lanes`` that is not all zero, the same code on both backends:
H adds and subtracts each pair and divides the shared ``unit`` once by
the backend's sqrt(2) (exact, or its rational stand-in), and M compares
integer norm sums by an exact sign test.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, neg, sub

from .qstate import QState, lane_norm_sq, qubit_mask
from .scalar import sign


def _split(lane, mask: int) -> tuple[list, list]:
    """The entries whose index has bit `mask` clear (lo) and set (hi), in
    index order, so lo[p] and hi[p] are a pair and p is the index with bit
    `mask` taken out.  Copied by slices: one per offset below `mask`, or one
    per block of 2*mask entries, whichever is fewer."""
    half = len(lane) // 2
    step = 2 * mask
    if mask * mask <= half:
        lo, hi = [0] * half, [0] * half
        for o in range(mask):
            lo[o::mask] = lane[o::step]
            hi[o::mask] = lane[o + mask::step]
    else:
        lo, hi = [], []
        for j in range(0, 2 * half, step):
            lo += lane[j : j + mask]
            hi += lane[j + mask : j + step]
    return lo, hi


def _merge(lo, hi, mask: int) -> tuple:
    """The lane whose halves `_split(lane, mask)` would return."""
    half = len(lo)
    step = 2 * mask
    out = [0] * (2 * half)
    if mask * mask <= half:
        for o in range(mask):
            out[o::step] = lo[o::mask]
            out[o + mask::step] = hi[o::mask]
    else:
        for j, k in zip(range(0, 2 * half, step), range(0, half, mask)):
            out[j : j + mask] = lo[k : k + mask]
            out[j + mask : j + step] = hi[k : k + mask]
    return tuple(out)


def _on_halves(state: QState, mask: int, fn, unit) -> QState:
    """`fn(lo, hi) -> (lo, hi)` applied to the halves of every lane that is
    not all zero, over the factor `unit`."""

    def apply(lane):
        return _merge(*fn(*_split(lane, mask)), mask)

    lanes = (apply(lane) if any(lane) else lane for lane in state.lanes)
    return state.with_lanes(lanes, unit)


def gate_X(state: QState, n: int) -> QState:
    """Negation: flips qubit n in every term."""
    mask = qubit_mask(state.nqubits, n)
    return _on_halves(state, mask, lambda lo, hi: (hi, lo), state.unit)


def gate_Z(state: QState, n: int) -> QState:
    """Phase flip: negates the coefficient wherever qubit n is |1>."""
    mask = qubit_mask(state.nqubits, n)
    return _on_halves(state, mask, lambda lo, hi: (lo, list(map(neg, hi))), state.unit)


def _mix(lo, hi):
    return list(map(add, lo, hi)), list(map(sub, lo, hi))


def gate_H(state: QState, n: int) -> QState:
    """Hadamard: (a, b) -> ((a+b)/sqrt(2), (a-b)/sqrt(2)) on qubit n."""
    mask = qubit_mask(state.nqubits, n)
    return _on_halves(state, mask, _mix, state.unit / state.backend.sqrt_two)


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
    # an X on the |1> half of qubit c, in which bit nmask sits one lower
    # if it is above the removed bit cmask
    sub_mask = nmask if nmask < cmask else nmask >> 1

    def flip_where_set(lo, hi):
        hi_lo, hi_hi = _split(hi, sub_mask)
        return lo, _merge(hi_hi, hi_lo, sub_mask)

    return _on_halves(state, cmask, flip_where_set, state.unit)


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
    halves = [_split(lane, mask) for lane in state.lanes]
    # p0 = Z / (Z + O) for the integer norm sums Z, O of the two sides (the
    # common factor unit^2 > 0 cancels, and so does scale_sq), so r < p0
    # iff r.den * Z - r.num * (Z + O) > 0: a sign test in Z[sqrt(2)]
    zx, zy = lane_norm_sq(*(lo for lo, _ in halves))
    ox, oy = lane_norm_sq(*(hi for _, hi in halves))
    if not zx + ox:
        raise ValueError("cannot measure the zero state")
    u, v = r.numerator, r.denominator
    outcome = sign(v * zx - u * (zx + ox), v * zy - u * (zy + oy)) <= 0
    zeros = [0] * (1 << (state.nqubits - 1))
    if outcome:
        lanes = (_merge(zeros, hi, mask) for _, hi in halves)
    else:
        lanes = (_merge(lo, zeros, mask) for lo, _ in halves)
    return state.with_lanes(lanes, state.unit)
