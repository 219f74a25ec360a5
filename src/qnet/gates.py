"""The six gate operations: X, Z, H, I, CN, and the measurement gate M.

Each gate maps a canonical state to a canonical state by permuting,
negating, mixing or zeroing entries of its coefficient vector.  Gates
never renormalize, so the output of M in particular is left collapsed but
unscaled.  The interpreter renormalizes after every M and, on the
approximate backend, after every gate; on the exact backend X, Z, I, CN
and H keep the squared norm exactly, so a normalized state stays
normalized through them and the states seen are the same.  All gates
preserve scale_sq, and each carries the state's ``lane_norm``, the integer
norm sum that ``normalize`` takes its root of: X, Z, I and CN keep it, H
doubles it, and M keeps the sum of the half it keeps.

A gate on qubit n acts on the basis-index bit ``qubit_mask(nqubits, n)``,
which also validates n.  X, Z, H and CN apply to each of a state's four
integer ``lanes``, the same code on both backends, and pass the shared zero
lane ``ZERO_LANES[len(lane)]`` through by identity, unscanned.  That keeps
the invariant that every all-zero lane is the shared one, since X, Z and
CN permute or negate and H's (a+b, a-b) is zero only for a = b = 0.  H
adds and subtracts each pair, or copies where one half is all zero, and
divides the shared ``unit`` once by the backend's sqrt(2) (exact, or its
rational stand-in).  M splits the same lanes, compares integer norm sums
by an exact sign test, and makes a lane whose kept half is all zero the
shared zero lane.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, neg, sub

from .qstate import ZERO_LANES, QState, lane_norm_sq, qubit_mask
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


def _on_halves(state: QState, mask: int, fn, unit, lane_norm) -> QState:
    """`fn(lo, hi) -> (lo, hi)` applied to the halves of every lane but the
    shared zero lane, which passes through by identity, over the factor
    `unit`, with the new lanes' `lane_norm`."""

    def apply(lane):
        return _merge(*fn(*_split(lane, mask)), mask)

    zero = ZERO_LANES[len(state.lanes[0])]
    lanes = (lane if lane is zero else apply(lane) for lane in state.lanes)
    return state.with_lanes(lanes, unit, lane_norm)


def gate_X(state: QState, n: int) -> QState:
    """Negation: flips qubit n in every term."""
    mask = qubit_mask(state.nqubits, n)
    return _on_halves(state, mask, lambda lo, hi: (hi, lo), state.unit, state.lane_norm)


def gate_Z(state: QState, n: int) -> QState:
    """Phase flip: negates the coefficient wherever qubit n is |1>."""
    mask = qubit_mask(state.nqubits, n)
    return _on_halves(
        state, mask, lambda lo, hi: (lo, list(map(neg, hi))), state.unit, state.lane_norm
    )


def _mix(lo, hi):
    """(a, b) -> (a+b, a-b) pair by pair; a copy where one half is all zero."""
    if not any(hi):
        return lo, lo
    if not any(lo):
        return hi, list(map(neg, hi))
    return list(map(add, lo, hi)), list(map(sub, lo, hi))


def gate_H(state: QState, n: int) -> QState:
    """Hadamard: (a, b) -> ((a+b)/sqrt(2), (a-b)/sqrt(2)) on qubit n.

    The integers become (a+b, a-b), which doubles their norm sum:
    (a+b)^2 + (a-b)^2 = 2(a^2 + b^2), and the cross terms likewise."""
    mask = qubit_mask(state.nqubits, n)
    x, y = state.lane_norm
    return _on_halves(state, mask, _mix, state.unit / state.backend.sqrt_two, (2 * x, 2 * y))


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

    return _on_halves(state, cmask, flip_where_set, state.unit, state.lane_norm)


def measure_split(state: QState, n: int) -> tuple:
    """Qubit n's measurement split: the integer norm sums (x, y), for
    x + y*sqrt(2), of its |0> and |1> halves, and `collapse(outcome)`, the
    state with the other half zeroed, unscaled.  The sums share the factor
    unit^2 > 0, so p0 = Z / (Z + O) for Z, O the |0> and |1> sums.  The
    shared zero lane is not split, and O is the state's lane norm minus Z.
    The collapsed state carries its kept half's sum as its ``lane_norm``;
    when the dropped half is all zero already, it keeps the input's lanes,
    and otherwise a lane whose kept half is all zero becomes the shared
    zero lane."""
    mask = qubit_mask(state.nqubits, n)
    zero = ZERO_LANES[len(state.lanes[0])]
    halves = [None if lane is zero else _split(lane, mask) for lane in state.lanes]
    zx, zy = lane_norm_sq(*(h[0] if h else () for h in halves))  # () sums to 0
    x, y = state.lane_norm
    if not x:  # x sums squares: 0 only for all-zero lanes
        raise ValueError("cannot measure the zero state")
    sums = (zx, zy), (x - zx, y - zy)
    zeros = [0] * (1 << (state.nqubits - 1))

    def collapse(outcome) -> QState:
        if not sums[1 - outcome][0]:  # x sums squares: 0 only for an all-zero half
            return state.with_lanes(state.lanes, state.unit, sums[outcome])
        lanes = (
            _merge(*((zeros, h[1]) if outcome else (h[0], zeros)), mask)
            if h and any(h[outcome]) else zero
            for h in halves
        )
        return state.with_lanes(lanes, state.unit, sums[outcome])

    return sums, collapse


def gate_M(state: QState, n: int, r) -> QState:
    """Measure qubit n against random draw r in [0, 1].

    The outcome is |0> iff r < p0 (strictly), where p0 is the |0>-side
    share of the squared norm; at r = p0 the outcome is |1>.  In the
    exact backend the comparison is decided by an exact sign test, so a
    threshold can never be misjudged.  Terms on the losing side are
    zeroed; the caller is responsible for renormalizing.
    """
    r = r if type(r) is Fraction else Fraction(r)
    if not 0 <= r <= 1:
        raise ValueError("random draw must lie in [0, 1]")
    ((zx, zy), (ox, oy)), collapse = measure_split(state, n)
    # r < p0 iff r.den * Z - r.num * (Z + O) > 0: a sign test in Z[sqrt(2)]
    u, v = r.numerator, r.denominator
    return collapse(sign(v * zx - u * (zx + ox), v * zy - u * (zy + oy)) <= 0)
