"""Netlist circuits and their evaluation.

A circuit is an ordered list of gate applications over a declared number
of qubits, consumed together with a stream of random draws.  Evaluation
normalizes the initial state, then applies the gates in order; only M
gates consume a draw.  The state is renormalized after every M gate, and
on the approximate backend after every gate.  The exact backend skips the
renormalization after the unitary gates because there it would return
the state unchanged (see ``_run``), so the states it yields, and prints,
are those of normalizing after every gate.  `branches` walks every M
outcome instead, with no draws, and yields each branch's exact probability.

Circuit text grammar (one gate per line):

    line    := [gate] [comment]
    gate    := ('X'|'Z'|'H'|'I'|'M') WS index | 'CN' WS index WS index
    comment := '#' any-chars          (a '#' anywhere starts one)
    header  (optional first non-comment line): 'qubits' WS count
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from . import gates as _gates
from .errors import ParseError, RandomStreamExhausted
from .qstate import QState, normalize
from .scalar import Scalar, parse_int

GATE_ARITY = {"X": 1, "Z": 1, "H": 1, "I": 1, "M": 1, "CN": 2}


class Gate:
    """One gate application: mnemonic plus qubit operand(s), checked as it
    is made.  Immutable by convention, as ``QExt`` is; compared, hashed and
    written as the record (kind, operands)."""

    __slots__ = ("kind", "operands")

    def __init__(self, kind: str, operands: tuple[int, ...]):
        arity = GATE_ARITY.get(kind)
        if arity is None:
            raise ValueError(f"unknown gate {kind!r}")
        if len(operands) != arity:
            raise ValueError(f"{kind} takes {arity} operand(s)")
        if min(operands) < 0:
            raise ValueError("qubit indices must be nonnegative")
        if kind == "CN" and operands[0] == operands[1]:
            raise ValueError("CN control and target must differ")
        self.kind, self.operands = kind, operands

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.operands) == (other.kind, other.operands)

    def __hash__(self) -> int:
        return hash((self.kind, self.operands))

    def __repr__(self) -> str:
        return f"Gate(kind={self.kind!r}, operands={self.operands!r})"

    def __str__(self) -> str:
        return " ".join((self.kind, *map(str, self.operands)))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence over a declared qubit count."""

    gates: tuple[Gate, ...]
    nqubits: int

    def __post_init__(self):
        if self.nqubits < 1:
            raise ValueError("circuit needs at least one qubit")
        for gate in self.gates:
            for q in gate.operands:
                if q >= self.nqubits:
                    raise ValueError(
                        f"gate {gate} uses qubit {q}, circuit has {self.nqubits}"
                    )


class RandomStream:
    """An ordered supply of rational draws in [0, 1], consumed by M gates."""

    __slots__ = ("_draws", "_cursor")

    def __init__(self, draws: Iterable):
        checked = []
        for d in draws:
            d = d if type(d) is Fraction else Fraction(d)
            if not 0 <= d.numerator <= d.denominator:
                raise ValueError("random draws must lie in [0, 1]")
            checked.append(d)
        self._draws = tuple(checked)
        self._cursor = 0

    @property
    def remaining(self) -> int:
        return len(self._draws) - self._cursor

    def draw(self) -> Fraction:
        if self._cursor >= len(self._draws):
            raise RandomStreamExhausted("random stream is exhausted")
        value = self._draws[self._cursor]
        self._cursor += 1
        return value

    def split(self, count: int) -> tuple["RandomStream", "RandomStream"]:
        """Two fresh streams holding the first `count` remaining draws and the rest."""
        rest = self._draws[self._cursor :]
        return RandomStream(rest[:count]), RandomStream(rest[count:])


@dataclass(frozen=True)
class TraceEvent:
    """Snapshot after one gate: 1-based step, the gate, the normalized state,
    and the draw an M gate consumed (None otherwise)."""

    step: int
    gate: Gate
    state: QState
    draw: Fraction | None


def count_measurements(circuit: Circuit) -> int:
    return sum(1 for g in circuit.gates if g.kind == "M")


def parse_circuit(text: str, nqubits: int | None = None) -> Circuit:
    """Parse circuit text in one pass over its lines.

    Each gate line becomes a `Gate`, whose construction is the check, over
    indices in ASCII digits; a failed check is a ParseError carrying the
    line number.  The qubit count comes from the optional 'qubits N' header,
    which may only precede the gates, or from the nqubits argument; if both
    are present they must agree.  It is settled at the first gate, so each
    index is range-checked as its line is read, and a line seen again
    reuses the `Gate` its first reading built and checked.
    """
    declared: int | None = None
    total: int | None = None
    gates: list[Gate] = []
    seen: dict[str, Gate] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        gate = seen.get(raw)
        if gate is None:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                kind, *args = line.split()
                digits = all(a.isascii() and a.isdecimal() for a in args)
                numbers = tuple(map(parse_int, args)) if digits else None
                if kind == "qubits" and not gates and declared is None:
                    if len(args) != 1 or numbers is None or numbers[0] < 1:
                        raise ParseError("header must be 'qubits <count>'")
                    declared = numbers[0]
                    continue
                if numbers is None:
                    raise ParseError(f"bad qubit index in {line!r}")
                gate = Gate(kind, numbers)
            except (ParseError, ValueError) as exc:
                raise ParseError(str(exc), line=lineno) from None
            if total is None:
                total = _qubit_count(declared, nqubits)
            for q in gate.operands:
                if q >= total:
                    raise ParseError(f"qubit {q} out of range for {total} qubits", line=lineno)
            seen[raw] = gate
        gates.append(gate)
    if total is None:
        total = _qubit_count(declared, nqubits)
    return Circuit(tuple(gates), total)


def _qubit_count(declared: int | None, nqubits: int | None) -> int:
    if declared is not None and nqubits is not None and declared != nqubits:
        raise ParseError(
            f"header declares {declared} qubits but caller passed {nqubits}"
        )
    total = declared if declared is not None else nqubits
    if total is None:
        raise ParseError("qubit count not declared (no header and no --qubits)")
    return total


def _step(step: int, gate: Gate, state: QState, draw: Fraction | None) -> QState:
    """`state` after `gate`, normalized after an M gate and, where the
    backend asks for it, after every gate (see `_run`).  An M gate without
    a draw takes `state` as already collapsed (see `branches`).  A
    ValueError, ZeroDivisionError or IndexError is raised again with a
    "step N (GATE): " prefix."""
    try:
        # looked up per call, so a rebinding of gates.gate_<kind> takes effect
        if gate.kind != "M":
            state = getattr(_gates, "gate_" + gate.kind)(state, *gate.operands)
        elif draw is not None:
            state = _gates.gate_M(state, gate.operands[0], draw)
        if gate.kind == "M" or state.backend.normalizes_after_unitaries:
            state = normalize(state)
    except (ValueError, ZeroDivisionError, IndexError) as exc:
        raise type(exc)(f"step {step} ({gate}): {exc}") from exc
    return state


def _check_width(circuit: Circuit, qstate: QState) -> None:
    if qstate.nqubits != circuit.nqubits:
        raise ValueError(
            f"state has {qstate.nqubits} qubits, circuit has {circuit.nqubits}"
        )


def _run(circuit: Circuit, qstate: QState, rs: RandomStream, record: bool):
    """Normalize, then apply each gate, renormalizing after M gates and,
    where the backend asks for it, after every gate.

    On the exact backend a unitary gate keeps the squared norm exactly:
    X, Z, I and CN permute or negate coefficients, and H is an isometry,
    |(a+b)/sqrt(2)|^2 + |(a-b)/sqrt(2)|^2 = |a|^2 + |b|^2.  A normalized
    state therefore enters each unitary gate with squared norm 1 (root 1)
    or with its squared norm deferred in scale_sq and no in-field root,
    and leaves it the same way; `normalize` would return its coefficients
    and scale_sq unchanged.  Only M changes the norm.  The approximate
    backend's sqrt(2) and roots are rational stand-ins, so it still
    renormalizes after every gate.
    """
    _check_width(circuit, qstate)
    needed = count_measurements(circuit)
    if rs.remaining < needed:
        raise RandomStreamExhausted(
            f"circuit has {needed} M gate(s) but only {rs.remaining} draw(s) remain"
        )
    state = normalize(qstate)
    events: list[TraceEvent] = []
    for step, gate in enumerate(circuit.gates, start=1):
        draw = rs.draw() if gate.kind == "M" else None
        state = _step(step, gate, state, draw)
        if record:
            events.append(TraceEvent(step, gate, state, draw))
    return state, tuple(events)


def branches(
    circuit: Circuit, qstate: QState
) -> Iterator[tuple[tuple[int, ...], Scalar, QState]]:
    """Every sequence of M outcomes with nonzero probability, as
    (outcomes, probability, state): depth first, outcome 0 before 1.

    `outcomes` holds one 0 or 1 per M gate.  The probability is exact, in
    the backend's field: a product of p0 = Z / (Z + O) or 1 - p0 for the
    integer norm sums Z, O of each measured qubit's halves, so the
    probabilities sum to exactly ``backend.one``.  The state is the one
    `run_circuit` reaches with draw 0 for outcome 0 and draw 1 for outcome
    1.  Gates before an M run once for both outcomes, each M splits its
    input once, and a branch of probability 0 is never entered.
    """
    _check_width(circuit, qstate)
    backend, gates = qstate.backend, circuit.gates
    pending = [(0, (), backend.one, normalize(qstate))]
    while pending:
        index, outcomes, prob, state = pending.pop()
        while index < len(gates) and gates[index].kind != "M":
            gate, index = gates[index], index + 1
            state = _step(index, gate, state, None)
        if index == len(gates):
            yield outcomes, prob, state
            continue
        gate, index = gates[index], index + 1
        # a normalized state of the circuit's width: the split cannot fail
        sums, collapse = _gates.measure_split(state, gate.operands[0])
        total = backend.from_ints(sums[0][0] + sums[1][0], sums[0][1] + sums[1][1], 1)
        for outcome in (1, 0):  # pushed so that outcome 0 is taken first
            x, y = sums[outcome]
            if x:  # x is a sum of squares, 0 only for an all-zero half
                branch = _step(index, gate, collapse(outcome), None)
                p = prob * (backend.from_ints(x, y, 1) / total)
                pending.append((index, (*outcomes, outcome), p, branch))


def run_circuit(circuit: Circuit, qstate: QState, rs: RandomStream) -> QState:
    """Normalize the initial state, then apply each gate, drawing one
    random number per M gate; the result equals normalizing after every
    gate (see `_run`)."""
    state, _ = _run(circuit, qstate, rs, record=False)
    return state


def run_circuit_traced(
    circuit: Circuit, qstate: QState, rs: RandomStream
) -> tuple[QState, tuple[TraceEvent, ...]]:
    """As run_circuit, also returning the per-gate state snapshots."""
    return _run(circuit, qstate, rs, record=True)
