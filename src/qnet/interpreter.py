"""Netlist circuits and their evaluation.

A circuit is an ordered list of gate applications over a declared number
of qubits, consumed together with a stream of random draws.  Evaluation
normalizes the initial state, then applies the gates in order; only M
gates consume a draw.  The state is renormalized after every M gate, and
on the approximate backend after every gate.  The exact backend skips the
renormalization after the unitary gates because there it would return
the state unchanged (see ``_run``), so the states it yields, and prints,
are those of normalizing after every gate.

Circuit text grammar (one gate per line):

    line    := [gate] [comment]
    gate    := ('X'|'Z'|'H'|'I'|'M') WS index | 'CN' WS index WS index
    comment := '#' any-chars          (a '#' anywhere starts one)
    header  (optional first non-comment line): 'qubits' WS count
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import gates as _gates
from .errors import ParseError, RandomStreamExhausted
from .qstate import QState, normalize
from .scalar import parse_int

GATE_ARITY = {"X": 1, "Z": 1, "H": 1, "I": 1, "M": 1, "CN": 2}


@dataclass(frozen=True)
class Gate:
    """One gate application: mnemonic plus qubit operand(s)."""

    kind: str
    operands: tuple[int, ...]

    def __post_init__(self):
        arity = GATE_ARITY.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown gate {self.kind!r}")
        if len(self.operands) != arity:
            raise ValueError(f"{self.kind} takes {arity} operand(s)")
        if any(q < 0 for q in self.operands):
            raise ValueError("qubit indices must be nonnegative")
        if self.kind == "CN" and self.operands[0] == self.operands[1]:
            raise ValueError("CN control and target must differ")

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

    def __init__(self, draws: Iterable):
        checked = []
        for d in draws:
            d = Fraction(d)
            if not 0 <= d <= 1:
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

    Each gate line is built as a `Gate`, whose checks (known kind, arity,
    distinct CN control and target) are the rules; a failed check becomes a
    ParseError carrying the line number.  The qubit count comes from the
    optional 'qubits N' header, which may only precede the gates, or from the
    nqubits argument; if both are present they must agree.  The count is
    settled at the first gate, so each index is range-checked as its line
    is read.
    """
    declared: int | None = None
    total: int | None = None
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *args = line.split()
        numbers = None
        if all(a.isdecimal() for a in args):
            try:
                numbers = tuple(map(parse_int, args))
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno) from None
        if kind == "qubits" and not gates and declared is None:
            if len(args) != 1 or numbers is None or numbers[0] < 1:
                raise ParseError("header must be 'qubits <count>'", line=lineno)
            declared = numbers[0]
            continue
        if numbers is None:
            raise ParseError(f"bad qubit index in {line!r}", line=lineno)
        try:
            gate = Gate(kind, numbers)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if total is None:
            total = _qubit_count(declared, nqubits)
        for q in gate.operands:
            if q >= total:
                raise ParseError(
                    f"qubit {q} out of range for {total} qubits", line=lineno
                )
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


def _apply(gate: Gate, state: QState, rs: RandomStream) -> tuple[QState, Fraction | None]:
    # looked up per call, so a rebinding of gates.gate_<kind> takes effect
    if gate.kind == "M":
        draw = rs.draw()
        return _gates.gate_M(state, gate.operands[0], draw), draw
    return getattr(_gates, "gate_" + gate.kind)(state, *gate.operands), None


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

    A ValueError, ZeroDivisionError or IndexError from a gate or the
    normalization after it is raised again with a "step N (GATE): " prefix.
    """
    if qstate.nqubits != circuit.nqubits:
        raise ValueError(
            f"state has {qstate.nqubits} qubits, circuit has {circuit.nqubits}"
        )
    needed = count_measurements(circuit)
    if rs.remaining < needed:
        raise RandomStreamExhausted(
            f"circuit has {needed} M gate(s) but only {rs.remaining} draw(s) remain"
        )
    state = normalize(qstate)
    every_gate = state.backend.normalizes_after_unitaries
    events: list[TraceEvent] = []
    for step, gate in enumerate(circuit.gates, start=1):
        try:
            state, draw = _apply(gate, state, rs)
            if every_gate or gate.kind == "M":
                state = normalize(state)
        except (ValueError, ZeroDivisionError, IndexError) as exc:
            raise type(exc)(f"step {step} ({gate}): {exc}") from exc
        if record:
            events.append(TraceEvent(step, gate, state, draw))
    return state, tuple(events)


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
