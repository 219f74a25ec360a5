"""Netlist circuits and their evaluation.

A circuit is an ordered list of gate applications over a declared number
of qubits, consumed together with a stream of random draws.  Evaluation
normalizes the initial state, then folds gate-then-normalize over the
list; only M gates consume a draw.

Circuit text grammar (one gate per line):

    line    := gate | comment | blank
    gate    := ('X'|'Z'|'H'|'I'|'M') WS index | 'CN' WS index WS index
    comment := '#' any-chars
    header  (optional first non-comment line): 'qubits' WS count
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import gates as _gates
from .errors import ParseError, RandomStreamExhausted
from .qstate import QState, normalize

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
    """Parse circuit text, validating arities and index ranges.

    The qubit count comes from the optional 'qubits N' header or the
    nqubits argument; if both are present they must agree.
    """
    declared: int | None = None
    pending: list[tuple[int, str, tuple[int, ...]]] = []
    saw_gate = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if not saw_gate and declared is None and tokens[0] == "qubits":
            if len(tokens) != 2 or not tokens[1].isdigit() or int(tokens[1]) < 1:
                raise ParseError("header must be 'qubits <count>'", line=lineno)
            declared = int(tokens[1])
            continue
        kind, args = tokens[0], tokens[1:]
        arity = GATE_ARITY.get(kind)
        if arity is None:
            raise ParseError(f"unknown gate {kind!r}", line=lineno)
        if len(args) != arity:
            raise ParseError(
                f"{kind} takes {arity} operand(s), got {len(args)}", line=lineno
            )
        if not all(a.isdigit() for a in args):
            raise ParseError(f"bad qubit index in {line!r}", line=lineno)
        operands = tuple(int(a) for a in args)
        if kind == "CN" and operands[0] == operands[1]:
            raise ParseError("CN control and target must differ", line=lineno)
        pending.append((lineno, kind, operands))
        saw_gate = True

    if declared is not None and nqubits is not None and declared != nqubits:
        raise ParseError(
            f"header declares {declared} qubits but caller passed {nqubits}"
        )
    total = declared if declared is not None else nqubits
    if total is None:
        raise ParseError("qubit count not declared (no header and no --qubits)")
    for lineno, kind, operands in pending:
        for q in operands:
            if q >= total:
                raise ParseError(
                    f"qubit {q} out of range for {total} qubits", line=lineno
                )
    return Circuit(tuple(Gate(k, ops) for _, k, ops in pending), total)


def _apply(gate: Gate, state: QState, rs: RandomStream) -> tuple[QState, Fraction | None]:
    # looked up per call, so a rebinding of gates.gate_<kind> takes effect
    if gate.kind == "M":
        draw = rs.draw()
        return _gates.gate_M(state, gate.operands[0], draw), draw
    return getattr(_gates, "gate_" + gate.kind)(state, *gate.operands), None


def _run(circuit: Circuit, qstate: QState, rs: RandomStream, record: bool):
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
    events: list[TraceEvent] = []
    for step, gate in enumerate(circuit.gates, start=1):
        state, draw = _apply(gate, state, rs)
        state = normalize(state)
        if record:
            events.append(TraceEvent(step, gate, state, draw))
    return state, tuple(events)


def run_circuit(circuit: Circuit, qstate: QState, rs: RandomStream) -> QState:
    """Normalize the initial state, then apply each gate followed by a
    normalization, drawing one random number per M gate."""
    state, _ = _run(circuit, qstate, rs, record=False)
    return state


def run_circuit_traced(
    circuit: Circuit, qstate: QState, rs: RandomStream
) -> tuple[QState, tuple[TraceEvent, ...]]:
    """As run_circuit, also returning the per-gate state snapshots."""
    return _run(circuit, qstate, rs, record=True)
