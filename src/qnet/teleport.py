"""The quantum teleportation protocol and its verification harness.

Alice entangles two ancilla qubits, interacts them with the payload
qubit, and measures qubits 0 and 1.  Bob then repairs qubit 2 from the
two classical measurement bits: an X correction when qubit 1 measured
|1>, a Z correction when qubit 0 did.  The protocol's guarantee is that
qubit 2 ends in exactly the payload state, for every draw branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .interpreter import Circuit, Gate, RandomStream, branches, run_circuit
from .qstate import (
    QState,
    get_deterministic_qubit,
    make_qubit,
    max_component_gap,
    narrow_to_qubit,
    tensor_product,
    zero_qstate,
)
from .scalar import (
    EXACT,
    ApproxBackend,
    Backend,
    CScalar,
    QExt,
    format_cscalar,
    to_backend,
)

ALICE_CIRCUIT = Circuit(
    (
        Gate("H", (1,)),
        Gate("CN", (1, 2)),
        Gate("CN", (0, 1)),
        Gate("H", (0,)),
        Gate("M", (0,)),
        Gate("M", (1,)),
    ),
    nqubits=3,
)

#: Bob's correction circuit for each pair of measured bits (m0, m1).
_BOB_CIRCUITS = {
    (False, False): Circuit((), 3),
    (False, True): Circuit((Gate("X", (2,)),), 3),
    (True, False): Circuit((Gate("Z", (2,)),), 3),
    (True, True): Circuit((Gate("X", (2,)), Gate("Z", (2,))), 3),
}

#: Draw pairs covering the four measurement branches: within each half
#: interval the exact threshold comparisons are constant, so one
#: representative per quadrant exercises every behavior.  That holds
#: because each branch has probability exactly 1/4, which
#: `verify_teleportation` checks by walking the branches.
BRANCH_DRAWS = (
    (Fraction(1, 4), Fraction(1, 4)),
    (Fraction(1, 4), Fraction(3, 4)),
    (Fraction(3, 4), Fraction(1, 4)),
    (Fraction(3, 4), Fraction(3, 4)),
)

@dataclass(frozen=True)
class AliceResult:
    """Alice's post-measurement 3-qubit state plus her two classical bits."""

    state: QState
    m0: bool
    m1: bool


def _check_unit_hypothesis(alpha: CScalar, beta: CScalar, backend: Backend) -> None:
    total = alpha.norm_sq() + beta.norm_sq()
    if isinstance(backend, ApproxBackend):
        if abs(total - 1) > backend.check_tol:
            raise ValueError("input qubit is not unit within tolerance")
    elif total != QExt(1):
        raise ValueError("input qubit must satisfy |alpha|^2 + |beta|^2 = 1")


def _payload(alpha: CScalar, beta: CScalar, backend: Backend):
    """alpha and beta in the backend's field, checked to be unit, the
    payload qubit, and Alice's initial state: the payload tensored with |00>."""
    alpha = to_backend(alpha, backend)
    beta = to_backend(beta, backend)
    _check_unit_hypothesis(alpha, beta, backend)
    qubit = make_qubit(alpha, beta, backend)
    return alpha, beta, qubit, tensor_product(qubit, zero_qstate(2, backend))


def teleport_alice(
    alpha: CScalar, beta: CScalar, r1, r2, backend: Backend = EXACT
) -> AliceResult:
    """Run Alice's six-gate circuit on (alpha, beta) tensored with |00>."""
    initial = _payload(alpha, beta, backend)[3]
    state = run_circuit(ALICE_CIRCUIT, initial, RandomStream([r1, r2]))
    return AliceResult(
        state,
        get_deterministic_qubit(state, 0),
        get_deterministic_qubit(state, 1),
    )


def teleport_bob(state: QState, m0: bool, m1: bool) -> QState:
    """Apply Bob's classically-controlled corrections to qubit 2."""
    if state.nqubits != 3:
        raise ValueError("teleportation acts on a 3-qubit state")
    circuit = _BOB_CIRCUITS[(bool(m0), bool(m1))]
    if not circuit.gates:
        return state
    return run_circuit(circuit, state, RandomStream(()))


def teleport_protocol(
    alpha: CScalar, beta: CScalar, r1, r2, backend: Backend = EXACT
) -> QState:
    """Alice's circuit followed by Bob's corrections; returns the final state."""
    alice = teleport_alice(alpha, beta, r1, r2, backend)
    return teleport_bob(alice.state, alice.m0, alice.m1)


# --- verification harness ----------------------------------------------------

#: Exact unit inputs exercised by the built-in verifier.
DEFAULT_INPUTS = (
    (CScalar(QExt(1)), CScalar(QExt(0))),
    (CScalar(QExt(0)), CScalar(QExt(1))),
    (CScalar(QExt(0, Fraction(1, 2))), CScalar(QExt(0, Fraction(1, 2)))),
    (CScalar(QExt(Fraction(3, 5))), CScalar(QExt(0), QExt(Fraction(4, 5)))),
)


@dataclass(frozen=True)
class TeleportCase:
    index: int
    alpha: CScalar
    beta: CScalar
    m0: bool
    m1: bool
    passed: bool
    detail: str

    def summary_line(self) -> str:
        branch = f"{int(self.m0)}{int(self.m1)}"
        verdict = "PASS" if self.passed else "FAIL"
        return f"case {self.index} branch {branch} : {verdict}"


@dataclass(frozen=True)
class TeleportReport:
    cases: tuple[TeleportCase, ...]

    @property
    def all_passed(self) -> bool:
        return all(case.passed for case in self.cases)

    def summary_lines(self) -> list[str]:
        return [case.summary_line() for case in self.cases]


def _expected_alice_state(qubit: QState, m0: bool, m1: bool) -> QState | None:
    """Closed-form expectation for Alice's post-state, where one exists,
    over the payload qubit alpha|0> + beta|1>'s entries and unit.

    Branch (0,0) is alpha|000> + beta|001>; branch (0,1) is
    beta|010> + alpha|011>.  The m0 = 1 branches are checked at the
    protocol level only.
    """
    if m0:
        return None
    alpha, beta = qubit.entries()
    entries = {2: beta, 3: alpha} if m1 else {0: alpha, 1: beta}
    return QState.from_entries(3, entries, qubit.unit, qubit.scale_sq, qubit.backend)


def verify_teleportation(
    inputs=DEFAULT_INPUTS, backend: Backend = EXACT
) -> TeleportReport:
    """Check every input on its measurement branches 00, 01, 10 and 11.

    Alice's circuit is walked once per input (`branches`), with no draws.
    Each branch must be reached with probability exactly 1/4, which is
    why the comparisons are constant within each half interval of
    `BRANCH_DRAWS`.  Per branch the measured bits must equal its outcomes,
    Alice's state must match the spelled-out branch exactly (first two
    branches), and narrowing the protocol output to qubit 2 must reproduce
    the input qubit: exactly in the exact backend, within tolerance
    (annotated in the detail) in the approximate one.
    """
    approx = isinstance(backend, ApproxBackend)
    tol = backend.check_tol if approx else None
    quarter = backend.from_ints(1, 0, 4)
    cases: list[TeleportCase] = []
    for alpha, beta in inputs:
        alpha, beta, expected_qubit, initial = _payload(alpha, beta, backend)
        reached = {o: (p, s) for o, p, s in branches(ALICE_CIRCUIT, initial)}
        for m0, m1 in _BOB_CIRCUITS:
            name = f"{int(m0)}{int(m1)}"
            if (m0, m1) not in reached:
                detail = f"branch {name} not reached: probability 0"
                cases.append(TeleportCase(len(cases), alpha, beta, m0, m1, False, detail))
                continue
            prob, state = reached[m0, m1]
            problems: list[str] = []
            bits = get_deterministic_qubit(state, 0), get_deterministic_qubit(state, 1)
            if bits != (m0, m1):
                problems.append(f"measured ({int(bits[0])},{int(bits[1])}), branch is {name}")
            if prob != quarter:
                problems.append(f"branch {name} has probability {prob}, not 1/4")
            expected_state = _expected_alice_state(expected_qubit, m0, m1)
            if expected_state is not None:
                if approx:
                    gap = max_component_gap(state, expected_state)
                    if gap > tol:
                        problems.append(f"alice state off by {float(gap):.3g}")
                elif state != expected_state:
                    problems.append("alice state differs from expected branch state")
            final = teleport_bob(state, m0, m1)
            narrowed = narrow_to_qubit(final, 2)
            if approx:
                gap = max_component_gap(narrowed, expected_qubit)
                detail = f"qubit 2 within {float(gap):.3g} of input (tol {float(tol):.3g})"
                if gap > tol:
                    problems.append(f"qubit 2 off by {float(gap):.3g}")
            else:
                detail = "qubit 2 equals input exactly"
                if narrowed != expected_qubit:
                    problems.append(
                        f"qubit 2 is {format_cscalar(narrowed.coeff(0))},"
                        f" {format_cscalar(narrowed.coeff(1))}"
                    )
            detail = "; ".join(problems) or detail
            cases.append(TeleportCase(len(cases), alpha, beta, m0, m1, not problems, detail))
    return TeleportReport(tuple(cases))
