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

from .interpreter import Circuit, Gate, RandomStream, run_circuit
from .qstate import (
    QState,
    Term,
    get_deterministic_qubit,
    make_qubit,
    narrow_to_qubit,
    sort_and_merge,
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
    int_parts,
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

_BOB_GATES = {
    (False, False): (),
    (False, True): (Gate("X", (2,)),),
    (True, False): (Gate("Z", (2,)),),
    (True, True): (Gate("X", (2,)), Gate("Z", (2,))),
}

#: Draw pairs covering the four measurement branches: within each half
#: interval the exact threshold comparisons are constant, so one
#: representative per quadrant exercises every behavior.
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


def teleport_alice(
    alpha: CScalar, beta: CScalar, r1, r2, backend: Backend = EXACT
) -> AliceResult:
    """Run Alice's six-gate circuit on (alpha, beta) tensored with |00>."""
    alpha = to_backend(alpha, backend)
    beta = to_backend(beta, backend)
    _check_unit_hypothesis(alpha, beta, backend)
    initial = tensor_product(
        make_qubit(alpha, beta, backend), zero_qstate(2, backend)
    )
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
    gates = _BOB_GATES[(bool(m0), bool(m1))]
    if not gates:
        return state
    return run_circuit(Circuit(gates, 3), state, RandomStream(()))


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


def _expected_alice_state(
    alpha: CScalar, beta: CScalar, m0: bool, m1: bool, backend: Backend
) -> QState | None:
    """Closed-form expectation for Alice's post-state, where one exists.

    Branch (0,0) is alpha|000> + beta|001>; branch (0,1) is
    beta|010> + alpha|011>.  The m0 = 1 branches are checked at the
    protocol level only.
    """
    if m0:
        return None
    low, high = (beta, alpha) if m1 else (alpha, beta)
    terms = (Term(low, (False, m1, False)), Term(high, (False, m1, True)))
    return sort_and_merge(terms, 3, backend)


def max_component_gap(a: QState, b: QState) -> Fraction:
    """Largest difference between matching real or imaginary parts.

    Defined on the approximate backend only, where every part is a
    rational: a difference in Q[sqrt(2)] has no ``abs`` (``QExt`` defines
    none), so exact states raise TypeError.  Computed per entry from the
    lanes: with units p / s and r / u, parts x and y differ by
    |x*p*u - y*r*s| / (s*u), and only the largest is made a Fraction.
    """
    if not (isinstance(a.backend, ApproxBackend) and isinstance(b.backend, ApproxBackend)):
        raise TypeError("max_component_gap compares approximate-backend states only")
    p, _, s = int_parts(a.unit)
    r, _, u = int_parts(b.unit)
    p, r = p * u, r * s
    gap = max(
        abs(x * p - y * r)
        for i in (0, 2)
        for x, y in zip(a.lanes[i], b.lanes[i])
    )
    return Fraction(gap, s * u)


def verify_teleportation(
    inputs=DEFAULT_INPUTS, backend: Backend = EXACT
) -> TeleportReport:
    """Check every input against all four draw branches.

    Per case: Alice's state must match the spelled-out branch exactly
    (first two branches), her measured bits must follow the draws, and
    narrowing the protocol output to qubit 2 must reproduce the input
    qubit — exactly in the exact backend, within tolerance (annotated in
    the detail) in the approximate one.
    """
    approx = isinstance(backend, ApproxBackend)
    tol = backend.check_tol if approx else None
    cases: list[TeleportCase] = []
    index = 0
    for alpha, beta in inputs:
        alpha = to_backend(alpha, backend)
        beta = to_backend(beta, backend)
        for r1, r2 in BRANCH_DRAWS:
            problems: list[str] = []
            alice = teleport_alice(alpha, beta, r1, r2, backend)
            want_m0, want_m1 = r1 >= Fraction(1, 2), r2 >= Fraction(1, 2)
            if (alice.m0, alice.m1) != (want_m0, want_m1):
                problems.append(
                    f"measured ({int(alice.m0)},{int(alice.m1)}),"
                    f" draws imply ({int(want_m0)},{int(want_m1)})"
                )
            expected_state = _expected_alice_state(
                alpha, beta, alice.m0, alice.m1, backend
            )
            if expected_state is not None:
                if approx:
                    gap = max_component_gap(alice.state, expected_state)
                    if gap > tol:
                        problems.append(f"alice state off by {float(gap):.3g}")
                elif alice.state != expected_state:
                    problems.append("alice state differs from expected branch state")
            final = teleport_bob(alice.state, alice.m0, alice.m1)
            narrowed = narrow_to_qubit(final, 2)
            expected_qubit = make_qubit(alpha, beta, backend)
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
            cases.append(
                TeleportCase(
                    index,
                    alpha,
                    beta,
                    alice.m0,
                    alice.m1,
                    not problems,
                    "; ".join(problems) or detail,
                )
            )
            index += 1
    return TeleportReport(tuple(cases))
