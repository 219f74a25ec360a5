import random
from fractions import Fraction as F

import pytest

from qnet import (
    Circuit,
    CScalar,
    QExt,
    Term,
    make_qubit,
    narrow_to_qubit,
    sort_and_merge,
    teleport_alice,
    teleport_bob,
    teleport_protocol,
    verify_teleportation,
)
from qnet.scalar import ApproxBackend
from qnet.teleport import BRANCH_DRAWS, DEFAULT_INPUTS
import qnet.gates
import qnet.teleport
from qnet.cli import main

import oracle
from support import rand_unit_pair, state_to_complex

INV_SQRT2 = QExt(0, F(1, 2))
ALPHA = CScalar(QExt(F(3, 5)))
BETA = CScalar(QExt(0), QExt(F(4, 5)))

ALICE_OPS = [("H", 1), ("CN", 1, 2), ("CN", 0, 1), ("H", 0), ("M", 0), ("M", 1)]


def three_qubit(*entries):
    return sort_and_merge([Term(c, bits) for c, bits in entries], 3)


class TestAlice:
    def test_branch_00(self):
        result = teleport_alice(ALPHA, BETA, F(1, 4), F(1, 4))
        assert (result.m0, result.m1) == (False, False)
        expected = three_qubit(
            (ALPHA, (False, False, False)), (BETA, (False, False, True))
        )
        assert result.state == expected

    def test_branch_01(self):
        result = teleport_alice(ALPHA, BETA, F(1, 4), F(3, 4))
        assert (result.m0, result.m1) == (False, True)
        expected = three_qubit(
            (BETA, (False, True, False)), (ALPHA, (False, True, True))
        )
        assert result.state == expected

    def test_basis_payload(self):
        result = teleport_alice(
            CScalar(QExt(1)), CScalar(QExt(0)), F(1, 4), F(1, 4)
        )
        assert result.state == three_qubit((CScalar(QExt(1)), (False, False, False)))

    def test_measured_qubits_deterministic(self):
        rng = random.Random(181)
        for _ in range(20):
            alpha, beta = rand_unit_pair(rng)
            r1, r2 = F(rng.randint(0, 999), 1000), F(rng.randint(0, 999), 1000)
            result = teleport_alice(alpha, beta, r1, r2)
            assert result.m0 == (r1 >= F(1, 2))
            assert result.m1 == (r2 >= F(1, 2))

    def test_rejects_non_unit_payload(self):
        with pytest.raises(ValueError):
            teleport_alice(CScalar(QExt(1)), CScalar(QExt(1)), F(1, 4), F(1, 4))


class TestBob:
    def test_no_corrections(self):
        state = three_qubit((ALPHA, (False, False, False)), (BETA, (False, False, True)))
        assert teleport_bob(state, False, False) is state

    def test_x_correction(self):
        state = three_qubit((BETA, (False, True, False)), (ALPHA, (False, True, True)))
        fixed = teleport_bob(state, False, True)
        assert fixed == three_qubit(
            (ALPHA, (False, True, False)), (BETA, (False, True, True))
        )

    def test_z_correction(self):
        state = three_qubit((ALPHA, (True, False, False)), (-BETA, (True, False, True)))
        fixed = teleport_bob(state, True, False)
        assert fixed == three_qubit(
            (ALPHA, (True, False, False)), (BETA, (True, False, True))
        )

    def test_x_then_z_order(self):
        # applying Z before X here would negate the whole state
        state = three_qubit((-BETA, (True, True, False)), (ALPHA, (True, True, True)))
        fixed = teleport_bob(state, True, True)
        assert fixed == three_qubit(
            (ALPHA, (True, True, False)), (BETA, (True, True, True))
        )

    def test_qubit_count_checked(self):
        with pytest.raises(ValueError):
            teleport_bob(make_qubit(ALPHA, BETA), False, False)


class TestProtocol:
    def test_recovers_payload_on_all_branches(self):
        rng = random.Random(191)
        pairs = [rand_unit_pair(rng) for _ in range(8)]
        for alpha, beta in pairs:
            expected = make_qubit(alpha, beta)
            for r1, r2 in BRANCH_DRAWS:
                final = teleport_protocol(alpha, beta, r1, r2)
                assert narrow_to_qubit(final, 2) == expected

    def test_basis_one_payload(self):
        final = teleport_protocol(CScalar(QExt(0)), CScalar(QExt(1)), F(3, 4), F(3, 4))
        narrowed = narrow_to_qubit(final, 2)
        assert narrowed == make_qubit(CScalar(QExt(0)), CScalar(QExt(1)))

    def test_complex_payload_against_oracle(self):
        alpha = CScalar(INV_SQRT2)
        beta = CScalar(QExt(0), INV_SQRT2)
        final = teleport_protocol(alpha, beta, F(1, 4), F(3, 4))
        assert narrow_to_qubit(final, 2) == make_qubit(alpha, beta)

        a, b = 0.5**0.5, 0.5**0.5 * 1j
        vec = [a, 0, 0, 0, b, 0, 0, 0]
        vec = oracle.run(ALICE_OPS, vec, [F(1, 4), F(3, 4)])
        hot = [i for i, c in enumerate(vec) if abs(c) > 1e-12]
        m0, m1 = (hot[0] >> 2) & 1, (hot[0] >> 1) & 1
        assert (m0, m1) == (0, 1)
        bob_ops = ([("X", 2)] if m1 else []) + ([("Z", 2)] if m0 else [])
        vec = oracle.run(bob_ops, vec, [])
        rendered = state_to_complex(final)
        assert max(abs(x - y) for x, y in zip(rendered, vec)) < 1e-12


class TestVerification:
    def test_default_suite_passes(self):
        report = verify_teleportation()
        assert len(report.cases) == 16
        assert report.all_passed
        assert report.summary_lines()[0] == "case 0 branch 00 : PASS"
        branches = {line.split()[3] for line in report.summary_lines()}
        assert branches == {"00", "01", "10", "11"}

    def test_corrupted_bob_is_detected(self):
        # skipping the Z correction must break the (1,0) branch for a
        # payload with a sign difference between its components
        alpha = CScalar(INV_SQRT2)
        beta = CScalar(-INV_SQRT2)
        result = teleport_alice(alpha, beta, F(3, 4), F(1, 4))
        assert (result.m0, result.m1) == (True, False)
        uncorrected = narrow_to_qubit(result.state, 2)
        assert uncorrected != make_qubit(alpha, beta)

    def test_corrupted_bob_fails_the_report(self, monkeypatch):
        def bob_without_z(state, m0, m1):
            return teleport_bob(state, False, m1)

        monkeypatch.setattr(qnet.teleport, "teleport_bob", bob_without_z)
        report = verify_teleportation(
            inputs=((CScalar(INV_SQRT2), CScalar(-INV_SQRT2)),)
        )
        outcomes = {c.summary_line(): c.passed for c in report.cases}
        assert not report.all_passed
        assert outcomes["case 2 branch 10 : FAIL"] is False
        assert outcomes["case 0 branch 00 : PASS"] is True

    def test_approx_backend_annotates_tolerance(self):
        backend = ApproxBackend(F(1, 10**12))
        report = verify_teleportation(backend=backend)
        assert report.all_passed
        assert all("within" in c.detail for c in report.cases)

    def test_anecdote_inputs_accepted_approx(self):
        backend = ApproxBackend(F(1, 10**12))
        value = F(131072, 185363)
        for r1, r2 in BRANCH_DRAWS:
            final = teleport_protocol(
                CScalar(value), CScalar(value), r1, r2, backend
            )
            narrowed = narrow_to_qubit(final, 2)
            gap = max(
                abs(narrowed.coeff(0).re - value),
                abs(narrowed.coeff(1).re - value),
                abs(narrowed.coeff(0).im),
                abs(narrowed.coeff(1).im),
            )
            assert gap <= F(1, 10**4)

    def test_default_inputs_are_exactly_unit(self):
        for alpha, beta in DEFAULT_INPUTS:
            assert alpha.norm_sq() + beta.norm_sq() == QExt(1)


class TestBranchWalk:
    def test_runs_alice_once_per_input_and_draws_nothing(self, monkeypatch):
        calls = []
        gate_h = qnet.gates.gate_H
        monkeypatch.setattr(qnet.gates, "gate_M", None)
        monkeypatch.setattr(qnet.gates, "gate_H", lambda *a: calls.append(a) or gate_h(*a))
        assert verify_teleportation().all_passed
        assert len(calls) == 2 * len(DEFAULT_INPUTS)  # Alice's two H gates

    def test_broken_alice_still_reports_four_branches(self, monkeypatch, capsys):
        # without H 0, M 0 reads the payload: a basis payload never reaches
        # two of the branches, and no branch has probability 1/4
        gates = tuple(g for g in qnet.teleport.ALICE_CIRCUIT.gates if str(g) != "H 0")
        monkeypatch.setattr(qnet.teleport, "ALICE_CIRCUIT", Circuit(gates, 3))
        report = verify_teleportation()
        assert [c.summary_line().split()[3] for c in report.cases] == ["00", "01", "10", "11"] * 4
        details = [c.detail for c in report.cases]
        assert details[2] == "branch 10 not reached: probability 0"
        assert details[0].startswith("branch 00 has probability 1/2, not 1/4")
        assert main(["verify-teleport"]) == 5
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("case ") for line in lines) == 4 * len(DEFAULT_INPUTS)
        assert any(line.endswith(": FAIL") for line in lines)
        assert lines[-1] == "FAIL"

    def test_mislabeled_branches_fail_the_measured_bits_check(self, monkeypatch):
        walk = qnet.teleport.branches

        def flipped(circuit, state):
            for outcomes, p, out in walk(circuit, state):
                yield tuple(1 - b for b in outcomes), p, out

        monkeypatch.setattr(qnet.teleport, "branches", flipped)
        report = verify_teleportation(inputs=DEFAULT_INPUTS[:1])
        assert not any(c.passed for c in report.cases)
        assert report.cases[0].detail.startswith("measured (1,1), branch is 00")
