import os
import resource
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from qnet import CScalar, QExt, make_qubit, parse_state, tensor_product, zero_qstate
from qnet.cli import main
from qnet.gates import gate_CN, gate_H

from support import SQRT2_HP

FIG1 = "qubits 2\nH 0\nCN 0 1\n"


@pytest.fixture
def bell_circuit(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text(FIG1)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_fig1_exact(self, capsys, bell_circuit):
        code, out, _ = run_cli(
            capsys, "run", "--circuit", bell_circuit, "--state", "zero:2"
        )
        assert code == 0
        assert out.splitlines() == [
            "(1/2*s2, 0) | 00",
            "(0, 0) | 01",
            "(0, 0) | 10",
            "(1/2*s2, 0) | 11",
        ]

    def test_sparse(self, capsys, bell_circuit):
        code, out, _ = run_cli(
            capsys,
            "run", "--circuit", bell_circuit, "--state", "zero:2", "--sparse-output",
        )
        assert code == 0
        assert out.splitlines() == ["(1/2*s2, 0) | 00", "(1/2*s2, 0) | 11"]

    def test_decimal_five_digits(self, capsys, bell_circuit):
        code, out, _ = run_cli(
            capsys,
            "run", "--circuit", bell_circuit, "--state", "zero:2",
            "--emit", "decimal", "--digits", "5", "--sparse-output",
        )
        assert code == 0
        assert out.splitlines() == [
            "(0.70711, 0.00000) | 00",
            "(0.70711, 0.00000) | 11",
        ]

    def test_exact_output_round_trips(self, capsys, bell_circuit):
        code, out, _ = run_cli(
            capsys, "run", "--circuit", bell_circuit, "--state", "zero:2"
        )
        assert code == 0
        expected = gate_CN(gate_H(zero_qstate(2), 0), 0, 1)
        assert parse_state(out) == expected

    def test_decimal_agrees_with_exact_within_ulp(self, capsys, bell_circuit):
        digits = 7
        _, exact_out, _ = run_cli(
            capsys, "run", "--circuit", bell_circuit, "--state", "zero:2"
        )
        _, decimal_out, _ = run_cli(
            capsys,
            "run", "--circuit", bell_circuit, "--state", "zero:2",
            "--emit", "decimal", "--digits", str(digits),
        )
        state = parse_state(exact_out)
        ulp = F(1, 10**digits)
        for term, line in zip(state.terms, decimal_out.splitlines()):
            res, ims = line.split("|")[0].strip().strip("()").split(",")
            want_re = term.coeff.re.a + term.coeff.re.b * SQRT2_HP
            want_im = term.coeff.im.a + term.coeff.im.b * SQRT2_HP
            assert abs(F(res) - want_re) <= ulp
            assert abs(F(ims) - want_im) <= ulp

    def test_byte_identical_reruns(self, capsys, bell_circuit):
        first = run_cli(capsys, "run", "--circuit", bell_circuit, "--state", "zero:2")
        second = run_cli(capsys, "run", "--circuit", bell_circuit, "--state", "zero:2")
        assert first == second

    def test_qubit_initial_state(self, capsys, tmp_path):
        circuit = tmp_path / "id.qc"
        circuit.write_text("I 0\n")
        code, out, _ = run_cli(
            capsys,
            "run", "--circuit", str(circuit), "--qubits", "1",
            "--state", "qubit:(3/5,0),(0,4/5)",
        )
        assert code == 0
        assert out.splitlines() == ["(3/5, 0) | 0", "(0, 4/5) | 1"]

    def test_state_file_input(self, capsys, tmp_path):
        circuit = tmp_path / "x.qc"
        circuit.write_text("qubits 2\nX 1\n")
        state = tmp_path / "in.qs"
        state.write_text("# comment\n(1, 0) | 01\n")
        code, out, _ = run_cli(
            capsys, "run", "--circuit", str(circuit), "--state", str(state)
        )
        assert code == 0
        assert "(1, 0) | 00" in out.splitlines()

    def test_randoms_inline(self, capsys, tmp_path):
        circuit = tmp_path / "m.qc"
        circuit.write_text("qubits 1\nH 0\nM 0\n")
        code, out, _ = run_cli(
            capsys,
            "run", "--circuit", str(circuit), "--state", "zero:1",
            "--randoms", "3/4",
        )
        assert code == 0
        assert out.splitlines() == ["(0, 0) | 0", "(1, 0) | 1"]

    def test_randoms_file(self, capsys, tmp_path):
        circuit = tmp_path / "m.qc"
        circuit.write_text("qubits 1\nH 0\nM 0\n")
        randoms = tmp_path / "draws.txt"
        randoms.write_text("1/4\n")
        code, out, _ = run_cli(
            capsys,
            "run", "--circuit", str(circuit), "--state", "zero:1",
            "--randoms-file", str(randoms),
        )
        assert code == 0
        assert out.splitlines() == ["(1, 0) | 0", "(0, 0) | 1"]

    def test_approx_backend(self, capsys, bell_circuit):
        code, out, _ = run_cli(
            capsys,
            "run", "--circuit", bell_circuit, "--state", "zero:2",
            "--backend", "approx", "--emit", "decimal", "--digits", "5",
            "--sparse-output",
        )
        assert code == 0
        assert out.splitlines()[0] == "(0.70711, 0.00000) | 00"


class TestExitCodes:
    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.qc"
        bad.write_text("CN 0 0\n")
        code, _, err = run_cli(
            capsys, "run", "--circuit", str(bad), "--state", "zero:2", "--qubits", "2"
        )
        assert code == 2
        assert "line 1" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "run", "--circuit", str(tmp_path / "ghost.qc"), "--state", "zero:1",
        )
        assert code == 2
        assert "cannot read" in err

    def test_not_representable_rendering(self, capsys, tmp_path):
        circuit = tmp_path / "id.qc"
        circuit.write_text("qubits 2\nI 0\n")
        state = tmp_path / "three.qs"
        state.write_text("(1, 0) | 00\n(1, 0) | 01\n(1, 0) | 10\n")
        code, _, err = run_cli(
            capsys, "run", "--circuit", str(circuit), "--state", str(state)
        )
        assert code == 3
        assert "--backend approx or --emit decimal" in err

    def test_not_representable_has_decimal_fallback(self, capsys, tmp_path):
        circuit = tmp_path / "id.qc"
        circuit.write_text("qubits 2\nI 0\n")
        state = tmp_path / "three.qs"
        state.write_text("(1, 0) | 00\n(1, 0) | 01\n(1, 0) | 10\n")
        code, out, _ = run_cli(
            capsys,
            "run", "--circuit", str(circuit), "--state", str(state),
            "--emit", "decimal",
        )
        assert code == 0
        assert out.splitlines()[0] == "(0.577350, 0.000000) | 00"

    def test_stream_exhausted(self, capsys, tmp_path):
        circuit = tmp_path / "m.qc"
        circuit.write_text("qubits 1\nM 0\n")
        code, _, err = run_cli(
            capsys, "run", "--circuit", str(circuit), "--state", "zero:1"
        )
        assert code == 4
        assert "M gate" in err

    def test_eps_rejected_under_exact(self, capsys, bell_circuit):
        code, _, err = run_cli(
            capsys,
            "run", "--circuit", bell_circuit, "--state", "zero:2", "--eps", "1/100",
        )
        assert code == 2
        assert "--eps" in err

    def test_digits_rejected_under_exact_emit(self, capsys, bell_circuit):
        code, _, err = run_cli(
            capsys,
            "run", "--circuit", bell_circuit, "--state", "zero:2", "--digits", "4",
        )
        assert code == 2
        assert "--digits" in err

    def test_randoms_flags_mutually_exclusive(self, capsys, bell_circuit, tmp_path):
        draws = tmp_path / "draws.txt"
        draws.write_text("1/2\n")
        code, _, err = run_cli(
            capsys,
            "run", "--circuit", bell_circuit, "--state", "zero:2",
            "--randoms", "1/2", "--randoms-file", str(draws),
        )
        assert code == 2
        assert "mutually exclusive" in err


class TestTrace:
    def test_fig1_blocks(self, capsys, bell_circuit):
        code, out, _ = run_cli(
            capsys,
            "trace", "--circuit", bell_circuit, "--state", "zero:2",
            "--sparse-output",
        )
        assert code == 0
        assert out.splitlines() == [
            "# initial",
            "(1, 0) | 00",
            "",
            "# step 1: H 0",
            "(1/2*s2, 0) | 00",
            "(1/2*s2, 0) | 10",
            "",
            "# step 2: CN 0 1",
            "(1/2*s2, 0) | 00",
            "(1/2*s2, 0) | 11",
        ]

    def test_measurement_block_labels_draw(self, capsys, tmp_path):
        circuit = tmp_path / "m.qc"
        circuit.write_text("qubits 1\nH 0\nM 0\n")
        code, out, _ = run_cli(
            capsys,
            "trace", "--circuit", str(circuit), "--state", "zero:1",
            "--randoms", "1/4", "--sparse-output",
        )
        assert code == 0
        assert "# step 2: M 0 r=1/4" in out.splitlines()

    def test_empty_circuit_prints_initial_only(self, capsys, tmp_path):
        circuit = tmp_path / "empty.qc"
        circuit.write_text("qubits 1\n# nothing\n")
        code, out, _ = run_cli(
            capsys, "trace", "--circuit", str(circuit), "--state", "zero:1"
        )
        assert code == 0
        assert out.splitlines() == ["# initial", "(1, 0) | 0", "(0, 0) | 1"]


class TestTeleport:
    def test_exact_pass(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "teleport",
            "--alpha", "(1/2*s2,0)", "--beta", "(1/2*s2,0)",
            "--r1", "1/4", "--r2", "1/4",
        )
        assert code == 0
        assert out.splitlines()[-1] == "PASS"

    def test_trivial_payload(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "teleport",
            "--alpha", "(1,0)", "--beta", "(0,0)",
            "--r1", "2/3", "--r2", "1/8",
        )
        assert code == 0
        assert "PASS" in out

    def test_hypothesis_violation(self, capsys):
        code, _, err = run_cli(
            capsys,
            "teleport",
            "--alpha", "(1,0)", "--beta", "(1,0)",
            "--r1", "1/4", "--r2", "1/4",
        )
        assert code == 2
        assert "|alpha|^2 + |beta|^2" in err

    def test_approx_anecdote_reports_deviation(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "teleport",
            "--alpha", "(131072/185363,0)", "--beta", "(131072/185363,0)",
            "--r1", "1/4", "--r2", "1/4",
            "--backend", "approx", "--eps", "1/1000000000000",
        )
        assert code == 0
        deviation_line = next(
            line for line in out.splitlines() if "max deviation" in line
        )
        assert F(deviation_line.split()[-1]) <= F(1, 10**4)
        assert out.splitlines()[-1] == "PASS"


class TestVerifyTeleport:
    def test_exact_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify-teleport")
        assert code == 0
        lines = out.splitlines()
        machine = [l for l in lines if l.startswith("case ")]
        assert len(machine) == 16
        assert all(l.endswith(": PASS") for l in machine)
        assert lines[-1] == "PASS"

    def test_approx_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify-teleport", "--backend", "approx")
        assert code == 0
        assert out.splitlines()[-1] == "PASS"


def test_module_entry_point(bell_circuit):
    proc = subprocess.run(
        [sys.executable, "-m", "qnet", "run", "--circuit", bell_circuit,
         "--state", "zero:2", "--sparse-output"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["(1/2*s2, 0) | 00", "(1/2*s2, 0) | 11"]


def test_too_wide_zero_state_fails_fast(tmp_path):
    # a separate process under a memory cap, so a width check that came
    # after the allocation fails this test instead of exhausting memory
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    circuit = tmp_path / "wide.qc"
    circuit.write_text("qubits 40\nX 0\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "qnet", "run", "--circuit", str(circuit),
         "--state", "zero:40"],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap_memory,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "qubit count must be in 1..16" in proc.stderr
