import os
import random
import resource
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qnet import (
    CScalar,
    QExt,
    RandomStream,
    make_qubit,
    parse_circuit,
    parse_state,
    run_circuit,
    tensor_product,
    zero_qstate,
)
from qnet import qstate
from qnet.cli import build_parser, main, render_state
from qnet.gates import gate_CN, gate_H
from qnet.qstate import basis_label
from qnet.scalar import format_cscalar

from support import SQRT2_HP, rand_state

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


def process_env():
    """The environment for ``python -m qnet`` on this checkout's sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


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

    def test_qubit_initial_state_tolerates_spaces(self, capsys, tmp_path):
        circuit = tmp_path / "id.qc"
        circuit.write_text("I 0\n")
        outputs = [
            run_cli(
                capsys,
                "run", "--circuit", str(circuit), "--qubits", "1", "--state", spec,
            )
            for spec in ("qubit:(3/5,0),(0,4/5)", "qubit:( 3/5 , 0 ) , (0,4/5)")
        ]
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]

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

    def test_randoms_inline_and_file_agree(self, capsys, tmp_path):
        circuit = tmp_path / "mm.qc"
        circuit.write_text("qubits 1\nH 0\nM 0\nH 0\nM 0\n")
        randoms = tmp_path / "draws.txt"
        randoms.write_text("# draws\n1/4\n\n3/4  # second\n")
        common = ("trace", "--circuit", str(circuit), "--state", "zero:1")
        inline = run_cli(capsys, *common, "--randoms", " 1/4 , ,3/4")
        from_file = run_cli(capsys, *common, "--randoms-file", str(randoms))
        assert inline[0] == 0
        assert "r=1/4" in inline[1] and "r=3/4" in inline[1]
        assert inline == from_file

    def test_reused_parser_keeps_no_flags_between_calls(self, capsys, bell_circuit):
        # the parser is built once per process; a second main() call must
        # print what a fresh process prints
        argv = ["run", "--circuit", bell_circuit, "--state", "zero:2"]
        code, out, _ = run_cli(
            capsys, *argv, "--backend", "approx", "--emit", "decimal", "--digits", "9"
        )
        assert code == 0
        assert out.splitlines()[0] == "(0.707106781, 0.000000000) | 00"
        second = run_cli(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "qnet", *argv],
            capture_output=True, text=True, env=process_env(), timeout=60,
        )
        assert second == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert second[1].splitlines()[0] == "(1/2*s2, 0) | 00"
        assert build_parser() is build_parser()

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

    @pytest.mark.parametrize("eps", ["1", "1000"])
    def test_eps_of_one_or_more_refused(self, capsys, bell_circuit, eps):
        # from eps = 1 on sqrt(2) may be taken as 1 and no check can fail
        code, out, err = run_cli(capsys, "verify-teleport", "--backend", "approx", "--eps", eps)
        assert (code, out) == (2, "")
        assert "--eps must be positive and below 1" in err
        code, out, err = run_cli(
            capsys,
            "run", "--circuit", bell_circuit, "--state", "zero:2",
            "--backend", "approx", "--eps", eps,
        )
        assert (code, out) == (2, "")
        assert "--eps" in err

    def test_eps_below_one_runs(self, capsys, bell_circuit):
        code, out, _ = run_cli(
            capsys,
            "run", "--circuit", bell_circuit, "--state", "zero:2",
            "--backend", "approx", "--eps", "1/2", "--emit", "decimal",
        )
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_digits_rejected_under_exact_emit(self, capsys, bell_circuit):
        code, _, err = run_cli(
            capsys,
            "run", "--circuit", bell_circuit, "--state", "zero:2", "--digits", "4",
        )
        assert code == 2
        assert "--digits" in err

    def test_digits_above_the_int_string_limit_refused(self, capsys, tmp_path):
        circuit = tmp_path / "id.qc"
        circuit.write_text("qubits 1\nI 0\n")
        code, out, err = run_cli(
            capsys,
            "run", "--circuit", str(circuit), "--state", "zero:1",
            "--emit", "decimal", "--digits", "4301",
        )
        assert code == 2
        assert out == ""
        assert "--digits" in err

    def test_exact_amplitude_past_the_int_string_limit_is_not_representable(
        self, capsys, tmp_path
    ):
        # sqrt(2) at eps 10^-3000 has a denominator of about 10^6000
        circuit = tmp_path / "h.qc"
        circuit.write_text("qubits 2\nH 0\nCN 0 1\nH 1\nX 0\nH 0\n")
        argv = [
            "run", "--circuit", str(circuit), "--state", "zero:2",
            "--backend", "approx", "--eps", "1/1" + "0" * 3000,
        ]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert f"more than {sys.get_int_max_str_digits()} digits" in err
        assert "--backend approx or --emit decimal" in err
        code, out, _ = run_cli(capsys, *argv, "--emit", "decimal", "--digits", "10")
        assert code == 0
        assert out.splitlines()[0] == "(0.7071067812, 0.0000000000) | 00"

    def test_runtime_error_names_the_step_and_the_gate(self, capsys, tmp_path):
        # the draw 1 selects the |1> branch, which has weight 0 on zero:1
        circuit = tmp_path / "m.qc"
        circuit.write_text("qubits 1\nM 0\n")
        code, out, err = run_cli(
            capsys,
            "run", "--circuit", str(circuit), "--state", "zero:1", "--randoms", "1",
        )
        assert code == 2
        assert out == ""
        assert "step 1 (M 0): cannot normalize the zero state" in err

    @pytest.mark.parametrize(
        "spec", ["qubit:(1,0),(0,1),(1,1)", "qubit:1,0", "qubit:(1,0)"]
    )
    def test_malformed_qubit_spec(self, capsys, tmp_path, spec):
        circuit = tmp_path / "id.qc"
        circuit.write_text("I 0\n")
        code, out, _ = run_cli(
            capsys, "run", "--circuit", str(circuit), "--qubits", "1", "--state", spec
        )
        assert code == 2
        assert out == ""

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

    def test_superscript_qubit_count_reports_its_line(self, capsys, tmp_path):
        circuit = tmp_path / "sup.qc"
        circuit.write_text("qubits \u00b2\nH 0\n")
        code, out, err = run_cli(
            capsys, "run", "--circuit", str(circuit), "--state", "zero:2"
        )
        assert code == 2
        assert out == ""
        assert "line 1" in err

    def test_superscript_zero_state_is_a_bad_initial_state(self, capsys, tmp_path):
        circuit = tmp_path / "id.qc"
        circuit.write_text("I 0\n")
        code, out, err = run_cli(
            capsys,
            "run", "--circuit", str(circuit), "--qubits", "1", "--state", "zero:\u00b2",
        )
        assert code == 2
        assert out == ""
        assert "bad initial state" in err

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_qubits_below_one_refused_before_reading(self, capsys, tmp_path, count):
        circuit = tmp_path / "h.qc"
        circuit.write_text("H 0\n")
        for path in (circuit, tmp_path / "ghost.qc"):
            code, out, err = run_cli(
                capsys,
                "run", "--circuit", str(path), "--qubits", count, "--state", "zero:1",
            )
            assert code == 2
            assert out == ""
            assert "--qubits" in err
            assert "line" not in err and "cannot read" not in err


    # one literal past Python's int-from-text limit in each grammar that reads
    # numbers: rational draws, scalar literals (state file and qubit: spec),
    # the circuit's qubit index and header, and the zero:<n> width
    @pytest.mark.parametrize(
        "where",
        ["--randoms", "--r1", "state file", "qubit spec", "qubit index", "qubits header", "zero width"],
    )
    def test_number_past_the_digit_limit_is_a_parse_error(self, capsys, tmp_path, where):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("int-from-text conversion is unlimited in this interpreter")
        big = "9" * (limit + 100)
        circuit = tmp_path / "m.qc"
        circuit.write_text("qubits 1\nM 0\n")
        files = {  # where: (file, its text, the line that holds the number)
            "state file": ("s.qs", f"(1, 0) | 0\n(1/{big}, 1*s2) | 1\n", 2),
            "qubit index": ("x.qc", f"qubits 2\nX {big}\n", 2),
            "qubits header": ("h.qc", f"qubits {big}\nH 0\n", 1),
        }
        if where in files:
            name, text, _ = files[where]
            (tmp_path / name).write_text(text)
        run = ["run", "--circuit", str(circuit), "--randoms", "1/2", "--state"]
        argv = {
            "--randoms": ["run", "--circuit", str(circuit), "--randoms", f"1/{big}", "--state", "zero:1"],
            "--r1": ["teleport", "--alpha", "(1, 0)", "--beta", "(0, 0)", "--r1", f"1/{big}", "--r2", "0"],
            "state file": run + [str(tmp_path / "s.qs")],
            "qubit spec": run + [f"qubit:(1,0),({big}-1*s2,0)"],
            "qubit index": ["run", "--circuit", str(tmp_path / "x.qc"), "--state", "zero:2"],
            "qubits header": ["run", "--circuit", str(tmp_path / "h.qc"), "--state", "zero:1"],
            "zero width": run + [f"zero:{big}"],
        }[where]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"has more than {limit} digits" in err
        assert "set_int_max_str_digits" not in err
        if where in files:
            assert f"line {files[where][2]}: " in err


def last_digit_units(line: str) -> tuple[int, int]:
    """The two decimals of a '(re, im) | bits' line, in units of the last digit."""
    re, im = line.split("|")[0].strip()[1:-1].split(",")
    return tuple(int(x.strip().replace(".", "")) for x in (re, im))


class TestDecimalDeferredScale:
    """--emit decimal on states whose deferred scale_sq is far below 1."""

    def test_many_deferred_measurements(self, capsys, tmp_path):
        # each H, M pair defers and multiplies scale_sq by the branch share
        circuit = tmp_path / "hm.qc"
        circuit.write_text("qubits 2\n" + "H 1\nM 1\n" * 60)
        state = tmp_path / "12.qs"
        state.write_text("(1, 0) | 00\n(2, 0) | 10\n")
        code, out, _ = run_cli(
            capsys,
            "run", "--circuit", str(circuit), "--state", str(state),
            "--randoms", ",".join(["1/4"] * 60), "--emit", "decimal", "--digits", "6",
        )
        assert code == 0
        assert out.splitlines() == [
            "(0.447214, 0.000000) | 00",
            "(0.000000, 0.000000) | 01",
            "(0.894427, 0.000000) | 10",
            "(0.000000, 0.000000) | 11",
        ]

    def test_tiny_coefficients(self, capsys, tmp_path):
        circuit = tmp_path / "i.qc"
        circuit.write_text("qubits 1\nI 0\n")
        state = tmp_path / "tiny.qs"
        state.write_text(f"(1/{10**20}, 0) | 0\n(2/{10**20}, 0) | 1\n")
        code, out, _ = run_cli(
            capsys,
            "run", "--circuit", str(circuit), "--state", str(state),
            "--emit", "decimal", "--digits", "6",
        )
        assert code == 0
        assert out.splitlines() == [
            "(0.447214, 0.000000) | 0",
            "(0.894427, 0.000000) | 1",
        ]

    def test_trace_takes_each_deferred_root_once(self, capsys, tmp_path, monkeypatch):
        # unitary gates keep scale_sq, and M sets a new one: one root per scale
        scales = []
        deferred_root = qstate._deferred_root

        def counted(scale_sq, *args):
            scales.append(scale_sq)
            return deferred_root(scale_sq, *args)

        monkeypatch.setattr(qstate, "_deferred_root", counted)
        circuit = tmp_path / "c.qc"
        circuit.write_text("qubits 2\nH 0\nX 1\nCN 0 1\nM 0\nZ 0\nH 1\n")
        state = tmp_path / "three.qs"
        state.write_text("(1, 0) | 00\n(1, 0) | 01\n(1, 0) | 10\n")
        code, out, _ = run_cli(
            capsys,
            "trace", "--circuit", str(circuit), "--state", str(state),
            "--randoms", "1/5", "--emit", "decimal",
        )
        assert code == 0
        assert out.count("# step") == 6
        assert len(scales) == len(set(scales)) == 2

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        nqubits=st.integers(1, 3),
        factor=st.builds(
            lambda p, q, e: F(p, q) * F(10) ** e,
            st.integers(1, 10**6), st.integers(1, 10**6), st.integers(-40, 40),
        ),
    )
    def test_scaling_the_state_file_keeps_the_decimal_output(self, seed, nqubits, factor):
        # the physical state, every M share and so every amplitude are the
        # same; only the guard's rounding may move the last digit by one
        rng = random.Random(seed)
        state = rand_state(rng, nqubits)
        circuit = parse_circuit(f"H 0\nM {nqubits - 1}\nH {nqubits - 1}", nqubits)

        def render(by):
            text = "".join(
                f"{format_cscalar(c * by)} | {basis_label(i, nqubits)}\n"
                for i, c in enumerate(state.amps)
            )
            final = run_circuit(circuit, parse_state(text), RandomStream([F(1, 3)]))
            return render_state(final, "decimal", 6, sparse=False)

        plain, scaled = render(CScalar(QExt(1))), render(CScalar(QExt(factor)))
        assert [line.split("|")[1] for line in plain] == [line.split("|")[1] for line in scaled]
        for a, b in zip(plain, scaled):
            assert all(abs(x - y) <= 1 for x, y in zip(last_digit_units(a), last_digit_units(b)))


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
    proc = subprocess.run(
        [sys.executable, "-m", "qnet", "run", "--circuit", str(circuit),
         "--state", "zero:40"],
        capture_output=True,
        text=True,
        env=process_env(),
        preexec_fn=cap_memory,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "qubit count must be in 1..16" in proc.stderr


@pytest.mark.parametrize("nqubits, first", [
    # 4096 lines are more than a pipe buffer holds, so the writer is still
    # printing when the reader leaves
    (12, b"(1/64, 0) | 000000000000\n"),
    # a few lines still sit in stdout's buffer when the command returns
    (1, None),
], ids=["mid-output", "buffered"])
def test_closed_stdout_pipe_exits_1_without_a_traceback(tmp_path, nqubits, first):
    circuit = tmp_path / "wall.qc"
    circuit.write_text(f"qubits {nqubits}\n" + "".join(f"H {q}\n" for q in range(nqubits)))
    env = process_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout into a pipe is block-buffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "qnet", "run", "--circuit", str(circuit),
         "--state", f"zero:{nqubits}"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    if first is not None:
        assert proc.stdout.readline() == first
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""
