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
    EXACT,
    ApproxBackend,
    CScalar,
    NotRepresentableError,
    ParseError,
    QExt,
    QState,
    RandomStream,
    format_state,
    make_qubit,
    normalize,
    parse_circuit,
    parse_qext,
    parse_rational,
    parse_state,
    run_circuit,
    run_circuit_traced,
    tensor_product,
    to_backend,
    zero_qstate,
)
from qnet import qstate
from qnet.cli import MAX_DIGITS, RenderCache, build_parser, main, render_state
from qnet.gates import gate_CN, gate_H
from qnet.qstate import basis_label, physical_amplitudes
from qnet.scalar import format_cscalar, format_scaled

from support import SQRT2_HP, ops_to_circuit, rand_circuit_ops, rand_draws, rand_state

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

    def test_trace_that_fails_on_a_later_step_prints_nothing(self, capsys, tmp_path):
        # the initial state renders; M 1 leaves a norm of sqrt(5)/3, which
        # defers the scale, so step 1 has no exact rendering
        circuit = tmp_path / "mh.qc"
        circuit.write_text("qubits 2\nM 1\nH 0\n")
        state = tmp_path / "thirds.qs"
        state.write_text("(2/3, 0) | 00\n(2/3, 0) | 01\n(1/3, 0) | 10\n")
        code, out, err = run_cli(
            capsys,
            "trace", "--circuit", str(circuit), "--state", str(state), "--randoms", "1/5",
        )
        assert code == 3
        assert out == ""
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
        assert err.endswith("\nqnet: hint: try --emit decimal\n")  # approx is set already
        code, out, _ = run_cli(capsys, *argv, "--emit", "decimal", "--digits", "10")
        assert code == 0
        assert out.splitlines()[0] == "(0.7071067812, 0.0000000000) | 00"

    def test_exit_3_hint_on_the_exact_backend_names_both_flags(self, capsys, tmp_path):
        circuit = tmp_path / "id.qc"
        circuit.write_text("qubits 2\nI 0\n")
        state = tmp_path / "three.qs"
        state.write_text("(1, 0) | 00\n(1, 0) | 01\n(1, 0) | 10\n")
        code, out, err = run_cli(capsys, "run", "--circuit", str(circuit), "--state", str(state))
        assert (code, out) == (3, "")
        assert err == (
            "qnet: error: amplitudes have a deferred scale and no exact rendering\n"
            "qnet: hint: try --backend approx or --emit decimal\n"
        )

    def test_exit_3_hint_on_the_approx_backend_names_emit_only(self, capsys, tmp_path):
        circuit = tmp_path / "h.qc"
        circuit.write_text("qubits 2\nH 0\nH 1\nCN 0 1\nH 0\n")
        code, out, err = run_cli(
            capsys,
            "run", "--circuit", str(circuit), "--state", "zero:2",
            "--backend", "approx", "--eps", "1/1" + "0" * 4200,
        )
        assert (code, out) == (3, "")
        assert err.startswith("qnet: error: an exact amplitude has more than")
        assert err.endswith("\nqnet: hint: try --emit decimal\n")
        assert err.count("qnet: hint:") == 1

    def test_teleport_exit_3_prints_no_hint(self, capsys):
        # teleport prints its final state exactly and has no --emit, and its
        # backend is approx already: on every branch an eps this small exits
        # 3 with nothing on stdout and no hint, and its --eps help says so
        for r1, r2 in (("1/4", "3/4"), ("3/4", "1/4")):
            code, out, err = run_cli(
                capsys,
                "teleport", "--alpha", "(1/2*s2,0)", "--beta", "(1/2*s2,0)",
                "--r1", r1, "--r2", r2, "--backend", "approx", "--eps", "1/1" + "0" * 4000,
            )
            assert (code, out) == (3, "")
            assert err == (
                f"qnet: error: an exact amplitude has more than {sys.get_int_max_str_digits()}"
                " digits, Python's limit for int-to-str conversion\n"
            )
        with pytest.raises(SystemExit):
            main(["teleport", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"amplitude more than {MAX_DIGITS} digits exits 3" in help_text

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


#: Unicode decimal digits that are not ASCII: Arabic-Indic one, two, three,
#: seven and eight, and fullwidth zero
AR1, AR2, AR3, AR7, AR8, FW0 = "\u0661", "\u0662", "\u0663", "\u0667", "\u0668", "\uff10"


class TestAsciiDigitsOnly:
    """Every reader takes the ASCII digits 0-9 only: any other Unicode
    decimal digit is bad input, exit 2, with the message that a bad index
    or literal gets."""

    @pytest.mark.parametrize(
        "circuit, state, extra, message",
        [
            (f"qubits {AR3}\nH 0\n", "zero:3", (), "line 1: header must be 'qubits <count>'"),
            (f"qubits 3\nH {AR2}\n", "zero:3", (), f"line 2: bad qubit index in 'H {AR2}'"),
            (f"H {FW0}\n", "zero:1", ("--qubits", "1"), f"line 1: bad qubit index in 'H {FW0}'"),
            ("qubits 3\nH 0\n", f"zero:{AR3}", (), f"bad initial state 'zero:{AR3}'"),
            ("qubits 1\nH 0\n", f"({AR1}/{AR2}, 0) | 0\n", (), f"line 1: bad rational literal '{AR1}/{AR2}'"),
            ("qubits 1\nH 0\n", f"(0, {AR1}*s2) | 0\n", (), f"line 1: bad scalar literal '{AR1}*s2'"),
            ("qubits 1\nH 0\n", f"qubit:(1, 0),(0, 1/{AR2})", (), f"bad rational literal '1/{AR2}'"),
            ("qubits 1\nM 0\n", "zero:1", ("--randoms", f"{AR7}/{AR8}"), f"bad rational literal '{AR7}/{AR8}'"),
            ("qubits 1\nM 0\n", "zero:1", ("--randoms-file", "draws"), f"bad rational literal '{AR7}/{AR8}'"),
            ("qubits 1\nH 0\n", "zero:1", ("--backend", "approx", "--eps", f"1/1{AR7}"), f"bad rational literal '1/1{AR7}'"),
        ],
    )
    def test_run_rejects_other_digits(self, capsys, tmp_path, circuit, state, extra, message):
        (tmp_path / "c.qc").write_text(circuit, encoding="utf-8")
        (tmp_path / "draws").write_text(f"{AR7}/{AR8}\n", encoding="utf-8")
        if "|" in state:
            (tmp_path / "s.state").write_text(state, encoding="utf-8")
            state = str(tmp_path / "s.state")
        argv = ["run", "--circuit", str(tmp_path / "c.qc"), "--state", state, *extra]
        argv = [str(tmp_path / a) if a == "draws" else a for a in argv]
        assert run_cli(capsys, *argv) == (2, "", f"qnet: error: {message}\n")

    def test_teleport_rejects_other_digits(self, capsys):
        code, out, err = run_cli(
            capsys, "teleport", "--alpha", "(1, 0)", "--beta", "(0, 0)", "--r1", f"{AR1}/{AR2}", "--r2", "0",
        )
        assert (code, out, err) == (2, "", f"qnet: error: bad rational literal '{AR1}/{AR2}'\n")

    def test_library_readers_reject_other_digits(self):
        for read, text in (
            (lambda t: parse_circuit(t, 3), f"H {AR1}"),
            (lambda t: parse_circuit(t), f"qubits {AR3}\nH 0"),
            (parse_state, f"({AR1}, 0) | 0"),
            (parse_qext, f"{AR1}+s2"),
            (parse_rational, f"-{AR7}"),
        ):
            with pytest.raises(ParseError):
                read(text)


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
            return render_state(final, RenderCache("decimal", 6))

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


class TestRenderCache:
    """One RenderCache per command, bound to its emit, digits and sparse
    settings: each distinct lane entry is formatted once per (unit,
    scale_sq), and the texts equal a fresh render of each state."""

    @staticmethod
    def fresh(state, emit, digits, sparse):
        """The lines of one state rendered alone, by the library rules."""
        if emit == "exact":
            return format_state(state, sparse)
        entries = state.entries()
        amplitudes = physical_amplitudes(state, entries, digits)
        return [
            f"({format_scaled(re, digits)}, {format_scaled(im, digits)})"
            f" | {basis_label(i, state.nqubits)}"
            for i, (entry, (re, im)) in enumerate(zip(entries, amplitudes))
            if any(entry) or not sparse
        ]

    @pytest.mark.parametrize("backend", [EXACT, ApproxBackend(F(1, 10**6))], ids=["exact", "approx"])
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        nqubits=st.integers(1, 4),
        ngates=st.integers(0, 16),
        emit=st.sampled_from(["exact", "decimal"]),
        digits=st.integers(1, 12),
        sparse=st.booleans(),
        from_zero=st.booleans(),
    )
    def test_cached_render_equals_a_fresh_render(
        self, backend, seed, nqubits, ngates, emit, digits, sparse, from_zero
    ):
        # a random state mostly defers its scale on the exact backend; a
        # run from zero:n never does, so exact output is reached both ways
        rng = random.Random(seed)
        start = zero_qstate(nqubits) if from_zero else rand_state(rng, nqubits)
        initial = QState(nqubits, [to_backend(c, backend) for c in start.amps], backend.one, backend)
        ops = rand_circuit_ops(rng, nqubits, ngates)
        draws = rand_draws(rng, sum(op[0] == "M" for op in ops))
        _, events = run_circuit_traced(ops_to_circuit(ops, nqubits), initial, RandomStream(draws))
        cache = RenderCache(emit, digits, sparse)
        for state in [normalize(initial)] + [event.state for event in events]:
            try:
                want = self.fresh(state, emit, digits, sparse)
            except NotRepresentableError:
                with pytest.raises(NotRepresentableError):
                    render_state(state, cache)
                continue
            assert render_state(state, cache) == want

    def test_each_key_part_gets_its_own_text(self):
        # the same entries under two units and two scale_sqs, in one
        # context per (emit, digits)
        entries = {0: (1, 0, 0, 0), 1: (0, 1, 0, 0)}  # 1 at |0>, sqrt(2) at |1>

        def state(unit, scale_sq=QExt(1)):
            return QState.from_entries(1, entries, unit, scale_sq, EXACT)

        contexts = {}
        renders = [
            ("exact", 6, state(QExt(1))),
            ("exact", 6, state(QExt(F(1, 2)))),
            ("decimal", 6, state(QExt(1), QExt(3))),
            ("decimal", 6, state(QExt(1), QExt(4))),
            ("decimal", 3, state(QExt(1), QExt(4))),
            ("exact", 6, state(QExt(1))),
        ]
        seen = []
        for emit, digits, each in renders:
            cache = contexts.setdefault((emit, digits), RenderCache(emit, digits))
            lines = render_state(each, cache)
            assert lines == self.fresh(each, emit, digits, False)
            seen.append(lines)
        assert seen[0] == ["(1, 0) | 0", "(1*s2, 0) | 1"]
        assert seen[1] == ["(1/2, 0) | 0", "(1/2*s2, 0) | 1"]
        assert seen[3] == ["(0.500000, 0.000000) | 0", "(0.707107, 0.000000) | 1"]
        assert seen[4] == ["(0.500, 0.000) | 0", "(0.707, 0.000) | 1"]
        assert len({tuple(lines) for lines in seen}) == 5  # the last repeats the first

    def test_trace_formats_each_distinct_entry_once(self, capsys, tmp_path, monkeypatch):
        # X, Z, CN and I keep unit and scale_sq, so every step shares one key
        formatted = []

        def counted(c):
            formatted.append(c)
            return format_cscalar(c)

        monkeypatch.setattr(qstate, "format_cscalar", counted)
        circuit = tmp_path / "c.qc"
        circuit.write_text("qubits 3\nX 0\nZ 1\nCN 0 2\nI 1\nZ 0\nX 2\nCN 2 1\n")
        state = tmp_path / "four.qs"
        state.write_text("(1, 0) | 000\n(0, 1) | 011\n(-1, 0) | 110\n(0, -1) | 101\n")
        code, out, _ = run_cli(
            capsys, "trace", "--circuit", str(circuit), "--state", str(state)
        )
        assert code == 0
        assert out.count("# step") == 7
        printed = {line.split(" | ")[0] for line in out.splitlines() if " | " in line}
        assert len(formatted) == len(printed) == len(set(map(format_cscalar, formatted)))
        assert set(map(format_cscalar, formatted)) == printed

    @pytest.mark.parametrize("emit", ["exact", "decimal"])
    def test_render_builds_no_state(self, monkeypatch, emit):
        # the entries a cache lacks are formatted as they are: no state is
        # built for them, so no lane norm is summed
        ops = [("H", 0), ("CN", 0, 1), ("X", 1), ("H", 1), ("M", 0), ("Z", 1)]
        initial = zero_qstate(2)
        _, events = run_circuit_traced(ops_to_circuit(ops, 2), initial, RandomStream([F(1, 3)]))
        calls = []
        real = qstate.lane_norm_sq
        monkeypatch.setattr(qstate, "lane_norm_sq", lambda *lanes: calls.append(1) or real(*lanes))
        cache = RenderCache(emit)
        for state in [initial] + [event.state for event in events]:
            assert render_state(state, cache)
        assert calls == []


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
