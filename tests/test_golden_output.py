"""Byte-for-byte stdout of fixed CLI invocations, and stderr of failing ones.

Each case runs ``qnet.cli.main`` in process, and again as
``python -m qnet`` in a subprocess, and compares its stdout with
``tests/golden/<case>.out``.  Each error case does the same with its exit
code, an empty stdout and its stderr against ``tests/golden/<case>.err``:
malformed circuit files, state files and draws.  The recorded files are
the output contract: a change that alters any of them changes what users
see.  To record them afresh (only when an output change is intended), run

    PYTHONPATH=src python tests/test_golden_output.py
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from qnet.cli import main

GOLDEN = Path(__file__).with_name("golden")

CIRCUIT_3Q = "qubits 3\nH 0\nCN 0 1\nH 2\nM 0\nCN 1 2\nH 1\nM 2\n"
DEFERRED_3Q = "(1, 0) | 000\n(0, 1) | 011\n(1, 0) | 110\n"
CIRCUIT_4Q = "qubits 4\n" + "".join(
    f"{gate}\n"
    for gate in (
        "H 1", "H 0", "X 0", "H 0", "CN 1 0", "X 3", "H 0", "Z 0",
        "CN 3 0", "M 1", "Z 0", "CN 3 0", "H 2", "CN 1 3", "H 1", "CN 0 2",
        "H 1", "X 1", "H 0", "M 0", "CN 0 2", "Z 3", "CN 3 1", "H 3",
        "H 2", "Z 1", "Z 0", "CN 2 3", "H 2", "M 3", "H 0", "X 3",
        "Z 2", "Z 3", "H 0", "X 2", "H 2", "CN 3 2", "M 2", "H 1",
        "H 3",
    )
)
#: out of basis order, with one basis vector twice
RATIONAL_4Q = (
    "(-2/7, 5/11) | 1011\n"
    "(3/13, 0) | 0000\n"
    "(1/3, -1/9) | 0110\n"
    "(0, 4/5) | 1100\n"
    "(1/6, 0) | 0110\n"
    "(-7/17, 2/3) | 0011\n"
)
#: sqrt(2) parts in every form the grammar has, and |01> given twice with
#: |b| > 1, so that on the approximate backend each term's own rounding
#: (its sqrt(2) tolerance is eps / |b|) differs from rounding their sum
SQRT2_2Q = (
    "# sqrt(2) parts, |01> twice\n"
    "(5/2*s2, 1/3) | 01\n"
    "(1/3+s2, 0) | 10\n"
    "\n"
    "(1/5-2*s2, -3/2*s2) | 01\n"
    "(0, 2-s2) | 11\n"
)

#: placeholder -> (file name, contents) of the input files the cases name
FILES = {
    "circuit3": ("c3.qc", CIRCUIT_3Q),
    "h1": ("h1.qc", "qubits 1\nH 0\n"),
    "deferred3": ("d3.state", DEFERRED_3Q),
    "circuit4": ("c4.qc", CIRCUIT_4Q),
    "rational4": ("r4.state", RATIONAL_4Q),
    "circuit2": ("c2.qc", "qubits 2\nH 0\nCN 0 1\nH 1\nM 0\n"),
    "sqrt2state": ("s2.state", SQRT2_2Q),
    # malformed inputs, for ERROR_CASES
    "unknown_gate": ("unknown-gate.qc", "qubits 2\nH 0\nY 1\n"),
    "arity": ("arity.qc", "qubits 2\nH 0 1\n"),
    "cn_same": ("cn-same.qc", "qubits 2\nH 1\nCN 0 0\n"),
    "bad_index": ("bad-index.qc", "qubits 2\n# note\nX -1\n"),
    "out_of_range": ("out-of-range.qc", "# two\nqubits 2\nH 0\n\nCN 1 2\n"),
    "late_header": ("late-header.qc", "H 0\nqubits 2\n"),
    "bad_header": ("bad-header.qc", "qubits two\nH 0\n"),
    "long_index": ("long-index.qc", "qubits 2\nH " + "1" * 4301 + "\n"),
    "no_bar": ("no-bar.state", "(1, 0) | 0\n(0, 1) 1\n"),
    "bad_literal": ("bad-literal.state", "# one\n(1, 0) | 0\n(1/2x, 0) | 1\n"),
    "zero_denominator": ("zero-denominator.state", "(1/0+1*s2, 0) | 0\n"),
    "bad_bits": ("bad-bits.state", "(1, 0) | 012\n"),
    "width_mismatch": ("width-mismatch.state", "(1, 0) | 0\n(0, 1) | 01\n"),
    "no_terms": ("no-terms.state", "# nothing here\n\n"),
    "too_wide": ("too-wide.state", "(1, 0) | " + "0" * 17 + "\n"),
    "bad_draw_file": ("bad-draw.rand", "# draws\n1/2\n3/x\n"),
}

#: case name -> argv, with ``{placeholder}`` for an input file
CASES = {
    "verify-teleport-exact": ["verify-teleport"],
    "verify-teleport-approx": ["verify-teleport", "--backend", "approx"],
    "teleport-approx-sqrt2": [
        "teleport", "--backend", "approx",
        "--alpha", "(1/2*s2,0)", "--beta", "(0,1/2*s2)",
        "--r1", "1/4", "--r2", "3/4",
    ],
    "teleport-approx-eps30": [
        "teleport", "--backend", "approx", "--eps", "1/1" + "0" * 30,
        "--alpha", "(1/2*s2,0)", "--beta", "(3/10*s2,2/5*s2)",
        "--r1", "3/4", "--r2", "1/4",
    ],
    "run-4q-approx-sparse": [
        "run", "--circuit", "{circuit4}", "--state", "{rational4}",
        "--randoms", "2/5,3/7,5/8,1/3", "--backend", "approx",
        "--sparse-output",
    ],
    "run-decimal-deferred": [
        "run", "--circuit", "{h1}", "--state", "qubit:(1,0),(2,0)",
        "--emit", "decimal", "--digits", "60",
    ],
    "run-2q-sqrt2-approx-decimal": [
        "run", "--circuit", "{circuit2}", "--state", "{sqrt2state}",
        "--randoms", "1/3", "--backend", "approx", "--eps", "1/1000",
        "--emit", "decimal", "--digits", "12",
    ],
    "trace-3q-exact": [
        "trace", "--circuit", "{circuit3}", "--state", "zero:3",
        "--randoms", "1/3,2/3",
    ],
    "trace-3q-deferred": [
        "trace", "--circuit", "{circuit3}", "--state", "{deferred3}",
        "--randoms", "1/5,3/5", "--emit", "decimal", "--digits", "30",
    ],
    "trace-4q-exact-sparse": [
        "trace", "--circuit", "{circuit4}", "--state", "zero:4",
        "--randoms", "2/5,3/7,5/8,1/3", "--sparse-output",
    ],
    "trace-4q-rational-decimal": [
        "trace", "--circuit", "{circuit4}", "--state", "{rational4}",
        "--randoms", "2/5,3/7,5/8,1/3", "--emit", "decimal", "--digits", "9",
    ],
    "trace-3q-approx-decimal": [
        "trace", "--circuit", "{circuit3}", "--state", "zero:3",
        "--randoms", "1/3,2/3", "--backend", "approx", "--eps", "1/1000",
        "--emit", "decimal", "--digits", "12",
    ],
}



def _run(circuit: str, state: str, *more: str) -> list[str]:
    return ["run", "--circuit", circuit, "--state", state, *more]


#: case name -> (exit code, argv) of a failing invocation; its stderr is
#: recorded in ``<case>.err`` and its stdout is empty
ERROR_CASES = {
    "error-circuit-unknown-gate": (2, _run("{unknown_gate}", "zero:2")),
    "error-circuit-arity": (2, _run("{arity}", "zero:2")),
    "error-circuit-cn-same-qubit": (2, _run("{cn_same}", "zero:2")),
    "error-circuit-bad-index": (2, _run("{bad_index}", "zero:2")),
    "error-circuit-index-out-of-range": (2, _run("{out_of_range}", "zero:2")),
    "error-circuit-late-header": (2, _run("{late_header}", "zero:2", "--qubits", "2")),
    "error-circuit-bad-header": (2, _run("{bad_header}", "zero:2")),
    "error-circuit-long-index": (2, _run("{long_index}", "zero:2")),
    "error-state-no-bar": (2, _run("{h1}", "{no_bar}")),
    "error-state-bad-literal": (2, _run("{h1}", "{bad_literal}")),
    "error-state-zero-denominator": (2, _run("{h1}", "{zero_denominator}")),
    "error-state-bad-bitstring": (2, _run("{h1}", "{bad_bits}")),
    "error-state-width-mismatch": (2, _run("{h1}", "{width_mismatch}")),
    "error-state-no-terms": (2, _run("{h1}", "{no_terms}")),
    "error-state-too-wide": (2, _run("{h1}", "{too_wide}")),
    "error-draws-bad-rational": (2, _run("{circuit2}", "zero:2", "--randoms", "1/2,x/3")),
    "error-draws-file-bad-rational": (2, _run("{circuit2}", "zero:2", "--randoms-file", "{bad_draw_file}")),
    "error-draws-outside-unit-interval": (2, _run("{circuit2}", "zero:2", "--randoms", "3/2")),
    "error-draws-too-few": (4, _run("{circuit3}", "zero:3", "--randoms", "1/3")),
}


def case_argv(name: str, tmp: str) -> list[str]:
    """The case's argv, with its input files written under `tmp`."""
    paths = {}
    for key, (filename, text) in FILES.items():
        paths[key] = Path(tmp, filename)
        paths[key].write_text(text)
    argv = CASES[name] if name in CASES else ERROR_CASES[name][1]
    return [arg.format(**paths) for arg in argv]


def run_case(name: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the case, run in process."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = case_argv(name, tmp)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_module(name: str, tmp_path) -> subprocess.CompletedProcess:
    """The case run as ``python -m qnet`` on this checkout's sources."""
    root = GOLDEN.parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(root / "src")
    return subprocess.run(
        [sys.executable, "-m", "qnet", *case_argv(name, tmp_path)],
        cwd=root, env=env, capture_output=True, timeout=120,
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_recorded_bytes(name):
    code, out, _ = run_case(name)
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_module_entry_point_prints_recorded_bytes(name, tmp_path):
    done = run_module(name, tmp_path)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_stderr_matches_recorded_bytes(name):
    code, out, err = run_case(name)
    assert (code, out) == (ERROR_CASES[name][0], "")
    assert err == (GOLDEN / f"{name}.err").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_module_entry_point_writes_recorded_stderr(name, tmp_path):
    done = run_module(name, tmp_path)
    assert (done.returncode, done.stdout) == (ERROR_CASES[name][0], b"")
    assert done.stderr == (GOLDEN / f"{name}.err").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        status, text, _ = run_case(case)
        if status != 0:
            sys.exit(f"{case}: exit {status}")
        (GOLDEN / f"{case}.out").write_text(text, encoding="utf-8")
        print(f"wrote {case}.out ({len(text)} bytes)")
    for case, (expected, _) in sorted(ERROR_CASES.items()):
        status, text, err = run_case(case)
        if (status, text) != (expected, ""):
            sys.exit(f"{case}: exit {status}, {len(text)} bytes on stdout")
        (GOLDEN / f"{case}.err").write_text(err, encoding="utf-8")
        print(f"wrote {case}.err ({len(err)} bytes)")
