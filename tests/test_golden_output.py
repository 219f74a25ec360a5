"""Byte-for-byte stdout of fixed CLI invocations.

Each case runs ``qnet.cli.main`` in process, and again as
``python -m qnet`` in a subprocess, and compares its stdout with
``tests/golden/<case>.out``.  The recorded files are the output contract:
a change that alters any of them changes what users see.  To record them
afresh (only when an output change is intended), run

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


def case_argv(name: str, tmp: str) -> list[str]:
    """The case's argv, with its input files written under `tmp`."""
    paths = {}
    for key, (filename, text) in FILES.items():
        paths[key] = Path(tmp, filename)
        paths[key].write_text(text)
    return [arg.format(**paths) for arg in CASES[name]]


def run_case(name: str) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        argv = case_argv(name, tmp)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_recorded_bytes(name):
    code, out = run_case(name)
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_module_entry_point_prints_recorded_bytes(name, tmp_path):
    root = GOLDEN.parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(root / "src")
    done = subprocess.run(
        [sys.executable, "-m", "qnet", *case_argv(name, tmp_path)],
        cwd=root, env=env, capture_output=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        status, text = run_case(case)
        if status != 0:
            sys.exit(f"{case}: exit {status}")
        (GOLDEN / f"{case}.out").write_text(text, encoding="utf-8")
        print(f"wrote {case}.out ({len(text)} bytes)")
