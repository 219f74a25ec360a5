"""The README's examples run as written and print what it shows."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from qnet.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def section(heading: str) -> str:
    return TEXT.split(f"\n{heading}\n", 1)[1]


def test_library_example_runs():
    block = re.search(r"```python\n(.*?)```", section("## Library"), re.DOTALL)[1]
    exec(compile(block, str(README), "exec"), {})


def test_circuit_file_example_runs(tmp_path, capsys):
    formats = section("## File formats").split("**State files**", 1)[0]
    circuit = tmp_path / "example.qc"
    circuit.write_text(re.search(r"```\n(.*?)```", formats, re.DOTALL)[1])
    argv = ["run", "--circuit", str(circuit), "--state", "zero:3", "--randoms", "1/2"]
    assert main(argv + ["--sparse-output"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "(1/2*s2, 0) | 000",
        "(1/2*s2, 0) | 011",
    ]


def test_cli_session_prints_what_readme_shows(tmp_path, capsys, monkeypatch):
    block = re.search(r"Example:\n\n```sh\n(.*?)```", section("## CLI"), re.DOTALL)[1]
    monkeypatch.chdir(tmp_path)
    commands = re.split(r"^\$ ", block, flags=re.MULTILINE)[1:]
    assert [c.split()[0] for c in commands] == ["cat", "qnet", "qnet"]
    for command in commands:
        line, shown = command.split("\n", 1)
        argv = shlex.split(line)
        if argv[0] == "cat":
            Path(argv[1]).write_text(shown)
            continue
        assert main(argv[1:]) == 0
        assert capsys.readouterr().out == shown


def test_install_free_command_runs_from_the_checkout():
    block = re.search(r"```sh\n(.*?)```", section("## Install"), re.DOTALL)[1]
    env_assignment, *argv = shlex.split(block.strip())
    assert env_assignment == "PYTHONPATH=src" and argv[:3] == ["python", "-m", "qnet"]
    root = README.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(root / "src")
    done = subprocess.run(
        [sys.executable, *argv[1:]], cwd=root, env=env, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "PASS"
