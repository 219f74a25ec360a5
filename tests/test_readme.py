"""The README's examples run as written and print what it shows."""

import re
import shlex
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
