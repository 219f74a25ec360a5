"""Stdout is written in one place: `cli.main`.

Each command returns its exit code and its output lines, and `main`
prints them in one piece after the whole command, so that a command that
fails prints nothing on stdout and a closed pipe is handled once.  This test
reads the source: in the package, a `print` without `file=sys.stderr`, or a
`sys.stdout.write`, appears in `cli.main` alone.
"""

import ast
from pathlib import Path

import qnet

PACKAGE = Path(qnet.__file__).resolve().parent


def _is_stderr(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "stderr"
        and isinstance(node.value, ast.Name)
        and node.value.id == "sys"
    )


def _writes_stdout(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "print":
        return not any(k.arg == "file" and _is_stderr(k.value) for k in call.keywords)
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "write"
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "stdout"
    )


def stdout_writes(path: Path) -> list[str]:
    """`module.function:line` of each stdout write in one source file."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            if isinstance(child, ast.Call) and _writes_stdout(child):
                found.append(f"{where}:{child.lineno}")
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
    return found


def test_only_main_writes_stdout():
    writes = [w for path in sorted(PACKAGE.glob("*.py")) for w in stdout_writes(path)]
    assert [w.split(":")[0] for w in writes] == ["cli.main"]


def test_the_check_sees_a_stdout_write(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "import sys\n"
        "def f(lines):\n"
        "    print(lines, file=sys.stderr)\n"
        "    print(lines)\n"
        "    print(lines, file=sys.stdout)\n"
        "    sys.stdout.write(lines)\n"
        "class C:\n"
        "    def g(self):\n"
        "        print()\n"
    )
    assert stdout_writes(source) == ["m.f:4", "m.f:5", "m.f:6", "m.C.g:9"]
