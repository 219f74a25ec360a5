"""The integer lanes of a state are known to `qstate` and `gates` only.

Every other module builds a state by `QState.from_entries` (or from
coefficients) and reads one by `QState.entries()`, so that the lane store
can change in those two modules alone.  This test reads the source: no
module of the package outside those two reads an attribute `lanes` or
names `from_lanes` or `with_lanes` (a local variable may be called `lanes`).
"""

import ast
from pathlib import Path

import qnet

PACKAGE = Path(qnet.__file__).resolve().parent
LANE_MODULES = {"qstate.py", "gates.py"}
BUILDERS = {"from_lanes", "with_lanes"}


def lane_uses(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in BUILDERS | {"lanes"}:
            found.append(f"{path.name}:{node.lineno}: {node.attr}")
        elif isinstance(node, ast.Name) and node.id in BUILDERS:
            found.append(f"{path.name}:{node.lineno}: {node.id}")
    return found


def test_only_qstate_and_gates_touch_the_lanes():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in LANE_MODULES]
    assert {p.name for p in modules} >= {"cli.py", "teleport.py", "interpreter.py"}
    assert [use for path in modules for use in lane_uses(path)] == []


def test_the_check_sees_a_lane_read(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "def f(s, lanes):\n"
        "    return s.lanes, s.with_lanes(lanes), QState.from_lanes, from_lanes\n"
    )
    uses = sorted(use.split(": ")[1] for use in lane_uses(source))
    assert uses == ["from_lanes", "from_lanes", "lanes", "with_lanes"]
