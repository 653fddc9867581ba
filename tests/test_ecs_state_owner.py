"""One owner for resolver ECS state.

Which resolvers send EDNS0 client-subnet, and at what source length,
is set in exactly two places: ``RecursiveResolver.__init__`` (the
constructor's defaults) and ``World.enable_ecs`` (every later change).
This guard parses every module under ``src/`` and ``examples/`` and
fails on any other assignment to ``ecs_enabled`` or ``ecs_source_len``,
so roll-out schedules and resolver behaviours have one place to hook
in rather than a scatter of attribute flips.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ECS_STATE = {"ecs_enabled", "ecs_source_len"}
OWNERS = {
    ("src/repro/dnssrv/recursive.py", "RecursiveResolver.__init__"),
    ("src/repro/simulation/world.py", "World.enable_ecs"),
}


def _targets(node):
    """The attribute names a statement assigns, through tuple targets
    and ``setattr(obj, "name", value)`` calls."""
    if isinstance(node, ast.Assign):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id == "setattr" and len(node.args) >= 2
          and isinstance(node.args[1], ast.Constant)):
        return [node.args[1].value]
    else:
        return []
    names = []
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        elif isinstance(target, ast.Attribute):
            names.append(target.attr)
    return names


def _writers(path: Path):
    """(file, qualified scope) of every ECS-state write in ``path``."""
    relative = path.relative_to(ROOT).as_posix()
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if ECS_STATE.intersection(_targets(node)):
            found.append((relative, ".".join(scope) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=relative), ())
    return found


def test_only_the_setter_and_constructor_write_ecs_state():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "examples").rglob("*.py"))
    assert files
    writers = {writer for path in files for writer in _writers(path)}
    # Both owners are found, so the scan is not vacuous.
    assert writers == OWNERS


def test_guard_sees_every_assignment_form():
    source = (
        "class Elsewhere:\n"
        "    def flip(self, ldns, other):\n"
        "        ldns.ecs_enabled = True\n"
        "        ldns.ecs_source_len += 1\n"
        "        other.ecs_source_len: int = 16\n"
        "        (a, ldns.ecs_enabled) = (1, False)\n"
        "        setattr(ldns, 'ecs_enabled', True)\n"
        "        ldns.ecs_whitelisted = True\n")
    hits = [name for node in ast.walk(ast.parse(source))
            for name in _targets(node) if name in ECS_STATE]
    assert hits == ["ecs_enabled", "ecs_source_len", "ecs_source_len",
                    "ecs_enabled", "ecs_enabled"]
