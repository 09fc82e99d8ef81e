"""Which functions of the package still call themselves, and that it
holds no `assert`.

Every search that can go as deep as the input is large runs on an
explicit stack.  These tests read the source and pin the functions that
still recurse, so a new one shows up here first.  Checks that `python
-O` would strip have no place in the package: an invariant is argued in
its docstring, and a fault detector raises.
"""

import ast
from pathlib import Path

import harmless

# mmo_feasible_bruteforce's branch recurses once per edge, and
# EDGE_LIMIT caps that at 20.
RECURSIVE = {
    "oracle.mmo_feasible_bruteforce.branch",
}


def self_calling(tree: ast.Module, module: str) -> set[str]:
    """Qualified names of the functions in `tree` whose body calls their
    own name, nested definitions included."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and any(
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == child.name
                    for call in ast.walk(child)
                ):
                    found.add(name)
                visit(child, name)
            else:
                visit(child, prefix)

    visit(tree, module)
    return found


def test_only_known_functions_recurse():
    found = set()
    for path in sorted(Path(harmless.__file__).parent.glob("*.py")):
        found |= self_calling(ast.parse(path.read_text()), path.stem)
    assert found == RECURSIVE


def test_no_assert_statements():
    for path in sorted(Path(harmless.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name
