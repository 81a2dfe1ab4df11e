"""src/flatmod holds only code that the package itself runs.

An AST scan finds every module-level function and class in src/flatmod,
and every method of such a class apart from dunders, and fails on one that
no src file names outside its own definition: test oracles and shorthands
live in the test files that use them.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "flatmod"

# unreached names that stay, with the reason
KEEP = {
    "simplicial.bott_shulman_total": "patched by benchmarks/tracer.py",
}


def _names(node):
    """How often node reads each name: plain names and attribute names."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def _definitions(module, tree):
    """(label, node) of each module-level function and class of a module
    and of each non-dunder method of such a class."""
    for stmt in tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield f"{module}.{stmt.name}", stmt
        if isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{module}.{stmt.name}.{sub.name}", sub


def _unreached():
    """The label of every definition in src/flatmod whose name src/flatmod
    reads nowhere outside the definition itself."""
    trees = [(path.stem, ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))]
    uses = sum((_names(tree) for _, tree in trees), Counter())
    return [label for module, tree in trees
            for label, node in _definitions(module, tree)
            if uses[node.name] == _names(node)[node.name]]


def test_every_definition_is_reached_from_src():
    unreached = [name for name in _unreached() if name not in KEEP]
    assert not unreached, (
        f"defined in src/flatmod but named by no src code: {unreached}; "
        "delete it, or move it into the test file that uses it")


def test_keep_list_holds_only_unreached_definitions():
    # a kept name that src starts to use no longer needs its entry
    assert set(KEEP) <= set(_unreached())
