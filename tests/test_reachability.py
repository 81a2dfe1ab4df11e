"""src/flatmod holds only code that the package itself runs.

An AST scan finds every module-level function and class in src/flatmod and
fails on one that no src file names outside its own definition: test
oracles and shorthands live in the test files that use them.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "flatmod"

# unreached names that stay, with the reason
KEEP = {
    "simplicial.bott_shulman_total": "patched by benchmarks/tracer.py",
}


def _names(node):
    """Every name node reads: plain names and attribute names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _unreached():
    """module.name of every module-level function or class in src/flatmod
    that no other top-level statement of src/flatmod names."""
    statements = [(path.stem, stmt) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    uses = [(stmt, _names(stmt)) for _, stmt in statements]
    return [f"{module}.{stmt.name}" for module, stmt in statements
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not any(stmt.name in names
                        for other, names in uses if other is not stmt)]


def test_every_definition_is_reached_from_src():
    unreached = [name for name in _unreached() if name not in KEEP]
    assert not unreached, (
        f"defined in src/flatmod but named by no src code: {unreached}; "
        "delete it, or move it into the test file that uses it")


def test_keep_list_holds_only_unreached_definitions():
    # a kept name that src starts to use no longer needs its entry
    assert set(KEEP) <= set(_unreached())
