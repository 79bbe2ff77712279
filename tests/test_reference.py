"""The references of the tests stay single and independent: tests/reference.py
imports numpy and the standard library only, and no other test module
defines a function of its name."""
import ast
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
REFERENCE = TESTS / "reference.py"


def tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_reference_imports_no_adicergo():
    roots = set()
    for node in ast.walk(tree(REFERENCE)):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            roots.add("." if node.level else node.module.split(".")[0])
    assert "adicergo" not in roots
    assert roots <= set(sys.stdlib_module_names) | {"numpy"}, roots


def test_each_reference_is_defined_once():
    references = {node.name for node in tree(REFERENCE).body
                  if isinstance(node, ast.FunctionDef)}
    assert references
    for path in sorted(TESTS.glob("*.py")):
        if path == REFERENCE:
            continue
        defined = {node.name for node in ast.walk(tree(path))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        assert not defined & references, f"{path.name} redefines {sorted(defined & references)}"
