"""The one budget table: README's copy of it, and every check that reads it."""
import ast
from pathlib import Path

from adicergo.basis import BUDGETS

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "adicergo").glob("*.py"))


def readme_budgets() -> dict:
    """{entry: (limit, unit)} from the rows of README's budget table; a limit
    is its first word, with the thousands commas dropped."""
    lines = iter((ROOT / "README.md").read_text(encoding="utf-8").splitlines())
    for line in lines:
        if line.startswith("| entry | limit | unit |"):
            break
    next(lines)  # the |---| row
    rows = {}
    for line in lines:
        if not line.startswith("|"):
            break
        name, limit, unit = [cell.strip() for cell in line.split("|")[1:4]]
        rows[name.strip("`")] = (int(limit.split()[0].replace(",", "")), unit)
    return rows


def test_readme_table_is_the_budget_table():
    assert readme_budgets() == {name: (b.limit, b.unit) for name, b in BUDGETS.items()}


def calls_and_raises(path: Path):
    """(the _check_budget calls, the (function, line) of every raise of
    BudgetError) in one module."""
    checks, raises = [], []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check_budget":
            checks.append(node)
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", None) == "BudgetError":
                raises.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return checks, raises


def test_every_check_names_an_entry():
    # a size is refused only by _check_budget against a BUDGETS entry, or by
    # complete_exp_sum's double range, a limit of the double type
    raised, named = set(), set()
    for path in SOURCES:
        checks, raises = calls_and_raises(path)
        for call in checks:
            entry = call.args[1] if len(call.args) > 1 else None
            assert isinstance(entry, ast.Constant) and entry.value in BUDGETS, (
                f"{path.name}:{call.lineno} checks no BUDGETS entry")
            named.add(entry.value)
        raised |= {(path.stem, function) for function, _ in raises}
    assert raised == {("basis", "_check_budget"), ("multipliers", "complete_exp_sum")}
    assert named == set(BUDGETS)
