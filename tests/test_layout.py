"""Layout guard: family behaviour lives in the family classes.

Outside ``distributions.py``, code picks a family's or a family pair's rule
from a table keyed by ``type(spec)`` (as ``ordering._CLOSED_FORMS`` does),
not by branching on ``isinstance(x, Family)`` or ``type(x) is Family``.
Two branches are allowed, each named here.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "stochord"
FAMILIES = {"Binomial", "NegBinomial", "Hypergeometric", "Poisson", "PoissonBinomial"}
ALLOWED = {
    # the jump measure exists only for the two infinitely divisible families
    ("couplings.py", "levy_characteristics"),
    # the binomial likelihood-ratio invariant cross-checks the scan
    ("likelihood.py", "is_lr_ordered"),
}


def _names(node) -> set:
    """Every name and attribute name inside node: `dist.Poisson` gives both."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}


def _calls(node, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def _branches_on_family(node) -> bool:
    if _calls(node, "isinstance"):
        return len(node.args) == 2 and bool(_names(node.args[1]) & FAMILIES)
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        type_call = any(_calls(n, "type") for o in operands for n in ast.walk(o))
        return type_call and any(_names(o) & FAMILIES for o in operands)
    return False


def family_branches(path: pathlib.Path) -> list:
    """(file, enclosing function, line) of each family branch in one module."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if _branches_on_family(node):
            found.append((path.name, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_no_family_branches_outside_distributions():
    branches = [
        branch
        for path in sorted(SRC.glob("*.py"))
        if path.name != "distributions.py"
        for branch in family_branches(path)
        if branch[:2] not in ALLOWED
    ]
    assert branches == []


def test_guard_sees_both_kinds_of_branch(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def f(P, Q):\n"
        "    if isinstance(P, (Binomial, dist.Poisson)):\n"
        "        return 1\n"
        "    return type(Q) is NegBinomial\n"
        "def g(P):\n"
        "    return _RULES.get((type(P), type(P))), isinstance(P, float)\n"
    )
    assert family_branches(module) == [("sample.py", "f", 2), ("sample.py", "f", 4)]
