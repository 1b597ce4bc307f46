"""Budgets live in one scope, `graphs.Budget`: no function of the package
takes a budget as a parameter, so no call site can drop one on the way."""

import ast
from pathlib import Path

import zeroerr

FORBIDDEN = {"budget", "vertex_budget"}


def test_no_function_takes_a_budget():
    found = []
    for path in sorted(Path(zeroerr.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                found += [f"{path.name}:{node.lineno} {p.arg}"
                          for p in params if p is not None and p.arg in FORBIDDEN]
    assert not found, f"budget parameters: {found}"
