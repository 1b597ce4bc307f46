"""Every import of the package sits at the top of its module, where a reader
sees what a module depends on.  The one exception breaks a real cycle:
`bounds` imports `typicality`, so `typicality.eta_bounds` imports `bounds`
when it runs."""

import ast
from pathlib import Path

import zeroerr

ALLOWED = {("typicality.py", "eta_bounds", "from .bounds import hbar_bounds, scale_interval")}


def test_no_import_inside_a_function():
    found = set()
    for path in sorted(Path(zeroerr.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {(path.name, fn.name, ast.unparse(node))
                          for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert not found - ALLOWED, f"imports inside functions: {sorted(found - ALLOWED)}"
