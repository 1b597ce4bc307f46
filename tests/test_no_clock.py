"""No payload may depend on how fast the machine is: budgets count nodes,
and the CLI's whole-command time limit is a timer signal, not a clock read."""

import ast
from pathlib import Path

import zeroerr


def test_package_does_not_import_time():
    found = []
    for path in sorted(Path(zeroerr.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "time" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"the package imports time: {found}"
