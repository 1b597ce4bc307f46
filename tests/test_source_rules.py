"""Rules every module of the package keeps, each checked on its syntax tree.

- No `assert` statement: output checks must survive `python -O`, which
  strips them, so the package raises its own typed errors instead.
- No function takes a budget: budgets live in one scope, `graphs.Budget`,
  so no call site can drop one on the way.
- No import of `time`: no payload may depend on how fast the machine is;
  budgets count nodes, and the CLI's whole-command time limit is a timer
  signal, not a clock read.
- Every import sits at the top of its module, where a reader sees what a
  module depends on.
- No parameter named `assume_*`: a certificate checks its own
  precondition and no caller can vouch for it instead.
- No function takes `**kwargs`: a pipeline's settings are read from its
  signature, not forwarded unseen.  The one exception is the wrapper of
  `graphs.solved_once`, which passes any call through unchanged.
- No `functools.cache`, `lru_cache` or `cached_property`: the one result
  store lives in the `graphs.Budget` scope and ends with it, so no result
  persists from one command to the next, and repeated in-process runs
  cost what separate processes do.  The one exception caches the CLI's
  argument parser, which holds no result.
- No read or write of the environment (`os.environ`, `os.getenv`,
  `os.putenv`): a payload depends only on argv, input files and the seed.
- Every top-level name has a user: each module-level function, class and
  assigned name is loaded, read as an attribute or imported somewhere in the
  package (an `__init__` export counts; dunder names such as `__version__`
  are read from outside).  Dead code is deleted, not kept for later.
- `codec.py` and `typicality.py` read no `.random` attribute: simulated
  draws go through the exact draws of `rng.py`, so a simulated rate depends
  only on the seed and the exact weights, never on float rounding.
"""

import ast
from pathlib import Path

import zeroerr

BUDGET_PARAMS = {"budget", "vertex_budget"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
CACHES = {"cache", "lru_cache", "cached_property"}
ALLOWED_CACHES = {("cli.py", "build_parser")}
ALLOWED_KWARGS = {("graphs.py", "once")}
ENVIRONMENT = {"environ", "getenv", "putenv"}
EXACT_DRAW_MODULES = {"codec.py", "typicality.py"}


def _modules():
    """(file name, syntax tree) of every module of the package."""
    for path in sorted(Path(zeroerr.__file__).parent.rglob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _params(fn):
    a = fn.args
    return [p for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            if p is not None]


def _params_where(keep) -> list:
    return [f"{name}:{fn.lineno} {p.arg}"
            for name, tree in _modules() for fn in ast.walk(tree)
            if isinstance(fn, FUNCTIONS) for p in _params(fn) if keep(p.arg)]


def test_package_has_no_assert_statements():
    found = [f"{name}:{node.lineno}" for name, tree in _modules()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"


def test_no_function_takes_a_budget():
    found = _params_where(lambda arg: arg in BUDGET_PARAMS)
    assert not found, f"budget parameters: {found}"


def test_package_does_not_import_time():
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(module.split(".")[0] == "time" for module in modules):
                found.append(f"{name}:{node.lineno}")
    assert not found, f"the package imports time: {found}"


def test_no_import_inside_a_function():
    found = {(name, fn.name, ast.unparse(node))
             for name, tree in _modules() for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert not found, f"imports inside functions: {sorted(found)}"


def test_no_parameter_assumes_a_precondition():
    found = _params_where(lambda arg: arg.startswith("assume_"))
    assert not found, f"parameters that skip a check: {found}"


def test_no_function_takes_kwargs():
    found = [f"{name}:{fn.lineno} {getattr(fn, 'name', 'lambda')}"
             for name, tree in _modules() for fn in ast.walk(tree)
             if isinstance(fn, FUNCTIONS) and fn.args.kwarg is not None
             and (name, getattr(fn, "name", None)) not in ALLOWED_KWARGS]
    assert not found, f"functions taking **kwargs: {found}"


def _named(node):
    """(node, identifier) for every name, attribute and imported name under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub, sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub, sub.attr
        elif isinstance(sub, ast.alias):
            yield sub, sub.name


def test_no_process_wide_cache():
    found = []
    for name, tree in _modules():
        allowed = {id(sub) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and (name, fn.name) in ALLOWED_CACHES
                   for d in fn.decorator_list for sub, _ in _named(d)}
        found += [f"{name}:{sub.lineno} {ident}" for sub, ident in _named(tree)
                  if ident in CACHES and id(sub) not in allowed]
    assert not found, f"caches outside the Budget scope's store: {found}"


def test_package_does_not_touch_the_environment():
    found = [f"{name}:{sub.lineno} {ident}" for name, tree in _modules()
             for sub, ident in _named(tree) if ident in ENVIRONMENT]
    assert not found, f"environment reads: {found}"


def test_simulations_draw_no_floats():
    found = [f"{name}:{sub.lineno}" for name, tree in _modules() if name in EXACT_DRAW_MODULES
             for sub, ident in _named(tree)
             if isinstance(sub, ast.Attribute) and ident == "random"]
    assert not found, f"float draws in simulation code: {found}"


def _defined(tree):
    """(line, name) of every module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield node.lineno, target.id


def test_every_top_level_name_is_used():
    modules = list(_modules())
    used = {ident for _, tree in modules for sub, ident in _named(tree)
            if not isinstance(sub, ast.Name) or isinstance(sub.ctx, ast.Load)}
    found = [f"{name}:{line} {ident}" for name, tree in modules
             for line, ident in _defined(tree)
             if ident not in used and not ident.startswith("__")]
    assert not found, f"top-level names nothing uses: {found}"
