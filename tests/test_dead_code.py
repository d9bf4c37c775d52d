"""Every function, method and class in the package has a caller outside tests.

The source of `src/kolmoflow` is parsed, not run. A definition counts as
used when a `Name` or `Attribute` node, or an imported name, in the package
or in the benchmark scripts `perfbench/*.py` spells its name. A string
constant in `perfbench/` also counts, because `perfbench/layertrace.py` hooks
functions by name. Tests are not callers: code that only a test reaches is
dead. Dunder methods are called by the language and are exempt.

The definitions that only such a string keeps alive are listed exactly, so
that a new one shows here; they are deleted with the hooks that name them at
the next benchmark change.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "kolmoflow").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _trees(paths):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _references(tree: ast.AST, strings: bool) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _definitions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node


def test_every_definition_has_a_caller_outside_tests():
    package, bench = _trees(PACKAGE), _trees(BENCH)
    used = set().union(*(_references(t, strings=False) for t in package.values()),
                       *(_references(t, strings=True) for t in bench.values()))
    dead = [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
            for path, tree in package.items() for node in _definitions(tree)
            if node.name not in used]
    assert not dead, "defined but never referenced outside tests:\n" + "\n".join(dead)


def test_hook_only_names():
    package, bench = _trees(PACKAGE), _trees(BENCH)
    code = set().union(*(_references(t, strings=False)
                         for t in (*package.values(), *bench.values())))
    strings = set().union(*(_references(t, strings=True) for t in bench.values()))
    hooked = {node.name for tree in package.values() for node in _definitions(tree)
              if node.name not in code and node.name in strings}
    assert hooked == {"mean_projections", "solve_L1", "pseudospectrum_grid"}
