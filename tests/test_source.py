"""Properties of the package source itself."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import ca_signals

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ca_signals"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert, so every check raises a typed error instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}"


def test_every_export_resolves():
    # a name left in __all__ after its object is gone breaks `import *`
    missing = [name for name in ca_signals.__all__
               if not hasattr(ca_signals, name)]
    assert not missing, f"__all__ names missing objects: {missing}"


def test_every_definition_is_used():
    # a function, class or method whose name occurs in src/, tests/ and
    # scripts/ only where it is defined is dead weight
    defined = Counter()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined.update(
            node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__")))
    words = Counter(re.findall(r"\w+", "\n".join(
        path.read_text(encoding="utf-8")
        for top in ("src", "tests", "scripts")
        for path in sorted((ROOT / top).rglob("*.py")))))
    dead = sorted(name for name, n in defined.items() if words[name] <= n)
    assert not dead, f"defined but never used: {dead}"


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def test_every_keyword_only_parameter_is_passed():
    # a keyword-only parameter that no call in src/, tests/, scripts/ or
    # perfbench/ passes by name is an option nobody sets; a class's
    # __init__ is called by the class name
    params = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name != "__init__":
                params.update((node.name, a.arg)
                              for a in node.args.kwonlyargs)
            elif isinstance(node, ast.ClassDef):
                params.update((node.name, a.arg) for fn in node.body
                              if isinstance(fn, ast.FunctionDef)
                              and fn.name == "__init__"
                              for a in fn.args.kwonlyargs)
    passed = set()
    for top in ("src", "tests", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
            passed.update((_callee(node), k.arg) for node in ast.walk(tree)
                          if isinstance(node, ast.Call)
                          for k in node.keywords)
    unset = sorted(params - passed)
    assert not unset, f"keyword-only parameters never passed: {unset}"
