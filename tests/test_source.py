"""Properties of the package source itself."""

import ast
from pathlib import Path

import pytest

import ca_signals

SRC = Path(__file__).resolve().parents[1] / "src" / "ca_signals"


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
