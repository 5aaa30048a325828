"""No floats outside the SVG formatter: every certificate is exact.

Scans the syntax tree of each `liftfix` module except `svg.py` for a float
literal, a reference to `float`, or an int literal divided by an int literal
(true division of two ints is a float).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "liftfix"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "svg.py")


def _is_int(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def float_sources(tree) -> list:
    """(line, description) of every construct that makes a float."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "reference to float"))
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
              and _is_int(node.left) and _is_int(node.right)):
            found.append((node.lineno, "int literal / int literal"))
    return found


def test_scan_sees_every_float_source():
    tree = ast.parse("x = 0.5\ny = float(x)\nz = 1 / 2\nw = Fraction(1, 2) / 2\n")
    assert sorted(line for line, _ in float_sources(tree)) == [1, 2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_makes_no_float(path):
    assert float_sources(ast.parse(path.read_text(encoding="utf-8"))) == []
