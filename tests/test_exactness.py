"""Arithmetic stays exact: no module of the package writes a float constant,
names ``float`` or divides with ``/`` (``//``, ``divmod`` and ``Fraction``
stay exact)."""

import ast
from pathlib import Path

import pytest

import woplab

MODULES = sorted(Path(woplab.__file__).parent.glob("*.py"))


def inexact_nodes(tree):
    """(line, what) for each float constant, ``float`` name and ``/``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float constant {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "the name float"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "the / operator"))
    return found


def test_every_module_is_walked():
    assert {"perm.py", "pring.py", "oracle.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_no_float_and_no_true_division(path):
    assert inexact_nodes(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize(
    "source, what",
    [
        ("x = 0.5", "float constant 0.5"),
        ("x = 1e3", "float constant 1000.0"),
        ("x = float(y)", "the name float"),
        ("x = a / b", "the / operator"),
        ("x /= 2", "the / operator"),
    ],
)
def test_the_guard_catches_each_inexact_form(source, what):
    assert inexact_nodes(ast.parse(source)) == [(1, what)]


def test_the_guard_allows_exact_forms():
    assert inexact_nodes(ast.parse("q, r = divmod(a, b); c = a // b; d = Fraction(1, 2)")) == []
