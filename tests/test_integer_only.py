"""The package is integer-only: no rationals, no true division, no floats.

Every module of ``toricctl`` is parsed, and the syntax tree must not import
``fractions`` or ``decimal``, use the ``/`` or ``/=`` operator, hold a float
literal or call ``float``.
"""

import ast
from pathlib import Path

import toricctl


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        for module in modules:
            if module.split(".")[0] in ("fractions", "decimal"):
                found.append(f"line {node.lineno}: imports {module}")
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"line {node.lineno}: true division")
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"line {node.lineno}: calls float")
    return found


def test_package_is_integer_only():
    forbidden = "from fractions import Fraction\nimport decimal\nx = 1 / 2\nx /= 3\ny = 0.5\nz = float(1)\n"
    assert len(_violations(ast.parse(forbidden))) == 6
    assert _violations(ast.parse("x = 7 // 2\nx //= 2\ny = divmod(7, 2)\n")) == []
    modules = sorted(Path(toricctl.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    problems = {
        path.name: found
        for path in modules
        if (found := _violations(ast.parse(path.read_text(encoding="utf-8"), str(path))))
    }
    assert problems == {}
