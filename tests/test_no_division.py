"""No true division anywhere in the package.

The package keeps its arithmetic exact: every count, cap and ratio is an
integer or compared by cross-multiplying, and there is no floating point
anywhere (README). A "/" or "/=" would bring a float back, so each module
in src/stablebetti must parse without an ast.Div operator.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stablebetti"


def _divisions(sources: dict[str, str]) -> list[str]:
    """module:line for each true division in the sources."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div
            ):
                found.append(f"{module}:{node.lineno}")
    return sorted(found)


def test_the_check_finds_a_true_division():
    sources = {
        "a": "x = 7 // 2\ny = 7 % 2\nz = divmod(7, 2)\n",
        "b": "def f(a, b):\n    return a / b\n",
        "c": "q = 1.0\nq /= 3\n",
    }
    assert _divisions(sources) == ["b:2", "c:2"]


def test_the_package_has_no_true_division():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert _divisions(sources) == []
