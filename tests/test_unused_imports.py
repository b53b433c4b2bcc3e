"""No module of the package imports a name it never uses.

No linter ships with the project, and deleting code tends to leave its
imports behind, so this reads each module's syntax tree instead.
__init__.py is skipped: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stablebetti"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # "import a.b" binds a
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport json as j\n"
        "from x import y, z\n"
        "def f(a: z) -> None:\n    return y(a)\n"
    )
    assert _unused_imports(source) == ["j", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
