"""Every module-level private name of the package is read somewhere in it.

Deleting code tends to leave the private helpers it called behind, and a
helper that only the tests read is not part of the program. So each
private function, class or constant defined at the top of a module in
src/stablebetti must be referenced in src/ outside its own definition:
by name in its own module, by import from another, or as an attribute.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stablebetti"


def _private_definitions(tree):
    """(name, node) for each private name the module body binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _reads(node, module: str) -> Counter:
    """What node reads: each loaded name, each attribute as ".attr", and
    each name a relative import takes from another module as "module.name"."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out["." + sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom) and sub.level and sub.module != module:
            out.update(f"{sub.module}.{a.name}" for a in sub.names)
    return out


def _orphans(sources: dict[str, str]) -> list[str]:
    """module.name for each private definition nothing else reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = {module: _reads(tree, module) for module, tree in trees.items()}
    everywhere = sum(reads.values(), Counter())
    orphans = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            inside = _reads(node, module)
            read = (
                reads[module][name] - inside[name]  # by name in its own module
                + everywhere["." + name] - inside["." + name]  # as an attribute
                + everywhere[f"{module}.{name}"]  # imported by another module
            )
            if not read:
                orphans.append(f"{module}.{name}")
    return sorted(orphans)


def test_the_check_finds_an_orphaned_private_name():
    sources = {
        "a": (
            "import b\n"
            "_LIMIT = 3\n_UNUSED: int = 4\n"
            "class _Kept:\n    pass\n"
            "class _Gone:\n    pass\n"
            "def _recursive(n):\n    return _recursive(n - 1) if n else _LIMIT\n"
            "def _helper():\n    return _Kept()\n"
            "def public():\n    return _helper() + b._shared()\n"
        ),
        "b": "def _shared():\n    return 1\ndef _imported():\n    return 2\n",
        "c": "from .b import _imported\n_imported()\n",
    }
    assert _orphans(sources) == ["a._Gone", "a._UNUSED", "a._recursive"]


def test_every_private_name_of_the_package_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert _orphans(sources) == []
