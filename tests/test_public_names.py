"""Every module-level public name of the package has a reader outside the tests.

A public function, class or constant that only the tests read is a helper
of the tests, not part of the program: its reference version belongs
under tests/. So each one defined at the top of a module in
src/stablebetti, __init__.py aside, must be read by src/ outside its own
definition (by name in its own module, by import into another module, the
package's exports included, or as an attribute), or by perfbench/, which
reaches the program by attribute and names the functions it traces in
strings.
"""

import ast
from collections import Counter
from pathlib import Path

from test_private_names import _reads

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stablebetti"
PERFBENCH = ROOT / "perfbench"


def _public_definitions(tree):
    """(name, node) for each public name the module body binds."""
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
            if not name.startswith("_"):
                yield name, node


def _outside_reads(sources: dict[str, str]) -> Counter:
    """What the outside sources read: each name, attribute and imported
    name, and each dotted part of each string constant."""
    out = Counter()
    for text in sources.values():
        tree = ast.parse(text)
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name):
                out[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                out[sub.attr] += 1
            elif isinstance(sub, ast.ImportFrom):
                out.update(a.name for a in sub.names)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out.update(sub.value.split("."))
    return out


def _test_only(package: dict[str, str], outside: dict[str, str]) -> list[str]:
    """module.name for each public definition of a package module (not
    __init__) that neither the package nor the outside sources read."""
    trees = {module: ast.parse(text) for module, text in package.items()}
    reads = {module: _reads(tree, module) for module, tree in trees.items()}
    everywhere = sum(reads.values(), Counter())
    beyond = _outside_reads(outside)
    orphans = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for name, node in _public_definitions(tree):
            inside = _reads(node, module)
            read = (
                reads[module][name] - inside[name]  # by name in its own module
                + everywhere["." + name] - inside["." + name]  # as an attribute
                + everywhere[f"{module}.{name}"]  # imported by another module
                + beyond[name]
            )
            if not read:
                orphans.append(f"{module}.{name}")
    return sorted(orphans)


def test_the_check_finds_a_name_only_the_tests_read():
    package = {
        "__init__": "from .a import exported\n",
        "a": (
            "LIMIT = 3\nUNUSED: int = 4\n"
            "class Kept:\n    pass\n"
            "class Gone:\n    pass\n"
            "def recursive(n):\n    return recursive(n - 1) if n else LIMIT\n"
            "def exported():\n    return Kept()\n"
            "def traced():\n    pass\n"
            "def benched():\n    pass\n"
        ),
        "b": "from .a import UNUSED as renamed\n" "def orphan():\n    return 1\n",
    }
    outside = {
        "run": 'import program\nprogram.a.benched()\nTARGETS = (("a", "b.traced"),)\n'
    }
    # a test that reads orphan, Gone or recursive does not count
    assert _test_only(package, outside) == [
        "a.Gone",
        "a.recursive",
        "b.orphan",
    ]


def test_every_public_name_of_the_package_is_read_outside_the_tests():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    outside = {p.stem: p.read_text(encoding="utf-8") for p in PERFBENCH.glob("*.py")}
    assert _test_only(package, outside) == []
