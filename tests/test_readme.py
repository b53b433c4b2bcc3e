"""The README's library surface names exactly what the package exports."""

import re
from pathlib import Path

import stablebetti

README = Path(__file__).resolve().parent.parent / "README.md"


def _surface_names() -> set[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library surface", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", section))


def test_library_surface_names_are_exported():
    names = _surface_names()
    assert len(names) > 20
    assert sorted(names - set(stablebetti.__all__)) == []


def test_every_export_is_in_the_library_surface():
    assert sorted(set(stablebetti.__all__) - _surface_names()) == []
