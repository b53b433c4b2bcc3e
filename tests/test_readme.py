"""The README's library surface names only what the package exports."""

import re
from pathlib import Path

import stablebetti

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_surface_names_are_exported():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library surface", 1)[1].split("\n## ", 1)[0]
    names = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", section))
    assert len(names) > 20
    assert sorted(names - set(stablebetti.__all__)) == []
