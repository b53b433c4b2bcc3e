"""The README's library surface names exactly what the package exports,
and its CLI examples run."""

import io
import json
import re
from pathlib import Path

import stablebetti
from stablebetti.cli import run

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


def _cli_examples() -> list[tuple[str, str]]:
    """(command, document) for each JSON document in the README's CLI
    section: the ideal, module and spec documents, and every example that
    echoes a document into a command."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```json\n(.*?)```", section, re.S):
        for line in block.splitlines():
            doc = json.loads(line)
            if "corners" not in doc:
                command = "betti"
            else:
                command = "realize-module" if "m" in doc else "realize-ideal"
            examples.append((command, line))
    echoed = re.findall(r"echo '(.+)' \| stablebetti (\S+)", section)
    return examples + [(command, doc) for doc, command in echoed]


def test_cli_section_documents_are_accepted():
    examples = _cli_examples()
    assert len(examples) >= 5
    failures = []
    for command, doc in examples:
        out, err = io.StringIO(), io.StringIO()
        code = run([command], stdout=out, stderr=err, stdin=io.StringIO(doc))
        if code != 0:
            failures.append((command, doc, err.getvalue()))
    assert failures == []
