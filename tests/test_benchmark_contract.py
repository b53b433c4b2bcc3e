"""The benchmark's contract with the program, checked in process.

perfbench/ calls the program through its public entry points and holds each
answer to the outcome recorded in golden.json. Here the seed-1 request list
of every workload is built from golden.json's inputs, each request is run
once and judged by the benchmark's own rule (Runner.classify), the fixed
inputs that record_golden.py can still rebuild are rebuilt, and every
function the tracer wraps is looked up. A change that would break the
benchmark fails here first. Nothing under perfbench/ is written: its
modules are imported without bytecode caches, and the program is the one
already imported (workloads.import_program would purge sys.modules).
"""

import importlib
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Traced functions that are no longer in the program; the tracer skips them
# and their per-layer metrics read 0.
KNOWN_DEAD = {"oracle.lcm_multidegrees", "segments.stratum"}


def _import_perfbench():
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        names = ("workloads", "tracer", "run", "record_golden")
        return [importlib.import_module(name) for name in names]
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))


wl, tr, bench, record = _import_perfbench()
GOLDEN = wl.load_golden()


def _program():
    return SimpleNamespace(
        **{name: importlib.import_module(f"{wl.PACKAGE}.{name}") for name in wl.MODULES}
    )


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_one_requests_keep_their_recorded_outcomes(workload):
    program = _program()
    requests, _phases = wl.make_requests(workload, 1, program, GOLDEN["inputs"])
    wl.execute(program, wl.warmup_request(workload))
    runner = bench.Runner(program, requests, GOLDEN["outcomes"], math.inf, bench.Pace())
    for req in requests:
        text = exc = None
        try:
            text = wl.execute(program, req)
        except Exception as caught:  # classified as the benchmark does
            exc = caught
        runner.classify(req, text, exc, tracing=False)
    assert runner.wrong == []
    # the only failures are the budget refusals that golden.json records
    assert set(runner.failures) <= {wl.REFUSED}


def test_record_golden_rebuilds_the_fixed_inputs(monkeypatch):
    # fixture_docs puts tests/ on sys.path; the monkeypatched copy is undone
    monkeypatch.setattr(sys, "path", list(sys.path))
    program = _program()
    assert record.fixture_docs(program) == GOLDEN["inputs"]["fixtures"]
    max_values = {
        str(n): record.coupled_values(program, record.position_spec(program, n))
        for n in wl.MAX_N
    }
    assert max_values == GOLDEN["inputs"]["max_values"]


def test_every_tracer_target_resolves_but_the_known_dead():
    program = _program()
    missing = set()
    for _name, mod, attr, _count in tr.TARGETS:
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(program, mod)
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if getattr(owner, fn_name, None) is None:
            missing.add(f"{mod}.{attr}")
    # equality keeps the list honest: a target that comes back, or leaves
    # the tracer, is struck from it
    assert missing == KNOWN_DEAD
