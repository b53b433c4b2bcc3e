"""The four workloads: how each builds its request list, runs a request and
checks the answer.

A request is one document handed to one public entry point. The CLI
workloads go through ``cli.run`` in process, exactly as a caller of the
command line would; ``realize-module`` calls ``realize_module`` directly,
because the CLI has no node-budget flag. Inputs that do not depend on the
seed (the four test fixtures, the coupled caps of the ``-max`` family and
the sampled module specs) were recorded once by ``record_golden.py`` and
live in ``golden.json`` beside the expected output digests, so the program
never helps make its own inputs.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PACKAGE = "stablebetti"
MODULES = ("cli", "ideals", "betti", "oracle", "segments", "realize_ideal", "realize_module", "errors")
GOLDEN_PATH = HERE / "golden.json"
REFUSED = "refused"

WORKLOADS = ("oracle-census", "realize-ideal-unit", "realize-ideal-max", "realize-module")

# Census ideals per request list: one drawn from each of this many strata of
# similar cost, so that two seeds ask for nearly the same amount of work.
CENSUS_SAMPLE = 200
CENSUS_N = range(1, 5)
CENSUS_MAX_DEGREE = 4

# Family sizes are cut so that every request runs five times or more in a
# 25 s run: even paced, one run of a request varies by up to a tenth, and
# only the median of several is steady.
UNIT_N = range(11, 16)
MAX_N = range(10, 13)

# realize-module: component count, search-node budget and specs per list,
# which is sized to keep one pass near 3 s, so that every spec runs five
# times or more in a 25 s run. n stays at 8: on a 2-core x86 box a spec took
# up to 2.3 s at n = 9, up to 23 s at n = 10 and up to 106 s at n = 11.
MODULE_M = 3
MODULE_NODE_BUDGET = 2000
MODULE_N = (8,)
MODULE_SPECS = 10
MODULE_SAMPLE_SEED = 20260814


class Request(NamedTuple):
    entry: str  # "oracle-betti", "realize-ideal" or "realize-module"
    doc: str

    @property
    def key(self) -> str:
        text = self.entry + "\n" + self.doc
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class ExitCode(Exception):
    """The CLI returned a non-zero exit code."""

    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit {code}: {stderr.strip()}")
        self.code = code


class SourceMissing(Exception):
    """The checkout has no program source to benchmark."""


def import_program() -> SimpleNamespace:
    """Import the program afresh from ``src/``, dropping any earlier import."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SourceMissing(f"no {PACKAGE} package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    program = SimpleNamespace(
        **{name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    )
    if not Path(program.cli.__file__).resolve().is_relative_to(SRC):
        raise SourceMissing(f"{PACKAGE} was imported from outside {SRC}")
    return program


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def family(n: int) -> list[tuple[int, int]]:
    """Corner positions (n-1-2i, 2+3i) for i = 0, 1, ... while k >= 2."""
    out = []
    i = 0
    while n - 1 - 2 * i >= 2:
        out.append((n - 1 - 2 * i, 2 + 3 * i))
        i += 1
    return out


def spec_doc(n: int, values, m: int | None = None) -> str:
    obj = {
        "n": n,
        "corners": [
            {"k": k, "l": ell, "a": a} for (k, ell), a in zip(family(n), values)
        ],
    }
    if m is not None:
        obj["m"] = m
    return json.dumps(obj, sort_keys=True)


def enumerate_census(program) -> list:
    enumerate_ss = program.oracle.enumerate_strongly_stable
    return [
        ideal
        for n in CENSUS_N
        for ideal in enumerate_ss(n, CENSUS_MAX_DEGREE)
    ]


def census_sample(census: list, rng: random.Random) -> list:
    """One ideal per stratum, strata cut from the census sorted by size."""
    ranked = sorted(
        range(len(census)),
        key=lambda t: (census[t].n, len(census[t].gens), sum(map(sum, census[t].gens)), t),
    )
    size = len(ranked)
    return [
        census[ranked[rng.randrange(s * size // CENSUS_SAMPLE, (s + 1) * size // CENSUS_SAMPLE)]]
        for s in range(CENSUS_SAMPLE)
    ]


def make_requests(name: str, seed: int, program, inputs: dict) -> tuple[list[Request], dict]:
    """The request list of one workload and the (start, end) of each timed
    set-up phase."""
    rng = random.Random(f"{name}:{seed}")
    phases = {}
    if name == "oracle-census":
        t0 = time.perf_counter()
        census = enumerate_census(program)
        phases["oracle.census_enum_s"] = (t0, time.perf_counter())
        docs = [ideal.to_json() for ideal in census_sample(census, rng)]
        docs += inputs["fixtures"]
        entry = "oracle-betti"
    elif name == "realize-ideal-unit":
        docs = [spec_doc(n, [1] * len(family(n))) for n in UNIT_N]
        entry = "realize-ideal"
    elif name == "realize-ideal-max":
        docs = [spec_doc(n, inputs["max_values"][str(n)]) for n in MAX_N]
        entry = "realize-ideal"
    else:
        docs = list(inputs["module_specs"])
        entry = "realize-module"
    rng.shuffle(docs)
    return [Request(entry, doc) for doc in docs], phases


def warmup_request(name: str) -> Request:
    """A tiny request of the workload's kind, run once during set-up."""
    if name == "oracle-census":
        return Request("oracle-betti", json.dumps({"n": 3, "generators": ["x1^2", "x1*x2", "x1*x3"]}))
    if name == "realize-module":
        return Request("realize-module", spec_doc(6, [1, 1], m=MODULE_M))
    return Request("realize-ideal", spec_doc(6, [1, 1]))


def execute(program, req: Request) -> str:
    """Run one request; return its canonical output text."""
    if req.entry == "realize-module":
        spec = program.realize_ideal.CornerSpec.from_obj(json.loads(req.doc))
        result = program.realize_module.realize_module(
            spec, MODULE_M, node_budget=MODULE_NODE_BUDGET
        )
        return json.dumps(result.to_obj(), sort_keys=True)
    out, err = io.StringIO(), io.StringIO()
    code = program.cli.run([req.entry], stdout=out, stderr=err, stdin=io.StringIO(req.doc))
    if code:
        raise ExitCode(code, err.getvalue())
    return out.getvalue()


def is_budget_refusal(program, exc: BaseException) -> bool:
    return isinstance(exc, program.errors.InfeasibleSpec) and exc.exhausted_budget


def outcome(program, text: str | None, exc: BaseException | None) -> str:
    """What a request ended in, as recorded in golden.json: the digest of
    its output, REFUSED for an exhausted search budget, or the error type."""
    if exc is None:
        return digest(text)
    if is_budget_refusal(program, exc):
        return REFUSED
    if isinstance(exc, ExitCode):
        return f"error:exit{exc.code}"
    return f"error:{type(exc).__name__}"


def check_meaning(program, req: Request, text: str) -> str | None:
    """What is wrong with an output, beyond its digest; None if nothing."""
    out = json.loads(text)
    if req.entry == "oracle-betti":
        if out.get("matches_generator_formula") is not True:
            return "Koszul table disagrees with the generator formula"
        return None
    spec = program.realize_ideal.CornerSpec.from_obj(json.loads(req.doc))
    want = list(zip(spec.corners, spec.values))
    table_of = program.betti.ek_betti
    corners_of = program.betti.corner_sequence
    if req.entry == "realize-ideal":
        witness = program.ideals.MonomialIdeal.from_obj(out["witness"])
        if not witness.is_strongly_stable():
            return "witness is not strongly stable"
        if corners_of(table_of(witness)) != want:
            return "witness corner sequence differs from the spec"
        return None
    module = program.ideals.MonomialSubmodule.from_obj(out["module"])
    matrix = tuple(tuple(row) for row in out["matrix"])
    if module.m != MODULE_M:
        return f"module has {module.m} components, wanted {MODULE_M}"
    if corners_of(table_of(module)) != want:
        return "module corner sequence differs from the spec"
    ok, reason = program.realize_module.validate_corner_matrix(spec, matrix)
    if not ok:
        return f"corner matrix rejected: {reason}"
    return None
