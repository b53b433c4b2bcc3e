"""Record the benchmark's fixed inputs and the outcome of every request it
can make, into golden.json.

Run from the repository root, at the commit whose outputs are the
reference: ``python3 perfbench/record_golden.py``. It runs ``oracle-betti``
on every census ideal, so it takes a few minutes.

Fixed inputs are the four bundled test fixtures, the coupled caps of the
``realize-ideal-max`` family threaded left to right, and the
``realize-module`` specs, sampled the way acceptance check c06 samples
them: random admissible row patterns per column, random coupled values per
pattern, column totals as the spec. Every spec is feasible by construction.
"""

from __future__ import annotations

import json
import random
import sys

import workloads as wl


def fixture_docs(program) -> list[str]:
    sys.path.insert(0, str(wl.HERE.parent / "tests"))
    import conftest as fx

    Ideal, Module = program.ideals.MonomialIdeal, program.ideals.MonomialSubmodule
    bundles = [
        Module(6, tuple(Ideal.from_strings(6, gens) for gens in bundle.values()))
        for bundle in (fx.BUNDLE4_GENS, fx.BUNDLE3_GENS)
    ]
    chains = [Ideal.from_strings(8, gens) for gens in (fx.CHAIN_SMALL_GENS, fx.CHAIN_LARGE_GENS)]
    return [x.to_json() for x in chains + bundles]


def position_spec(program, n: int, rows=None):
    corners = [program.betti.Corner(k, ell) for k, ell in wl.family(n)]
    rows = range(len(corners)) if rows is None else rows
    return program.realize_ideal.CornerSpec(
        n, tuple(corners[i] for i in rows), tuple(1 for _ in rows)
    )


def coupled_values(program, spec, rng=None) -> list[int]:
    """Values drawn left to right under the coupled caps; the caps themselves
    when rng is None."""
    values: list[int] = []
    for _ in range(spec.r):
        bounds, _picks, violation = program.realize_ideal.coupled_chain(spec, values)
        assert violation is None
        values.append(bounds[-1] if rng is None else rng.randint(1, bounds[-1]))
    return values


def module_specs(program) -> list[str]:
    rng = random.Random(wl.MODULE_SAMPLE_SEED)
    docs = []
    for t in range(wl.MODULE_SPECS):
        n = wl.MODULE_N[t % len(wl.MODULE_N)]
        r = len(wl.family(n))
        patterns = []
        for bits in range(1, 1 << r):
            rows = tuple(i for i in range(r) if bits >> i & 1)
            if program.realize_ideal.validate_positions(position_spec(program, n, rows)).admissible:
                patterns.append(rows)
        while True:
            totals = [0] * r
            for _column in range(wl.MODULE_M):
                if rng.random() < 0.2:
                    continue
                rows = patterns[rng.randrange(len(patterns))]
                drawn = coupled_values(program, position_spec(program, n, rows), rng)
                for i, v in zip(rows, drawn):
                    totals[i] += v
            if all(totals):
                break
        docs.append(wl.spec_doc(n, totals, m=wl.MODULE_M))
    return docs


def main() -> int:
    program = wl.import_program()
    inputs = {
        "fixtures": fixture_docs(program),
        "max_values": {
            str(n): coupled_values(program, position_spec(program, n)) for n in wl.MAX_N
        },
        "module_specs": module_specs(program),
    }
    requests = [
        wl.Request("oracle-betti", ideal.to_json()) for ideal in wl.enumerate_census(program)
    ]
    requests += [wl.Request("oracle-betti", doc) for doc in inputs["fixtures"]]
    for name in wl.WORKLOADS[1:]:
        requests += wl.make_requests(name, 0, program, inputs)[0]
    outcomes = {}
    for req in requests:
        try:
            text, exc = wl.execute(program, req), None
        except Exception as caught:  # recorded as the request's outcome
            text, exc = None, caught
        if exc is None and (reason := wl.check_meaning(program, req, text)):
            raise SystemExit(f"refusing to record a wrong output ({reason}): {req.doc}")
        outcomes[req.key] = wl.outcome(program, text, exc)
        if exc is not None:
            print(f"{req.entry} {req.doc}: {outcomes[req.key]}", file=sys.stderr)
    with open(wl.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"inputs": inputs, "outcomes": outcomes}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(outcomes)} outcomes to {wl.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
