"""End-to-end acceptance checks, one test (one pass/fail line) each.

All arithmetic in the package is exact, so every comparison here is
equality with zero tolerance. The census-driven checks share one
session-scoped table cache; the whole file stays well under the suite's
five-minute budget.
"""

import io
import itertools
import json
import random

import pytest

import chain_reference
from bruteforce_reference import bruteforce_realizability
from conftest import (
    CHAIN_LARGE_CORNERS,
    CHAIN_LARGE_GENS,
    CHAIN_SMALL_CORNERS,
    CHAIN_SMALL_GENS,
)
from corner_reference import extremal_from_generators
from stablebetti import (
    MODE_COUPLED,
    MODE_STRICT,
    Corner,
    CornerSpec,
    InfeasibleSpec,
    check_values,
    compute_bounds,
    construct_ideal,
    corner_matrix,
    corner_sequence,
    coupled_chain,
    ek_betti,
    enumerate_strongly_stable,
    koszul_betti,
    module_corner_report,
    realize_module,
    stratum_size,
    validate_positions,
)
from stablebetti.cli import run


@pytest.fixture(scope="session")
def census_rows():
    rows = []
    for n in range(1, 5):
        for member in enumerate_strongly_stable(n, 4):
            rows.append((member, ek_betti(member)))
    assert len(rows) == 9686
    return rows


def test_c01_four_component_corner_report(bundle4):
    report = module_corner_report(bundle4)
    assert report["corners"] == [
        {"k": 5, "l": 2, "beta": 1},
        {"k": 3, "l": 3, "beta": 5},
        {"k": 2, "l": 5, "beta": 1},
    ]
    assert report["corner_matrix"] == [
        [1, 0, 0, 0],
        [1, 0, 1, 3],
        [1, 0, 0, 0],
    ]
    assert report["corner_components"] == [1, 3, 4]
    second = report["components"][1]
    assert second["corners"] == [{"k": 2, "l": 2, "beta": 1}]
    assert second["module_corners"] == []


def test_c02_three_component_bundle_reassembly(bundle3, bundle3_ideals):
    spec = CornerSpec(6, (Corner(5, 2), Corner(3, 3), Corner(2, 5)), (1, 3, 1))
    assert construct_ideal(spec).ideal == bundle3_ideals[1]
    spec = CornerSpec(6, (Corner(5, 2), Corner(2, 5)), (2, 1))
    assert construct_ideal(spec).ideal == bundle3_ideals[3]
    assert corner_sequence(ek_betti(bundle3_ideals[2])) == [
        (Corner(3, 3), 4),
        (Corner(2, 5), 2),
    ]
    assert corner_sequence(ek_betti(bundle3)) == [
        (Corner(5, 2), 3),
        (Corner(3, 3), 7),
        (Corner(2, 5), 4),
    ]
    assert corner_matrix(bundle3).rows == ((1, 0, 2), (3, 4, 0), (1, 2, 1))


def test_c03_unit_value_chain_constructions(chain_small, chain_large):
    for fixture, pairs in (
        (chain_small, CHAIN_SMALL_CORNERS),
        (chain_large, CHAIN_LARGE_CORNERS),
    ):
        spec = CornerSpec(
            8,
            tuple(Corner(k, l) for k, l in pairs),
            tuple(1 for _ in pairs),
        )
        built = construct_ideal(spec).ideal
        assert built == fixture
        assert chain_reference.construct_degree2_chain(spec) == fixture
        assert corner_sequence(ek_betti(built)) == [
            (Corner(k, l), 1) for k, l in pairs
        ]


def test_c04_generator_formula_equals_koszul_homology(
    census_rows, chain_small, chain_large, bundle4, bundle3
):
    for member, table in census_rows:
        assert koszul_betti(member) == table
    for fixture in (chain_small, chain_large, bundle4, bundle3):
        assert koszul_betti(fixture) == ek_betti(fixture)


def test_c05_table_corners_equal_generator_corners(census_rows):
    for member, table in census_rows:
        from_table = dict(corner_sequence(table))
        from_gens = {
            c: v for c, v in extremal_from_generators(member) if c.k >= 1
        }
        assert from_table == from_gens


def _sample_positions(rng):
    while True:
        n = rng.randint(2, 6)
        r = rng.randint(1, min(3, n - 1))
        ks = tuple(sorted(rng.sample(range(1, n), r), reverse=True))
        ells = []
        nxt = rng.randint(2, 4)
        for _ in range(r):
            ells.append(nxt)
            nxt += rng.randint(1, 3)
        spec = CornerSpec(
            n,
            tuple(Corner(k, l) for k, l in zip(ks, ells)),
            tuple(1 for _ in range(r)),
        )
        if validate_positions(spec).admissible:
            return spec


def _draw_coupled_values(rng, spec):
    entries = []
    for _ in range(spec.r):
        bounds, _picks, violation = coupled_chain(spec, entries)
        assert violation is None
        entries.append(rng.randint(1, bounds[-1]))
    return tuple(entries)


def _sample_module_spec(rng):
    # sample a concrete column layout first so the totals are feasible
    # by construction, then hand the realizer only the totals
    while True:
        pos = _sample_positions(rng)
        m = rng.randint(1, 3)
        patterns = []
        for bits in range(1, 1 << pos.r):
            rows = tuple(i for i in range(pos.r) if bits >> i & 1)
            sub = pos.sub_spec(rows, values=tuple(1 for _ in rows))
            if validate_positions(sub).admissible:
                patterns.append(rows)
        totals = [0] * pos.r
        for _h in range(m):
            if not patterns or rng.random() < 0.2:
                continue
            rows = patterns[rng.randrange(len(patterns))]
            sub = pos.sub_spec(rows, values=tuple(1 for _ in rows))
            for i, v in zip(rows, _draw_coupled_values(rng, sub)):
                totals[i] += v
        if all(v > 0 for v in totals):
            return CornerSpec(pos.n, pos.corners, tuple(totals)), m


def test_c06_random_specs_realize_and_self_verify():
    rng = random.Random(20260814)
    for _ in range(500):
        pos = _sample_positions(rng)
        spec = CornerSpec(pos.n, pos.corners, _draw_coupled_values(rng, pos))
        built = construct_ideal(spec).ideal
        assert built.is_strongly_stable()
        assert corner_sequence(ek_betti(built)) == list(
            zip(spec.corners, spec.values)
        )
    for _ in range(200):
        spec, m = _sample_module_spec(rng)
        built = realize_module(spec, m)
        assert len(built.module.components) == m
        assert all(c.is_strongly_stable() for c in built.module.components)
        assert corner_sequence(ek_betti(built.module)) == list(
            zip(spec.corners, spec.values)
        )


def _all_admissible_positions(n, max_ell):
    out = []
    for r in range(1, max_ell):
        for ks in itertools.combinations(range(1, n), r):
            for ells in itertools.combinations(range(2, max_ell + 1), r):
                spec = CornerSpec(
                    n,
                    tuple(Corner(k, l) for k, l in zip(reversed(ks), ells)),
                    tuple(1 for _ in range(r)),
                )
                if validate_positions(spec).admissible:
                    out.append(spec)
    return out


def test_c07_strict_box_complete_at_small_scale():
    positions = {n: _all_admissible_positions(n, 5) for n in (4, 5)}
    assert [len(positions[4]), len(positions[5])] == [24, 49]
    accepted = 0
    for n in (4, 5):
        for pos in positions[n]:
            caps = compute_bounds(pos).bounds
            for values in itertools.product(*[range(1, b + 1) for b in caps]):
                spec = CornerSpec(n, pos.corners, values)
                assert check_values(spec, MODE_STRICT).feasible
                result = bruteforce_realizability(spec)
                assert result.complete and result.witness is not None
                accepted += 1
            for t, corner in enumerate(pos.corners):
                over = [1] * pos.r
                over[t] = stratum_size(corner.k, corner.ell) + 1
                spec = CornerSpec(n, pos.corners, tuple(over))
                assert not check_values(spec, MODE_STRICT).feasible
                result = bruteforce_realizability(spec)
                assert result.complete and result.witness is None
    assert accepted == 653


def test_c08_two_component_cap_at_a_single_corner():
    spec = CornerSpec(4, (Corner(2, 2),), (6,))
    built = realize_module(spec, 2)
    assert built.matrix == ((3, 3),)
    assert corner_sequence(ek_betti(built.module)) == [(Corner(2, 2), 6)]
    with pytest.raises(InfeasibleSpec):
        realize_module(CornerSpec(4, (Corner(2, 2),), (7,)), 2)


def test_c09_coupled_feasible_values_beyond_the_strict_box(bundle3_ideals):
    spec = CornerSpec(6, (Corner(3, 3), Corner(2, 5)), (4, 2))
    realization = construct_ideal(spec, MODE_COUPLED)
    assert realization.ideal == bundle3_ideals[2]
    verdicts = realization.to_obj()["verdicts"]
    assert verdicts["coupled"] == {
        "mode": "coupled",
        "feasible": True,
        "requested": [4, 2],
        "bounds": [7, 5],
        "first_violation": None,
    }
    # snapshot: the fixed per-corner box rejects the second value even
    # though the witness above realizes it
    assert verdicts["strict-paper"] == {
        "mode": "strict-paper",
        "feasible": False,
        "requested": [4, 2],
        "bounds": [7, 1],
        "first_violation": 2,
    }


def _invoke(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err, stdin=io.StringIO(stdin_text))
    return code, out.getvalue(), err.getvalue()


def test_c10_cli_output_is_byte_identical_across_runs(bundle4, bundle3):
    documents = [
        json.dumps({"n": 8, "generators": CHAIN_SMALL_GENS}),
        json.dumps({"n": 8, "generators": CHAIN_LARGE_GENS}),
        json.dumps(bundle4.to_obj()),
        json.dumps(bundle3.to_obj()),
    ]
    spec_docs = [
        json.dumps(
            {
                "n": 6,
                "corners": [
                    {"k": 5, "l": 2, "a": 1},
                    {"k": 3, "l": 3, "a": 3},
                    {"k": 2, "l": 5, "a": 1},
                ],
            }
        ),
        json.dumps(
            {"n": 6, "corners": [{"k": 5, "l": 2, "a": 2}, {"k": 2, "l": 5, "a": 1}]}
        ),
        json.dumps(
            {"n": 6, "corners": [{"k": 3, "l": 3, "a": 4}, {"k": 2, "l": 5, "a": 2}]}
        ),
    ]
    module_spec_docs = [
        json.dumps(
            {
                "n": 6,
                "m": 2,
                "corners": [
                    {"k": 5, "l": 2, "a": 1},
                    {"k": 3, "l": 3, "a": 3},
                    {"k": 2, "l": 5, "a": 1},
                ],
            }
        ),
        json.dumps({"n": 4, "m": 2, "corners": [{"k": 2, "l": 2, "a": 6}]}),
    ]
    runs = []
    for doc in documents:
        for command in (
            "betti",
            "corners",
            "check-stable",
            "diagram",
            "oracle-betti",
        ):
            runs.append(([command], doc))
    runs.extend((["realize-ideal"], doc) for doc in spec_docs)
    runs.extend((["realize-module"], doc) for doc in module_spec_docs)
    runs.append((["census", "-n", "2", "-d", "2"], ""))
    runs.append((["census", "-n", "3", "-d", "3"], ""))
    for argv, doc in runs:
        first = _invoke(argv, doc)
        second = _invoke(argv, doc)
        assert first == second
        assert first[0] == 0 and first[2] == ""
