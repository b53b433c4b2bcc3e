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
from collections import Counter

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
    MonomialSubmodule,
    SpecError,
    UncoveredByCharacterization,
    check_values,
    compute_bounds,
    construct_ideal,
    corner_matrix,
    corner_sequence,
    coupled_chain,
    ek_betti,
    enumerate_strongly_stable,
    extremal_from_table,
    koszul_betti,
    module_corner_report,
    realize_module,
    stratum_size,
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
        if spec.covered:
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
            if sub.covered:
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
        table = ek_betti(built)
        assert corner_sequence(table) == list(zip(spec.corners, spec.values))
        assert koszul_betti(built) == table
    for _ in range(200):
        spec, m = _sample_module_spec(rng)
        built = realize_module(spec, m)
        assert len(built.module.components) == m
        assert all(c.is_strongly_stable() for c in built.module.components)
        table = ek_betti(built.module)
        assert corner_sequence(table) == list(zip(spec.corners, spec.values))
        assert koszul_betti(built.module) == table


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
                if spec.covered:
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


def _spec_of(n, sequence):
    return CornerSpec(n, tuple(c for c, _ in sequence), tuple(a for _, a in sequence))


def test_c11_census_corner_sequences_round_trip(census_rows):
    # Each distinct (n, corner sequence) of the census, read back as a spec:
    # a covered one is coupled-feasible and construct_ideal rebuilds it
    # (strict mode rejects 25 of them), an uncovered one is refused, and a
    # first corner in degree 1 is no spec.
    pairs = {(member.n, tuple(corner_sequence(table))) for member, table in census_rows}
    counts = Counter()
    for n, seq in pairs:
        if not seq:
            counts["no corner"] += 1
            continue
        try:
            spec = _spec_of(n, seq)
        except SpecError:
            counts["refused"] += 1
            continue
        if not spec.covered:
            counts["uncovered"] += 1
            with pytest.raises(UncoveredByCharacterization):
                construct_ideal(spec)
            continue
        counts["covered"] += 1
        assert check_values(spec).feasible, spec
        counts["strict rejection"] += not check_values(spec, MODE_STRICT).feasible
        assert corner_sequence(construct_ideal(spec).table) == list(seq), spec
    assert counts == {
        "no corner": 4,
        "refused": 6,
        "uncovered": 12,
        "covered": 139,
        "strict rejection": 25,
    }
    # direct sums of 2 to 4 census ideals: realize_module rebuilds the
    # module's corner sequence with as many components
    by_n = {n: [member for member, _ in census_rows if member.n == n] for n in (3, 4)}
    rng = random.Random(7)
    for _ in range(200):
        n, m = rng.choice((3, 4)), rng.randint(2, 4)
        module = MonomialSubmodule(n, tuple(rng.choice(by_n[n]) for _ in range(m)))
        seq = corner_sequence(ek_betti(module))
        assert corner_sequence(realize_module(_spec_of(n, seq), m).table) == seq, module


# Boxes of the ROADMAP's module round trip with shifts: (n, generator
# degree <= d, m components, shifts <= s) and, over the distinct nonempty
# module corner sequences, how many realize_module rebuilds, how many are
# uncovered, and how many are no spec (a first corner in degree 1).
SHIFTED_MODULE_BOXES = {
    (3, 4, 2, 2): {"realized": 206, "uncovered": 35, "refused": 13},
    (4, 3, 2, 2): {"realized": 332, "uncovered": 51, "refused": 26},
}


def test_c12_shifted_module_corner_sequences_round_trip(census_rows):
    # One census ideal per distinct table, in census order; every multiset
    # of m of them, the first at shift 0 and the others at every sorted
    # choice of shifts <= s. Each covered module corner sequence, read back
    # as a spec, is rebuilt by realize_module with m components.
    for (n, d, m, s), want in SHIFTED_MODULE_BOXES.items():
        tables = {}
        for member, table in census_rows:
            if member.n == n and max(member.degrees) <= d:
                tables.setdefault(tuple(sorted(table.entries.items())), member)
        # A sum's corners lie among its parts' extremal entries, and a part
        # nonzero at one has it extremal, so a module's corner sequence
        # depends only on its parts' extremal entries and shifts: one ideal
        # per extremal profile stands for every table that has it.
        ideals, profiles, ids = [], {}, []
        for member in tables.values():
            profile = tuple(extremal_from_table(ek_betti(member)))
            if profile not in profiles:
                profiles[profile] = len(ideals)
                ideals.append(member)
            ids.append(profiles[profile])
        multisets = itertools.combinations_with_replacement
        shift_sets = [(0, *f) for f in multisets(range(s + 1), m - 1)]
        sums = {
            tuple(sorted(zip(shifts, parts)))
            for parts in multisets(ids, m)
            for shifts in shift_sets
        }
        sequences = set()
        for parts in sums:
            module = MonomialSubmodule(
                n, tuple(ideals[i] for _f, i in parts), tuple(f for f, _i in parts)
            )
            sequences.add(tuple(corner_sequence(ek_betti(module))))
        sequences.discard(())
        counts = Counter()
        for seq in sequences:
            try:
                spec = _spec_of(n, seq)
            except SpecError:
                counts["refused"] += 1
                continue
            if not spec.covered:
                counts["uncovered"] += 1
                continue
            realized = realize_module(spec, m)
            assert corner_sequence(realized.table) == list(seq), spec
            counts["realized"] += 1
        assert counts == want, (n, d, m, s)
