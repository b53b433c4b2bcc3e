import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from bruteforce_reference import bruteforce_realizability
from conftest import spec
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from ideal_reference import borel_closure
from koszul_reference import (
    GradedComplexSlice,
    dense_shape_homology,
    downward_closed_masks,
    integer_rank,
    reference_mask,
    tuple_lcm_multidegrees,
)

from stablebetti import (
    BadRange,
    BudgetExceeded,
    CornerSpec,
    MonomialIdeal,
    MonomialSubmodule,
    construct_ideal,
    construct_module,
    corner_sequence,
    coupled_chain,
    degree,
    ek_betti,
    enumerate_strongly_stable,
    koszul_betti,
    lcm_multidegrees,
    parse_monomial,
    validate_positions,
)
from stablebetti import oracle
from stablebetti.betti import Corner
from stablebetti.cli import run


def _rational_rank(rows):
    m = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        piv = next((t for t in range(row, len(m)) if m[t][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for t in range(len(m)):
            if t != row and m[t][col]:
                f = m[t][col] / m[row][col]
                m[t] = [a - f * b for a, b in zip(m[t], m[row])]
        rank += 1
        row += 1
    return rank


def _columns(rows):
    """The sparse columns ({row: entry}) of a dense integer matrix."""
    width = len(rows[0]) if rows else 0
    return [{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(width)]


def _ranks(rows):
    """The sparse rank, the Bareiss reference and the rational rank."""
    return oracle._rank(_columns(rows)), integer_rank(rows), _rational_rank(rows)


def test_integer_rank_fixed_cases():
    big = 10**40  # entries large enough to overflow fixed-width arithmetic
    cases = [
        ([], 0),
        ([[]], 0),
        ([[0, 0], [0, 0]], 0),
        ([[1, 0], [0, 1]], 2),
        ([[1, 2], [2, 4]], 1),
        ([[2, 3, 5], [7, 11, 13], [9, 14, 18]], 2),  # row3 = row1 + row2
        ([[2, 3, 5], [7, 11, 13], [9, 14, 19]], 3),
        ([[2, 4], [6, 3]], 2),  # no unit entry: fraction-free updates only
        ([[big, big], [big, big + 1]], 2),
    ]
    for rows, rank in cases:
        assert _ranks(rows) == (rank, rank, rank), rows


def test_integer_rank_matches_rational_elimination():
    rng = random.Random(3)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        rank = _rational_rank(m)
        assert _ranks(m) == (rank, rank, rank), m


@st.composite
def _integer_matrices(draw):
    """Up to 6 x 6 entries in -12..12, then up to 4 columns that are
    integer combinations of the others, so that columns reduce to zero
    against pivots that are not units."""
    nrows = draw(st.integers(1, 6))
    entries = st.integers(-12, 12)
    cols = draw(st.lists(st.lists(entries, min_size=nrows, max_size=nrows), max_size=6))
    coeffs = st.lists(st.integers(-3, 3), min_size=len(cols), max_size=len(cols))
    for combo in draw(st.lists(coeffs, max_size=4 if cols else 0)):
        cols.append([sum(f * col[r] for f, col in zip(combo, cols)) for r in range(nrows)])
    return [[col[r] for col in cols] for r in range(nrows)] if cols else []


@settings(deadline=None, max_examples=300)
@given(_integer_matrices())
def test_sparse_rank_matches_bareiss_and_rational_ranks(rows):
    rank = _rational_rank(rows)
    assert _ranks(rows) == (rank, rank, rank)


def _down_closure(p, tops):
    """The mask of every subset of the given subsets of a p-set."""
    mask = 0
    for top in tops:
        s = top
        while True:
            mask |= 1 << s
            if not s:
                break
            s = (s - 1) & top
    return mask


def test_rank_over_q_on_the_projective_plane(monkeypatch):
    # The 6-vertex triangulation of RP^2: its integral homology has
    # 2-torsion, which the rank over Q must not see; its rational
    # homology is that of a point, so every block dimension is 0.
    triangles = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
        (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
    ]
    tops = [sum(1 << v for v in t) for t in triangles]
    mask = _down_closure(6, tops)
    monkeypatch.setattr(oracle, "_shape_homology_cache", {})
    assert oracle._shape_homology(6, mask) == (0,) * 7
    assert dense_shape_homology(6, mask) == (0,) * 7
    # The boundary of all triangles together is twice a cycle, so a column
    # holding it meets a pivot of 2 and takes the fraction-free update.
    gcds = []

    def counting_gcd(*args):
        gcds.append(args)
        return math.gcd(*args)

    monkeypatch.setattr(oracle, "gcd", counting_gcd)
    cols = [dict(oracle._faces(top)) for top in tops]
    total = {}
    for col in cols:
        for r, v in col.items():
            total[r] = total.get(r, 0) + v
    total = {r: v for r, v in total.items() if v}
    assert set(map(abs, total.values())) == {2}
    assert oracle._rank(cols) == 10
    assert not gcds
    assert oracle._rank(cols + [total]) == 10
    assert gcds


def test_koszul_matches_generator_formula_on_small_census():
    for ideal in enumerate_strongly_stable(3, 3):
        assert koszul_betti(ideal) == ek_betti(ideal)


def test_koszul_needs_no_stability():
    # (x1*x2, x3^2) in 3 variables: not stable, resolution known by hand
    # (a complete intersection: Koszul relations only).
    ideal = MonomialIdeal.from_strings(3, ["x1*x2", "x3^2"])
    table = koszul_betti(ideal)
    assert table.entries == {(0, 2): 2, (1, 4): 1}


def test_unit_ideal_has_one_generator_in_degree_zero():
    # R itself: beta_{0,0} = 1. The lcm point 0 has an empty support, which
    # must not be mistaken for a simplex block.
    for n in (1, 2, 3):
        ideal = MonomialIdeal.from_strings(n, ["1"])
        assert koszul_betti(ideal).entries == {(0, 0): 1}
        assert GradedComplexSlice.build(ideal, 0).homology() == {0: 1}
    out, err = io.StringIO(), io.StringIO()
    doc = json.dumps({"n": 2, "generators": ["1"]})
    code = run(["oracle-betti"], stdout=out, stderr=err, stdin=io.StringIO(doc))
    assert (code, err.getvalue()) == (0, "")
    payload = json.loads(out.getvalue())
    assert payload["table"]["entries"] == [{"beta": 1, "i": 0, "j": 0}]
    assert payload["diagram"] == "-1: 1"


def test_koszul_on_shifted_module():
    ideal = MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x1*x3"])
    module = MonomialSubmodule(3, (ideal, ideal), (0, 2))
    assert koszul_betti(module) == ek_betti(module)


def test_koszul_tables_of_a_stable_and_a_non_stable_ideal():
    ideal = MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x1*x3"])
    table = koszul_betti(ideal)
    assert table == ek_betti(ideal)
    assert max(j for _i, j in table.entries) == 4
    # not stable: entries reach degree 12, past max generator degree + n = 9
    ideal = MonomialIdeal.from_strings(6, [
        "x1^3", "x2^3", "x3^3", "x4^3", "x5^3", "x6^3", "x1*x2*x3", "x4*x5*x6",
        "x1*x4", "x2*x5", "x3*x6", "x1*x6", "x2*x4",
    ])
    table = koszul_betti(ideal)
    assert len(table.entries) == 22
    assert max(j for _i, j in table.entries) == 12


def test_lcm_multidegrees_by_hand():
    ideal = MonomialIdeal.from_strings(2, ["x1^2", "x2^2"])
    assert lcm_multidegrees(ideal) == [(0, 2), (2, 0), (2, 2)]
    edges = [
        (1, [(5,)]),  # n = 1
        (3, [(0, 0, 0)]),  # the unit ideal: fields of width 1
        (3, [(2, 1, 0)]),  # a single generator
        (2, [(1, 0), (0, 1)]),  # top exponent 1
        (2, [(3, 0), (0, 3), (1, 2)]),  # 2^k - 1: the widest value a field holds
        (2, [(4, 0), (0, 4), (1, 3)]),  # 2^k: one bit wider
        (3, [(15, 0, 0), (0, 16, 0), (8, 7, 1), (0, 0, 15)]),
    ]
    for n, gens in edges:
        ideal = MonomialIdeal.from_generators(n, gens)
        assert lcm_multidegrees(ideal) == tuple_lcm_multidegrees(ideal), gens


@st.composite
def _edge_exponent_sets(draw):
    """n <= 5 and 1..7 monomials whose exponents sit at field-width edges."""
    n = draw(st.integers(1, 5))
    exponent = st.sampled_from([0, 0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32])
    monos = draw(st.lists(st.tuples(*[exponent] * n), min_size=1, max_size=7))
    return n, monos


@settings(deadline=None, max_examples=300)
@given(_edge_exponent_sets())
def test_packed_lcm_lattice_equals_the_tuple_lattice(case):
    n, monos = case
    ideal = MonomialIdeal.from_generators(n, monos)
    assert lcm_multidegrees(ideal) == tuple_lcm_multidegrees(ideal)


def test_dense_slice_cross_check():
    # definition-shaped dense Koszul complexes agree with the blockwise
    # computation degree by degree
    samples = [
        MonomialIdeal.from_strings(3, ["x1*x2", "x3^2"]),
        MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x2^2"]),
        MonomialIdeal.from_strings(2, ["x1^3", "x1*x2"]),
        MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x1*x3", "x2^2"]),
    ]
    for ideal in samples:
        table = koszul_betti(ideal)
        top = degree(ideal.gens[-1]) + ideal.n
        for j in range(1, top + 1):
            slice_ = GradedComplexSlice.build(ideal, j)
            dims = slice_.homology()
            for i in range(ideal.n + 1):
                assert dims.get(i, 0) == table.beta(i, j), (ideal, i, j)


def test_dense_slice_on_shifted_module():
    ideal = MonomialIdeal.from_strings(2, ["x1^2", "x1*x2"])
    module = MonomialSubmodule(2, (ideal, ideal), (0, 1))
    table = koszul_betti(module)
    for j in range(1, 6):
        dims = GradedComplexSlice.build(module, j).homology()
        for i in range(3):
            assert dims.get(i, 0) == table.beta(i, j)


@st.composite
def _edge_non_stable_ideals(draw):
    """n = 2 or 3 and 1..4 monomials whose exponents sit at the 1|2 and 3|4
    field-width edges, generating an ideal that is not stable (an ideal in
    one variable always is)."""
    n = draw(st.integers(2, 3))
    exponent = st.sampled_from([0, 0, 1, 2, 3, 4])
    monos = draw(st.lists(st.tuples(*[exponent] * n), min_size=1, max_size=4))
    ideal = MonomialIdeal.from_generators(n, monos)
    assume(not ideal.is_stable())
    return ideal


@settings(deadline=None, max_examples=100)
@given(_edge_non_stable_ideals())
def test_koszul_matches_the_dense_slice_on_non_stable_ideals(ideal):
    # The Koszul pass reads each entry's total degree j from the packed
    # fields of its lcm point; the dense complex builds degree j itself.
    # Every entry sits at or below the lcm of all generators.
    table = koszul_betti(ideal)
    top = sum(max(g[t] for g in ideal.gens) for t in range(ideal.n))
    assert all(j <= top for _i, j in table.entries)
    for j in range(top + 1):
        dims = GradedComplexSlice.build(ideal, j).homology()
        for i in range(ideal.n + 1):
            assert dims.get(i, 0) == table.beta(i, j), (ideal, i, j)


@st.composite
def _monomial_sets(draw):
    """n <= 4 variables and 1..6 monomials of degree 1..4, any shape."""
    n = draw(st.integers(1, 4))
    variables = st.lists(st.integers(0, n - 1), min_size=1, max_size=4)
    monos = []
    for picks in draw(st.lists(variables, min_size=1, max_size=6)):
        monos.append(tuple(picks.count(t) for t in range(n)))
    return n, monos


@settings(deadline=None)
@given(_monomial_sets())
def test_free_coordinate_masks_match_membership_tests(case):
    n, monos = case
    ideal = MonomialIdeal.from_generators(n, monos)
    pk = ideal.packed[0]
    field = (1 << (pk.width - 1)) - 1
    points = [
        (tuple(q >> s & field for s in pk.shifts), p, mask)
        for q, p, mask in oracle._point_masks(ideal)
    ]
    assert sorted(a for a, _p, _mask in points) == lcm_multidegrees(ideal)
    for a, p, mask in points:
        assert p == sum(1 for e in a if e)
        assert mask == reference_mask(ideal, a), a


@settings(deadline=None)
@given(_monomial_sets())
def test_koszul_matches_generator_formula_on_borel_closures(case):
    n, monos = case
    ideal = borel_closure(n, monos)
    assert koszul_betti(ideal) == ek_betti(ideal)


def test_shape_homology_matches_dense_on_every_small_shape(monkeypatch):
    monkeypatch.setattr(oracle, "_shape_homology_cache", {})
    counts = []
    for p in range(5):
        masks = list(downward_closed_masks(p))
        counts.append(len(masks))
        for mask in masks:
            assert oracle._shape_homology(p, mask) == dense_shape_homology(p, mask)
    # Dedekind numbers minus the empty family
    assert counts == [1, 2, 5, 19, 167]


def test_shape_homology_refuses_a_boundary_that_does_not_square_to_zero(
    monkeypatch,
):
    def unsigned_faces(s):
        return [(face, 1) for face, _sign in oracle_faces(s)]

    oracle_faces = oracle._faces
    # every memo that could hold a subset checked earlier in the process
    monkeypatch.setattr(oracle, "_shape_homology_cache", {})
    monkeypatch.setattr(oracle, "_faces_table", {})
    monkeypatch.setattr(oracle, "_faces", unsigned_faces)
    with pytest.raises(AssertionError, match="does not square to zero"):
        oracle._shape_homology(2, 0b1111)


def test_census_frozen_counts():
    assert len(list(enumerate_strongly_stable(2, 2))) == 6
    assert len(list(enumerate_strongly_stable(2, 3))) == 14
    assert len(list(enumerate_strongly_stable(3, 3))) == 64
    assert len(list(enumerate_strongly_stable(3, 4))) == 350
    assert len(list(enumerate_strongly_stable(4, 3))) == 350


def test_census_two_variable_degree_two_exact_list():
    got = {i.to_json() for i in enumerate_strongly_stable(2, 2)}
    want = {
        MonomialIdeal.from_strings(2, gens).to_json()
        for gens in [
            ["x1"],
            ["x1", "x2"],
            ["x1^2"],
            ["x1^2", "x1*x2"],
            ["x1^2", "x1*x2", "x2^2"],
            ["x1", "x2^2"],
        ]
    }
    assert got == want


def test_census_members_are_strongly_stable_and_unique():
    seen = set()
    for ideal in enumerate_strongly_stable(3, 3):
        assert ideal.is_strongly_stable()
        assert all(degree(g) <= 3 for g in ideal.gens)
        key = ideal.to_json()
        assert key not in seen
        seen.add(key)
    # members are built from generators that are already minimal and in
    # canonical order
    for n in range(1, 5):
        for d in range(1, 5):
            for ideal in enumerate_strongly_stable(n, d):
                assert ideal == MonomialIdeal.from_generators(n, ideal.gens)


def test_census_max_gens_filter():
    capped = list(enumerate_strongly_stable(3, 3, max_gens=2))
    assert all(len(i.gens) <= 2 for i in capped)
    full = [i for i in enumerate_strongly_stable(3, 3) if len(i.gens) <= 2]
    assert {i.to_json() for i in capped} == {i.to_json() for i in full}
    with pytest.raises(BadRange, match="need max_gens >= 1, got 0"):
        list(enumerate_strongly_stable(3, 3, max_gens=0))


def test_census_guard_rails_and_budget(monkeypatch):
    with pytest.raises(BudgetExceeded):
        list(enumerate_strongly_stable(6, 2))
    with pytest.raises(BudgetExceeded):
        list(enumerate_strongly_stable(2, 7))
    # n = 4 to degree 4 takes exactly 86,169 decisions
    monkeypatch.setattr(oracle, "CENSUS_DECISIONS", 86_169)
    assert len(list(enumerate_strongly_stable(4, 4))) == 9302
    monkeypatch.setattr(oracle, "CENSUS_DECISIONS", 86_168)
    with pytest.raises(BudgetExceeded):
        list(enumerate_strongly_stable(4, 4))
    monkeypatch.setattr(oracle, "CENSUS_DECISIONS", 10)
    with pytest.raises(BudgetExceeded):
        list(enumerate_strongly_stable(3, 3))
    # allow_large lifts the rails and the budget (kept tiny here)
    assert len(list(enumerate_strongly_stable(2, 7, allow_large=True))) > 14


def test_bruteforce_finds_known_witness():
    res = bruteforce_realizability(spec(3, [(1, 2)], [1]))
    assert res.complete and res.witness is not None
    assert corner_sequence(ek_betti(res.witness)) == [(Corner(1, 2), 1)]


def test_bruteforce_witness_with_gap_between_corners():
    # requires a generator jump over degree 3 to separate the two corners
    res = bruteforce_realizability(spec(3, [(2, 2), (1, 4)], [1, 1]))
    assert res.complete
    assert set(res.witness.gens) == {
        parse_monomial(t, 3) for t in ["x1^2", "x1*x2", "x1*x3", "x2^4"]
    }
    assert corner_sequence(ek_betti(res.witness)) == [
        (Corner(2, 2), 1),
        (Corner(1, 4), 1),
    ]


def test_bruteforce_rejects_overfull_stratum():
    res = bruteforce_realizability(spec(3, [(2, 2)], [4]))  # |A(2,2)| = 3
    assert res.complete and res.witness is None
    assert res.decisions == 0


def test_bruteforce_exhausts_impossible_combination():
    # filling all of degree 2 leaves no room for a later generator
    res = bruteforce_realizability(spec(3, [(2, 2), (1, 3)], [3, 1]))
    assert res.complete and res.witness is None


def test_bruteforce_budget_reports_incomplete():
    res = bruteforce_realizability(
        spec(4, [(3, 2), (2, 3), (1, 4)], [1, 1, 1]), decision_budget=3
    )
    assert not res.complete and res.witness is None


def test_bruteforce_module_path():
    res = bruteforce_realizability(spec(3, [(1, 2)], [2]), m=2)
    assert res.complete and res.witness is not None
    module = res.witness
    assert module.m == 2
    assert corner_sequence(ek_betti(module)) == [(Corner(1, 2), 2)]


def test_bruteforce_module_search_states_its_own_limits():
    # the m > 1 search runs the census itself, so it refuses with its own
    # limits rather than the census's advice to pass allow_large=True
    for s, got in [
        (spec(4, [(2, 7)], [1]), "n=4, last corner degree 7"),
        (spec(6, [(2, 3)], [1]), "n=6, last corner degree 3"),
    ]:
        with pytest.raises(BudgetExceeded) as err:
            bruteforce_realizability(s, m=2)
        assert str(err.value) == (
            "the module brute force scans the census up to the last corner "
            "degree and runs for n <= 5 and last corner degree <= 6 only, "
            f"got {got}"
        )


@st.composite
def _positions(draw, max_n):
    """Admissible corner positions with n <= max_n, r <= 4 and first
    degree 2..4, values 1."""
    n = draw(st.integers(2, max_n))
    r = draw(st.integers(1, min(4, n - 1)))
    ks = sorted(draw(st.sets(st.integers(1, n - 1), min_size=r, max_size=r)))
    first = draw(st.integers(2, 4))
    steps = draw(st.lists(st.integers(1, 2), min_size=r - 1, max_size=r - 1))
    ells = itertools.accumulate([first] + steps)
    pos = spec(n, zip(reversed(ks), ells), [1] * r)
    assume(validate_positions(pos).admissible)
    return pos


def _coupled_values(data, pos):
    """Values up to 3, each within the coupled cap that the earlier values
    leave it: feasible by construction, and small enough that each
    witness's Koszul table takes well under a second."""
    values = []
    for _ in range(pos.r):
        caps = coupled_chain(pos, values)[0]
        values.append(data.draw(st.integers(1, min(3, caps[-1]))))
    return tuple(values)


@settings(deadline=None, max_examples=100)
@given(_positions(9), st.data())
def test_koszul_confirms_every_ideal_witness(pos, data):
    realization = construct_ideal(CornerSpec(pos.n, pos.corners, _coupled_values(data, pos)))
    assert koszul_betti(realization.ideal) == realization.table


@settings(deadline=None, max_examples=60)
@given(_positions(6), st.integers(1, 3), st.data())
def test_koszul_confirms_every_module_witness(pos, m, data):
    patterns = [
        rows
        for bits in range(1, 1 << pos.r)
        for rows in [tuple(i for i in range(pos.r) if bits >> i & 1)]
        if validate_positions(pos.sub_spec(rows)).admissible
    ]
    matrix = [[0] * m for _ in range(pos.r)]
    for h in range(m):
        rows = data.draw(st.sampled_from([()] + patterns))  # () is a filler
        if rows:
            values = _coupled_values(data, pos.sub_spec(rows))
            for i, v in zip(rows, values):
                matrix[i][h] = v
    totals = tuple(map(sum, matrix))
    assume(all(totals))
    realization = construct_module(CornerSpec(pos.n, pos.corners, totals), matrix)
    assert koszul_betti(realization.module) == realization.table
