import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from koszul_reference import (
    dense_shape_homology,
    downward_closed_masks,
    reference_mask,
)

from stablebetti import (
    BudgetExceeded,
    CapTooLow,
    CornerSpec,
    GradedComplexSlice,
    MonomialIdeal,
    MonomialSubmodule,
    borel_closure,
    bruteforce_realizability,
    corner_sequence,
    ek_betti,
    enumerate_strongly_stable,
    integer_rank,
    koszul_betti,
    lcm_multidegrees,
    parse_monomial,
)
from stablebetti import oracle
from stablebetti.betti import Corner


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


def test_integer_rank_fixed_cases():
    assert integer_rank([]) == 0
    assert integer_rank([[]]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[1, 0], [0, 1]]) == 2
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[2, 3, 5], [7, 11, 13], [9, 14, 18]]) == 2  # row3 = row1 + row2
    assert integer_rank([[2, 3, 5], [7, 11, 13], [9, 14, 19]]) == 3
    # entries large enough to overflow fixed-width arithmetic
    big = 10**40
    assert integer_rank([[big, big], [big, big + 1]]) == 2


def test_integer_rank_matches_rational_elimination():
    rng = random.Random(3)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert integer_rank(m) == _rational_rank(m)


def test_koszul_matches_generator_formula_on_small_census():
    for ideal in enumerate_strongly_stable(3, 3):
        assert koszul_betti(ideal) == ek_betti(ideal)


def test_koszul_needs_no_stability():
    # (x1*x2, x3^2) in 3 variables: not stable, resolution known by hand
    # (a complete intersection: Koszul relations only).
    ideal = MonomialIdeal.from_strings(3, ["x1*x2", "x3^2"])
    table = koszul_betti(ideal)
    assert table.entries == {(0, 2): 2, (1, 4): 1}


def test_koszul_on_shifted_module():
    ideal = MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x1*x3"])
    module = MonomialSubmodule(3, (ideal, ideal), (0, 2))
    assert koszul_betti(module) == ek_betti(module)


def test_degree_cap_independence_and_refusal():
    ideal = MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x1*x3"])
    default = koszul_betti(ideal)
    top = max(j for _i, j in default.entries)  # == 4
    for cap in (top + 1, top + 2, top + 7):
        assert koszul_betti(ideal, degree_cap=cap) == default
    with pytest.raises(CapTooLow):
        koszul_betti(ideal, degree_cap=top)
    with pytest.raises(CapTooLow):
        koszul_betti(ideal, degree_cap=2)


def test_lcm_multidegrees_by_hand():
    ideal = MonomialIdeal.from_strings(2, ["x1^2", "x2^2"])
    assert lcm_multidegrees(ideal) == [(0, 2), (2, 0), (2, 2)]


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
        top = ideal.max_gen_degree() + ideal.n
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
    points = list(oracle._point_masks(ideal))
    assert [a for a, _p, _mask in points] == lcm_multidegrees(ideal)
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
    monkeypatch.setattr(oracle, "_shape_homology_cache", {})
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
        assert ideal.max_gen_degree() <= 3
        key = ideal.to_json()
        assert key not in seen
        seen.add(key)


def test_census_max_gens_filter():
    capped = list(enumerate_strongly_stable(3, 3, max_gens=2))
    assert all(len(i.gens) <= 2 for i in capped)
    full = [i for i in enumerate_strongly_stable(3, 3) if len(i.gens) <= 2]
    assert {i.to_json() for i in capped} == {i.to_json() for i in full}


def test_census_guard_rails_and_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_strongly_stable(6, 2))
    with pytest.raises(BudgetExceeded):
        list(enumerate_strongly_stable(2, 7))
    with pytest.raises(BudgetExceeded):
        list(enumerate_strongly_stable(3, 3, decision_budget=10))
    # allow_large lifts the rails (kept tiny here)
    assert len(list(enumerate_strongly_stable(2, 7, allow_large=True))) > 14


def _spec(n, pairs, values):
    return CornerSpec(n, tuple(Corner(k, l) for k, l in pairs), tuple(values))


def test_bruteforce_finds_known_witness():
    res = bruteforce_realizability(_spec(3, [(1, 2)], [1]))
    assert res.complete and res.witness is not None
    assert corner_sequence(ek_betti(res.witness)) == [(Corner(1, 2), 1)]


def test_bruteforce_witness_with_gap_between_corners():
    # requires a generator jump over degree 3 to separate the two corners
    res = bruteforce_realizability(_spec(3, [(2, 2), (1, 4)], [1, 1]))
    assert res.complete
    assert set(res.witness.gens) == {
        parse_monomial(t, 3) for t in ["x1^2", "x1*x2", "x1*x3", "x2^4"]
    }
    assert corner_sequence(ek_betti(res.witness)) == [
        (Corner(2, 2), 1),
        (Corner(1, 4), 1),
    ]


def test_bruteforce_rejects_overfull_stratum():
    res = bruteforce_realizability(_spec(3, [(2, 2)], [4]))  # |A(2,2)| = 3
    assert res.complete and res.witness is None
    assert res.decisions == 0


def test_bruteforce_exhausts_impossible_combination():
    # filling all of degree 2 leaves no room for a later generator
    res = bruteforce_realizability(_spec(3, [(2, 2), (1, 3)], [3, 1]))
    assert res.complete and res.witness is None


def test_bruteforce_budget_reports_incomplete():
    res = bruteforce_realizability(
        _spec(4, [(3, 2), (2, 3), (1, 4)], [1, 1, 1]), decision_budget=3
    )
    assert not res.complete and res.witness is None


def test_bruteforce_module_path():
    res = bruteforce_realizability(_spec(3, [(1, 2)], [2]), m=2)
    assert res.complete and res.witness is not None
    module = res.witness
    assert module.m == 2
    assert corner_sequence(ek_betti(module)) == [(Corner(1, 2), 2)]
