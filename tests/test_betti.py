import json
import math

import pytest
from conftest import patch_everywhere
from corner_reference import (
    extremal_by_definition,
    extremal_from_generators,
    module_generators,
    reference_diagram,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from ideal_reference import borel_closure
from monomial_reference import max_index

from stablebetti import (
    BadRange,
    BettiTable,
    Corner,
    MonomialIdeal,
    MonomialSubmodule,
    NotStable,
    corner_matrix,
    corner_sequence,
    ek_betti,
    extremal_from_table,
    koszul_betti,
    minimalize,
    module_corner_report,
    render_diagram,
)
from stablebetti.monomials import mul_var


def test_table_round_trip_and_equality():
    table = BettiTable(3, {(0, 2): 3, (1, 3): 3, (2, 4): 1})
    assert table.beta(1, 3) == 3
    assert table.beta(5, 5) == 0
    assert not table.is_zero
    assert table.to_obj() == {
        "n": 3,
        "entries": [
            {"i": 0, "j": 2, "beta": 3},
            {"i": 1, "j": 3, "beta": 3},
            {"i": 2, "j": 4, "beta": 1},
        ],
    }
    assert table != BettiTable(4, dict(table.entries))
    assert BettiTable(2, {}).is_zero


def test_generator_formula_on_principal_ideal():
    table = ek_betti(MonomialIdeal.from_strings(2, ["x1"]))
    assert table.entries == {(0, 1): 1}


def test_generator_formula_on_variable_power_products():
    # all squarefree degree-1 generators: beta_{k,k+1} = C(n, k+1)
    n = 4
    gens = [f"x{i}" for i in range(1, n + 1)]
    table = ek_betti(MonomialIdeal.from_strings(n, gens))
    for k in range(n):
        assert table.beta(k, k + 1) == math.comb(n, k + 1)


def test_generator_formula_known_small_table():
    table = ek_betti(MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x1*x3"]))
    assert table.entries == {(0, 2): 3, (1, 3): 3, (2, 4): 1}


def test_direct_sum_adds_tables_with_shifts():
    ideal = MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x1*x3"])
    shifted = MonomialSubmodule(3, (ideal, ideal), (0, 2))
    table = ek_betti(shifted)
    base = ek_betti(ideal)
    for (i, j), v in base.entries.items():
        assert table.beta(i, j) == v + base.beta(i, j - 2)
        assert table.beta(i, j + 2) == base.beta(i, j) + base.beta(i, j + 2)


def test_unstable_input_refused():
    with pytest.raises(NotStable):
        ek_betti(MonomialIdeal.from_strings(2, ["x2^2"]))
    zero_component = MonomialSubmodule(
        2, (MonomialIdeal.from_strings(2, ["x1"]), MonomialIdeal(2, ()))
    )
    with pytest.raises(NotStable) as err:
        ek_betti(zero_component)
    assert str(err.value) == "component 2 is the zero ideal"


@pytest.mark.parametrize(
    "gens, named",
    [
        (((1, 0), (2, 0)), "x1^2"),  # over its initial segment x1
        (((1, 0), (1, 0)), "x1"),
        (((2, 0), (1, 1), (2, 0)), "x1^2"),
    ],
)
def test_generator_formula_refuses_a_list_that_is_not_minimal(gens, named):
    # counted as listed, these give beta_{0,2} = 1, beta_{0,1} = 2 and
    # beta_{0,2} = 3; Koszul homology reads the ideal, not the list
    ideal = MonomialIdeal(2, gens)
    with pytest.raises(BadRange) as err:
        ek_betti(ideal)
    assert str(err.value) == f"component 1 is not minimal: {named}"
    assert err.value.exit_code == 1
    assert koszul_betti(ideal) == ek_betti(MonomialIdeal.from_generators(2, gens))
    module = MonomialSubmodule(2, (MonomialIdeal.from_generators(2, gens), ideal))
    with pytest.raises(BadRange, match="^component 2 is not minimal"):
        ek_betti(module)


def _small_monomials(n, max_degree):
    return st.lists(st.integers(0, n - 1), max_size=max_degree).map(
        lambda picks: tuple(picks.count(t) for t in range(n))
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_generator_formula_equals_koszul_homology_or_refuses_on_built_lists(data):
    # lists built directly, not minimalized: arbitrary ones, and strongly
    # stable ones shuffled, with a repeat, or with multiples kept. A
    # stable minimal list gets the Koszul table; anything else a typed
    # refusal, BadRange exactly when a stable list is not minimal
    n = data.draw(st.integers(1, 4), label="n")
    gens = data.draw(st.lists(_small_monomials(n, 3), max_size=6), label="gens")
    lists = [gens]
    if gens:
        shuffled = data.draw(
            st.permutations(borel_closure(n, gens[:2]).gens), label="shuffled"
        )
        picks = data.draw(st.lists(st.sampled_from(shuffled), max_size=2))
        t = data.draw(st.integers(1, n), label="t")
        lists += [shuffled, shuffled + picks, shuffled + [mul_var(g, t) for g in picks]]
    for listed in lists:
        ideal = MonomialIdeal(n, tuple(listed))
        if not ideal.is_stable():
            with pytest.raises(NotStable):
                ek_betti(ideal)
        elif len(minimalize(n, listed)) < len(listed):
            with pytest.raises(BadRange):
                ek_betti(ideal)
        else:
            assert ek_betti(ideal) == koszul_betti(ideal), listed


def test_extremal_scan_matches_definition_by_hand():
    #    j-i: 1  1  1      entries at (0,1),(1,2),(2,3) plus an outlier
    table = BettiTable(4, {(0, 1): 4, (1, 2): 6, (2, 3): 4, (0, 5): 1})
    got = extremal_from_table(table)
    assert got == [(Corner(2, 1), 4), (Corner(0, 5), 1)]
    assert corner_sequence(table) == [(Corner(2, 1), 4)]


def test_extremal_of_single_entry_table():
    table = BettiTable(2, {(0, 3): 2})
    assert extremal_from_table(table) == [(Corner(0, 3), 2)]
    assert corner_sequence(table) == []


def test_generator_characterization_agrees_with_table_scan(chain_small):
    ideal = chain_small
    table = ek_betti(ideal)
    assert extremal_from_table(table) == extremal_from_generators(ideal)
    assert [cv for cv in extremal_from_generators(ideal) if cv[0].k >= 1] == (
        corner_sequence(table)
    )


def test_chain_fixture_corner_values(chain_small, chain_large):
    small = corner_sequence(ek_betti(chain_small))
    assert [(c.k, c.ell) for c, _v in small] == [(7, 2), (5, 4), (3, 6), (2, 9)]
    assert [v for _c, v in small] == [1, 1, 1, 1]
    large = corner_sequence(ek_betti(chain_large))
    assert [(c.k, c.ell) for c, _v in large] == [
        (7, 2), (6, 4), (5, 5), (4, 7), (3, 9), (2, 10),
    ]
    assert [v for _c, v in large] == [1, 1, 1, 1, 1, 1]


def test_corner_matrix_on_shifted_module():
    ideal = MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x1*x3"])
    module = MonomialSubmodule(3, (ideal, ideal), (0, 1))
    view = corner_matrix(module)
    # shifted copy peaks one degree later, so it alone owns the corner
    assert view.corners == (Corner(2, 3),)
    assert view.rows == ((0, 1),)
    assert view.corner_components == (2,)


def test_corner_matrix_table_is_the_shifted_sum_of_the_columns(bundle3, bundle4):
    ideal = MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x1*x3"])
    shifted = MonomialSubmodule(3, (ideal, ideal), (0, 1))
    for module in (bundle3, bundle4, shifted):
        view = corner_matrix(module)
        assert view.table == ek_betti(module)
        assert list(zip(view.corners, view.values)) == corner_sequence(view.table)
        assert list(view.extremals) == extremal_from_table(view.table)
    # a non-stable component is named by its index in the module
    unstable = MonomialSubmodule(
        3, (ideal, MonomialIdeal.from_strings(3, ["x2^2"])), (0, 0)
    )
    with pytest.raises(NotStable) as info:
        corner_matrix(unstable)
    assert str(info.value).startswith("component 2 is not stable: ")


def test_module_corner_report_shapes(bundle4):
    report = module_corner_report(bundle4)
    assert json.dumps(report, sort_keys=True)  # JSON-ready
    assert report["n"] == 6 and report["m"] == 4
    assert [c["k"] for c in report["corners"]] == [5, 3, 2]
    assert len(report["components"]) == 4


def test_module_corner_report_scans_the_module_table_once(monkeypatch, bundle4):
    expected = module_corner_report(bundle4)
    module_table = ek_betti(bundle4)
    scanned = []

    def counting_scan(table):
        scanned.append(table)
        return extremal_from_table(table)

    patch_everywhere(monkeypatch, extremal_from_table, counting_scan)
    assert module_corner_report(bundle4) == expected
    # the module table once, then each of the four component tables
    assert len(scanned) == 5
    assert [t for t in scanned if t == module_table] == [module_table]


def test_render_diagram_frozen():
    table = ek_betti(MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x1*x3"]))
    stars = {c for c, _v in corner_sequence(table)}
    assert render_diagram(table, stars) == "1: 3 3 1*"
    assert render_diagram(ek_betti(MonomialIdeal.from_strings(2, ["x1"]))) == "0: 1"
    assert render_diagram(BettiTable(2, {})) == "(zero module)"


def test_render_diagram_multirow():
    ideal = MonomialIdeal.from_strings(2, ["x1^2", "x1*x2", "x2^3"])
    table = ek_betti(ideal)
    stars = {c for c, _v in corner_sequence(table)}
    lines = render_diagram(table, stars).splitlines()
    assert lines[0].startswith("1:")
    assert lines[-1].startswith("2:")
    assert "*" in lines[-1]


# sparse tables: k and l in 0..5, so k repeats and l = 0 (row -1) is common
_tables = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)).map(lambda kl: (kl[0], sum(kl))),
    st.integers(0, 10**7) | st.just(0),
    max_size=24,
).map(lambda entries: BettiTable(6, entries))


@settings(deadline=None, max_examples=200)
@given(_tables)
def test_corner_sweep_matches_the_pairwise_definition(table):
    assert extremal_from_table(table) == extremal_by_definition(table)


@settings(deadline=None, max_examples=200)
@given(_tables, st.data())
def test_render_diagram_matches_the_cell_by_cell_reference(table, data):
    keys = [Corner(i, j - i) for i, j in sorted(table.entries)]
    stars = data.draw(st.none() | st.sets(st.sampled_from(keys)) if keys else st.none())
    assert render_diagram(table, stars) == reference_diagram(table, stars)


def test_render_diagram_of_the_unit_ideal_has_row_minus_one():
    table = koszul_betti(MonomialIdeal(3, ((0, 0, 0),)))
    stars = {c for c, _v in corner_sequence(table)}
    assert render_diagram(table, stars) == "-1: 1" == reference_diagram(table, stars)
    both = BettiTable(3, {(0, 0): 1, (2, 14): 12, (1, 1): 0})
    assert render_diagram(both, {Corner(2, 12)}) == reference_diagram(
        both, {Corner(2, 12)}
    )


def _ek_entries_per_generator(module):
    """The generator formula one generator at a time, entries in the order
    they are first met."""
    entries = {}
    for g, mod_deg in module_generators(module):
        top = max_index(g)
        for k in range(top):
            key = (k, k + mod_deg)
            entries[key] = entries.get(key, 0) + math.comb(top - 1, k)
    return entries


def test_stepped_binomials_match_math_comb_on_long_groups():
    # the maximal ideal in 200 variables has one group for each top up to
    # 200; its square in 40 has t generators in the group of top t
    maximal = MonomialIdeal(
        200, tuple(tuple(int(t == i) for t in range(200)) for i in range(200))
    )
    pairs = [(a, b) for a in range(40) for b in range(a, 40)]
    square = MonomialIdeal.from_generators(
        40, [tuple((t == a) + (t == b) for t in range(40)) for a, b in pairs]
    )
    for ideal in (maximal, square):
        module = MonomialSubmodule.of_ideal(ideal)
        assert ek_betti(module).entries == _ek_entries_per_generator(module)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_stepped_binomials_match_math_comb_on_random_groups(data):
    n = data.draw(st.integers(1, 6), label="n")
    seed = st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(any)
    closures = st.lists(seed, min_size=1, max_size=3).map(lambda s: borel_closure(n, s))
    ideals = data.draw(st.lists(closures, min_size=1, max_size=3), label="components")
    m = len(ideals)
    shifts = sorted(data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)))
    module = MonomialSubmodule(n, tuple(ideals), tuple(shifts))
    assert list(ek_betti(module).entries.items()) == list(
        _ek_entries_per_generator(module).items()
    )


def test_grouped_generator_formula_keeps_entries_and_their_order(
    chain_small, chain_large, bundle3, bundle4
):
    ideal = MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x1*x3"])
    other = MonomialIdeal.from_strings(3, ["x1", "x2^2", "x2*x3"])
    shifted = MonomialSubmodule(3, (other, ideal, ideal), (0, 1, 1))
    for module in (chain_small, chain_large, bundle3, bundle4, shifted):
        if isinstance(module, MonomialIdeal):
            module = MonomialSubmodule.of_ideal(module)
        want = _ek_entries_per_generator(module)
        assert list(ek_betti(module).entries.items()) == list(want.items())
