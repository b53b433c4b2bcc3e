import importlib
from collections import Counter

import pytest
import search_reference
from conftest import patch_everywhere, spec
from hypothesis import given, settings
from hypothesis import strategies as st
from normalize_reference import normalize_module

from stablebetti import (
    BudgetExceeded,
    Corner,
    InfeasibleSpec,
    MODE_COUPLED,
    MODE_STRICT,
    MonomialIdeal,
    MonomialSubmodule,
    SpecError,
    UncoveredByCharacterization,
    compute_bounds,
    construct_module,
    corner_matrix,
    corner_sequence,
    degree,
    ek_betti,
    filler_ideal,
    find_corner_matrix,
    module_corner_report,
    realize_module,
    validate_corner_matrix,
    validate_module_spec,
)
from stablebetti.realize_module import MAX_COMPONENTS
from stablebetti.segments import stratum_size


def test_validate_module_spec_delegates_for_single_component():
    assert validate_module_spec(spec(6, [(5, 3)], [1]), 1).admissible
    assert validate_module_spec(spec(3, [(1, 2)], [1]), 1).status == "uncovered"
    with pytest.raises(SpecError):
        validate_module_spec(spec(6, [(5, 3)], [1]), 0)


def test_validate_module_spec_value_range():
    # single corner (2,2): per-component stratum size C(3,1) = 3
    assert validate_module_spec(spec(4, [(2, 2)], [6]), 2).admissible
    verdict = validate_module_spec(spec(4, [(2, 2)], [7]), 2)
    assert not verdict.admissible
    assert verdict.status == "rejected"
    # positions that the single-ideal rules exclude are fine for m > 1
    assert validate_module_spec(spec(3, [(1, 2)], [2]), 2).admissible
    # one column per component is built, so m is capped
    assert validate_module_spec(spec(4, [(2, 2)], [1]), MAX_COMPONENTS).admissible
    with pytest.raises(BudgetExceeded, match="allows m <= 10000, got 10001"):
        validate_module_spec(spec(4, [(2, 2)], [1]), MAX_COMPONENTS + 1)


def test_column_bounds_match_single_ideal_bounds():
    s = spec(6, [(5, 2), (3, 3), (2, 5)], [1, 3, 1])

    def column_bounds(rows):
        return compute_bounds(s.sub_spec(rows)).bounds

    assert column_bounds((0, 1, 2)) == (1, 3, 1)
    assert column_bounds((1,)) == (10,)  # lone corner: full peak stratum
    assert column_bounds((0, 2)) == (2, 1)


def test_find_corner_matrix_frozen_single_corner():
    matrix = find_corner_matrix(spec(4, [(2, 2)], [6]), 2)
    assert matrix == ((3, 3),)
    matrix = find_corner_matrix(spec(4, [(2, 2)], [4]), 2)
    assert matrix == ((3, 1),)


def test_find_corner_matrix_prefers_full_pattern_first_column():
    matrix = find_corner_matrix(spec(6, [(5, 2), (3, 3), (2, 5)], [1, 3, 1]), 2)
    assert matrix == ((1, 0), (3, 0), (1, 0))


def test_find_corner_matrix_infeasible_and_budget():
    with pytest.raises(InfeasibleSpec) as err:
        find_corner_matrix(spec(4, [(2, 2)], [7]), 2)
    assert not err.value.exhausted_budget
    with pytest.raises(InfeasibleSpec) as err:
        find_corner_matrix(
            spec(6, [(5, 2), (3, 3), (2, 5)], [1, 3, 1]), 3, node_budget=2
        )
    assert err.value.exhausted_budget
    with pytest.raises(UncoveredByCharacterization):
        find_corner_matrix(spec(3, [(1, 2)], [1]), 1)


@st.composite
def _module_searches(draw):
    n = draw(st.integers(3, 8))
    r = draw(st.integers(1, min(3, n - 1)))
    ks = draw(st.lists(st.integers(1, n - 1), min_size=r, max_size=r, unique=True))
    ls = draw(st.lists(st.integers(2, 10), min_size=r, max_size=r, unique=True))
    pairs = list(zip(sorted(ks, reverse=True), sorted(ls)))
    m = draw(st.integers(1, 4))
    values = [draw(st.integers(1, m * stratum_size(k, l))) for k, l in pairs]
    mode = draw(st.sampled_from([MODE_COUPLED, MODE_STRICT]))
    return n, pairs, values, m, mode, draw(st.integers(1, 2000))


def _search_outcome(search, n, pairs, values, m, mode, budget):
    try:
        return search(spec(n, pairs, values), m, mode, node_budget=budget)
    except InfeasibleSpec as exc:
        return str(exc), exc.exhausted_budget
    except UncoveredByCharacterization as exc:
        return str(exc)


@settings(deadline=None, max_examples=300)
@given(_module_searches())
def test_column_walk_matches_the_recursive_search(case):
    # same matrix, or the same refusal; the small budgets pin the node
    # accounting, since a budget refuses at the same node in both
    assert _search_outcome(find_corner_matrix, *case) == _search_outcome(
        search_reference.find_corner_matrix, *case
    )


def test_validate_corner_matrix_catches_bad_shapes_and_sums():
    s = spec(6, [(5, 2), (3, 3)], [1, 2])
    ok, reason = validate_corner_matrix(s, ((1,), (2,)))
    assert ok and reason is None
    assert not validate_corner_matrix(s, ((1,),))[0]  # row count
    assert not validate_corner_matrix(s, ((1, 0), (2,)))[0]  # ragged
    assert not validate_corner_matrix(s, ((2,), (2,)))[0]  # row sum
    assert not validate_corner_matrix(s, ((1,), (-2,)))[0]
    # per-column position screening: a column carrying a chain that
    # starts in degree 2 and ends at position 1 is uncovered
    s2 = spec(4, [(3, 2), (1, 3)], [1, 1])
    ok, reason = validate_corner_matrix(s2, ((1,), (1,)))
    assert not ok
    assert "position screening" in reason


def test_validate_corner_matrix_checks_mode_bounds():
    s = spec(6, [(3, 3), (2, 5)], [4, 2])
    assert validate_corner_matrix(s, ((4,), (2,)))[0]  # coupled default
    ok, reason = validate_corner_matrix(s, ((4,), (2,)), MODE_STRICT)
    assert not ok
    assert "strict cap" in reason


@pytest.mark.parametrize("m", [2, 3])
def test_coupled_search_builds_one_window_set_per_column_attempt(monkeypatch, m):
    # the package re-exports shadow the submodule names, so fetch the module
    search_module = importlib.import_module("stablebetti.realize_module")
    ideal_module = importlib.import_module("stablebetti.realize_ideal")
    original_bottom = ideal_module._corner_bottom
    original_chain = search_module.coupled_chain
    window_sets = []  # the corners of every sub-spec whose windows are built
    attempts = []  # the corners of every column attempt's pattern
    walks = []

    def counting_bottom(sub, i, t):
        if i == 0:  # the first window of a sub-spec's set
            window_sets.append(sub.corners)
        return original_bottom(sub, i, t)

    def counting_chain(sub, entries):
        if not entries:  # the first node of a column attempt
            attempts.append(sub.corners)
        walks.append(len(entries))
        return original_chain(sub, entries)

    monkeypatch.setattr(ideal_module, "_corner_bottom", counting_bottom)
    monkeypatch.setattr(search_module, "coupled_chain", counting_chain)
    expected = {
        MODE_COUPLED: ((1, 2, 0), (3, 3, 2), (1, 0, 3)),
        MODE_STRICT: ((3, 0, 0), (1, 7, 0), (0, 1, 3)),
    }
    for mode in (MODE_COUPLED, MODE_STRICT):
        window_sets.clear()
        # a fresh spec each time, since a spec keeps its sub-specs' windows
        s = spec(6, [(5, 2), (3, 3), (2, 5)], [3, 8, 4])
        if m == 2:
            with pytest.raises(InfeasibleSpec):  # refused after a full search
                find_corner_matrix(s, m, mode)
        else:
            assert find_corner_matrix(s, m, mode) == expected[mode]
        # each pattern's windows are built at most once per search
        assert len(window_sets) == len(set(window_sets)) <= 2**s.r - 1
        if mode == MODE_COUPLED:
            assert set(attempts) <= set(window_sets)
            assert len(attempts) > len(set(attempts))  # patterns are retried
            assert len(walks) > len(attempts)  # later nodes reuse the windows


def test_construct_module_builds_each_column_window_once(monkeypatch):
    # the matrix check and the column's construction share one sub-spec,
    # and so its windows: one bottom per corner a column carries
    module = importlib.import_module("stablebetti.realize_ideal")
    original_bottom = module._corner_bottom
    bottoms = []

    def counting_bottom(sub, i, t):
        bottoms.append((sub.corners, i))
        return original_bottom(sub, i, t)

    monkeypatch.setattr(module, "_corner_bottom", counting_bottom)
    s = spec(6, [(5, 2), (3, 3), (2, 5)], [3, 8, 4])
    matrix = ((1, 2, 0), (3, 3, 2), (1, 0, 3))
    assert construct_module(s, matrix).matrix == matrix
    assert len(bottoms) == 3 + 2 + 2
    assert len(set(bottoms)) == len(bottoms)


def test_construct_module_builds_each_distinct_column_once(monkeypatch):
    # two equal columns share one construction and its verification, and
    # two empty ones one filler
    module = importlib.import_module("stablebetti.realize_module")
    built, fillers = [], []

    def counting_construct(sub, mode):
        built.append((sub.corners, sub.values))
        return original_construct(sub, mode)

    def counting_filler(*args):
        fillers.append(args)
        return original_filler(*args)

    original_construct = module.construct_ideal
    original_filler = module.filler_ideal
    monkeypatch.setattr(module, "construct_ideal", counting_construct)
    monkeypatch.setattr(module, "filler_ideal", counting_filler)
    s = spec(6, [(5, 2), (3, 3), (2, 5)], [3, 7, 2])
    matrix = ((1, 0, 1, 1, 0), (3, 0, 3, 1, 0), (1, 0, 1, 0, 0))
    out = construct_module(s, matrix)
    assert out.matrix == matrix
    assert built == [(s.corners, (1, 3, 1)), (s.corners[:2], (1, 1))]
    assert len(fillers) == 1
    assert out.columns[0] is out.columns[2]
    assert out.columns[1] is None and out.columns[4] is None
    assert out.module.components[1] == out.module.components[4]
    assert corner_matrix(out.module).rows == matrix


def test_filler_ideal_is_corner_invisible():
    filler = filler_ideal(6, 2, 2)
    assert filler == MonomialIdeal.from_strings(6, ["x1", "x2", "x3"])
    filler5 = filler_ideal(6, 5, 3)
    assert {degree(g) for g in filler5.gens} == {4}
    assert filler5.is_strongly_stable()
    anchor = MonomialIdeal.from_strings(6, [
        "x1^2", "x1*x2", "x1*x3", "x1*x4", "x1*x5", "x1*x6",
        "x2^2", "x2*x3", "x2*x4", "x2*x5", "x2*x6", "x3^5",
    ])
    alone = corner_sequence(ek_betti(anchor))
    padded = MonomialSubmodule(6, (anchor, filler_ideal(6, 2, 2)))
    assert corner_sequence(ek_betti(padded)) == alone


def test_construct_module_round_trip():
    s = spec(6, [(5, 2), (3, 3), (2, 5)], [1, 3, 1])
    matrix = ((1, 0), (3, 0), (1, 0))
    out = construct_module(s, matrix)
    assert out.matrix == matrix
    assert out.columns[1] is None  # filler column
    assert corner_matrix(out.module).rows == matrix
    with pytest.raises(InfeasibleSpec):
        construct_module(s, ((1,), (3,), (2,)))  # bad row sum
    with pytest.raises(InfeasibleSpec):
        construct_module(
            spec(6, [(3, 3), (2, 5)], [4, 2]), ((4,), (2,)), MODE_STRICT
        )  # entry above its strict cap


def test_realize_module_two_columns_with_split():
    s = spec(4, [(2, 2)], [5])
    out = realize_module(s, 2)
    assert out.matrix == ((3, 2),)
    assert [sum(row) for row in out.matrix] == [5]
    assert corner_sequence(ek_betti(out.module)) == [(Corner(2, 2), 5)]


def test_normalize_module_fixpoint(bundle3):
    module, rebuilt = normalize_module(bundle3)
    assert rebuilt == ()
    assert module == bundle3


def test_normalize_module_rebuilds_offending_component(bundle4):
    before = corner_sequence(ek_betti(bundle4))
    module, rebuilt = normalize_module(bundle4)
    assert rebuilt == (4,)
    assert corner_sequence(ek_betti(module)) == before
    view = corner_matrix(module)
    assert view.rows == corner_matrix(bundle4).rows
    own = corner_sequence(ek_betti(module.components[3]))
    assert own == [(Corner(3, 3), 3)]


@pytest.mark.parametrize(
    "name, normalize_tables", [("bundle4", 4 + 1 + 4), ("bundle3", 3 + 0 + 3)]
)
def test_each_component_table_is_built_once(
    monkeypatch, request, name, normalize_tables
):
    # the report reads its component corners off the corner matrix's tables;
    # normalization builds one table per component before and after the
    # rebuild, plus one in each rebuilt column's self-verification
    module = request.getfixturevalue(name)
    tables = []

    def counting_ek_betti(ideal):
        tables.append(ideal)
        return ek_betti(ideal)

    patch_everywhere(monkeypatch, ek_betti, counting_ek_betti)
    module_corner_report(module)
    assert tables == list(module.components)
    tables.clear()
    normalize_module(module)
    assert len(tables) == normalize_tables


def test_normalize_module_requires_unshifted_components():
    ideal = MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x1*x3"])
    module = MonomialSubmodule(3, (ideal, ideal), (0, 1))
    with pytest.raises(SpecError):
        normalize_module(module)


def test_realize_module_scans_each_component_once_per_verdict(monkeypatch):
    # one weak and one strong scan per component: the strong one in the
    # column's self-verification, the weak one for its Betti table, which
    # the module table is then summed from
    calls = Counter()
    original = MonomialIdeal._stability_violation

    def counted(self, strong):
        calls[id(self), strong] += 1
        return original(self, strong)

    monkeypatch.setattr(MonomialIdeal, "_stability_violation", counted)
    realization = realize_module(spec(6, [(5, 2), (3, 3), (2, 5)], [3, 8, 4]), 3)
    assert realization.matrix == ((1, 2, 0), (3, 3, 2), (1, 0, 3))
    components = realization.module.components
    assert calls == Counter(
        {(id(c), strong): 1 for c in components for strong in (False, True)}
    )
    assert realization.table == ek_betti(realization.module)
