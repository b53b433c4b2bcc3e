import contextlib
import importlib
from collections import Counter

import pytest
import search_reference
from conftest import patch_everywhere, spec
from hypothesis import example, given, settings
from hypothesis import strategies as st
from normalize_reference import normalize_module

from stablebetti import (
    BudgetExceeded,
    Corner,
    CornerSpec,
    InfeasibleSpec,
    MODE_COUPLED,
    MODE_STRICT,
    MonomialIdeal,
    MonomialSubmodule,
    SpecError,
    UncoveredByCharacterization,
    VerificationFailed,
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
    validate_module_spec(spec(6, [(5, 3)], [1]), 1)  # does not raise
    uncovered = spec(3, [(1, 2)], [1])
    assert not uncovered.covered
    with pytest.raises(UncoveredByCharacterization):
        validate_module_spec(uncovered, 1)
    with pytest.raises(SpecError):
        validate_module_spec(spec(6, [(5, 3)], [1]), 0)


def test_validate_module_spec_value_range():
    # single corner (2,2): per-component stratum size C(3,1) = 3
    validate_module_spec(spec(4, [(2, 2)], [6]), 2)  # does not raise
    with pytest.raises(InfeasibleSpec, match="above the 2-component cap 6") as err:
        validate_module_spec(spec(4, [(2, 2)], [7]), 2)
    assert err.value.exit_code == 2
    # positions that the single-ideal rules exclude are fine for m > 1
    validate_module_spec(spec(3, [(1, 2)], [2]), 2)
    # one column per component is built, so m is capped
    validate_module_spec(spec(4, [(2, 2)], [1]), MAX_COMPONENTS)
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
    assert err.value.exit_code == 2
    with pytest.raises(BudgetExceeded, match="search budget exhausted; ") as err:
        find_corner_matrix(
            spec(6, [(5, 2), (3, 3), (2, 5)], [1, 3, 1]), 3, node_budget=2
        )
    assert err.value.exit_code == 1
    with pytest.raises(UncoveredByCharacterization):
        find_corner_matrix(spec(3, [(1, 2)], [1]), 1)


def test_refusal_names_the_row_with_the_largest_exact_ratio():
    # both rows ask for 2 * cap - 1 of their 2-column cap 2 * cap: the
    # ratios differ only past a float's precision, and the first row's
    # larger cap gives it the larger one
    caps = [stratum_size(40, 30), stratum_size(30, 31)]
    assert caps[0] > caps[1]
    assert (2 * caps[0] - 1) / (2 * caps[0]) == (2 * caps[1] - 1) / (2 * caps[1])
    s = spec(41, [(40, 30), (30, 31)], [2 * c - 1 for c in caps])
    with pytest.raises(BudgetExceeded, match="tightest row is corner 1 "):
        find_corner_matrix(s, 2, node_budget=1)
    # on an exact tie the later row is named
    tie = spec(6, [(5, 2), (3, 3)], [stratum_size(5, 2), stratum_size(3, 3)])
    with pytest.raises(BudgetExceeded, match="tightest row is corner 2 "):
        find_corner_matrix(tie, 2, node_budget=1)


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
    except (InfeasibleSpec, BudgetExceeded) as exc:
        return str(exc), isinstance(exc, BudgetExceeded)
    except UncoveredByCharacterization as exc:
        return str(exc)


# the benchmark's two specs that the unpruned search cannot settle within
# its 2,000 nodes, with the nodes each search needs to find its matrix
_BENCHMARK_REFUSALS = [((4, 48, 119), 16, 2121), ((5, 69, 28), 86, 2225)]


def _budget_examples(test):
    # each at the nodes either search needs and one fewer, and at the
    # budget the benchmark runs them with and one node either side
    for values, need, reference_need in _BENCHMARK_REFUSALS:
        budgets = (need - 1, need, 1999, 2000, 2001, reference_need - 1, reference_need)
        for budget in budgets:
            case = (8, [(7, 2), (5, 5), (3, 8)], list(values), 3, MODE_COUPLED, budget)
            test = example(case)(test)
    return test


def _exhausted(outcome):
    return outcome[-1] is True


@settings(deadline=None, max_examples=300)
@given(_module_searches())
@_budget_examples
def test_column_walk_matches_the_recursive_search(case):
    # the lookahead skips only subtrees that hold no matrix, so wherever the
    # unpruned reference settles a spec within the budget, the walk gives
    # the same matrix or the same complete refusal, in no more nodes
    got = _search_outcome(find_corner_matrix, *case)
    want = _search_outcome(search_reference.find_corner_matrix, *case)
    if not _exhausted(want):
        assert got == want
    elif not _exhausted(got):
        # settled where the reference ran out: a larger budget takes the
        # reference to the same matrix or refusal, or runs out again
        *spec_case, _budget = case
        more = _search_outcome(search_reference.find_corner_matrix, *spec_case, 20_000)
        assert got == more or _exhausted(more)


@pytest.mark.parametrize("values, need, reference_need", _BENCHMARK_REFUSALS)
def test_lookahead_settles_the_benchmark_refusals(values, need, reference_need):
    s = spec(8, [(7, 2), (5, 5), (3, 8)], values)
    assert _nodes_spent(find_corner_matrix, s, 3, MODE_COUPLED) == need
    reference = search_reference.find_corner_matrix
    assert _nodes_spent(reference, s, 3, MODE_COUPLED) == reference_need
    assert find_corner_matrix(s, 3) == reference(s, 3)


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


def test_corner_matrix_entries_may_not_be_bools():
    # True == 1 and bool subclasses int, but a JSON true is not a count
    s = CornerSpec(6, (Corner(5, 3),), (2,))
    reason = "matrix entries must be non-negative integers"
    assert validate_corner_matrix(s, ((True, True),)) == (False, reason)
    assert validate_corner_matrix(s, ((1, True),)) == (False, reason)
    with pytest.raises(InfeasibleSpec, match=reason):
        construct_module(s, ((True, True),))
    assert construct_module(s, ((1, 1),)).to_obj()["matrix"] == [[1, 1]]


def test_validate_corner_matrix_checks_mode_bounds():
    s = spec(6, [(3, 3), (2, 5)], [4, 2])
    assert validate_corner_matrix(s, ((4,), (2,)))[0]  # coupled default
    ok, reason = validate_corner_matrix(s, ((4,), (2,)), MODE_STRICT)
    assert not ok
    assert reason == "column 1 entry 2 exceeds its strict-paper cap 1"
    # both regimes word a refusal alike, each naming its cap
    ok, reason = validate_corner_matrix(spec(6, [(3, 3), (2, 5)], [8, 2]), ((8,), (2,)))
    assert (ok, reason) == (False, "column 1 entry 1 exceeds its coupled cap 7")


def _nodes_spent(search, s, m, mode):
    """The fewest nodes a search needs, read off the budgets: a search
    refuses for want of budget exactly when it needs more nodes."""

    def enough(budget):
        try:
            search(s, m, mode, node_budget=budget)
        except BudgetExceeded:
            return False
        except InfeasibleSpec:  # a complete refusal settles the spec too
            pass
        return True

    low, high = 0, 1  # low is too small, high may not be
    while not enough(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if enough(mid) else (mid, high)
    return high


@pytest.mark.parametrize("m", [2, 3])
def test_coupled_search_builds_one_window_set_per_column_attempt(monkeypatch, m):
    # the package re-exports shadow the submodule names, so fetch the module
    ideal_module = importlib.import_module("stablebetti.realize_ideal")
    original_bottom = ideal_module._corner_bottom
    original_chain = ideal_module.coupled_chain
    window_sets = []  # the corners of every sub-spec whose windows are built
    chains = []  # (pattern corners, prefix) of every chain the search walks
    reference_chains = []  # the same for the unmemoised reference search

    def counting_bottom(sub, i, t):
        if i == 0:  # the first window of a sub-spec's set
            window_sets.append(sub.corners)
        return original_bottom(sub, i, t)

    def counting_chain(calls):
        def chain(sub, entries):
            calls.append((sub.corners, tuple(entries)))
            return original_chain(sub, entries)

        return chain

    monkeypatch.setattr(ideal_module, "_corner_bottom", counting_bottom)
    # the search reads every cap through realize_ideal._caps
    monkeypatch.setattr(ideal_module, "coupled_chain", counting_chain(chains))
    monkeypatch.setattr(
        search_reference, "coupled_chain", counting_chain(reference_chains)
    )
    expected = {
        MODE_COUPLED: ((1, 2, 0), (3, 3, 2), (1, 0, 3)),
        MODE_STRICT: ((3, 0, 0), (1, 7, 0), (0, 1, 3)),
    }
    for mode in (MODE_COUPLED, MODE_STRICT):
        window_sets.clear()
        chains.clear()
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
            assert {corners for corners, _ in chains} <= set(window_sets)
            # each (pattern, prefix) chain is walked at most once per search
            assert len(chains) == len(set(chains))
            # the unmemoised, unpruned walk walks more chains, and walks them
            # again on every column attempt: an empty prefix starts one, and
            # patterns are retried
            reference_chains.clear()
            with contextlib.suppress(InfeasibleSpec):
                search_reference.find_corner_matrix(s, m, mode)
            assert len(reference_chains) > len(chains)
            attempts = [corners for corners, prefix in reference_chains if not prefix]
            assert len(attempts) > len(set(attempts))
            # the lookahead spends no more nodes than the reference, and a
            # node keeps at most r caps for its own pattern and r for each
            # pattern its lookahead tries
            kept = len(chains)
            nodes = _nodes_spent(find_corner_matrix, s, m, mode)
            reference = search_reference.find_corner_matrix
            assert nodes <= _nodes_spent(reference, s, m, mode)
            assert kept <= nodes * s.r * (1 + 2**s.r)


def test_construct_module_refuses_columns_built_for_another_split(monkeypatch):
    # each column is built for the other's entries: the sums, and so the
    # module's corners, still agree, but the matrix read back does not
    module = importlib.import_module("stablebetti.realize_module")
    original = module.construct_ideal
    swap = {(1, 3, 1): (1, 2, 1), (1, 2, 1): (1, 3, 1)}

    def construct_swapped(sub, mode):
        return original(sub.sub_spec(range(sub.r), swap[sub.values]), mode)

    monkeypatch.setattr(module, "construct_ideal", construct_swapped)
    s = spec(6, [(5, 2), (3, 3), (2, 5)], [2, 5, 2])
    with pytest.raises(VerificationFailed) as err:
        construct_module(s, ((1, 1), (3, 2), (1, 1)))
    assert str(err.value) == (
        "assembled module does not reproduce the requested corner matrix"
    )


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


@pytest.mark.parametrize("mode, windows", [(MODE_COUPLED, 7), (MODE_STRICT, 12)])
def test_realize_module_builds_each_distinct_window_once(monkeypatch, mode, windows):
    # the search, the matrix check and the columns' constructions read one
    # window memo by corners, so a window is built once however many
    # sub-specs with the same corners (and other values) ask for it
    module = importlib.import_module("stablebetti.realize_ideal")
    original_bottom = module._corner_bottom
    bottoms = []

    def counting_bottom(sub, i, t):
        bottoms.append((sub.corners, i))
        return original_bottom(sub, i, t)

    monkeypatch.setattr(module, "_corner_bottom", counting_bottom)
    s = spec(6, [(5, 2), (3, 3), (2, 5)], [3, 8, 4])
    realize_module(s, 3, mode)
    assert len(bottoms) == len(set(bottoms)) == windows


def test_strict_search_computes_each_pattern_bounds_once(monkeypatch):
    # one window record per pattern holds the caps of all its positions
    module = importlib.import_module("stablebetti.realize_ideal")
    original_report = module.BoundReport
    reports = []

    def counting_report(t, windows):
        reports.append(tuple(w.corner for w in windows))
        return original_report(t, windows)

    monkeypatch.setattr(module, "BoundReport", counting_report)
    s = spec(6, [(5, 2), (3, 3), (2, 5)], [3, 8, 4])
    find_corner_matrix(s, 3, MODE_STRICT)
    assert reports and len(reports) == len(set(reports))


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
    # the report reads its component corners off the corner matrix's tables,
    # one per component, each of that component alone at its shift;
    # normalization builds one table per component before and after the
    # rebuild, plus one in each rebuilt column's self-verification
    module = request.getfixturevalue(name)
    tables = []

    def counting_ek_betti(part):
        tables.append(part)
        return ek_betti(part)

    patch_everywhere(monkeypatch, ek_betti, counting_ek_betti)
    module_corner_report(module)
    parts = zip(module.components, module.shifts)
    assert tables == [MonomialSubmodule(module.n, (c,), (f,)) for c, f in parts]
    tables.clear()
    normalize_module(module)
    assert len(tables) == normalize_tables


def test_normalize_module_requires_unshifted_components():
    ideal = MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x1*x3"])
    module = MonomialSubmodule(3, (ideal, ideal), (0, 1))
    with pytest.raises(SpecError):
        normalize_module(module)


def test_realize_module_scans_each_component_once_per_verdict(monkeypatch):
    # one strong scan per component, in the column's self-verification,
    # and no weak one: the passed strong verdict settles the weak verdict
    # that its Betti table, and the module table summed from it, ask for
    calls = Counter()
    original = MonomialIdeal._stability_violation

    def counted(self, strong):
        calls[id(self), strong] += 1
        return original(self, strong)

    monkeypatch.setattr(MonomialIdeal, "_stability_violation", counted)
    realization = realize_module(spec(6, [(5, 2), (3, 3), (2, 5)], [3, 8, 4]), 3)
    assert realization.matrix == ((1, 2, 0), (3, 3, 2), (1, 0, 3))
    components = realization.module.components
    assert calls == Counter({(id(c), True): 1 for c in components})
    assert realization.table == ek_betti(realization.module)
