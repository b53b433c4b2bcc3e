import importlib
import io
import itertools
import json
import random
import time

import chain_reference
import pytest
import window_reference as reference
from conftest import patch_everywhere, spec
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stablebetti import (
    BudgetExceeded,
    Corner,
    CornerSpec,
    InfeasibleSpec,
    MODE_COUPLED,
    MODE_STRICT,
    MODES,
    MonomialIdeal,
    SpecError,
    StableBettiError,
    UncoveredByCharacterization,
    VerificationFailed,
    check_values,
    compute_bounds,
    construct_ideal,
    construct_module,
    corner_sequence,
    coupled_chain,
    degree,
    ek_betti,
    find_corner_matrix,
    format_monomial,
    validate_positions,
)
from stablebetti import betti, ideals, realize_ideal, segments
from stablebetti.realize_ideal import _verify_realization
from stablebetti.cli import run


def test_spec_validation():
    good = spec(6, [(5, 2), (3, 3)], [1, 2])
    assert good.r == 2
    for bad in [
        lambda: spec(1, [(1, 2)], [1]),
        lambda: spec(4, [], []),
        lambda: spec(4, [(4, 2)], [1]),  # k must stay below n
        lambda: spec(4, [(0, 2)], [1]),
        lambda: spec(4, [(2, 1)], [1]),  # first degree at least 2
        lambda: spec(4, [(3, 2), (3, 3)], [1, 1]),  # k strictly decreasing
        lambda: spec(4, [(3, 3), (2, 3)], [1, 1]),  # l strictly increasing
        lambda: spec(4, [(3, 3), (2, 2)], [1, 1]),
        lambda: spec(4, [(3, 2)], [0]),
        lambda: spec(4, [(3, 2)], [1, 1]),
    ]:
        with pytest.raises(SpecError):
            bad()


def test_spec_json_round_trip():
    s = spec(6, [(5, 2), (3, 3)], [1, 2])
    assert CornerSpec.from_obj(s.to_obj()) == s
    assert CornerSpec.from_obj(json.loads(json.dumps(s.to_obj()))) == s
    with pytest.raises(SpecError):
        CornerSpec.from_obj({"n": 4})


def test_sub_spec():
    s = spec(6, [(5, 2), (3, 3), (2, 5)], [1, 3, 1])
    sub = s.sub_spec((0, 2))
    assert sub.corners == (Corner(5, 2), Corner(2, 5))
    assert sub.values == (1, 1)
    override = s.sub_spec((1,), values=(7,))
    assert override.values == (7,)


def _assert_covered(s):
    assert s.covered
    validate_positions(s)  # does not raise


def _assert_uncovered(s):
    assert not s.covered
    with pytest.raises(UncoveredByCharacterization, match="outside the decided cases"):
        validate_positions(s)


def test_validate_positions_branches():
    _assert_covered(spec(6, [(5, 3)], [1]))
    _assert_covered(spec(6, [(5, 2), (3, 3)], [1, 1]))
    _assert_uncovered(spec(3, [(1, 2)], [1]))
    _assert_uncovered(spec(4, [(2, 2), (1, 3)], [1, 1]))
    _assert_uncovered(spec(5, [(3, 2), (2, 3), (1, 4)], [1, 1, 1]))
    # r = n - 2 with final position >= 2 forces the first position to be
    # n - 1 arithmetically, so the longest first-degree-2 chains pass
    _assert_covered(spec(5, [(4, 2), (3, 3), (2, 4)], [1, 1, 1]))
    _assert_covered(spec(5, [(3, 2), (2, 3)], [1, 1]))


def test_no_well_formed_first_degree_2_positions_are_rejected():
    # the screen reads only n, the positions and the first degree, so
    # degrees 2, 3, ... cover every first-degree-2 position sequence
    seen = 0
    for n in range(2, 11):
        for r in range(1, n):
            for ks in itertools.combinations(range(n - 1, 0, -1), r):
                s = spec(n, zip(ks, range(2, 2 + r)), [1] * r)
                if ks[-1] == 1:
                    _assert_uncovered(s)
                else:
                    _assert_covered(s)
                seen += 1
    assert seen == 1013


def test_bounds_three_corner_fixture():
    report = compute_bounds(spec(6, [(5, 2), (3, 3), (2, 5)], [1, 3, 1]))
    assert report.bounds == (1, 3, 1)
    assert report.t == 1
    bottoms = [format_monomial(w.bottom) for w in report.windows]
    assert bottoms == ["x1*x6", "x2*x4^2", "x3^5"]


def test_bounds_two_corner_fixture():
    report = compute_bounds(spec(6, [(5, 2), (2, 5)], [2, 1]))
    assert report.bounds == (2, 1)
    bottoms = [format_monomial(w.bottom) for w in report.windows]
    assert bottoms == ["x2*x6", "x3^5"]


def test_coupled_chain_prefix_and_violation():
    s = spec(6, [(3, 3), (2, 5)], [4, 2])
    bounds, picks, violation = coupled_chain(s, s.values)
    assert violation is None
    assert bounds == [7, 5]
    assert [format_monomial(u) for u in picks] == ["x1*x4^2", "x2^3*x3^2"]
    # a prefix yields the cap for the next corner
    bounds, picks, violation = coupled_chain(s, (4,))
    assert bounds == [7, 5] and len(picks) == 1
    # an oversized request reports the 0-based violating index
    bounds, picks, violation = coupled_chain(s, (8, 1))
    assert violation == 0


def test_check_values_modes_disagree_on_fixture():
    s = spec(6, [(3, 3), (2, 5)], [4, 2])
    strict = check_values(s, MODE_STRICT)
    coupled = check_values(s, MODE_COUPLED)
    assert not strict.feasible
    assert strict.bounds == (7, 1)
    assert strict.first_violation == 2
    assert coupled.feasible
    assert coupled.bounds == (7, 5)
    assert coupled.first_violation is None


def test_strict_acceptance_implies_coupled_acceptance():
    rng = random.Random(23)
    tried = 0
    while tried < 80:
        n = rng.randint(3, 6)
        r = rng.randint(1, min(3, n - 1))
        ls, ks = set(), set()
        while len(ls) < r:
            ls.add(rng.randint(2, 6))
        while len(ks) < r:
            ks.add(rng.randint(1, n - 1))
        pairs = list(zip(sorted(ks, reverse=True), sorted(ls)))
        probe = spec(n, pairs, [1] * r)
        if not probe.covered:
            continue
        bounds = compute_bounds(probe).bounds
        if any(b < 1 for b in bounds):
            continue
        values = tuple(rng.randint(1, b) for b in bounds)
        s = spec(n, pairs, values)
        assert check_values(s, MODE_STRICT).feasible
        assert check_values(s, MODE_COUPLED).feasible
        tried += 1


def test_construct_ideal_three_corner_fixture():
    s = spec(6, [(5, 2), (3, 3), (2, 5)], [1, 3, 1])
    out = construct_ideal(s)
    assert out.ideal == MonomialIdeal.from_strings(6, [
        "x1^2", "x1*x2", "x1*x3", "x1*x4", "x1*x5", "x1*x6",
        "x2^3", "x2^2*x3", "x2^2*x4", "x2*x3^2", "x2*x3*x4", "x2*x4^2",
        "x3^5",
    ])
    assert [format_monomial(u) for u in out.picks] == [
        "x1*x6", "x2*x4^2", "x3^5",
    ]
    assert [len(b) for b in out.blocks] == [6, 6, 1]
    assert out.strict_verdict.feasible and out.coupled_verdict.feasible


def test_construct_ideal_same_witness_in_both_modes():
    s = spec(6, [(5, 2), (2, 5)], [2, 1])
    assert construct_ideal(s, MODE_STRICT).ideal == construct_ideal(s, MODE_COUPLED).ideal


def test_construct_ideal_infeasible_value():
    s = spec(6, [(5, 2)], [7])  # the whole peak stratum only has 6 monomials
    with pytest.raises(InfeasibleSpec):
        construct_ideal(s)


def test_construct_ideal_uncovered_positions():
    s = spec(3, [(1, 2)], [1])
    with pytest.raises(UncoveredByCharacterization):
        construct_ideal(s)


def test_construct_ideal_strict_mode_rejects_coupled_only_values():
    s = spec(6, [(3, 3), (2, 5)], [4, 2])
    with pytest.raises(InfeasibleSpec):
        construct_ideal(s, MODE_STRICT)
    assert construct_ideal(s, MODE_COUPLED).ideal.is_strongly_stable()


@pytest.mark.parametrize("mode", MODES)
def test_construct_ideal_builds_each_window_once(monkeypatch, mode):
    # the package re-exports shadow the submodule names, so fetch the module
    module = importlib.import_module("stablebetti.realize_ideal")
    original_bottom = module._corner_bottom
    bottoms = []
    window_sets = []  # the spec of every window set built (its first bottom)

    def counting_bottom(spec, i, t):
        if i == 0:
            window_sets.append(spec)
        bottoms.append(i)
        return original_bottom(spec, i, t)

    monkeypatch.setattr(module, "_corner_bottom", counting_bottom)
    s = spec(6, [(5, 2), (3, 3), (2, 5)], [1, 3, 1])
    construct_ideal(s, mode)
    assert window_sets == [s]  # one window set feeds bounds, verdicts, blocks
    assert bottoms == list(range(s.r))  # one window per corner


def test_windows_are_built_once_per_spec_object(monkeypatch):
    # every public entry point reads the windows kept on the spec, so a
    # spec builds each corner's window once, however many calls it meets
    module = importlib.import_module("stablebetti.realize_ideal")
    original_bottom = module._corner_bottom
    bottoms = []

    def counting_bottom(spec, i, t):
        bottoms.append(i)
        return original_bottom(spec, i, t)

    monkeypatch.setattr(module, "_corner_bottom", counting_bottom)
    s = spec(6, [(5, 2), (3, 3), (2, 5)], [1, 3, 1])
    assert check_values(s, MODE_STRICT).feasible
    assert check_values(s, MODE_COUPLED).feasible
    report = compute_bounds(s)
    bounds, picks, violation = coupled_chain(s, s.values)
    out = construct_ideal(s)
    assert bottoms == list(range(s.r))
    assert out.bound_report == report
    assert (list(out.picks), violation) == (picks, None)
    assert tuple(bounds) == out.coupled_verdict.bounds
    # an equal spec is another object and builds its own windows
    compute_bounds(spec(6, [(5, 2), (3, 3), (2, 5)], [1, 3, 1]))
    assert bottoms == list(range(s.r)) * 2


def test_uncovered_spec_raises_on_every_call():
    # a failed window build caches nothing, so no later call slips through
    s = spec(3, [(1, 2)], [1])
    calls = [
        lambda: check_values(s, MODE_STRICT),
        lambda: check_values(s, MODE_COUPLED),
        lambda: compute_bounds(s),
        lambda: coupled_chain(s, s.values),
        lambda: construct_ideal(s, MODE_STRICT),
        lambda: construct_ideal(s, MODE_COUPLED),
    ]
    for call in calls + calls:
        with pytest.raises(UncoveredByCharacterization):
            call()


@pytest.mark.parametrize("mode", MODES)
def test_realization_lists_no_stratum(monkeypatch, mode):
    # windows, caps, picks and blocks are all counted by lex rank, so no
    # realization path may list a stratum or a whole degree: the only walk
    # (segments.lex_walk, the census's degree lister too) lists the blocks
    walked = []

    def counting_walk(first, m):
        for u in original(first, m):
            walked.append(u)
            yield u

    original = segments.lex_walk
    patch_everywhere(monkeypatch, original, counting_walk)
    s = spec(6, [(5, 2), (3, 3), (2, 5)], [1, 3, 1])
    out = construct_ideal(s, mode)
    assert [len(b) for b in out.blocks] == [6, 6, 1]
    assert walked == [g for b in out.blocks for g in b]
    walked.clear()
    s = spec(6, [(5, 2), (3, 3), (2, 5)], [3, 8, 4])
    with pytest.raises(InfeasibleSpec):  # refused after a full search
        find_corner_matrix(s, 2, mode)
    matrix = find_corner_matrix(s, 3, mode)
    assert matrix == {
        MODE_STRICT: ((3, 0, 0), (1, 7, 0), (0, 1, 3)),
        MODE_COUPLED: ((1, 2, 0), (3, 3, 2), (1, 0, 3)),
    }[mode]
    assert walked == []  # the search walks nothing
    built = construct_module(s, matrix, mode)
    assert built.matrix == matrix
    assert walked == [g for c in built.columns for b in c.blocks for g in b]
    walked.clear()
    # equal columns share one construction, so their blocks are walked once
    s = spec(6, [(5, 2), (3, 3), (2, 5)], [2, 6, 2])
    built = construct_module(s, ((1, 1), (3, 3), (1, 1)), mode)
    assert built.columns[0] is built.columns[1]
    assert walked == [g for b in out.blocks for g in b]


@st.composite
def _admissible_specs(draw):
    """n <= 7, r <= 3, values <= 12, positions passing the screen."""
    n = draw(st.integers(2, 7))
    r = draw(st.integers(1, min(3, n - 1)))
    ks = sorted(draw(st.sets(st.integers(1, n - 1), min_size=r, max_size=r)))
    first = draw(st.integers(2, 4))
    steps = draw(st.lists(st.integers(1, 2), min_size=r - 1, max_size=r - 1))
    ls = list(itertools.accumulate([first] + steps))
    values = draw(st.lists(st.integers(1, 12), min_size=r, max_size=r))
    s = spec(n, zip(reversed(ks), ls), values)
    assume(s.covered)
    return s


@settings(deadline=None, max_examples=100)
@given(_admissible_specs(), st.sampled_from(MODES))
def test_construct_ideal_agrees_with_the_separate_entry_points(s, mode):
    if not check_values(s, mode).feasible:
        with pytest.raises(InfeasibleSpec):
            construct_ideal(s, mode)
        return
    out = construct_ideal(s, mode)
    assert out.bound_report == compute_bounds(s)
    assert out.strict_verdict == check_values(s, MODE_STRICT)
    assert out.coupled_verdict == check_values(s, MODE_COUPLED)
    assert list(out.picks) == coupled_chain(s, s.values)[1]
    # the report formats the blocks once and concatenates them
    assert out.to_obj()["witness"] == out.ideal.to_obj()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except StableBettiError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def _reference_specs(draw):
    """n <= 9, r <= 4, values <= 20; positions unscreened."""
    n = draw(st.integers(2, 9))
    r = draw(st.integers(1, min(4, n - 1)))
    ks = sorted(draw(st.sets(st.integers(1, n - 1), min_size=r, max_size=r)))
    first = draw(st.integers(2, 4))
    steps = draw(st.lists(st.integers(1, 2), min_size=r - 1, max_size=r - 1))
    ls = list(itertools.accumulate([first] + steps))
    values = draw(st.lists(st.integers(1, 20), min_size=r, max_size=r))
    return spec(n, zip(reversed(ks), ls), values)


@settings(deadline=None, max_examples=300)
@given(_reference_specs(), st.sampled_from(MODES), st.data())
def test_rank_arithmetic_matches_the_listing_reference(s, mode, data):
    assert _outcome(compute_bounds, s) == _outcome(reference.compute_bounds, s)
    assert _outcome(check_values, s, mode) == _outcome(
        reference.check_values, s, mode
    )
    prefix = s.values[: data.draw(st.integers(0, s.r))]
    for values in (s.values, prefix):
        assert _outcome(coupled_chain, s, values) == _outcome(
            reference.coupled_chain, s, values
        )
    out = _outcome(construct_ideal, s, mode)
    verdict = _outcome(reference.check_values, s, mode)
    if isinstance(out, tuple):  # refused: positions, or a value over its cap
        assert out == verdict or not verdict.feasible
        return
    assert verdict.feasible
    assert list(out.picks) == reference.coupled_chain(s, s.values)[1]
    assert list(out.blocks) == reference.blocks(s, list(out.picks))


def test_realize_ideal_computes_one_witness_table(monkeypatch):
    # the table printed is the one verification computed
    tables = []

    def counting_ek_betti(module):
        tables.append(module)
        return original(module)

    original = betti.ek_betti
    patch_everywhere(monkeypatch, original, counting_ek_betti)
    doc = json.dumps(spec(6, [(5, 2), (3, 3), (2, 5)], [1, 3, 1]).to_obj())
    out, err = io.StringIO(), io.StringIO()
    assert run(["realize-ideal"], stdout=out, stderr=err, stdin=io.StringIO(doc)) == 0
    assert len(tables) == 1
    table = ek_betti(MonomialIdeal.from_obj(json.loads(out.getvalue())["witness"]))
    assert json.loads(out.getvalue())["table"] == table.to_obj()


def test_chain_constructor_simple_segment():
    out = chain_reference.construct_degree2_chain(spec(4, [(2, 2)], [1]))
    assert out == MonomialIdeal.from_strings(4, ["x1^2", "x1*x2", "x1*x3"])


def test_chain_constructor_validation():
    with pytest.raises(SpecError):
        chain_reference.construct_degree2_chain(spec(4, [(2, 3)], [1]))
    with pytest.raises(SpecError):
        chain_reference.construct_degree2_chain(spec(4, [(2, 2), (1, 3)], [2, 1]))
    with pytest.raises(UncoveredByCharacterization):
        chain_reference.construct_degree2_chain(spec(4, [(1, 2)], [1]))


def test_chain_constructor_two_corners():
    out = chain_reference.construct_degree2_chain(spec(4, [(3, 2), (2, 4)], [1, 1]))
    seq = corner_sequence(ek_betti(out))
    assert [(c.k, c.ell) for c, _v in seq] == [(3, 2), (2, 4)]
    assert [v for _c, v in seq] == [1, 1]


@st.composite
def _unit_chain_specs(draw):
    """First degree 2, every value 1, n <= 9, degree steps 1..3; positions
    unscreened."""
    n = draw(st.integers(2, 9))
    r = draw(st.integers(1, n - 1))
    ks = sorted(draw(st.sets(st.integers(1, n - 1), min_size=r, max_size=r)))
    steps = draw(st.lists(st.integers(1, 3), min_size=r - 1, max_size=r - 1))
    ls = list(itertools.accumulate([2] + steps))
    return spec(n, zip(reversed(ks), ls), [1] * r)


@settings(deadline=None, max_examples=200)
@given(_unit_chain_specs(), st.sampled_from(MODES))
def test_construct_ideal_equals_the_closed_form_chain(s, mode):
    if not s.covered:
        with pytest.raises(UncoveredByCharacterization):
            chain_reference.construct_degree2_chain(s)
        with pytest.raises(UncoveredByCharacterization):
            construct_ideal(s, mode)
        return
    assert construct_ideal(s, mode).ideal == chain_reference.construct_degree2_chain(s)


def test_construct_ideal_never_minimalizes(monkeypatch):
    # the planned generators are canonical and minimal as listed, and
    # _verify_realization proves it without minimalize's scan
    def refuse(n, monos):
        raise AssertionError("construct_ideal called minimalize")

    patch_everywhere(monkeypatch, ideals.minimalize, refuse)
    for s in (
        spec(4, [(3, 2), (2, 4)], [1, 1]),
        spec(6, [(5, 2), (3, 3), (2, 5)], [1, 3, 1]),
        spec(10, [(9, 2), (7, 5), (5, 8), (3, 11)], [2, 46, 1, 1]),
    ):
        built = construct_ideal(s)
        assert built.ideal.gens == tuple(g for block in built.blocks for g in block)
        assert corner_sequence(built.table) == list(zip(s.corners, s.values))


def _planned(s):
    return list(construct_ideal(s).ideal.gens)


def test_verify_realization_refuses_a_non_minimal_plan():
    s = spec(4, [(3, 2), (2, 4)], [1, 1])
    planned = _planned(s)
    first_of_degree_4 = next(t for t, g in enumerate(planned) if degree(g) == 4)
    # x1^4 is a multiple of x1^2 and lex-first in degree 4: the order stays
    # canonical and the ideal stays strongly stable, only minimality fails
    planned.insert(first_of_degree_4, (4, 0, 0, 0))
    with pytest.raises(VerificationFailed, match="^constructed generators are not minimal"):
        _verify_realization(MonomialIdeal(4, tuple(planned)), s)


def test_verify_realization_refuses_a_misordered_plan():
    s = spec(6, [(5, 2), (3, 3), (2, 5)], [1, 3, 1])
    planned = _planned(s)
    for t in (0, len(planned) - 2):  # inside a degree, and across the last two
        swapped = planned[:t] + [planned[t + 1], planned[t]] + planned[t + 2 :]
        with pytest.raises(VerificationFailed, match="not in canonical order$"):
            _verify_realization(MonomialIdeal(6, tuple(swapped)), s)
    _verify_realization(MonomialIdeal(6, tuple(planned)), s)


def test_witness_size_is_capped_before_any_generator_is_listed(monkeypatch):
    s = spec(10, [(9, 2), (7, 5), (5, 8), (3, 11)], [2, 46, 1, 1])
    size = len(construct_ideal(s).ideal.gens)
    monkeypatch.setattr(realize_ideal, "MAX_WITNESS_GENS", size)
    assert len(construct_ideal(s).ideal.gens) == size

    def refuse(*args):
        raise AssertionError("a generator was listed past the cap")

    monkeypatch.setattr(realize_ideal, "MAX_WITNESS_GENS", size - 1)
    monkeypatch.setattr(realize_ideal, "lex_unrank", refuse)  # the block listing
    with pytest.raises(
        BudgetExceeded, match=f"^witness needs {size} generators, cap {size - 1}$"
    ):
        construct_ideal(s)


def test_a_24068_generator_witness_verifies_in_near_linear_time():
    # a scan of every exchange against every lower-degree generator took
    # about 40 s on this column; the segment lookups take under a second
    s = spec(14, [(9, 8), (7, 11), (5, 14)], [2151, 12025, 1])
    started = time.perf_counter()
    built = construct_ideal(s)
    assert time.perf_counter() - started < 3.0
    assert len(built.ideal.gens) == 24068
    assert corner_sequence(built.table) == list(zip(s.corners, s.values))
