import json

import ideal_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablebetti import (
    BadRange,
    MonomialIdeal,
    MonomialSubmodule,
    MonomialSyntaxError,
    degree,
    minimalize,
    parse_module_or_ideal,
    parse_monomial,
)


def test_minimalize_drops_multiples():
    n = 3
    monos = [
        parse_monomial(t, n)
        for t in ["x1", "x1^2", "x1*x2", "x2^2", "x2^3", "x2^2*x3"]
    ]
    assert minimalize(n, monos) == (
        parse_monomial("x1", n),
        parse_monomial("x2^2", n),
    )


def test_generators_are_canonically_ordered():
    ideal = MonomialIdeal.from_strings(3, ["x2^2", "x1*x3", "x1^2", "x1*x2"])
    assert [t for t in ideal.to_obj()["generators"]] == [
        "x1^2",
        "x1*x2",
        "x1*x3",
        "x2^2",
    ]
    # same ideal from shuffled, redundant input
    again = MonomialIdeal.from_strings(
        3, ["x1*x2", "x2^2", "x1^2", "x1*x3", "x1^2*x3", "x2^2*x3"]
    )
    assert again == ideal


def test_contains_and_degrees():
    ideal = MonomialIdeal.from_strings(3, ["x1^2", "x2^3"])
    assert ideal.contains(parse_monomial("x1^2*x3", 3))
    assert not ideal.contains(parse_monomial("x1*x2^2", 3))
    assert [degree(g) for g in ideal.gens] == [2, 3]
    assert reference.graded_slice(ideal, 2) == [parse_monomial("x1^2", 3)]
    assert len(reference.graded_slice(ideal, 3)) == 3 + 1  # x1^2 * {x1,x2,x3}, x2^3


def test_stability_predicates():
    unstable = MonomialIdeal.from_strings(2, ["x2^2"])
    assert not unstable.is_stable()
    g, i, j, moved = unstable.stability_violation(strong=False)
    assert g == parse_monomial("x2^2", 2)
    assert (i, j) == (2, 1)
    assert moved == parse_monomial("x1*x2", 2)

    strongly = MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x1*x3"])
    assert strongly.is_stable()
    assert strongly.is_strongly_stable()
    assert strongly.stability_violation(strong=True) is None


def test_stable_but_not_strongly_stable_example():
    # x2*x3 exchanged at its largest variable gives x2^2 and x1*x2, both
    # inside; exchanging the smaller variable x2 gives x1*x3, which is not.
    ideal = MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x2^2", "x2*x3"])
    assert ideal.is_stable()
    assert not ideal.is_strongly_stable()
    g, i, j, moved = ideal.stability_violation(strong=True)
    assert g == parse_monomial("x2*x3", 3)
    assert (i, j) == (2, 1)
    assert moved == parse_monomial("x1*x3", 3)


def test_zero_and_unit_ideals_rejected_by_stability():
    zero = MonomialIdeal(3, ())
    assert zero.is_zero
    assert not zero.is_stable()
    unit_ideal = MonomialIdeal.from_strings(3, ["1"])
    assert not unit_ideal.is_stable()
    assert not unit_ideal.is_strongly_stable()


def test_borel_closure_is_strongly_stable_and_minimal():
    closed = reference.borel_closure(3, [parse_monomial("x2*x3", 3)])
    assert closed.is_strongly_stable()
    assert closed == MonomialIdeal.from_strings(
        3, ["x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3"]
    )


def test_json_round_trip():
    ideal = MonomialIdeal.from_strings(3, ["x1^2", "x2^3"])
    assert MonomialIdeal.from_obj(json.loads(ideal.to_json())) == ideal
    obj = json.loads(ideal.to_json())
    assert obj == {"n": 3, "generators": ["x1^2", "x2^3"]}
    with pytest.raises(MonomialSyntaxError):
        MonomialIdeal.from_obj({"n": 3})
    with pytest.raises(MonomialSyntaxError):
        MonomialIdeal.from_obj({"n": 0, "generators": []})
    with pytest.raises(MonomialSyntaxError):
        MonomialIdeal.from_obj({"n": 2, "generators": [7]})


def test_submodule_validation():
    ideal = MonomialIdeal.from_strings(2, ["x1"])
    module = MonomialSubmodule(2, (ideal, ideal))
    assert module.m == 2
    assert module.shifts == (0, 0)
    with pytest.raises(BadRange):
        MonomialSubmodule(2, ())
    with pytest.raises(BadRange):
        MonomialSubmodule(2, (ideal,), (0, 1))
    with pytest.raises(BadRange):
        MonomialSubmodule(2, (ideal, ideal), (1, 0))  # must be non-decreasing
    with pytest.raises(BadRange):
        MonomialSubmodule(2, (ideal,), (-1,))
    with pytest.raises(BadRange):
        MonomialSubmodule(3, (ideal,))  # ambient mismatch


def test_module_generators_include_shifts():
    ideal = MonomialIdeal.from_strings(2, ["x1^2", "x1*x2"])
    module = MonomialSubmodule(2, (ideal, ideal), (0, 3))
    triples = list(module.module_generators())
    assert (0, parse_monomial("x1^2", 2), 2) in triples
    assert (1, parse_monomial("x1^2", 2), 5) in triples
    assert len(triples) == 4


def test_module_json_round_trip():
    ideal = MonomialIdeal.from_strings(2, ["x1"])
    module = MonomialSubmodule(2, (ideal, ideal), (0, 1))
    again = MonomialSubmodule.from_obj(json.loads(module.to_json()))
    assert again == module
    with pytest.raises(MonomialSyntaxError):
        MonomialSubmodule.from_obj({"n": 2, "components": [], "m": 1})


def test_parse_module_or_ideal_accepts_both_shapes():
    as_ideal = parse_module_or_ideal('{"n": 2, "generators": ["x1"]}')
    assert as_ideal.m == 1
    as_module = parse_module_or_ideal(
        '{"n": 2, "components": [{"n": 2, "generators": ["x1"]}]}'
    )
    assert as_module == as_ideal


def _monomials(n, max_degree):
    """Monomials of degree <= max_degree in n variables, the unit included."""
    return st.lists(st.integers(0, n - 1), max_size=max_degree).map(
        lambda picks: tuple(picks.count(t) for t in range(n))
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_membership_matches_the_tuple_scan(data):
    n = data.draw(st.integers(1, 6), label="n")
    gens = data.draw(st.lists(_monomials(n, 6), max_size=10), label="gens")
    assert minimalize(n, gens) == reference.minimalize(n, gens)
    ideals = [
        MonomialIdeal.from_generators(n, gens),
        MonomialIdeal(n, tuple(gens)),  # unsorted, non-minimal, repeats kept
        MonomialIdeal(n, ()),
        MonomialIdeal(n, ((0,) * n,)),
    ]
    if gens:
        # strongly stable, and one generator short of it: the scans run
        # through every exchange, or fail late
        closed = reference.borel_closure(n, gens[:2])
        ideals += [closed, MonomialIdeal(n, closed.gens[:-1])]
    # exponents up to 9 lie above every generator exponent (at most 6)
    queries = data.draw(
        st.lists(st.tuples(*[st.integers(0, 9)] * n), max_size=20), label="queries"
    )
    for ideal in ideals:
        for u in queries + list(gens):
            assert ideal.contains(u) == reference.contains(ideal, u), (ideal, u)
        for strong in (False, True):
            assert ideal.stability_violation(strong) == reference.stability_violation(
                ideal, strong
            ), (ideal, strong)


def test_contains_clamps_exponents_above_every_generator():
    # exponents up to 2 take two bits and a guard bit per field; the
    # query exponents 4 and 1000 would spill out of a field unclamped
    ideal = MonomialIdeal.from_strings(3, ["x1^2", "x2*x3"])
    assert ideal.contains((4, 0, 0))
    assert ideal.contains((0, 1000, 1))
    assert not ideal.contains((1, 1000, 0))
    assert not ideal.contains((1, 0, 1000))
    assert not ideal.contains((-1, 1, 1))


def test_each_stability_verdict_is_computed_once(monkeypatch):
    calls = []
    original = MonomialIdeal._stability_violation

    def counted(self, strong):
        calls.append(strong)
        return original(self, strong)

    monkeypatch.setattr(MonomialIdeal, "_stability_violation", counted)
    ideal = MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x2^2", "x2*x3"])
    for _ in range(3):
        assert ideal.is_stable() and not ideal.is_strongly_stable()
        assert ideal.stability_violation(strong=False) is None
        assert ideal.stability_violation(strong=True)[1:3] == (2, 1)
    assert sorted(calls) == [False, True]
