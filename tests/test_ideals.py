import functools
import hashlib
import itertools
import json

import ideal_reference as reference
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stablebetti import (
    BadRange,
    Corner,
    CornerSpec,
    MonomialIdeal,
    MonomialSubmodule,
    MonomialSyntaxError,
    construct_ideal,
    coupled_chain,
    degree,
    enumerate_strongly_stable,
    minimalize,
    parse_module_or_ideal,
    parse_monomial,
)
from stablebetti.monomials import mul_var


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


def test_generators_given_as_a_list_are_stored_as_a_tuple():
    from_list = MonomialIdeal(2, [(1, 0), (0, 1)])
    from_tuple = MonomialIdeal(2, ((1, 0), (0, 1)))
    assert type(from_list.gens) is tuple
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)
    assert from_tuple.gens is MonomialIdeal(2, from_tuple.gens).gens
    # inner lists become tuples too, so the ideal hashes and can be scanned
    from_lists = MonomialIdeal(2, [[1, 0], [0, 1]])
    assert from_lists.gens == from_tuple.gens
    assert from_lists == from_tuple and hash(from_lists) == hash(from_tuple)
    assert from_lists.is_strongly_stable()


def test_generator_exponents_are_checked():
    with pytest.raises(BadRange, match=r"^negative exponent in \(1, -1\)$"):
        MonomialIdeal(2, ((1, -1),))
    with pytest.raises(
        BadRange, match=r"^generator \(1, 0, 2\) has 3 exponents, expected 2$"
    ):
        MonomialIdeal(2, ((1, 1), (1, 0, 2)))
    with pytest.raises(BadRange, match=r"^negative exponent in \(0, -2\)$"):
        minimalize(2, [(1, 0), (0, -2)])
    # the first bad generator is the one reported: given order for the
    # constructor, canonical order (degree first) for minimalize
    with pytest.raises(
        BadRange, match=r"^generator \(1,\) has 1 exponents, expected 2$"
    ):
        MonomialIdeal(2, ((1, 0), (1,), (0, -1)))
    with pytest.raises(BadRange, match=r"^negative exponent in \(0, -1\)$"):
        MonomialIdeal(2, ((1, 0), (0, -1), (1,)))
    with pytest.raises(
        BadRange, match=r"^generator \(3,\) has 1 exponents, expected 2$"
    ):
        minimalize(2, [(5, -1), (3,)])
    with pytest.raises(BadRange, match=r"^negative exponent in \(2, -1\)$"):
        minimalize(2, [(1,), (2, -1)])
    with pytest.raises(BadRange, match=r"^generator \(\) has 0 exponents, expected 1$"):
        MonomialIdeal(1, ((),))
    # an empty generator list has nothing to check
    assert MonomialIdeal(2, ()).is_zero
    assert minimalize(2, []) == ()
    # the empty exponent vector of n = 0 has no minimum, and is not negative
    assert minimalize(0, [()]) == ((),)
    with pytest.raises(BadRange, match=r"^need n >= 1, got 0$"):
        MonomialIdeal(0, ((),))


def test_every_constructor_refuses_n_below_one():
    for build in [
        lambda: MonomialIdeal(0, ()),
        lambda: MonomialIdeal.from_generators(0, []),
        lambda: MonomialIdeal.from_strings(0, []),
        lambda: MonomialIdeal.from_generators(-1, [()]),
    ]:
        with pytest.raises(BadRange, match=r"^need n >= 1, got -?[01]$") as caught:
            build()
        assert caught.value.exit_code == 1


_X1 = MonomialIdeal(2, ((1, 0),))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MonomialIdeal(True, ((1,),)), "n must be an integer, got True"),
        (lambda: MonomialIdeal(2.0, ((1, 0),)), "n must be an integer, got 2.0"),
        (
            lambda: MonomialIdeal.from_generators(True, [(1,)]),
            "n must be an integer, got True",
        ),
        (
            lambda: MonomialIdeal.from_strings(2.0, ["x1"]),
            "n must be an integer, got 2.0",
        ),
        (lambda: minimalize(2.0, [(1, 0)]), "n must be an integer, got 2.0"),
        (lambda: MonomialIdeal(2, (5,)), "not a sequence of exponents: 5"),
        (lambda: MonomialIdeal(2, 5), "not a sequence of exponents: 5"),
        (
            lambda: MonomialIdeal.from_generators(2, ["x1"]),
            "non-integer exponent in ('x', '1')",
        ),
        (lambda: _X1.contains((1.5, 0)), "monomial (1.5, 0) is not 2 int exponents"),
        (lambda: _X1.contains((0.5, 0)), "monomial (0.5, 0) is not 2 int exponents"),
        (lambda: _X1.contains((1, 0, 0)), "monomial (1, 0, 0) is not 2 int exponents"),
        (lambda: _X1.contains(1), "not a sequence of exponents: 1"),
    ],
    ids=[
        "bool n",
        "float n",
        "from_generators bool n",
        "from_strings float n",
        "minimalize float n",
        "int generator",
        "int generator list",
        "string generator",
        "float query above",
        "float query below",
        "query of another ring",
        "int query",
    ],
)
def test_public_doors_refuse_what_they_cannot_take(build, message):
    with pytest.raises(BadRange) as caught:
        build()
    assert str(caught.value) == message
    assert caught.value.exit_code == 1


def test_float_and_bool_exponents_are_refused_and_list_generators_converted():
    new, built = MonomialIdeal, MonomialIdeal.from_generators
    for build, named in [
        (lambda: new(2, ((1.0, 0),)), (1.0, 0)),
        (lambda: built(2, [(1.0, 0)]), (1.0, 0)),
        (lambda: new(2, ((True, 0), (0, 1))), (True, 0)),
        (lambda: new(2, ((1, 0), (0, False))), (0, False)),
        (lambda: minimalize(2, [(0, 1), (1, 0.5)]), (1, 0.5)),
        # equal to a listed int generator, so a set would have dropped it
        (lambda: built(2, [(1, 0), (1.0, 0)]), (1.0, 0)),
        (lambda: built(2, [[1, 0], [True, 1]]), (True, 1)),
    ]:
        with pytest.raises(BadRange) as caught:
            build()
        assert str(caught.value) == f"non-integer exponent in {named}"
        assert caught.value.exit_code == 1
    want = MonomialIdeal(2, ((1, 0), (0, 1)))
    for ideal in [
        MonomialIdeal.from_generators(2, [[1, 0], [0, 1], [1, 1]]),
        MonomialIdeal(2, ([1, 0], (0, 1))),
    ]:
        assert ideal == want and hash(ideal) == hash(want)
        assert all(type(g) is tuple for g in ideal.gens)
        assert ideal.is_strongly_stable()


def test_ideals_built_unchecked_equal_their_checked_rebuild():
    # the census walk, construct_ideal and from_generators make their ideals
    # without the constructor's checks; each must be the ideal the checked
    # constructor makes of the same generators, with int exponents only
    census = [i for n in range(1, 5) for i in enumerate_strongly_stable(n, 4)]
    census += enumerate_strongly_stable(5, 3)
    assert len(census) == 9686 + 2429
    corners = (Corner(9, 2), Corner(7, 5), Corner(5, 8), Corner(3, 11))
    values: list[int] = []
    for _ in corners:  # each value at the coupled cap its prefix leaves
        values.append(coupled_chain(CornerSpec(10, corners, (1,) * 4), values)[0][-1])
    witness = construct_ideal(CornerSpec(10, corners, tuple(values))).ideal
    parsed = MonomialIdeal.from_strings(3, ["x2^2", "x1*x3", "x1^2", "x1*x2", "x1"])
    for ideal in census + [witness, parsed]:
        checked = MonomialIdeal(ideal.n, ideal.gens)
        assert ideal == checked and hash(ideal) == hash(checked)
        assert type(ideal.gens) is tuple and set(map(type, ideal.gens)) == {tuple}
        assert set(map(type, itertools.chain.from_iterable(ideal.gens))) == {int}
    assert len(witness.gens) > 100
    # the census lines come in the order they did when every ideal was
    # checked on the way out
    for (n, d), want in [((4, 4), "6bf3163618973d4a"), ((3, 6), "c3ac86fc78d9e794")]:
        lines = "\n".join(i.to_json() for i in enumerate_strongly_stable(n, d))
        assert hashlib.sha256(lines.encode()).hexdigest()[:16] == want


def _first_bad_generator(n, gens):
    """The message of the first generator, in the order given, that is not
    n int exponents >= 0, checked one generator at a time; None if all pass."""
    for g in gens:
        if len(g) != n:
            return f"generator {g} has {len(g)} exponents, expected {n}"
        if any(type(e) is not int for e in g):
            return f"non-integer exponent in {g}"
        if min(g, default=0) < 0:
            return f"negative exponent in {g}"
    return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bulk_generator_check_reports_the_per_generator_message(data):
    n = data.draw(st.integers(1, 4), label="n")
    gens = data.draw(st.lists(_monomials(n, 4), max_size=8), label="gens")
    # one to three bad entries: a wrong length, a negative exponent, a
    # float or bool exponent, or several of these
    exponents = st.integers(-3, 3) | st.sampled_from([True, False, 0.0, 1.0, -1.5])
    for _ in range(data.draw(st.integers(1, 3), label="bad")):
        size = data.draw(st.integers(0, n + 2).filter(lambda k: k != n) | st.just(n))
        bad = data.draw(st.tuples(*[exponents] * size), label="bad entry")
        assume(_first_bad_generator(n, [bad]))
        gens.insert(data.draw(st.integers(0, len(gens)), label="at"), bad)
    for build, order in [
        (lambda: MonomialIdeal(n, tuple(gens)), gens),
        (lambda: minimalize(n, gens), sorted(gens, key=reference.canonical_key)),
    ]:
        with pytest.raises(BadRange) as caught:
            build()
        assert str(caught.value) == _first_bad_generator(n, order)


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


def _adjacent_exchanges(g):
    """x_{i-1} * g / x_i for every x_i (i >= 2) dividing g."""
    for i in range(1, len(g)):
        if g[i]:
            yield g[: i - 1] + (g[i - 1] + 1, g[i] - 1) + g[i + 1 :]


def test_an_adjacent_miss_still_names_the_first_exchange_in_scan_order():
    # (x3): the adjacent pass misses at (i=3, j=2) first, but the scan, i
    # ascending and then j ascending, meets (i=3, j=1) before it
    ideal = MonomialIdeal(3, ((0, 0, 1),))
    assert ideal.stability_violation(strong=True) == ((0, 0, 1), 3, 1, (1, 0, 0))
    assert ideal.stability_violation(strong=True) == reference.stability_violation(
        ideal, True
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_strong_stability_is_decided_by_the_adjacent_exchanges(data):
    # a list that is not empty and holds no unit is strongly stable exactly
    # when every adjacent exchange of every listed generator lies inside
    n = data.draw(st.integers(1, 6), label="n")
    gens = data.draw(st.lists(_monomials(n, 4), max_size=10), label="gens")
    lists = [gens]  # unsorted, non-minimal, repeats and the unit kept
    if gens:
        closed = reference.borel_closure(n, gens[:2]).gens
        shuffled = data.draw(st.permutations(closed), label="shuffled")
        lists += [shuffled, shuffled[1:], closed[:-1] + closed[-1:] * 2]
    for listed in lists:
        ideal = MonomialIdeal(n, tuple(listed))
        inside = all(
            reference.contains(ideal, u) for g in listed for u in _adjacent_exchanges(g)
        )
        proper = bool(listed) and (0,) * n not in listed
        assert ideal.is_strongly_stable() == (proper and inside), listed


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


def test_a_passed_strong_verdict_settles_the_weak_one_without_a_scan(monkeypatch):
    calls = []
    original = MonomialIdeal._stability_violation

    def counted(self, strong):
        calls.append(strong)
        return original(self, strong)

    monkeypatch.setattr(MonomialIdeal, "_stability_violation", counted)
    strongly = MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x1*x3", "x2^2"])
    assert strongly.is_strongly_stable() and strongly.is_stable()
    assert calls == [True]
    # a failed strong verdict settles nothing: the weak scan still runs
    weakly = MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x2^2", "x2*x3"])
    assert not weakly.is_strongly_stable() and weakly.is_stable()
    assert calls == [True, True, False]


@functools.cache
def _census(n):
    return tuple(enumerate_strongly_stable(n, 4 if n < 4 else 3))


@st.composite
def _witnesses(draw):
    """construct_ideal witnesses of specs drawn the way c06 draws them:
    n <= 6, at most three corners, degrees from 2..4 up by 1..3 each, and
    every value within the coupled cap its prefix leaves."""
    n = draw(st.integers(2, 6), label="n")
    r = draw(st.integers(1, min(3, n - 1)), label="r")
    ks = draw(st.lists(st.integers(1, n - 1), min_size=r, max_size=r, unique=True))
    ells = [draw(st.integers(2, 4))]
    for _ in range(r - 1):
        ells.append(ells[-1] + draw(st.integers(1, 3)))
    corners = tuple(Corner(k, l) for k, l in zip(sorted(ks, reverse=True), ells))
    assume(CornerSpec(n, corners, (1,) * r).covered)
    values: list[int] = []
    for _ in range(r):
        cap = coupled_chain(CornerSpec(n, corners, (1,) * r), values)[0][-1]
        values.append(draw(st.integers(1, cap), label="value"))
    return construct_ideal(CornerSpec(n, corners, tuple(values))).ideal


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_segment_lookup_verdicts_match_the_tuple_scan(data):
    # census ideals and witnesses pass with every lookup a hit; a witness
    # short of one generator, or with one generator times x_n (left in
    # place, or re-sorted and minimalized), fails at some exchange, and the
    # first failing (g, i, j, moved) must be the reference's in both modes
    if data.draw(st.booleans(), label="census"):
        n = data.draw(st.integers(1, 4), label="n")
        census = _census(n)
        base = census[data.draw(st.integers(0, len(census) - 1), label="member")]
    else:
        base = data.draw(_witnesses(), label="witness")
    n, gens = base.n, base.gens
    t = data.draw(st.integers(0, len(gens) - 1), label="position")
    raised = gens[:t] + (mul_var(gens[t], n),) + gens[t + 1 :]
    ideals = [
        base,
        MonomialIdeal(n, gens[:t] + gens[t + 1 :]),
        MonomialIdeal(n, raised),
        MonomialIdeal.from_generators(n, raised),
    ]
    for ideal in ideals:
        for order in ((False, True), (True, False)):
            fresh = MonomialIdeal(n, ideal.gens)  # no verdict cached yet
            for strong in order:
                assert fresh.stability_violation(strong) == (
                    reference.stability_violation(ideal, strong)
                ), (ideal, strong)


def test_a_lookup_hit_needs_a_segment_of_the_exchange_itself():
    # x2*x3 divides x2*x3^2 and is its degree-2 initial segment, yet the
    # exchange x1*x3^2 of x2*x3^2 lies outside: scanned first, unsorted,
    # the non-minimal generator must fail on its own exchange
    ideal = MonomialIdeal(3, ((0, 1, 2), (0, 1, 1)))
    assert ideal.stability_violation(strong=True) == ((0, 1, 2), 2, 1, (1, 0, 2))
    assert ideal.stability_violation(strong=True) == reference.stability_violation(
        ideal, True
    )


def test_a_failed_walk_falls_through_to_the_ordered_scan():
    # x1*x3 listed before x2: x1*x2, the adjacent exchange of x1*x3, lies
    # inside by x2, but its one lower segment, x1, does not, as the lower
    # degree is not strongly stable; the scan must name the first failure
    ideal = MonomialIdeal(3, ((1, 0, 1), (0, 1, 0)))
    assert ideal.contains((1, 1, 0)) and not ideal.contains((1, 0, 0))
    for strong in (True, False):
        fresh = MonomialIdeal(3, ideal.gens)
        assert fresh.stability_violation(strong) == ((1, 0, 1), 3, 1, (2, 0, 0))
        assert fresh.stability_violation(strong) == reference.stability_violation(
            ideal, strong
        )


def test_a_unit_listed_after_other_generators_is_named_by_the_scan():
    # the unit makes every exchange inside, yet both verdicts name it
    for gens in (((0, 1), (0, 0)), ((1, 0), (0, 1), (0, 0)), ((0, 2), (0, 0))):
        for strong in (True, False):
            ideal = MonomialIdeal(2, gens)
            assert ideal.stability_violation(strong) == ((0, 0), 0, 0, None)
            assert reference.stability_violation(ideal, strong) == ((0, 0), 0, 0, None)
        assert MonomialIdeal(2, gens).redundant_generator == gens[0]


def test_a_walk_drops_whole_powers_whatever_the_exponents():
    # x1*x2^(N-1), the exchange of x2^N, is inside by x1 at degree 1: the
    # walk drops all of x2's power in one step, not N - 1
    big = 10**15
    ideal = MonomialIdeal(3, ((1, 0, 0), (0, big, 0), (0, big - 1, 1)))
    assert ideal.is_strongly_stable() and ideal.redundant_generator is None
    lone = MonomialIdeal(2, ((0, big),))
    assert lone.stability_violation(strong=True) == ((0, big), 2, 1, (1, big - 1))
    listed = MonomialIdeal(2, ((1, 0), (0, big), (big, 1)))
    assert listed.redundant_generator == (big, 1)


def test_redundant_generator_names_a_repeat_or_a_multiple_of_a_segment():
    assert MonomialIdeal(2, ((1, 0), (2, 0))).redundant_generator == (2, 0)
    assert MonomialIdeal(2, ((2, 0), (1, 1), (2, 0))).redundant_generator == (2, 0)
    # x2^2 divides x1*x2^2 but is no initial segment of it: only a stable
    # ideal's multiples are sure to be found
    assert MonomialIdeal(2, ((0, 2), (1, 2))).redundant_generator is None
    assert MonomialIdeal(2, ((1, 0), (1, 1))).redundant_generator == (1, 1)
    stable = MonomialIdeal.from_strings(3, ["x1^2", "x1*x2", "x2^2", "x1*x3^4"])
    assert stable.redundant_generator is None
