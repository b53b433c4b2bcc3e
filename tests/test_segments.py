import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from monomial_reference import iter_degree, max_index
from window_reference import shadow, stratum_list

from stablebetti import (
    BadRange,
    lex_count,
    lex_unrank,
    parse_monomial,
    stratum_size,
)
from stablebetti.monomials import degree
from stablebetti.segments import lex_walk, stratum_member, stratum_rank


def _interval(n, top, bottom):
    """The lex segment from top down to bottom, by rank."""
    d = sum(top)
    ranks = range(lex_count(top, n), lex_count(bottom, n) + 1)
    return [lex_unrank(n, n, d, j) for j in ranks]


def test_stratum_membership_and_size():
    for n, k, d in [(3, 1, 2), (4, 2, 3), (5, 4, 2), (6, 3, 5)]:
        exact = stratum_list(n, k, d)
        assert len(exact) == stratum_size(k, d) == math.comb(k + d - 1, d - 1)
        assert all(max_index(u) == k + 1 for u in exact)
        bounded = stratum_list(n, k, d, bounded=True)
        assert all(max_index(u) <= k + 1 for u in bounded)
        assert set(exact) <= set(bounded)
        assert len(bounded) == math.comb(k + d, d)  # all monomials in x1..x_{k+1}
        for seq in (exact, bounded):
            for u, v in zip(seq, seq[1:]):
                assert degree(u) == degree(v) and u > v
        # the listing is the definition's filter of the whole degree, and
        # members and ranks by arithmetic match it
        assert exact == [u for u in iter_degree(n, d) if max_index(u) == k + 1]
        for j, u in enumerate(exact, start=1):
            assert stratum_member(n, k, d, j) == u
            assert stratum_rank(u, k) == j


def test_lex_count_and_unrank_match_listing_exhaustively():
    # every m <= n <= 5 and d <= 5; v ranges over all degree-d monomials in
    # n variables, so its support may reach past x_m
    for n in range(1, 6):
        for d in range(6):
            everything = list(iter_degree(n, d))
            for m in range(1, n + 1):
                pad = (0,) * (n - m)
                listed = [w + pad for w in iter_degree(m, d)]
                for j, u in enumerate(listed, start=1):
                    assert lex_unrank(n, m, d, j) == u
                for v in everything:
                    assert lex_count(v, m) == sum(u >= v for u in listed)


@st.composite
def _rank_runs(draw):
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, n))
    d = draw(st.integers(0, 6))
    total = math.comb(d + m - 1, m - 1)
    a = draw(st.integers(1, total))
    return n, m, d, a, draw(st.integers(a, total + 1))


@settings(deadline=None, max_examples=300)
@given(_rank_runs())
@example((4, 1, 5, 1, 2))  # m = 1: x1^5 is the only monomial
@example((5, 3, 4, 7, 7))  # an empty run
@example((6, 4, 3, 5, 21))  # a run to the last rank, C(6, 3) = 20
def test_lex_walk_lists_consecutive_ranks(case):
    n, m, d, a, b = case
    first = lex_unrank(n, m, d, a)
    walked = list(itertools.islice(lex_walk(first, m), b - a))
    assert walked == [lex_unrank(n, m, d, j) for j in range(a, b)]
    # left to run, the walk stops after the last rank, x_m^d
    total = math.comb(d + m - 1, m - 1)
    assert len(list(lex_walk(first, m))) == total - a + 1


def test_lex_walk_from_the_top_lists_the_whole_degree():
    # the census lists each degree as the walk from x1^d
    for n in range(1, 7):
        for d in range(0, 8):
            top = (d,) + (0,) * (n - 1)
            assert list(lex_walk(top, n)) == list(iter_degree(n, d)), (n, d)


def test_shadow_matches_direct_products():
    # the shadow of the initial segment down to u, taken to degree d +
    # steps, is everything >= u * x_n^steps: its count is one lex rank
    n = 3
    base = [parse_monomial("x1*x2", n), parse_monomial("x2^2", n)]
    once = shadow(n, base)
    expected = set()
    for u in base:
        for i in range(3):
            w = list(u)
            w[i] += 1
            expected.add(tuple(w))
    assert set(once) == expected
    assert once == sorted(once, reverse=True)
    assert shadow(n, base, steps=2) == shadow(n, once)
    assert shadow(n, base, steps=0) == sorted(set(base), reverse=True)
    for d, steps in itertools.product(range(1, 4), range(4)):
        segment = list(iter_degree(n, d))
        for end, u in enumerate(segment, start=1):
            grown = shadow(n, segment[:end], steps=steps)
            floor = u[:-1] + (u[-1] + steps,)
            assert len(grown) == lex_count(floor, n)
            assert grown == _interval(n, grown[0], floor)


def test_lex_segment_basics():
    n = 3
    got = _interval(n, parse_monomial("x1*x2", n), parse_monomial("x2*x3", n))
    assert got == [
        parse_monomial("x1*x2", n),
        parse_monomial("x1*x3", n),
        parse_monomial("x2^2", n),
        parse_monomial("x2*x3", n),
    ]
    assert lex_count(parse_monomial("x1^2", n), n) == 1
    assert lex_count(parse_monomial("x3^2", n), n) == math.comb(4, 2)
    assert _interval(n, parse_monomial("x2^2", n), parse_monomial("x2^2", n)) == [
        parse_monomial("x2^2", n)
    ]
    assert _interval(n, parse_monomial("x2^2", n), parse_monomial("x1^2", n)) == []


def test_lex_shadow_equals_iterated_shadow_on_lex_segments():
    # The shadow of a lex segment is again a lex segment; when the segment
    # starts at x1^d, its rank interval is 1..lex_count(bottom * xn^steps).
    # Cross-check against brute force.
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 4)
        d = rng.randint(1, 3)
        monos = list(iter_degree(n, d))
        top_i = rng.randrange(len(monos))
        bot_i = rng.randrange(top_i, len(monos))
        steps = rng.randint(0, 3)
        if top_i == 0:
            brute = shadow(n, monos[: bot_i + 1], steps=steps)
            floor = monos[bot_i][:-1] + (monos[bot_i][-1] + steps,)
            ranks = range(1, lex_count(floor, n) + 1)
            assert [lex_unrank(n, n, d + steps, j) for j in ranks] == brute


def test_lex_shadow_validation_and_empty():
    n = 3
    # the lex shadow of x2^2 in degree 4 runs from x1^4 down to x2^2*x3^2
    floor = parse_monomial("x2^2*x3^2", n)
    assert _interval(n, parse_monomial("x1^4", n), floor)[-1] == floor
    assert lex_count(floor, n) == sum(
        1 for u in iter_degree(n, 4) if u >= floor
    )
    total = math.comb(4 + n - 1, n - 1)
    assert lex_unrank(n, n, 4, total) == parse_monomial("x3^4", n)
    for j in (0, total + 1):
        with pytest.raises(BadRange):
            lex_unrank(n, n, 4, j)
    assert lex_unrank(n, 2, 0, 1) == (0, 0, 0)


def test_set_difference_and_ranked():
    # A minus a lex segment, and its ranked elements, by arithmetic: the
    # members below the floor are those past its stratum rank
    n = 4
    aset = stratum_list(n, 2, 2)  # x3 * {x1, x2, x3}
    floor = parse_monomial("x1*x3", n)
    shaded = stratum_rank(floor, 2)
    assert shaded == 1
    assert len(aset) - shaded == 2
    assert stratum_member(n, 2, 2, shaded + 1) == parse_monomial("x2*x3", n)
    assert stratum_member(n, 2, 2, shaded + 2) == parse_monomial("x3^2", n)
    with pytest.raises(BadRange):
        stratum_member(n, 2, 2, shaded + 3)
    # a floor outside the stratum (x4 divides it) still ranks correctly
    outside = parse_monomial("x2*x4", n)
    assert stratum_rank(outside, 2) == sum(1 for u in aset if u >= outside) == 2
