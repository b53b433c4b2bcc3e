import math
import random

import pytest
from chain_reference import variable
from ideal_reference import divides
from monomial_reference import iter_degree, max_index

from stablebetti import (
    BadRange,
    MonomialSyntaxError,
    degree,
    format_monomial,
    parse_monomial,
)
from stablebetti.monomials import (
    borel_moves,
    initial_segment,
    mul_var,
    unit,
)


def test_unit_and_variable():
    assert unit(3) == (0, 0, 0)
    assert variable(4, 2) == (0, 1, 0, 0)
    assert degree(unit(5)) == 0
    assert max_index(unit(5)) == 0
    with pytest.raises(BadRange):
        variable(3, 4)
    with pytest.raises(BadRange):
        variable(3, 0)


def test_degree_support_max_index():
    u = (2, 0, 3, 1)
    assert degree(u) == 6
    assert max_index(u) == 4


def test_multiply_and_divides():
    assert divides((0, 1, 0), (1, 2, 0))
    assert not divides((0, 0, 1), (1, 2, 0))
    assert mul_var((1, 0, 0), 3, 2) == (1, 0, 2)


def test_parse_format_round_trip():
    cases = ["1", "x1", "x3^4", "x1^2*x2", "x2*x3^8"]
    for text in cases:
        u = parse_monomial(text, 4)
        assert format_monomial(u) == text
    assert parse_monomial("x2^3*x1", 3) == (1, 3, 0)


def test_parse_rejects_garbage():
    for bad in ["", "x0", "x4", "x1^0", "x1^-2", "y1", "x1**2", "x1*", "2*x1"]:
        with pytest.raises(MonomialSyntaxError):
            parse_monomial(bad, 3)


def test_lex_order_fixed_points():
    # within one degree the tuple order is the lex order
    n = 3
    a = parse_monomial("x1^2", n)
    b = parse_monomial("x1*x2", n)
    c = parse_monomial("x2^2", n)
    assert degree(a) == degree(b) == degree(c)
    assert a > b > c
    assert sorted([c, a, b], reverse=True) == [a, b, c]


def test_iter_degree_is_lex_descending_and_complete():
    for n in (1, 2, 3, 4):
        for d in (1, 2, 3):
            listed = list(iter_degree(n, d))
            assert len(listed) == math.comb(n + d - 1, d)
            for u, v in zip(listed, listed[1:]):
                assert u > v


def test_borel_move_lowers_index():
    u = parse_monomial("x2*x3^2", 3)
    moves = borel_moves(u)
    assert parse_monomial("x1*x2*x3", 3) in moves  # x3 -> x1
    assert parse_monomial("x1*x3^2", 3) in moves  # x2 -> x1
    # only absent variables: x1 has no lower index, x3 does not divide x2^2
    assert borel_moves(parse_monomial("x1^2", 3)) == []
    assert borel_moves(parse_monomial("x2^2", 3)) == [parse_monomial("x1*x2", 3)]


def test_borel_moves_enumerates_all_single_steps():
    u = parse_monomial("x2*x3", 3)
    assert set(borel_moves(u)) == {
        parse_monomial("x1*x3", 3),
        parse_monomial("x1*x2", 3),
        parse_monomial("x2^2", 3),
    }
    assert borel_moves(unit(3)) == []


def test_borel_move_preserves_degree_randomized():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 5)
        u = tuple(rng.randint(0, 3) for _ in range(n))
        if max_index(u) < 2:
            continue
        for v in borel_moves(u):
            assert degree(v) == degree(u)
            assert v > u  # moves always raise lex order


def test_initial_segment_fills_from_x1_up():
    u = parse_monomial("x1*x3^2*x4", 4)
    assert [initial_segment(u, e) for e in range(6)] == [
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (1, 0, 1, 0),
        (1, 0, 2, 0),
        u,
        u,
    ]
    rng = random.Random(16)
    for _ in range(200):
        u = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 6)))
        e = rng.randint(0, degree(u) + 1)
        seg = initial_segment(u, e)
        assert degree(seg) == min(e, degree(u)) and divides(seg, u)
        # every exponent before the last one of seg is u's own
        last = max_index(seg)
        assert seg[: last - 1] == u[: last - 1] if last else not any(seg)
