"""Definition-shaped reference versions of monomial-ideal membership.

MonomialIdeal packs its generators into integers and tests divisibility
with one subtraction per generator; minimalize and the stability scans
use the same packed test. These are the tuple versions they replaced:
divisibility exponent by exponent, membership as a scan over the
generators, and the exchange scans built on that membership. The tests
compare the two on arbitrary generator lists. graded_slice lists a whole
degree of an ideal and serves the dense Koszul slice, and borel_closure
builds strongly stable test inputs from arbitrary seeds.
"""

from stablebetti.ideals import MonomialIdeal, canonical_key
from stablebetti.monomials import Monomial, borel_moves, iter_degree, max_index, unit


def divides(u: Monomial, v: Monomial) -> bool:
    return all(a <= b for a, b in zip(u, v, strict=True))


def contains(ideal: MonomialIdeal, u: Monomial) -> bool:
    return any(divides(g, u) for g in ideal.gens)


def minimalize(n: int, monos) -> tuple[Monomial, ...]:
    """Drop every monomial that is a multiple of another one."""
    items = sorted(set(monos), key=canonical_key)
    kept: list[Monomial] = []
    for u in items:
        if not any(divides(g, u) for g in kept):
            kept.append(u)
    return tuple(kept)


def stability_violation(ideal: MonomialIdeal, strong: bool):
    """First failing exchange (generator, i, j, moved), or None."""
    if ideal.is_zero:
        return (None, 0, 0, None)
    for g in ideal.gens:
        if g == unit(ideal.n):
            return (g, 0, 0, None)
        i_range = [max_index(g)] if not strong else [
            i for i in range(2, ideal.n + 1) if g[i - 1]
        ]
        for i in i_range:
            if i == 0 or g[i - 1] == 0:
                continue
            for j in range(1, i):
                moved = list(g)
                moved[i - 1] -= 1
                moved[j - 1] += 1
                if not contains(ideal, tuple(moved)):
                    return (g, i, j, tuple(moved))
    return None


def graded_slice(ideal: MonomialIdeal, d: int) -> list[Monomial]:
    """All degree-d monomials of the ideal, lex-descending."""
    return [u for u in iter_degree(ideal.n, d) if contains(ideal, u)]


def borel_closure(n: int, monos) -> MonomialIdeal:
    """Smallest strongly stable ideal whose generators contain the input set."""
    closed: set[Monomial] = set()
    frontier = {tuple(u) for u in monos}
    if not frontier:
        raise ValueError("closure of the empty set is the zero ideal")
    while frontier:
        closed |= frontier
        frontier = {v for u in frontier for v in borel_moves(u)} - closed
    return MonomialIdeal.from_generators(n, closed)
