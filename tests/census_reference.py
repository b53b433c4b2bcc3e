"""The recursive census walk, kept as the differential reference.

oracle.enumerate_strongly_stable walks each degree on bitmasks with an
explicit stack of pending includes. This is the walk it replaced: a
recursive generator with one frame per candidate, holding the included
monomials in a set, with the same exclusion-first order and the same
decision accounting. It reads oracle.CENSUS_DECISIONS at call time, so
the tests can hold the two to the same yielded sequence and the same
BudgetExceeded point under any budget.
"""

from math import inf

from monomial_reference import iter_degree

from stablebetti import oracle
from stablebetti.errors import BadRange, BudgetExceeded
from stablebetti.ideals import MonomialIdeal
from stablebetti.monomials import Monomial, borel_moves, mul_var


def enumerate_strongly_stable(
    n: int,
    max_degree: int,
    max_gens: int | None = None,
    *,
    allow_large: bool = False,
):
    """Yield every strongly stable ideal within the bounds, each once, in
    the order and with the decision budget of the library census."""
    if n < 1:
        raise BadRange(f"need n >= 1, got {n}")
    if max_degree < 1:
        raise BadRange(f"need max_degree >= 1, got {max_degree}")
    if max_gens is not None and max_gens < 1:
        raise BadRange(f"need max_gens >= 1, got {max_gens}")
    if not allow_large and (n > 5 or max_degree > 6):
        raise BudgetExceeded(
            f"census guard rails allow n <= 5 and max_degree <= 6, got "
            f"n={n}, max_degree={max_degree}; pass allow_large=True to lift"
        )
    budget = oracle.CENSUS_DECISIONS
    left = [inf if allow_large else budget]

    def spend():
        left[0] -= 1
        if left[0] < 0:
            raise BudgetExceeded(
                f"census decision budget of {budget} exhausted at "
                f"n={n}, max_degree={max_degree}; pass allow_large=True to lift"
            )

    # each degree's candidates with their exchanges, built once per census
    levels = [
        [(u, borel_moves(u)) for u in iter_degree(n, d)]
        for d in range(1, max_degree + 1)
    ]

    def by_degree(d: int, prev: tuple[Monomial, ...], gens: tuple[Monomial, ...]):
        if d > max_degree:
            if gens:  # minimal, and in canonical order as added
                yield MonomialIdeal(n, gens)
            return
        forced = {mul_var(u, t) for u in prev for t in range(1, n + 1)}
        cands = levels[d - 1]
        included = set(forced)
        added: list[Monomial] = []

        def decide(idx: int):
            spend()
            if idx == len(cands):
                slice_d = tuple(u for u, _moves in cands if u in included)
                yield from by_degree(d + 1, slice_d, gens + tuple(added))
                return
            u, moves = cands[idx]
            if u in forced:
                yield from decide(idx + 1)
                return
            yield from decide(idx + 1)
            if (max_gens is None or len(gens) + len(added) < max_gens) and all(
                v in included for v in moves
            ):
                included.add(u)
                added.append(u)
                yield from decide(idx + 1)
                added.pop()
                included.discard(u)

        yield from decide(0)

    yield from by_degree(1, (), ())
