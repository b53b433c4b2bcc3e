"""Plain tuple versions of two monomial reads, for the tests.

The package lists a whole degree by lex successor (segments.lex_walk from
x1^d) and reads each generator's largest variable index off its packed
top bit (MonomialIdeal.max_indices). iter_degree lists a degree with
itertools, and max_index scans a tuple from its last variable; the tests
use them as independent enumerations and compare the package against
them.
"""

from itertools import combinations_with_replacement
from typing import Iterator

from stablebetti.monomials import Monomial


def max_index(u: Monomial) -> int:
    """Largest index of a variable dividing u; 0 for the unit monomial."""
    for i in range(len(u) - 1, -1, -1):
        if u[i]:
            return i + 1
    return 0


def iter_degree(n: int, d: int) -> Iterator[Monomial]:
    """All degree-d monomials in n variables, lex-descending: their sorted
    variable indices come in increasing lexicographic order."""
    for indices in combinations_with_replacement(range(n), d):
        u = [0] * n
        for i in indices:
            u[i] += 1
        yield tuple(u)
