"""Lex ranks and max-index strata of a fixed degree.

All sets handled here live inside a single degree, ordered lex-descending.
The stratum A(k, d) collects the degree-d monomials whose largest dividing
variable is exactly x_{k+1}.

Ranks are counted, not listed: the degree-d monomials in x1..x_m that are
lex >= v number a sum of binomials over the first position where a larger
monomial can exceed v (the combinatorial number system, Knuth TAOCP 4A
7.2.1.3), and the j-th of them is recovered by the same sums in reverse.
A(k, d) is the monomials in x1..x_{k+1} minus those in x1..x_k, so its
ranks are differences of two counts, and its members are x_{k+1} times the
degree-(d-1) monomials in x1..x_{k+1}, in the same order.
"""

from __future__ import annotations

import math

from .errors import BadRange
from .monomials import Monomial, degree, mul_var


def stratum_size(k: int, d: int) -> int:
    return math.comb(k + d - 1, d - 1)


def lex_count(v: Monomial, m: int) -> int:
    """How many degree-deg(v) monomials in x1..x_m are lex >= v.

    v may involve variables past x_m; it is then counted only by the
    monomials above it.
    """
    rem = degree(v)
    count = 0
    for i in range(m):
        # u agrees with v before position i and exceeds it at i; the
        # remaining degree rem - u_i - ... spreads over m-1-i variables
        if v[i] < rem:
            count += math.comb(rem - v[i] - 1 + m - 1 - i, m - 1 - i)
        rem -= v[i]
    return count + (rem == 0)


def lex_unrank(n: int, m: int, d: int, j: int) -> Monomial:
    """The j-th (1-based, lex-descending) degree-d monomial in x1..x_m,
    as a monomial in n variables."""
    if not 1 <= j <= math.comb(d + m - 1, m - 1):
        raise BadRange(f"rank {j} outside the degree-{d} monomials in x1..x{m}")
    exps = [0] * n
    rem = d
    for i in range(m - 1):
        q = m - 1 - i  # variables after position i
        e = rem
        while True:
            # monomials with u_i = e and the rest of degree rem - e
            block = math.comb(rem - e + q - 1, q - 1)
            if j <= block:
                break
            j -= block
            e -= 1
        exps[i] = e
        rem -= e
    exps[m - 1] = rem
    return tuple(exps)


def stratum_rank(v: Monomial, k: int) -> int:
    """How many members of A(k, deg v) are lex >= v."""
    return lex_count(v, k + 1) - lex_count(v, k)


def stratum_member(n: int, k: int, d: int, j: int) -> Monomial:
    """The j-th (1-based, lex-descending) member of A(k, d)."""
    return mul_var(lex_unrank(n, k + 1, d - 1, j), k + 1)
