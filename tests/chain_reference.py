"""Closed-form reference for the unit-value chains of first degree 2.

construct_ideal builds every decided spec from its windows and picks.
For first corner degree 2 and every value 1 the witness also has a
closed form, one lex segment per corner degree with explicit ends; this
module keeps it as the oracle the tests hold construct_ideal to, ideal
for ideal. variable, the monomial x_i that the closed form starts from,
lives here since nothing in the package needs it.
"""

from stablebetti.errors import BadRange, SpecError
from stablebetti.ideals import MonomialIdeal
from stablebetti.monomials import Monomial, degree, mul_var, unit
from stablebetti.realize_ideal import (
    CornerSpec,
    _verify_realization,
    validate_positions,
)
from stablebetti.segments import lex_count, lex_unrank


def variable(n: int, i: int) -> Monomial:
    """The monomial x_i in n variables (i is 1-based)."""
    if not 1 <= i <= n:
        raise BadRange(f"variable index {i} outside 1..{n}")
    return tuple(1 if t == i - 1 else 0 for t in range(n))


def construct_degree2_chain(spec: CornerSpec) -> MonomialIdeal:
    """Closed-form witness for first degree 2 and every value equal to 1.

    The generators come in one lex segment per corner degree: an initial
    segment from x1^2, then for each corner up to the crossover index s =
    max{i : i <= k_i + 1} a two-ended segment whose prefix accumulates
    the degree jumps on successive variables, and past the crossover a
    single generator per corner. Output is verified like construct_ideal.
    """
    if spec.corners[0].ell != 2:
        raise SpecError("the chain constructor needs first corner degree 2")
    if any(a != 1 for a in spec.values):
        raise SpecError("the chain constructor needs every corner value 1")
    validate_positions(spec)
    n = spec.n
    r = spec.r
    ks = [c.k for c in spec.corners]
    ls = [c.ell for c in spec.corners]
    s = max(i for i in range(1, r + 1) if i <= ks[i - 1] + 1)

    def segment(top, bottom):
        """The degree-deg(top) monomials from top down to bottom."""
        ranks = range(lex_count(top, n), lex_count(bottom, n) + 1)
        return [lex_unrank(n, n, degree(top), j) for j in ranks]

    blocks: list[list[Monomial]] = []
    top = mul_var(unit(n), 1, 2)
    blocks.append(segment(top, mul_var(variable(n, 1), ks[0] + 1)))
    for i1 in range(2, s + 1):
        prefix = [0] * n
        for j1 in range(2, i1):
            prefix[j1 - 1] = ls[j1 - 1] - ls[j1 - 2]
        jump = ls[i1 - 1] - ls[i1 - 2]
        top = list(prefix)
        top[i1 - 1] += jump + 2
        bottom = list(prefix)
        bottom[i1 - 1] += jump + 1
        bottom[ks[i1 - 1]] += 1
        blocks.append(segment(tuple(top), tuple(bottom)))
    for i1 in range(s + 1, r + 1):
        k = ks[i1 - 1]
        exps = [0] * n
        for j1 in range(2, k):
            exps[j1 - 1] = ls[j1 - 1] - ls[j1 - 2]
        exps[k - 1] += ls[k - 1] - ls[k - 2] - 1
        exps[k] += 3 + ls[i1 - 1] - ls[k - 1]
        blocks.append([tuple(exps)])
    planned = [g for block in blocks for g in block]
    ideal = MonomialIdeal(n, tuple(planned))
    _verify_realization(ideal, spec)
    return ideal
