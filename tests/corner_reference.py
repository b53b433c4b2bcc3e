"""Corners read off the generators, the second corner oracle.

The package finds corners by scanning a Betti table (extremal_from_table).
For a stable module the same corners follow from the generators alone, by
the Eliahou-Kervaire formula: a generator u of degree l contributes to
row l up to column m(u) - 1. c05 and the Betti tests compare the two.
"""

from stablebetti.betti import Corner, _require_stable
from stablebetti.ideals import MonomialIdeal, MonomialSubmodule
from stablebetti.monomials import max_index


def extremal_from_generators(
    module: MonomialSubmodule | MonomialIdeal,
) -> list[tuple[Corner, int]]:
    """Corners read off the generators of a stable module directly.

    (k, l) is a corner iff k+1 equals the largest m(u) over the degree-l
    generators and every generator of higher degree has m(u) <= k; its
    value counts the degree-l generators with m(u) = k+1.
    """
    if isinstance(module, MonomialIdeal):
        module = MonomialSubmodule.of_ideal(module)
    _require_stable(module)
    top_by_degree: dict[int, int] = {}
    count_by_degree: dict[int, dict[int, int]] = {}
    for _h, g, mod_deg in module.module_generators():
        top = max_index(g)
        top_by_degree[mod_deg] = max(top_by_degree.get(mod_deg, 0), top)
        count_by_degree.setdefault(mod_deg, {})
        count_by_degree[mod_deg][top] = count_by_degree[mod_deg].get(top, 0) + 1
    corners = []
    degrees = sorted(top_by_degree)
    for ell in degrees:
        peak = top_by_degree[ell]
        if any(top_by_degree[d] >= peak for d in degrees if d > ell):
            continue
        corners.append((Corner(peak - 1, ell), count_by_degree[ell][peak]))
    corners.sort(key=lambda cv: (-cv[0].k, cv[0].ell))
    return corners
