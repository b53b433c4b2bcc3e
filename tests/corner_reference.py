"""Corner and diagram references for the Betti tests.

The package finds corners by one sorted sweep over a Betti table
(extremal_from_table). extremal_by_definition tests each entry against
every other, as the definition reads. For a stable module the same corners
follow from the generators alone, by the Eliahou-Kervaire formula: a
generator u of degree l contributes to row l up to column m(u) - 1. c05
and the Betti tests compare the three. reference_diagram is the diagram
drawn cell by cell, the renderer's reference.
"""

from monomial_reference import max_index

from stablebetti.betti import BettiTable, Corner, _require_stable
from stablebetti.ideals import MonomialIdeal, MonomialSubmodule


def module_generators(module: MonomialSubmodule):
    """(generator u, module degree deg u + f_h) over every component h."""
    for ideal, f in zip(module.components, module.shifts):
        for g in ideal.gens:
            yield g, sum(g) + f


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
    for g, mod_deg in module_generators(module):
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


def extremal_by_definition(table: BettiTable) -> list[tuple[Corner, int]]:
    """Every entry that no other entry (i, j) with i >= k and j - i >= l
    dominates, as ((k, l), value), k descending."""
    corners = []
    keys = [(i, j - i) for (i, j) in table.entries]
    for (i, j), value in table.entries.items():
        k, ell = i, j - i
        dominated = any(
            (i2, l2) != (k, ell) and i2 >= k and l2 >= ell for (i2, l2) in keys
        )
        if not dominated:
            corners.append((Corner(k, ell), value))
    corners.sort(key=lambda cv: (-cv[0].k, cv[0].ell))
    return corners


def reference_diagram(table: BettiTable, corners: set[Corner] | None = None) -> str:
    """The diagram with every column width and the label width taken over
    all rows, one cell at a time."""
    if table.is_zero:
        return "(zero module)"
    corners = corners or set()
    max_i = max(i for i, _j in table.entries)
    rows_idx = sorted({j - i - 1 for i, j in table.entries})
    row_lo, row_hi = rows_idx[0], rows_idx[-1]
    cells: dict[tuple[int, int], str] = {}
    for (i, j), v in table.entries.items():
        mark = "*" if Corner(i, j - i) in corners else ""
        cells[(j - i - 1, i)] = f"{v}{mark}"
    col_width = [
        max([len(cells.get((r, i), ".")) for r in range(row_lo, row_hi + 1)] + [1])
        for i in range(max_i + 1)
    ]
    label_width = max(len(str(r)) for r in range(row_lo, row_hi + 1))
    lines = []
    for r in range(row_lo, row_hi + 1):
        parts = [f"{r:>{label_width}}:"]
        for i in range(max_i + 1):
            parts.append(f"{cells.get((r, i), '.'):>{col_width[i]}}")
        lines.append(" ".join(parts))
    return "\n".join(lines)
