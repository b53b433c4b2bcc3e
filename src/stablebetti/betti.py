"""Graded Betti tables of stable monomial modules and their extremal corners.

For a stable ideal the minimal free resolution is combinatorial: a
generator u of degree l contributes C(m(u)-1, k) to beta_{k, k+l}, where
m(u) is the largest index of a variable dividing u (the Eliahou-Kervaire
formula). Direct sums add tables, with component shifts moving the
internal degree.

An entry beta_{k, k+l} != 0 is extremal when every other entry
beta_{i, i+j} with i >= k and j >= l vanishes; (k, l) is then a corner.
Corners with k >= 1 form the corner sequence used by the realizers; k = 0
extremal entries (free-module tails) are reported separately.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .errors import BadRange, BudgetExceeded, NotStable
from .ideals import MonomialIdeal, MonomialSubmodule
from .monomials import format_monomial


class Corner(NamedTuple):
    k: int
    ell: int


@dataclass(frozen=True)
class BettiTable:
    """Sparse table of nonzero beta_{i,j}; missing keys are zero."""

    n: int
    entries: dict[tuple[int, int], int]

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "entries": [
                {"i": i, "j": j, "beta": b}
                for (i, j), b in sorted(self.entries.items())
            ],
        }


def _require_stable(module: MonomialSubmodule) -> None:
    for h, ideal in enumerate(module.components):
        violation = ideal.stability_violation(strong=False)
        if violation is not None:
            g, i, j, moved = violation
            if g is None:
                raise NotStable(f"component {h + 1} is the zero ideal")
            raise NotStable(
                f"component {h + 1} is not stable: generator "
                f"{format_monomial(g)}"
                + (
                    f" fails the exchange (i={i}, j={j}) -> {format_monomial(moved)}"
                    if moved is not None
                    else " is the unit"
                )
            )
        u = ideal.redundant_generator  # the formula needs a minimal list
        if u is not None:
            raise BadRange(f"component {h + 1} is not minimal: {format_monomial(u)}")


def ek_betti(module: MonomialSubmodule | MonomialIdeal) -> BettiTable:
    """Betti table of a stable module from its generators alone.

    Refuses non-stable components (NotStable) and non-minimal generator
    lists (BadRange): the formula needs a stable ideal's minimal generators.
    """
    if isinstance(module, MonomialIdeal):
        module = MonomialSubmodule.of_ideal(module)
    _require_stable(module)
    # per (max index, module degree) group, count * C(top - 1, k) stepped along k
    groups = Counter()
    for ideal, f in zip(module.components, module.shifts):
        groups.update(zip(ideal.max_indices, map(f.__add__, ideal.degrees)))
    entries: dict[tuple[int, int], int] = {}
    for (top, mod_deg), count in groups.items():
        for k in range(top):
            key = (k, k + mod_deg)
            entries[key] = entries.get(key, 0) + count
            count = count * (top - 1 - k) // (k + 1)
    return BettiTable(module.n, entries)


def extremal_from_table(table: BettiTable) -> list[tuple[Corner, int]]:
    """All extremal entries of the table, as ((k, l), value), k descending.

    One sweep, k descending, then l descending. Within one k only the entry
    of largest l can be extremal, as it dominates the rest of its column;
    it is, exactly when its l exceeds every l at a larger k. Every key
    counts, a zero value too; k = 0 entries are included when extremal.
    """
    corners = []
    best = last = None
    # (i, j) descending is k descending, then l = j - i descending
    for (k, j), value in sorted(table.entries.items(), reverse=True):
        if k != last:
            last = k
            if best is None or j - k > best:
                best = j - k
                corners.append((Corner(k, best), value))
    return corners


def corner_sequence(table: BettiTable) -> list[tuple[Corner, int]]:
    """Extremal entries with k >= 1, ordered by decreasing k."""
    return [(c, v) for c, v in extremal_from_table(table) if c.k >= 1]


@dataclass(frozen=True)
class CornerMatrixView:
    """Corner-by-component decomposition of a module's extremal values.

    Row i belongs to the module corner (k_i, l_i); column h holds
    beta_{k_i, k_i + l_i} of component h's table shifted by f_h. Components
    owning at least one nonzero entry are the corner components.
    """

    corners: tuple[Corner, ...]
    values: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    corner_components: tuple[int, ...]  # 1-based component indices
    table: BettiTable  # the module's table, the sum of the component tables
    component_tables: tuple[BettiTable, ...]  # each shifted by its f_h
    extremals: tuple[tuple[Corner, int], ...]  # of the table, k = 0 included


def corner_matrix(module: MonomialSubmodule) -> CornerMatrixView:
    """The corner matrix, building each component's table once."""
    _require_stable(module)  # names a failing component by its module index
    parts = zip(module.components, module.shifts)
    shifted = [MonomialSubmodule(module.n, (c,), (f,)) for c, f in parts]
    return corner_view(module.n, [ek_betti(part) for part in shifted])


def corner_view(n: int, component_tables) -> CornerMatrixView:
    """The corner matrix of a direct sum, read off its components' tables,
    each already shifted by its f_h."""
    entries: dict[tuple[int, int], int] = {}
    for table in component_tables:
        for key, b in table.entries.items():
            entries[key] = entries.get(key, 0) + b
    table = BettiTable(n, entries)
    extremals = tuple(extremal_from_table(table))
    corners = tuple(c for c, _v in extremals if c.k >= 1)
    values = tuple(v for c, v in extremals if c.k >= 1)
    rows = tuple(
        tuple(t.beta(c.k, c.k + c.ell) for t in component_tables) for c in corners
    )
    nonzero_cols = tuple(
        h + 1
        for h in range(len(component_tables))
        if any(row[h] for row in rows)
    )
    return CornerMatrixView(
        corners, values, rows, nonzero_cols, table, tuple(component_tables), extremals
    )


def module_corner_report(module: MonomialSubmodule) -> dict:
    """Everything the corner inspection surfaces, JSON-ready.

    Includes the module corner sequence, the corner matrix, the set of
    corner components, and per component its own corners plus the subset
    it shares with the module.
    """
    view = corner_matrix(module)
    module_corner_set = set(view.corners)
    components = []
    for h, table in enumerate(view.component_tables):
        own = corner_sequence(table)
        shared = [c for c, _v in own if c in module_corner_set]
        components.append(
            {
                "index": h + 1,
                "corners": [{"k": c.k, "l": c.ell, "beta": v} for c, v in own],
                "module_corners": [{"k": c.k, "l": c.ell} for c in shared],
            }
        )
    k0_extremals = [cv for cv in view.extremals if cv[0].k == 0]
    return {
        "n": module.n,
        "m": module.m,
        "corners": [
            {"k": c.k, "l": c.ell, "beta": v} for c, v in zip(view.corners, view.values)
        ],
        "k0_extremals": [{"k": c.k, "l": c.ell, "beta": v} for c, v in k0_extremals],
        "corner_matrix": [list(row) for row in view.rows],
        "corner_components": list(view.corner_components),
        "components": components,
    }


MAX_DIAGRAM_ROWS = 10_000  # rows one diagram may span


def render_diagram(table: BettiTable, corners: set[Corner] | None = None) -> str:
    """ASCII diagram: columns are homological index i, a degree-l block sits
    on row l-1, zero entries print as dots, corner entries carry a star.
    A span of more than MAX_DIAGRAM_ROWS rows raises BudgetExceeded.
    """
    if table.is_zero:
        return "(zero module)"
    corners = corners or ()
    cells: dict[tuple[int, int], str] = {}
    widths: dict[int, int] = {}
    for (i, j), v in table.entries.items():
        cell = f"{v}*" if (i, j - i) in corners else str(v)
        cells[j - i - 1, i] = cell
        if len(cell) > widths.get(i, 0):
            widths[i] = len(cell)
    row_lo, row_hi = min(cells)[0], max(cells)[0]
    span = row_hi - row_lo + 1
    if span > MAX_DIAGRAM_ROWS:  # refused before any row is built
        raise BudgetExceeded(f"diagram spans {span} rows, cap {MAX_DIAGRAM_ROWS}")
    # a column with no entry holds only dots, of width 1
    columns = [(i, widths.get(i, 1)) for i in range(max(widths) + 1)]
    # the widest label is at one end: the most negative or the largest row
    label_width = max(len(str(row_lo)), len(str(row_hi)))
    lines = []
    for r in range(row_lo, row_hi + 1):
        parts = [str(r).rjust(label_width) + ":"]
        parts.extend(cells.get((r, i), ".").rjust(w) for i, w in columns)
        lines.append(" ".join(parts))
    return "\n".join(lines)
