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

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import MonomialSyntaxError, NotStable
from .ideals import MonomialIdeal, MonomialSubmodule
from .monomials import format_monomial, max_index


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

    def items_sorted(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self.entries.items())

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "entries": [
                {"i": i, "j": j, "beta": b} for (i, j), b in self.items_sorted()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(", ", ": "))

    @classmethod
    def from_obj(cls, obj: dict) -> "BettiTable":
        if not isinstance(obj, dict) or "entries" not in obj or "n" not in obj:
            raise MonomialSyntaxError('table document needs keys "n" and "entries"')
        entries = {}
        for e in obj["entries"]:
            entries[(e["i"], e["j"])] = e["beta"]
        return cls(obj["n"], entries)

    @classmethod
    def from_json(cls, text: str) -> "BettiTable":
        return cls.from_obj(json.loads(text))


def _require_stable(module: MonomialSubmodule) -> None:
    for h, ideal in enumerate(module.components):
        violation = ideal.stability_violation(strong=False)
        if violation is not None:
            g, i, j, moved = violation
            if g is None:
                raise NotStable(
                    f"component {h + 1} is the zero ideal", component=h + 1
                )
            raise NotStable(
                f"component {h + 1} is not stable: generator "
                f"{format_monomial(g)}"
                + (
                    f" fails the exchange (i={i}, j={j}) -> {format_monomial(moved)}"
                    if moved is not None
                    else " is the unit"
                ),
                component=h + 1,
                generator=g,
                move=(i, j, moved),
            )


def ek_betti(module: MonomialSubmodule | MonomialIdeal) -> BettiTable:
    """Betti table of a stable module from its generators alone.

    Refuses non-stable components: the generator formula is only valid for
    stable input.
    """
    if isinstance(module, MonomialIdeal):
        module = MonomialSubmodule.of_ideal(module)
    _require_stable(module)
    entries: dict[tuple[int, int], int] = {}
    for _h, g, mod_deg in module.module_generators():
        top = max_index(g)
        for k in range(top):
            key = (k, k + mod_deg)
            entries[key] = entries.get(key, 0) + math.comb(top - 1, k)
    return BettiTable(module.n, entries)


def extremal_from_table(table: BettiTable) -> list[tuple[Corner, int]]:
    """All extremal entries of the table, as ((k, l), value), k descending.

    Pure definition scan; k = 0 entries are included when extremal.
    """
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


def corner_sequence(table: BettiTable) -> list[tuple[Corner, int]]:
    """Extremal entries with k >= 1, ordered by decreasing k."""
    return [(c, v) for c, v in extremal_from_table(table) if c.k >= 1]


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


def corners_from_generators(
    module: MonomialSubmodule | MonomialIdeal,
) -> list[tuple[Corner, int]]:
    return [(c, v) for c, v in extremal_from_generators(module) if c.k >= 1]


@dataclass(frozen=True)
class CornerMatrixView:
    """Corner-by-component decomposition of a module's extremal values.

    Row i belongs to the module corner (k_i, l_i); column h holds
    beta_{k_i, k_i + l_i - f_h} of component h. Components owning at least
    one nonzero entry are the corner components.
    """

    corners: tuple[Corner, ...]
    values: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    corner_components: tuple[int, ...]  # 1-based component indices
    table: BettiTable  # the module's table, the shifted sum of the columns'


def corner_matrix(module: MonomialSubmodule) -> CornerMatrixView:
    _require_stable(module)  # names a failing component by its module index
    component_tables = [ek_betti(c) for c in module.components]
    entries: dict[tuple[int, int], int] = {}
    for component_table, f in zip(component_tables, module.shifts):
        for (i, j), b in component_table.entries.items():
            entries[(i, j + f)] = entries.get((i, j + f), 0) + b
    table = BettiTable(module.n, entries)
    seq = corner_sequence(table)
    corners = tuple(c for c, _v in seq)
    values = tuple(v for _c, v in seq)
    rows = []
    for corner in corners:
        row = []
        for h, f in enumerate(module.shifts):
            row.append(component_tables[h].beta(corner.k, corner.k + corner.ell - f))
        rows.append(tuple(row))
    nonzero_cols = tuple(
        h + 1
        for h in range(module.m)
        if any(row[h] for row in rows)
    )
    return CornerMatrixView(corners, values, tuple(rows), nonzero_cols, table)


def module_corner_report(module: MonomialSubmodule) -> dict:
    """Everything the corner inspection surfaces, JSON-ready.

    Includes the module corner sequence, the corner matrix, the set of
    corner components, and per component its own corners plus the subset
    it shares with the module.
    """
    view = corner_matrix(module)
    extremals = extremal_from_table(view.table)
    seq = [(c, v) for c, v in extremals if c.k >= 1]
    module_corner_set = {c for c, _v in seq}
    components = []
    for h, (ideal, f) in enumerate(zip(module.components, module.shifts)):
        own = corner_sequence(
            ek_betti(MonomialSubmodule(module.n, (ideal,), (f,)))
        )
        shared = [c for c, _v in own if c in module_corner_set]
        components.append(
            {
                "index": h + 1,
                "corners": [{"k": c.k, "l": c.ell, "beta": v} for c, v in own],
                "module_corners": [{"k": c.k, "l": c.ell} for c in shared],
            }
        )
    return {
        "n": module.n,
        "m": module.m,
        "corners": [{"k": c.k, "l": c.ell, "beta": v} for c, v in seq],
        "k0_extremals": [
            {"k": c.k, "l": c.ell, "beta": v} for c, v in extremals if c.k == 0
        ],
        "corner_matrix": [list(row) for row in view.rows],
        "corner_components": list(view.corner_components),
        "components": components,
    }


def render_diagram(table: BettiTable, corners: set[Corner] | None = None) -> str:
    """ASCII diagram: columns are homological index i, a degree-l block sits
    on row l-1, zero entries print as dots, corner entries carry a star.
    """
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
