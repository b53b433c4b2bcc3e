"""The recursive corner-matrix search, kept as the differential reference.

find_corner_matrix walks columns on an explicit stack. This is the search
it replaced: two mutually recursive closures that nest once per column
and once per filled cell, in the same search order, without the walk's
lookahead at the forced last column. It is the soundness reference: the
tests hold the walk to its matrix or complete refusal wherever it settles
a small spec within the budget, in no more nodes. Past the interpreter's
recursion limit it gives up as it does on a spent budget.
"""

from stablebetti.errors import BudgetExceeded, InfeasibleSpec
from stablebetti.realize_ideal import (
    MODE_COUPLED,
    MODE_STRICT,
    CornerSpec,
    _check_mode,
    compute_bounds,
    coupled_chain,
)
from stablebetti.realize_module import (
    CornerMatrix,
    _admissible_patterns,
    _tightest_row,
    validate_module_spec,
)
from stablebetti.segments import stratum_size


def find_corner_matrix(
    spec: CornerSpec,
    m: int,
    mode: str = MODE_COUPLED,
    *,
    node_budget: int = 500_000,
) -> CornerMatrix:
    """First matrix splitting the corner values across m components.

    Raises InfeasibleSpec when the search space is exhausted, and
    BudgetExceeded when the node budget runs out first or the search
    nests past the interpreter's recursion limit.
    """
    _check_mode(mode)
    validate_module_spec(spec, m)
    r = spec.r
    patterns = _admissible_patterns(spec)
    strict_caps = (
        {rows: compute_bounds(sub).bounds for rows, sub, _mask in patterns if rows}
        if mode == MODE_STRICT
        else {}
    )
    single_cap = [stratum_size(c.k, c.ell) for c in spec.corners]
    nodes = [0]

    def spend():
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise BudgetExceeded(
                "corner matrix search budget exhausted; " + _tightest_row(spec)
            )

    rem = list(spec.values)
    columns: list[tuple[int, ...]] = []
    found: list[CornerMatrix] = []

    def fill_column(rows, sub, pos: int, entries: list[int]) -> bool:
        spend()
        if pos == len(rows):
            column = [0] * r
            for t, i in enumerate(rows):
                column[i] = entries[t]
                rem[i] -= entries[t]
            columns.append(tuple(column))
            ok = place(len(columns))
            columns.pop()
            for t, i in enumerate(rows):
                rem[i] += entries[t]
            return ok
        if mode == MODE_COUPLED:
            bounds, _picks, violation = coupled_chain(sub, entries)
            cap = 0 if violation is not None else bounds[-1]
        else:
            cap = strict_caps[rows][pos]
        i = rows[pos]
        cap = min(cap, rem[i])
        # later columns contribute at most single_cap[i] each to row i,
        # so anything below this floor can never be completed
        cols_after = m - len(columns) - 1
        floor = max(1, rem[i] - cols_after * single_cap[i])
        for v in range(cap, floor - 1, -1):
            entries.append(v)
            if fill_column(rows, sub, pos + 1, entries):
                return True
            entries.pop()
        return False

    def place(h: int) -> bool:
        spend()
        if not any(rem):
            # the recursion would fill every column left with zeros; do it
            # here, without one nested call per column
            found.append(
                tuple(
                    tuple(col[i] for col in columns) + (0,) * (m - h)
                    for i in range(r)
                )
            )
            return True
        if h == m:
            return False
        cols_left = m - h
        if any(
            rem[i] > cols_left * single_cap[i] or rem[i] < 0 for i in range(r)
        ):
            return False
        for rows, sub, _mask in patterns:
            if rows and any(rem[i] == 0 for i in rows):
                continue
            # rows this column skips must be coverable by the columns after it
            if any(
                rem[i] > (cols_left - 1) * single_cap[i]
                for i in range(r)
                if i not in rows
            ):
                continue
            if not rows:
                columns.append(tuple(0 for _ in range(r)))
                if place(h + 1):
                    return True
                columns.pop()
            elif fill_column(rows, sub, 0, []):
                return True
        return False

    try:
        placed = place(0)
    except RecursionError:
        # nesting grows with m and the values; past the interpreter's
        # limit the search gives up as it does on an exhausted budget
        raise BudgetExceeded(
            "corner matrix search nested too deeply; " + _tightest_row(spec)
        ) from None
    if placed:
        return found[0]
    raise InfeasibleSpec(
        "no corner matrix exists for this spec; " + _tightest_row(spec)
    )
