"""Decide and construct direct sums with prescribed corners.

A module spec is a corner spec plus a component count m. Realization
splits each corner value across an r-by-m matrix: column h prescribes
which corners component h carries and how much of each value it
contributes. Columns with at least one nonzero entry become single-ideal
realizations of their row pattern; all-zero columns receive a filler
ideal generated one degree below the first corner, low enough in both
degree and variable reach to stay invisible to every corner.

find_corner_matrix searches for such a matrix deterministically: columns
left to right, candidate row patterns by descending bitmask (full
pattern first, empty column last), entries greedily at their largest
admissible value and decremented on backtrack. Patterns whose row
subsequence fails position screening are never tried. The walk keeps one
candidate generator per placed column on an explicit stack, so its depth
does not grow with m; m itself is capped at MAX_COMPONENTS.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .betti import BettiTable, corner_matrix
from .errors import (
    BudgetExceeded,
    InfeasibleSpec,
    SpecError,
    UncoveredByCharacterization,
    VerificationFailed,
    json_int,
)
from .ideals import MonomialIdeal, MonomialSubmodule
from .monomials import mul_var, unit
from .realize_ideal import (
    ADMISSIBLE,
    MODE_COUPLED,
    MODE_STRICT,
    REJECTED,
    UNCOVERED,
    CornerSpec,
    IdealRealization,
    PositionVerdict,
    _check_mode,
    _corner_text,
    check_values,
    compute_bounds,
    construct_ideal,
    coupled_chain,
    validate_positions,
)
from .segments import stratum_size

CornerMatrix = tuple[tuple[int, ...], ...]

# Largest component count a module spec may ask for: the matrix and the
# module hold one column per component.
MAX_COMPONENTS = 10_000


def validate_module_spec(spec: CornerSpec, m: int) -> PositionVerdict:
    """Screen a spec for m components.

    m = 1 defers to the single-ideal position rules. For m > 1 the
    positions themselves are unconstrained and only the per-corner value
    range 1 <= a_i <= m * C(k_i + l_i - 1, l_i - 1) is checked. An m
    above MAX_COMPONENTS raises BudgetExceeded.
    """
    if json_int(m, "m", SpecError) < 1:
        raise SpecError(f"need m >= 1, got {m}")
    if m > MAX_COMPONENTS:
        raise BudgetExceeded(f"a module spec allows m <= {MAX_COMPONENTS}, got {m}")
    if m == 1:
        return validate_positions(spec)
    for c, a in zip(spec.corners, spec.values):
        cap = m * stratum_size(c.k, c.ell)
        if a > cap:
            return PositionVerdict(
                REJECTED,
                f"corner (k={c.k}, l={c.ell}) requests {a}, above the "
                f"{m}-component cap {cap}",
            )
    return PositionVerdict(ADMISSIBLE)


def _admissible_patterns(spec: CornerSpec):
    """Bitmask-ordered candidate patterns with their sub-specs.

    Patterns whose sub-spec fails position screening are skipped; each
    sub-spec, and so the windows it keeps, lasts the whole search.
    """
    r = spec.r
    out = []
    for bits in range((1 << r) - 1, -1, -1):
        rows = tuple(i for i in range(r) if bits >> (r - 1 - i) & 1)
        if not rows:
            out.append((rows, None))
            continue
        sub = spec.sub_spec(rows, values=tuple(1 for _ in rows))
        if validate_positions(sub).admissible:
            out.append((rows, sub))
    return out


def _tightest_row(spec: CornerSpec, m: int) -> str:
    scored = [
        (a / (m * stratum_size(c.k, c.ell)), i)
        for i, (c, a) in enumerate(zip(spec.corners, spec.values))
    ]
    _ratio, i = max(scored)
    c = spec.corners[i]
    return (
        f"tightest row is corner {i + 1} (k={c.k}, l={c.ell}): value "
        f"{spec.values[i]} against per-column cap {stratum_size(c.k, c.ell)}"
    )


def find_corner_matrix(
    spec: CornerSpec,
    m: int,
    mode: str = MODE_COUPLED,
    *,
    node_budget: int = 500_000,
) -> CornerMatrix:
    """First matrix splitting the corner values across m components.

    Raises InfeasibleSpec when the search space is exhausted (or, with
    exhausted_budget set, when the node budget ran out first).
    """
    _check_mode(mode)
    verdict = validate_module_spec(spec, m)
    if verdict.status == UNCOVERED:
        raise UncoveredByCharacterization(verdict.reason)
    if not verdict.admissible:
        raise InfeasibleSpec(verdict.reason)
    r = spec.r
    patterns = _admissible_patterns(spec)
    strict_caps = (
        {rows: compute_bounds(sub).bounds for rows, sub in patterns if rows}
        if mode == MODE_STRICT
        else {}
    )
    single_cap = [stratum_size(c.k, c.ell) for c in spec.corners]
    nodes = count(1)

    def spend():
        if next(nodes) > node_budget:
            raise InfeasibleSpec(
                "corner matrix search budget exhausted; " + _tightest_row(spec, m),
                exhausted_budget=True,
            )

    rem = list(spec.values)
    columns: list[dict[int, int]] = []  # each placed column's nonzero entries

    def candidates():
        """Place each candidate for the next column in turn, keeping it
        applied to rem while suspended."""
        cols_left = m - len(columns)
        if any(rem[i] > cols_left * single_cap[i] for i in range(r)):
            return
        # later columns contribute at most single_cap[i] each to row i,
        # so an entry below this floor can never be completed
        floor = [max(1, rem[i] - (cols_left - 1) * single_cap[i]) for i in range(r)]

        def entries_of(rows, sub, entries):
            spend()
            pos = len(entries)
            if pos == len(rows):
                yield dict(zip(rows, entries))
                return
            if mode == MODE_COUPLED:
                bounds, _picks, violation = coupled_chain(sub, entries)
                cap = 0 if violation is not None else bounds[-1]
            else:
                cap = strict_caps[rows][pos]
            i = rows[pos]
            for v in range(min(cap, rem[i]), floor[i] - 1, -1):
                entries.append(v)
                yield from entries_of(rows, sub, entries)
                entries.pop()

        for rows, sub in patterns:
            # every row the pattern fills must still be open, and every row
            # it skips coverable by the columns after it
            if rows and any(rem[i] == 0 for i in rows) or any(
                rem[i] > (cols_left - 1) * single_cap[i]
                for i in range(r)
                if i not in rows
            ):
                continue
            for column in entries_of(rows, sub, []) if rows else [{}]:
                columns.append(column)
                for i, v in column.items():
                    rem[i] -= v
                yield True
                columns.pop()
                for i, v in column.items():
                    rem[i] += v

    # stack[h] places column h and keeps it applied while suspended
    stack = []
    while True:
        spend()
        if not any(rem):
            return tuple(
                tuple(col.get(i, 0) for col in columns) + (0,) * (m - len(columns))
                for i in range(r)
            )
        stack.append(candidates())
        while not next(stack[-1], False):
            stack.pop()
            if not stack:
                raise InfeasibleSpec(
                    "no corner matrix exists for this spec; " + _tightest_row(spec, m)
                )


def validate_corner_matrix(
    spec: CornerSpec, matrix: CornerMatrix, mode: str = MODE_COUPLED
) -> tuple[bool, str | None]:
    """Check shape, row sums, and per-column feasibility of a matrix."""
    _check_mode(mode)
    r = spec.r
    if len(matrix) != r or len({len(row) for row in matrix}) != 1:
        return False, f"matrix must have {r} equal-length rows"
    m = len(matrix[0])
    if any(not isinstance(v, int) or v < 0 for row in matrix for v in row):
        return False, "matrix entries must be non-negative integers"
    for i, row in enumerate(matrix):
        if sum(row) != spec.values[i]:
            return (
                False,
                f"row {i + 1} sums to {sum(row)}, expected {spec.values[i]}",
            )
    for h in range(m):
        rows = tuple(i for i in range(r) if matrix[i][h])
        if not rows:
            continue
        sub = spec.sub_spec(rows, [matrix[i][h] for i in rows])
        try:  # check_values screens the positions before anything else
            verdict = check_values(sub, mode)
        except (InfeasibleSpec, UncoveredByCharacterization) as exc:
            return (
                False,
                f"column {h + 1} pattern {rows} fails position screening: {exc}",
            )
        bad = verdict.first_violation
        if bad is not None:
            cap = (
                f"strict cap {verdict.bounds[bad - 1]}"
                if mode == MODE_STRICT
                else "coupled cap"
            )
            return False, f"column {h + 1} entry {bad} exceeds its {cap}"
    return True, None


def filler_ideal(n: int, first_degree: int, last_k: int) -> MonomialIdeal:
    """Corner-invisible ideal for an all-zero column.

    Generated entirely in degree first_degree - 1 with variable reach at
    most last_k + 1: its Betti entries all sit strictly left of and above
    every corner, so neither positions nor values move.
    """
    d = first_degree - 1
    gens = [mul_var(unit(n), 1, d)]
    for j in range(2, last_k + 2):
        gens.append(mul_var(mul_var(unit(n), 1, d - 1), j))
    return MonomialIdeal.from_generators(n, gens)


@dataclass(frozen=True)
class ModuleRealization:
    spec: CornerSpec
    mode: str
    matrix: CornerMatrix
    module: MonomialSubmodule
    columns: tuple[IdealRealization | None, ...]  # None marks a filler
    table: BettiTable  # the module's Betti table, from its verification

    def to_obj(self) -> dict:
        return {
            "spec": self.spec.to_obj(),
            "m": len(self.matrix[0]),
            "mode": self.mode,
            "matrix": [list(row) for row in self.matrix],
            "module": self.module.to_obj(),
            "fillers": [
                h + 1 for h, c in enumerate(self.columns) if c is None
            ],
        }


def construct_module(
    spec: CornerSpec, matrix: CornerMatrix, mode: str = MODE_COUPLED
) -> ModuleRealization:
    """Assemble and verify the direct sum prescribed by a corner matrix."""
    ok, reason = validate_corner_matrix(spec, matrix, mode)
    if not ok:
        raise InfeasibleSpec(f"corner matrix rejected: {reason}")
    m = len(matrix[0])
    components: list[MonomialIdeal] = []
    columns: list[IdealRealization | None] = []
    # equal columns share one construction, and empty ones one filler
    built: dict[tuple[tuple[int, ...], tuple[int, ...]], IdealRealization] = {}
    filler = None
    for h in range(m):
        rows = tuple(i for i in range(spec.r) if matrix[i][h])
        if not rows:
            if filler is None:
                filler = filler_ideal(spec.n, spec.corners[0].ell, spec.corners[-1].k)
            components.append(filler)
            columns.append(None)
            continue
        key = (rows, tuple(matrix[i][h] for i in rows))
        realization = built.get(key)
        if realization is None:
            # the sub-spec validate_corner_matrix checked, windows and all
            realization = built[key] = construct_ideal(spec.sub_spec(*key), mode)
        components.append(realization.ideal)
        columns.append(realization)
    module = MonomialSubmodule(spec.n, tuple(components))
    view = corner_matrix(module)
    got = list(zip(view.corners, view.values))
    want = list(zip(spec.corners, spec.values))
    if got != want:
        raise VerificationFailed(
            f"assembled module has corner sequence {_corner_text(got)}, "
            f"wanted {_corner_text(want)}"
        )
    if view.rows != tuple(tuple(row) for row in matrix):
        raise VerificationFailed(
            "assembled module does not reproduce the requested corner matrix"
        )
    return ModuleRealization(
        spec, mode, tuple(matrix), module, tuple(columns), view.table
    )


def realize_module(
    spec: CornerSpec, m: int, mode: str = MODE_COUPLED, *, node_budget: int = 500_000
) -> ModuleRealization:
    """find_corner_matrix followed by construct_module."""
    matrix = find_corner_matrix(spec, m, mode, node_budget=node_budget)
    return construct_module(spec, matrix, mode)
