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
subsequence fails position screening are never tried.
"""

from __future__ import annotations

from dataclasses import dataclass

from .betti import BettiTable, CornerMatrixView, corner_matrix, corner_sequence
from .errors import (
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


def validate_module_spec(spec: CornerSpec, m: int) -> PositionVerdict:
    """Screen a spec for m components.

    m = 1 defers to the single-ideal position rules. For m > 1 the
    positions themselves are unconstrained and only the per-corner value
    range 1 <= a_i <= m * C(k_i + l_i - 1, l_i - 1) is checked.
    """
    if json_int(m, "m", SpecError) < 1:
        raise SpecError(f"need m >= 1, got {m}")
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
    exhausted_budget set, when the node budget ran out first or the
    search nested past the interpreter's recursion limit).
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
    nodes = [0]

    def spend():
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise InfeasibleSpec(
                "corner matrix search budget exhausted; " + _tightest_row(spec, m),
                exhausted_budget=True,
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
        for rows, sub in patterns:
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
        raise InfeasibleSpec(
            "corner matrix search nested too deeply; " + _tightest_row(spec, m),
            exhausted_budget=True,
        ) from None
    if placed:
        return found[0]
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
        entries = [matrix[i][h] for i in rows]
        sub = spec.sub_spec(rows, values=tuple(entries))
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
    for h in range(m):
        rows = tuple(i for i in range(spec.r) if matrix[i][h])
        if not rows:
            components.append(
                filler_ideal(spec.n, spec.corners[0].ell, spec.corners[-1].k)
            )
            columns.append(None)
            continue
        sub = spec.sub_spec(rows, values=tuple(matrix[i][h] for i in rows))
        realization = construct_ideal(sub, mode)
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


@dataclass(frozen=True)
class NormalizationResult:
    module: MonomialSubmodule
    rebuilt: tuple[int, ...]  # 1-based indices of replaced components
    matrix: CornerMatrix


def _misowned(view: CornerMatrixView) -> list[int]:
    """The 0-based corner components whose own corner set differs from the
    module corners they contribute to, read off the view's tables."""
    out = []
    for h, table in enumerate(view.component_tables):
        shared = {c for c, row in zip(view.corners, view.rows) if row[h]}
        if shared and shared != {c for c, _v in corner_sequence(table)}:
            out.append(h)
    return out


def normalize_module(
    module: MonomialSubmodule, mode: str = MODE_COUPLED
) -> NormalizationResult:
    """Rebuild corner components until each owns exactly its shared corners.

    Components whose own corner set already equals their module-corner
    pattern pass through untouched, as do components contributing to no
    corner. The rest are replaced by fresh realizations of their column.
    The result must keep the module's corner positions and values and
    satisfy the ownership property; otherwise VerificationFailed.
    """
    _check_mode(mode)
    if any(f != 0 for f in module.shifts):
        raise SpecError("normalization assumes unshifted components")
    view = corner_matrix(module)
    before = list(zip(view.corners, view.values))
    if not before:
        return NormalizationResult(module, (), ())
    components = list(module.components)
    rebuilt = _misowned(view)
    for h in rebuilt:
        rows = [i for i, row in enumerate(view.rows) if row[h]]
        sub = CornerSpec(
            module.n,
            tuple(view.corners[i] for i in rows),
            tuple(view.rows[i][h] for i in rows),
        )
        components[h] = construct_ideal(sub, mode).ideal
    result = MonomialSubmodule(module.n, tuple(components))
    view2 = corner_matrix(result)
    after = list(zip(view2.corners, view2.values))
    if after != before:
        raise VerificationFailed(
            f"normalization moved the corner sequence: {_corner_text(after)}"
        )
    still = _misowned(view2)
    if still:
        raise VerificationFailed(
            f"component {still[0] + 1} still owns corners outside its module "
            f"contribution after normalization"
        )
    return NormalizationResult(result, tuple(h + 1 for h in rebuilt), view2.rows)
