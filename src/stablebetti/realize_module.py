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
does not grow with m; m itself is capped at MAX_COMPONENTS. A spent node
budget raises BudgetExceeded, which is no verdict on the spec.

Each node costs about the same. A column entry's cap depends only on the
pattern and the entries before it, so the search keeps one table of them,
filled in either regime from realize_ideal._caps.
Patterns are screened by row bitmask against the rows already closed and
the rows that the later columns cannot cover alone.

The last column must take exactly what is left, so each entry of the
column before it looks ahead: if no admissible pattern could take the
remainder, the entry has no subtree. A coupled cap only shrinks as the
entries before it grow (each pick moves lex-down and its shadow grows), so
a row can close only if its cap along the all-ones chain reaches its
value, and a last pattern fits only if it admits each row at its least
remainder. Only subtrees without a matrix are dropped: the search finds
the same first matrix, or complete refusal, in no more nodes. A node adds
at most r caps for its own pattern and r per pattern its lookahead tries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .betti import BettiTable, corner_view, ek_betti
from .errors import (
    BudgetExceeded,
    InfeasibleSpec,
    SpecError,
    UncoveredByCharacterization,
    VerificationFailed,
    positive_int,
)
from .ideals import MonomialIdeal, MonomialSubmodule
from .monomials import mul_var, unit
from .realize_ideal import (
    MODE_COUPLED,
    CornerSpec,
    IdealRealization,
    _caps,
    _check_corners,
    _check_mode,
    check_values,
    construct_ideal,
    validate_positions,
)
from .segments import stratum_size

CornerMatrix = tuple[tuple[int, ...], ...]

# Largest component count a module spec may ask for: the matrix and the
# module hold one column per component.
MAX_COMPONENTS = 10_000


def validate_module_spec(spec: CornerSpec, m: int) -> None:
    """Screen a spec for m components; a spec that fails raises.

    m = 1 defers to the single-ideal position rules. For m > 1 the
    positions themselves are unconstrained and a value above
    m * C(k_i + l_i - 1, l_i - 1) raises InfeasibleSpec. An m above
    MAX_COMPONENTS raises BudgetExceeded.
    """
    positive_int(m, "m", SpecError)
    if m > MAX_COMPONENTS:
        raise BudgetExceeded(f"a module spec allows m <= {MAX_COMPONENTS}, got {m}")
    if m == 1:
        return validate_positions(spec)
    for c, a in zip(spec.corners, spec.values):
        cap = m * stratum_size(c.k, c.ell)
        if a > cap:
            raise InfeasibleSpec(
                f"corner (k={c.k}, l={c.ell}) requests {a}, above the "
                f"{m}-component cap {cap}"
            )


def _admissible_patterns(spec: CornerSpec):
    """Bitmask-ordered candidate patterns as (rows, sub-spec, row mask),
    row i at bit i of the mask; the empty pattern has no sub-spec.

    Patterns whose sub-spec fails position screening are skipped.
    """
    r = spec.r
    out = []
    for bits in range((1 << r) - 1, -1, -1):
        rows = tuple(i for i in range(r) if bits >> (r - 1 - i) & 1)
        sub = spec.sub_spec(rows, (1,) * len(rows)) if rows else None
        if sub is None or sub.covered:
            out.append((rows, sub, sum(1 << i for i in rows)))
    return out


def _tightest_row(spec: CornerSpec) -> str:
    """The row with the largest ratio of value to m-column cap, compared
    exactly by cross-multiplying (m cancels); the later row on a tie."""
    caps = [stratum_size(c.k, c.ell) for c in spec.corners]
    i = spec.r - 1
    for j in range(i - 1, -1, -1):
        if spec.values[j] * caps[i] > spec.values[i] * caps[j]:
            i = j
    c = spec.corners[i]
    return (
        f"tightest row is corner {i + 1} (k={c.k}, l={c.ell}): value "
        f"{spec.values[i]} against per-column cap {caps[i]}"
    )


def find_corner_matrix(
    spec: CornerSpec,
    m: int,
    mode: str = MODE_COUPLED,
    *,
    node_budget: int = 500_000,
) -> CornerMatrix:
    """First matrix splitting the corner values across m components.

    Raises InfeasibleSpec when the search space is exhausted, and
    BudgetExceeded when the node budget runs out first.
    """
    _check_mode(mode)
    validate_module_spec(spec, m)
    r = spec.r
    patterns = _admissible_patterns(spec)
    # the cap of the entry after a prefix of pattern rows
    caps: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    single_cap = [stratum_size(c.k, c.ell) for c in spec.corners]
    nodes = count(1)

    def spend():
        if next(nodes) > node_budget:
            raise BudgetExceeded(
                "corner matrix search budget exhausted; " + _tightest_row(spec)
            )

    def cap(rows, sub, prefix: tuple[int, ...]) -> int:
        key = (rows, prefix)
        if key not in caps:
            # each entry of a prefix is within its cap, so no walk stops early
            caps[key] = _caps(sub, mode, prefix)[len(prefix)]
        return caps[key]

    rem = list(spec.values)
    columns: list[dict[int, int]] = []  # each placed column's nonzero entries

    def last_fits(rows, sub, entries) -> bool:
        """Whether a last column could still take what entries leave."""
        left = rem[:]  # each row's least remainder
        for i, v in zip(rows, entries):
            left[i] -= v
        may_close = 0  # rows that the rest of this column may still close
        prefix = tuple(entries)
        for i in rows[len(prefix) :]:  # the next cap, then all-ones chain caps
            left[i] = max(0, left[i] - cap(rows, sub, prefix))
            may_close |= (not left[i]) << i
            prefix = (1,) * (len(prefix) + 1)
        must = sum(1 << i for i, v in enumerate(left) if v)
        for q, q_sub, bits in patterns:
            if bits & ~(must | may_close) or must & ~bits:
                continue
            prefix = ()
            for i in q:
                if (left[i] or 1) > cap(q, q_sub, prefix):
                    break
                prefix += (left[i] or 1,)
            else:
                return True
        return False

    def candidates():
        """Place each candidate for the next column in turn, keeping it
        applied to rem while suspended."""
        cols_after = m - len(columns) - 1
        # every row a pattern fills must still be open (not in closed), and
        # every row it skips coverable by the columns after it (not in
        # must); rem holds still while this call screens the patterns
        closed = must = 0
        floor = []
        for i in range(r):
            # later columns contribute at most single_cap[i] each to row i,
            # so an entry below this floor can never be completed
            spare = cols_after * single_cap[i]
            if rem[i] > spare + single_cap[i]:
                return
            if not rem[i]:
                closed |= 1 << i
            elif rem[i] > spare:
                must |= 1 << i
            floor.append(max(1, rem[i] - spare))

        def entries_of(rows, sub, entries):
            spend()
            # a pattern's first node goes unchecked: each entry's check is
            # as strong, and a check with every row open tries more patterns
            if cols_after == 1 and entries and not last_fits(rows, sub, entries):
                return
            pos = len(entries)
            if pos == len(rows):
                yield dict(zip(rows, entries))
                return
            i = rows[pos]
            top = min(cap(rows, sub, tuple(entries)), rem[i])
            for v in range(top, floor[i] - 1, -1):
                entries.append(v)
                yield from entries_of(rows, sub, entries)
                entries.pop()

        for rows, sub, bits in patterns:
            if bits & closed or must & ~bits:
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
                    "no corner matrix exists for this spec; " + _tightest_row(spec)
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
    if any(type(v) is not int or v < 0 for row in matrix for v in row):
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
        except UncoveredByCharacterization as exc:
            return (
                False,
                f"column {h + 1} pattern {rows} fails position screening: {exc}",
            )
        bad = verdict.first_violation
        if bad is not None:
            cap = verdict.bounds[bad - 1]
            return False, f"column {h + 1} entry {bad} exceeds its {mode} cap {cap}"
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
            "fillers": [h + 1 for h, c in enumerate(self.columns) if c is None],
        }


def construct_module(
    spec: CornerSpec, matrix: CornerMatrix, mode: str = MODE_COUPLED
) -> ModuleRealization:
    """Assemble and verify the direct sum prescribed by a corner matrix."""
    ok, reason = validate_corner_matrix(spec, matrix, mode)
    if not ok:
        raise InfeasibleSpec(f"corner matrix rejected: {reason}")
    columns: list[IdealRealization | None] = []  # None marks an empty column
    # equal columns share one construction, and empty ones one filler
    built: dict[tuple[tuple[int, ...], tuple[int, ...]], IdealRealization] = {}
    for h in range(len(matrix[0])):
        rows = tuple(i for i in range(spec.r) if matrix[i][h])
        key = (rows, tuple(matrix[i][h] for i in rows))
        if rows and key not in built:
            # its windows are those validate_corner_matrix built, by corners
            built[key] = construct_ideal(spec.sub_spec(*key), mode)
        columns.append(built.get(key))
    filler = filler_table = None
    if None in columns:
        filler = filler_ideal(spec.n, spec.corners[0].ell, spec.corners[-1].k)
        filler_table = ek_betti(filler)
    module = MonomialSubmodule(spec.n, tuple(c.ideal if c else filler for c in columns))
    # the module's table sums the tables the columns' verifications built
    view = corner_view(spec.n, [c.table if c else filler_table for c in columns])
    _check_corners(list(zip(view.corners, view.values)), spec, "assembled module")
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
