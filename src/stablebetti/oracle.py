"""Independent ground truth for Betti tables and realizability claims.

Two oracles live here, both exact. koszul_betti computes graded Betti
numbers as integer ranks of Koszul-complex homology, one monomial
multidegree at a time, with no stability assumption; it is the outside
check on the generator formula in betti.py. enumerate_strongly_stable
and bruteforce_realizability search the space of small strongly stable
ideals directly, so realizability verdicts can be confronted with an
exhaustive scan.

The multidegree decomposition rests on two standard facts. Nonzero
homology only occurs in multidegrees that are least common multiples of
generator subsets (the Taylor complex has no basis elsewhere), and the
block at such a multidegree depends only on which subsets of its support
divide out without leaving the ideal. Blocks whose full support divides
out are simplex complexes and contribute nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import lshift

from .betti import BettiTable, corner_sequence, ek_betti
from .errors import BadRange, BudgetExceeded, CapTooLow
from .ideals import MonomialIdeal, MonomialSubmodule
from .monomials import (
    Monomial,
    borel_moves,
    degree,
    iter_degree,
    max_index,
    mul_var,
)
from .segments import stratum, stratum_size


def integer_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix, by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    prev = 1
    for col in range(ncols):
        piv = next((t for t in range(row, nrows) if m[t][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        p = m[row][col]
        for t in range(row + 1, nrows):
            f = m[t][col]
            mt, mr = m[t], m[row]
            for c in range(col, ncols):
                mt[c] = (mt[c] * p - f * mr[c]) // prev
        prev = p
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def _product_is_zero(a: list[list[int]], b: list[list[int]]) -> bool:
    if not a or not b or not b[0]:
        return True
    for arow in a:
        for c in range(len(b[0])):
            if sum(arow[t] * b[t][c] for t in range(len(b))) != 0:
                return False
    return True


def _faces(s: int) -> list[tuple[int, int]]:
    """Signed faces of the subset bitmask s: (s minus bit b, sign), with
    signs alternating over the set bits in increasing order."""
    out = []
    sign = 1
    rest = s
    while rest:
        low = rest & -rest
        out.append((s ^ low, sign))
        sign = -sign
        rest ^= low
    return out


# Homology dimensions of one block shape, keyed by support size and the
# bitmask of valid subsets. Shapes repeat heavily across multidegrees and
# across ideals, so the memo is shared module-wide.
_shape_homology_cache: dict[tuple[int, int], tuple[int, ...]] = {}


def _shape_homology(p: int, mask: int) -> tuple[int, ...]:
    cached = _shape_homology_cache.get((p, mask))
    if cached is not None:
        return cached
    by_size: list[list[int]] = [[] for _ in range(p + 1)]
    for s in range(1 << p):
        if mask >> s & 1:
            by_size[s.bit_count()].append(s)
    faces = {s: _faces(s) for level in by_size for s in level}
    # The family is downward-closed, so d(d(e_s)) over the valid subsets s
    # is exactly the product of consecutive boundary matrices, column by
    # column.
    for level in by_size[2:]:
        for s in level:
            acc: dict[int, int] = {}
            for t, sign in faces[s]:
                for u, sign2 in faces[t]:
                    acc[u] = acc.get(u, 0) + sign * sign2
            if any(acc.values()):
                raise AssertionError("Koszul boundary does not square to zero")
    ranks = [0] * (p + 2)
    for i in range(1, p + 1):
        pos = {s: t for t, s in enumerate(by_size[i - 1])}
        rows = [[0] * len(by_size[i]) for _ in range(len(by_size[i - 1]))]
        for c, s in enumerate(by_size[i]):
            for t, sign in faces[s]:
                rows[pos[t]][c] = sign
        ranks[i] = integer_rank(rows)
    dims = tuple(len(by_size[i]) - ranks[i] - ranks[i + 1] for i in range(p + 1))
    _shape_homology_cache[(p, mask)] = dims
    return dims


def lcm_multidegrees(ideal: MonomialIdeal) -> list[Monomial]:
    """All least common multiples of non-empty generator subsets, sorted."""
    pts: set[Monomial] = set()
    for g in ideal.gens:
        pts |= {tuple(map(max, g, q)) for q in pts}
        pts.add(g)
    return sorted(pts)


# Down-set tables keyed by (support guards, free guards), as built in
# _point_masks: bit s of the table is set exactly when the subset s of
# support positions lies inside the free ones. The free guards are a
# subset of the support guards, so there are at most 3^n keys per field
# width (the two n = 8 chain fixtures make 1,551).
_down_set_cache: dict[tuple[int, int], int] = {}


def _down_set(supp_guards: int, free_guards: int) -> int:
    table = _down_set_cache.get((supp_guards, free_guards))
    if table is None:
        free = 0
        rest = supp_guards
        b = 0
        while rest:
            low = rest & -rest
            if free_guards & low:
                free |= 1 << b
            rest ^= low
            b += 1
        table = 0
        s = free
        while True:
            table |= 1 << s
            if not s:
                break
            s = (s - 1) & free
        _down_set_cache[(supp_guards, free_guards)] = table
    return table


def _point_masks(ideal: MonomialIdeal):
    """Yield (a, p, mask) for each lcm point a of a nonzero ideal.

    p is the support size of a, and bit s of mask is set when a - e_S
    lies in the ideal, S being the support positions picked by the bits
    of s (bit b for the b-th support variable). That holds exactly when
    S lies inside free(g) = {t : g_t < a_t} for some generator g dividing
    a, so one pass over the generators replaces a membership test per
    subset; no stability is assumed.

    Monomials are packed into integers, one field of w bits per variable
    with its top (guard) bit clear, so a field-wise comparison of all
    variables is one subtraction: the guard bit of a field survives
    (a | guards) - g exactly when a_t >= g_t.
    """
    w = max(map(max, ideal.gens)).bit_length() + 1
    shifts = range(0, w * ideal.n, w)
    lows = sum(1 << s for s in shifts)
    guards = lows << (w - 1)
    packed = [sum(map(lshift, g, shifts)) for g in ideal.gens]
    for a in lcm_multidegrees(ideal):
        top = sum(map(lshift, a, shifts)) | guards
        supp_guards = (top - lows) & guards
        p = supp_guards.bit_count()
        below = top - (supp_guards >> (w - 1))  # g_t < a_t iff g_t <= below_t
        frees = {
            (below - g) & supp_guards for g in packed if (top - g) & guards == guards
        }
        if supp_guards in frees:
            mask = (1 << (1 << p)) - 1  # every subset of a free support
        else:
            mask = 0
            for free_guards in frees:
                mask |= _down_set(supp_guards, free_guards)
        yield a, p, mask


def _ideal_tor(ideal: MonomialIdeal) -> dict[tuple[int, int], int]:
    """dim Tor_i(I, k)_j for a monomial ideal, keys (i, j), zeros omitted."""
    out: dict[tuple[int, int], int] = {}
    for a, p, mask in _point_masks(ideal):
        if mask >> ((1 << p) - 1) & 1:
            # a - (1, ..., 1) on the support is in I: a simplex block
            continue
        j = sum(a)
        for i, dim in enumerate(_shape_homology(p, mask)):
            if dim:
                key = (i, j)
                out[key] = out.get(key, 0) + dim
    return out


def koszul_betti(
    module: MonomialSubmodule | MonomialIdeal, degree_cap: int | None = None
) -> BettiTable:
    """Betti table from Koszul homology; exact, no stability assumption.

    The result does not depend on degree_cap once the cap exceeds the
    completeness threshold (max generator degree plus n covers it, and is
    the default). A cap at or below the top nonzero internal degree is
    refused with CapTooLow rather than silently truncating.
    """
    if isinstance(module, MonomialIdeal):
        module = MonomialSubmodule.of_ideal(module)
    n = module.n
    if degree_cap is None:
        tops = [
            ideal.max_gen_degree() + f
            for ideal, f in zip(module.components, module.shifts)
            if not ideal.is_zero
        ]
        degree_cap = (max(tops) if tops else 0) + n
    entries: dict[tuple[int, int], int] = {}
    for ideal, f in zip(module.components, module.shifts):
        if ideal.is_zero:
            continue
        for (i, j), dim in _ideal_tor(ideal).items():
            key = (i, j + f)
            entries[key] = entries.get(key, 0) + dim
    if entries:
        top = max(j for _i, j in entries)
        if top >= degree_cap:
            raise CapTooLow(
                f"nonzero Betti entries reach internal degree {top} but the "
                f"cap is {degree_cap}; raise degree_cap above {top}"
            )
    return BettiTable(n, entries)


@dataclass(frozen=True)
class GradedComplexSlice:
    """The Koszul complex of a module in one fixed internal degree.

    bases[i] lists (variable subset, component, monomial) triples: subsets
    ascending in lex order, then component index, then module monomials
    lex-descending. differentials[i] is the integer matrix of d_i from
    bases[i] to bases[i-1]; the build checks d(d(x)) = 0.

    This is the dense, definition-shaped view. koszul_betti never touches
    it; tests use it to cross-check the blockwise computation.
    """

    n: int
    degree: int
    bases: tuple[tuple[tuple[tuple[int, ...], int, Monomial], ...], ...]
    differentials: tuple[tuple[tuple[int, ...], ...], ...]

    @classmethod
    def build(
        cls, module: MonomialSubmodule | MonomialIdeal, j: int
    ) -> "GradedComplexSlice":
        if isinstance(module, MonomialIdeal):
            module = MonomialSubmodule.of_ideal(module)
        n = module.n
        bases = []
        for i in range(n + 1):
            level = []
            for sigma in itertools.combinations(range(1, n + 1), i):
                for h, (ideal, f) in enumerate(
                    zip(module.components, module.shifts)
                ):
                    d = j - i - f
                    if d < 0:
                        continue
                    for u in ideal.graded_slice(d):
                        level.append((sigma, h, u))
            bases.append(tuple(level))
        mats: list[tuple[tuple[int, ...], ...]] = [()]
        for i in range(1, n + 1):
            index = {key: t for t, key in enumerate(bases[i - 1])}
            rows = [[0] * len(bases[i]) for _ in range(len(bases[i - 1]))]
            for c, (sigma, h, u) in enumerate(bases[i]):
                sign = 1
                for t, var in enumerate(sigma):
                    target = (sigma[:t] + sigma[t + 1 :], h, mul_var(u, var))
                    rows[index[target]][c] += sign
                    sign = -sign
            mats.append(tuple(tuple(r) for r in rows))
        for i in range(2, n + 1):
            if not _product_is_zero(
                [list(r) for r in mats[i - 1]], [list(r) for r in mats[i]]
            ):
                raise AssertionError("Koszul boundary does not square to zero")
        return cls(n, j, tuple(bases), tuple(mats))

    def homology(self) -> dict[int, int]:
        """dim H_i per homological index; H_i equals beta_{i, degree}."""
        ranks = [integer_rank([list(r) for r in mat]) for mat in self.differentials]
        ranks.append(0)
        out = {}
        for i in range(self.n + 1):
            dim = len(self.bases[i]) - ranks[i] - ranks[i + 1]
            if dim:
                out[i] = dim
        return out


def _single_shadow(n: int, monos) -> set[Monomial]:
    out: set[Monomial] = set()
    for u in monos:
        for t in range(1, n + 1):
            out.add(mul_var(u, t))
    return out


def enumerate_strongly_stable(
    n: int,
    max_degree: int,
    max_gens: int | None = None,
    *,
    allow_large: bool = False,
    decision_budget: int | None = None,
):
    """Yield every strongly stable ideal within the bounds, each once.

    Covers exactly the ideals with minimal generators of degree at most
    max_degree (and at most max_gens of them, when set), zero ideal
    excluded. Degree by degree the search picks a Borel-closed superset
    of the previous slice's shadow; the surplus over the shadow is
    automatically the minimal generating set in that degree. Order is
    deterministic. Guard rails n <= 5, max_degree <= 6 keep accidental
    blowups out; pass allow_large=True to lift them.
    """
    if n < 1:
        raise BadRange(f"need n >= 1, got {n}")
    if max_degree < 1:
        raise BadRange(f"need max_degree >= 1, got {max_degree}")
    if not allow_large and (n > 5 or max_degree > 6):
        raise BudgetExceeded(
            f"census guard rails allow n <= 5 and max_degree <= 6, got "
            f"n={n}, max_degree={max_degree}; pass allow_large=True to lift"
        )
    budget = [decision_budget if decision_budget is not None else -1]

    def spend():
        if budget[0] == 0:
            raise BudgetExceeded("census decision budget exhausted")
        if budget[0] > 0:
            budget[0] -= 1

    def by_degree(d: int, prev: tuple[Monomial, ...], gens: tuple[Monomial, ...]):
        if d > max_degree:
            if gens:
                yield MonomialIdeal.from_generators(n, gens)
            return
        forced = _single_shadow(n, prev)
        cands = list(iter_degree(n, d))
        included = set(forced)
        added: list[Monomial] = []

        def decide(idx: int):
            spend()
            if idx == len(cands):
                slice_d = tuple(u for u in cands if u in included)
                yield from by_degree(d + 1, slice_d, gens + tuple(added))
                return
            u = cands[idx]
            if u in forced:
                yield from decide(idx + 1)
                return
            yield from decide(idx + 1)
            if (max_gens is None or len(gens) + len(added) < max_gens) and all(
                v in included for v in borel_moves(u)
            ):
                included.add(u)
                added.append(u)
                yield from decide(idx + 1)
                added.pop()
                included.discard(u)

        yield from decide(0)

    yield from by_degree(1, (), ())


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a brute-force witness hunt.

    complete=True with a witness means the witness is verified; with
    witness=None it means the whole pruned universe was exhausted, so no
    strongly stable ideal on n variables (no component tuple within the
    stated limits, in the module case) realizes the spec. complete=False
    only ever reports none-found-within-budget, never infeasibility.
    """

    witness: object | None
    complete: bool
    decisions: int


class _BudgetInterrupt(Exception):
    pass


def bruteforce_realizability(
    spec,
    *,
    m: int = 1,
    decision_budget: int = 2_000_000,
    census_max_degree: int | None = None,
    allow_large: bool = False,
) -> SearchResult:
    """Search for a witness of a corner spec without the constructive theory.

    For m=1 this is a depth-first scan over chains of Borel-closed degree
    slices, pruned only by conditions forced on any witness by the corner
    definition itself: generators cannot outlive the last corner degree,
    their largest variable index is capped by the next corner still ahead,
    and a corner degree must carry exactly its value's worth of generators
    peaking at that cap. Candidates are confirmed against the Betti table
    before being returned. For m > 1 the component census (degrees up to
    the last corner degree, overridable) is materialized and m-tuples are
    scanned in deterministic order.
    """
    if m < 1:
        raise BadRange(f"need m >= 1, got {m}")
    if m == 1:
        return _ideal_witness_search(spec, decision_budget)
    return _module_witness_search(
        spec, m, decision_budget, census_max_degree, allow_large
    )


def _ideal_witness_search(spec, decision_budget: int) -> SearchResult:
    n = spec.n
    corners = list(spec.corners)
    values = list(spec.values)
    target = list(zip(spec.corners, spec.values))
    last = corners[-1].ell
    corner_at = {c.ell: (c.k, a) for c, a in zip(corners, values)}
    for c, a in zip(corners, values):
        if a > stratum_size(c.k, c.ell):
            # more peak generators than the peak stratum holds
            return SearchResult(None, True, 0)

    def cap(d: int) -> int:
        for c in corners:
            if c.ell >= d:
                return c.k + 1
        raise AssertionError("degree beyond the last corner")

    strata = {c.ell: stratum(n, c.k, c.ell) for c in corners}
    decisions = [0]
    found: list[MonomialIdeal | None] = [None]

    def spend():
        decisions[0] += 1
        if decisions[0] > decision_budget:
            raise _BudgetInterrupt

    def future_capacity_ok(slice_d: tuple[Monomial, ...], d: int) -> bool:
        cur = set(slice_d)
        deg = d
        for c, a in zip(corners, values):
            if c.ell <= d:
                continue
            while deg < c.ell:
                cur = _single_shadow(n, cur)
                deg += 1
            if sum(1 for u in strata[c.ell] if u not in cur) < a:
                return False
        return True

    def at_degree(d: int, prev: tuple[Monomial, ...], gens: tuple[Monomial, ...]):
        if found[0] is not None:
            return
        if d > last:
            ideal = MonomialIdeal.from_generators(n, gens)
            if corner_sequence(ek_betti(ideal)) == target:
                found[0] = ideal
            return
        forced = _single_shadow(n, prev)
        limit = cap(d)
        at_corner = d in corner_at
        k_req, a_req = corner_at.get(d, (0, 0))
        cands = [
            u
            for u in iter_degree(n, d)
            if u in forced or max_index(u) <= limit
        ]
        is_peak = [
            u not in forced and at_corner and max_index(u) == k_req + 1
            for u in cands
        ]
        peak_left = [0] * (len(cands) + 1)
        for idx in range(len(cands) - 1, -1, -1):
            peak_left[idx] = peak_left[idx + 1] + is_peak[idx]
        included = set(forced)
        added: list[Monomial] = []

        def decide(idx: int, count: int):
            if found[0] is not None:
                return
            spend()
            if at_corner and (count > a_req or count + peak_left[idx] < a_req):
                return
            if idx == len(cands):
                if at_corner and count != a_req:
                    return
                slice_d = tuple(u for u in cands if u in included)
                if at_corner and not future_capacity_ok(slice_d, d):
                    return
                at_degree(d + 1, slice_d, gens + tuple(added))
                return
            u = cands[idx]
            if u in forced:
                decide(idx + 1, count)
                return
            can_include = all(v in included for v in borel_moves(u))

            def include():
                included.add(u)
                added.append(u)
                decide(idx + 1, count + (1 if is_peak[idx] else 0))
                added.pop()
                included.discard(u)

            # At a corner degree still short of its value the top-down
            # fill mirrors the constructive witness, so try it first;
            # everywhere else the leanest ideal goes first.
            if at_corner and count < a_req:
                if can_include:
                    include()
                decide(idx + 1, count)
            else:
                decide(idx + 1, count)
                if can_include and not (is_peak[idx] and count >= a_req):
                    include()

        decide(0, 0)

    try:
        at_degree(1, (), ())
    except _BudgetInterrupt:
        return SearchResult(None, False, decisions[0])
    if found[0] is not None:
        return SearchResult(found[0], True, decisions[0])
    return SearchResult(None, True, decisions[0])


def _module_witness_search(
    spec,
    m: int,
    decision_budget: int,
    census_max_degree: int | None,
    allow_large: bool,
) -> SearchResult:
    n = spec.n
    target = list(zip(spec.corners, spec.values))
    max_degree = (
        census_max_degree if census_max_degree is not None else spec.corners[-1].ell
    )
    census = list(
        enumerate_strongly_stable(n, max_degree, allow_large=allow_large)
    )
    tables = [ek_betti(ideal).entries for ideal in census]
    count = 0
    for combo in itertools.product(range(len(census)), repeat=m):
        count += 1
        if count > decision_budget:
            return SearchResult(None, False, count)
        merged: dict[tuple[int, int], int] = {}
        for t in combo:
            for key, v in tables[t].items():
                merged[key] = merged.get(key, 0) + v
        if corner_sequence(BettiTable(n, merged)) == target:
            module = MonomialSubmodule(n, tuple(census[t] for t in combo))
            return SearchResult(module, True, count)
    return SearchResult(None, True, count)
