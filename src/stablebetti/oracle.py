"""Independent ground truth for Betti tables and realizability claims.

Two oracles live here, both exact. koszul_betti computes graded Betti
numbers from the homology of the Koszul complex, one monomial
multidegree at a time, with no stability assumption; it is the outside
check on the generator formula in betti.py. Each block's boundary maps
are kept as sparse integer columns and ranked over Q by exact
elimination that prefers unit pivots, and the lcm lattice is built on
packed integers. enumerate_strongly_stable and bruteforce_realizability
search the space of small strongly stable ideals directly, so
realizability verdicts can be confronted with an exhaustive scan.

The multidegree decomposition rests on two standard facts. Nonzero
homology only occurs in multidegrees that are least common multiples of
generator subsets (the Taylor complex has no basis elsewhere), and the
block at such a multidegree depends only on which subsets of its support
divide out without leaving the ideal. Blocks whose full, non-empty
support divides out are simplex complexes and contribute nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .betti import BettiTable, corner_sequence, ek_betti
from .errors import BadRange, BudgetExceeded
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


def _rank(columns: list[dict[int, int]]) -> int:
    """Rank over Q of an integer matrix given by its sparse columns
    ({row: entry}), by exact elimination.

    Each column is reduced against the pivots found so far, in the order
    they were found; a pivot column is zero on every earlier pivot row, so
    one pass leaves the column zero on all of them. A column that survives
    becomes a pivot, on a +-1 entry where it has one, so that most updates
    are plain integer subtraction. Against a pivot p that is not a unit the
    update is fraction-free, p*col - f*pivot, and the column is divided by
    the gcd of its entries; neither changes the rank over Q.
    """
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for col in columns:
        col = dict(col)
        for r, (p, piv) in pivots.items():
            f = col.get(r)
            if not f:
                continue
            unit = p == 1 or p == -1
            if unit:
                f *= p
            else:
                g = gcd(p, f)
                col = {row: v * (p // g) for row, v in col.items()}
                f //= g
            for row, v in piv.items():
                w = col.get(row, 0) - f * v
                if w:
                    col[row] = w
                else:
                    del col[row]
            if not unit and col:
                g = gcd(*col.values())
                if g > 1:
                    col = {row: v // g for row, v in col.items()}
        if col:
            r = min(col, key=lambda row: abs(col[row]))  # +-1 where there is one
            pivots[r] = (col[r], col)
    return len(pivots)


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
        ranks[i] = _rank([dict(faces[s]) for s in by_size[i]])
    dims = tuple(len(by_size[i]) - ranks[i] - ranks[i + 1] for i in range(p + 1))
    _shape_homology_cache[(p, mask)] = dims
    return dims


def lcm_multidegrees(ideal: MonomialIdeal) -> list[Monomial]:
    """All least common multiples of non-empty generator subsets, sorted.

    On the ideal's packed generators (MonomialIdeal.packed) an lcm is a
    field-wise max: the guard bits of ge mark the fields where q >= g, and
    keep widens them to whole fields, taken from q there and from g
    elsewhere. The points are unpacked and sorted as tuples.
    """
    pk, _top, packed = ideal.packed
    guards, shift = pk.guards, pk.width - 1
    pts: set[int] = set()
    for g in packed:
        pts |= {
            q & keep | g & ~keep
            for q in pts
            for ge in [(q | guards) - g & guards]
            for keep in [ge - (ge >> shift)]
        }
        pts.add(g)
    field = (1 << shift) - 1
    return sorted(tuple(q >> s & field for s in pk.shifts) for q in pts)


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

    Each point is packed as the ideal's generators are (MonomialIdeal.packed),
    so a field-wise comparison of all variables is one subtraction: the
    guard bit of a field survives (a | guards) - g exactly when a_t >= g_t.
    """
    pk, _top, packed = ideal.packed
    lows, guards = pk.lows, pk.guards
    for a in lcm_multidegrees(ideal):
        top = pk.pack(a) | guards
        supp_guards = (top - lows) & guards
        p = supp_guards.bit_count()
        below = top - (supp_guards >> (pk.width - 1))  # g_t < a_t iff g_t <= below_t
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
        if p and mask >> ((1 << p) - 1) & 1:
            # a - (1, ..., 1) on a non-empty support is in I: a simplex
            # block (the empty support of the unit ideal's point is not)
            continue
        j = sum(a)
        for i, dim in enumerate(_shape_homology(p, mask)):
            if dim:
                key = (i, j)
                out[key] = out.get(key, 0) + dim
    return out


def koszul_betti(module: MonomialSubmodule | MonomialIdeal) -> BettiTable:
    """Betti table from Koszul homology; exact, no stability assumption.

    Every nonzero entry of a component sits at an lcm point of its
    generators, so the table is complete once every lcm point of every
    component has been visited, each component's entries shifted by f_h.
    The work grows with the size of the lcm lattice, which nothing here
    bounds.
    """
    if isinstance(module, MonomialIdeal):
        module = MonomialSubmodule.of_ideal(module)
    entries: dict[tuple[int, int], int] = {}
    for ideal, f in zip(module.components, module.shifts):
        if ideal.is_zero:
            continue
        for (i, j), dim in _ideal_tor(ideal).items():
            key = (i, j + f)
            entries[key] = entries.get(key, 0) + dim
    return BettiTable(module.n, entries)


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
    if max_gens is not None and max_gens < 1:
        raise BadRange(f"need max_gens >= 1, got {max_gens}")
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
    spec, *, m: int = 1, decision_budget: int = 2_000_000
) -> SearchResult:
    """Search for a witness of a corner spec without the constructive theory.

    For m=1 this is a depth-first scan over chains of Borel-closed degree
    slices, pruned only by conditions forced on any witness by the corner
    definition itself: generators cannot outlive the last corner degree,
    their largest variable index is capped by the next corner still ahead,
    and a corner degree must carry exactly its value's worth of generators
    peaking at that cap. Candidates are confirmed against the Betti table
    before being returned. For m > 1 the component census up to the last
    corner degree is materialized, within the census guard rails (n <= 5,
    degree <= 6, else BudgetExceeded), and m-tuples are scanned in
    deterministic order.
    """
    if m < 1:
        raise BadRange(f"need m >= 1, got {m}")
    if m == 1:
        return _ideal_witness_search(spec, decision_budget)
    return _module_witness_search(spec, m, decision_budget)


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


def _module_witness_search(spec, m: int, decision_budget: int) -> SearchResult:
    n = spec.n
    last = spec.corners[-1].ell
    if n > 5 or last > 6:
        raise BudgetExceeded(
            f"the module brute force scans the census up to the last corner "
            f"degree and runs for n <= 5 and last corner degree <= 6 only, "
            f"got n={n}, last corner degree {last}"
        )
    target = list(zip(spec.corners, spec.values))
    census = list(enumerate_strongly_stable(n, last))
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
