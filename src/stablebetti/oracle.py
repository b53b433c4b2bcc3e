"""Independent ground truth for Betti tables, and the census of small
strongly stable ideals.

koszul_betti computes exact graded Betti numbers from the homology of
the Koszul complex, one monomial multidegree at a time, with no
stability assumption; it is the outside check on the generator formula
in betti.py. The lcm lattice is built and walked on packed integers; a
point's total degree is unpacked only for a block with homology, and
lcm_multidegrees is the sorted, unpacked view. Boundary maps are sparse
integer columns from one table of signed faces, each checked for
d(d) = 0 once per process, and are ranked over Q by exact elimination
that prefers unit pivots. enumerate_strongly_stable lists the small
strongly stable ideals themselves, within guard rails and a decision
budget.

The multidegree decomposition rests on two standard facts. Nonzero
homology only occurs in multidegrees that are least common multiples of
generator subsets (the Taylor complex has no basis elsewhere), and the
block at such a multidegree depends only on which subsets of its support
divide out without leaving the ideal. Blocks whose full, non-empty
support divides out are simplex complexes and contribute nothing.
"""

from __future__ import annotations

from math import gcd, inf

from .betti import BettiTable
from .errors import BadRange, BudgetExceeded
from .ideals import MonomialIdeal, MonomialSubmodule
from .monomials import Monomial, borel_moves, iter_degree, mul_var


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


# Signed faces of each subset bitmask a block has used, as {face: sign}.
# A subset enters only once d(d(e_s)) = 0 has been checked on its entry
# and its faces' entries. Neither depends on the block's support size or
# mask, so each subset is checked once per process, and the ranks read
# the table that was checked.
_faces_table: dict[int, dict[int, int]] = {}


def _checked_faces(s: int) -> dict[int, int]:
    faces = _faces_table.get(s)
    if faces is None:
        faces = dict(_faces(s))
        acc: dict[int, int] = {}
        for t, sign in faces.items():
            for u, sign2 in _checked_faces(t).items():
                acc[u] = acc.get(u, 0) + sign * sign2
        if any(acc.values()):
            raise AssertionError("Koszul boundary does not square to zero")
        _faces_table[s] = faces
    return faces


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
    ranks = [0] * (p + 2)
    for i in range(1, p + 1):
        ranks[i] = _rank([_checked_faces(s) for s in by_size[i]])
    dims = tuple(len(by_size[i]) - ranks[i] - ranks[i + 1] for i in range(p + 1))
    _shape_homology_cache[(p, mask)] = dims
    return dims


def _lcm_points(ideal: MonomialIdeal) -> set[int]:
    """All least common multiples of non-empty generator subsets, packed
    as the ideal's generators are (MonomialIdeal.packed).

    On packed monomials an lcm is a field-wise max: the guard bits of ge
    mark the fields where q >= g, and keep widens them to whole fields,
    taken from q there and from g elsewhere.
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
    return pts


def lcm_multidegrees(ideal: MonomialIdeal) -> list[Monomial]:
    """All least common multiples of non-empty generator subsets, sorted:
    the unpacked view of the packed lattice the Koszul pass walks."""
    pk = ideal.packed[0]
    field = (1 << (pk.width - 1)) - 1
    return sorted(tuple(q >> s & field for s in pk.shifts) for q in _lcm_points(ideal))


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
    """Yield (a, p, mask) for each lcm point a of a nonzero ideal, in no
    particular order, with a packed as the generators are (_lcm_points).

    p is the support size of a, and bit s of mask is set when a - e_S
    lies in the ideal, S being the support positions picked by the bits
    of s (bit b for the b-th support variable). That holds exactly when
    S lies inside free(g) = {t : g_t < a_t} for some generator g dividing
    a, so one pass over the generators replaces a membership test per
    subset; no stability is assumed.

    A field-wise comparison of all variables is one subtraction: the
    guard bit of a field survives (a | guards) - g exactly when a_t >= g_t.
    """
    pk, _top, packed = ideal.packed
    lows, guards = pk.lows, pk.guards
    for a in _lcm_points(ideal):
        top = a | guards
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
    pk = ideal.packed[0]
    field = (1 << (pk.width - 1)) - 1
    out: dict[tuple[int, int], int] = {}
    for a, p, mask in _point_masks(ideal):
        if p and mask >> ((1 << p) - 1) & 1:
            # a - (1, ..., 1) on a non-empty support is in I: a simplex
            # block (the empty support of the unit ideal's point is not)
            continue
        dims = _shape_homology(p, mask)
        if not any(dims):
            continue
        j = sum(a >> s & field for s in pk.shifts)  # the total degree of a
        for i, dim in enumerate(dims):
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


# Search decisions one census may take unless allow_large is set. The
# largest census inside the guard rails that finishes, n = 3 to degree 6,
# takes 195,732; n = 4 to degree 4 takes 86,169.
CENSUS_DECISIONS = 300_000


def enumerate_strongly_stable(
    n: int,
    max_degree: int,
    max_gens: int | None = None,
    *,
    allow_large: bool = False,
):
    """Yield every strongly stable ideal within the bounds, each once.

    Covers exactly the ideals with minimal generators of degree at most
    max_degree (and at most max_gens of them, when set), zero ideal
    excluded. Degree by degree the search picks a Borel-closed superset
    of the previous slice's shadow; the surplus over the shadow is
    automatically the minimal generating set in that degree. Order is
    deterministic. Guard rails n <= 5, max_degree <= 6 keep accidental
    blowups out, and a search past CENSUS_DECISIONS decisions raises
    BudgetExceeded after yielding what it found; pass allow_large=True
    to lift both.
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
    left = [inf if allow_large else CENSUS_DECISIONS]

    def spend():
        left[0] -= 1
        if left[0] < 0:
            raise BudgetExceeded(
                f"census decision budget of {CENSUS_DECISIONS} exhausted at "
                f"n={n}, max_degree={max_degree}; pass allow_large=True to lift"
            )

    # each degree's candidates with their exchanges, built once per census
    levels = [
        [(u, borel_moves(u)) for u in iter_degree(n, d)]
        for d in range(1, max_degree + 1)
    ]

    def by_degree(d: int, prev: tuple[Monomial, ...], gens: tuple[Monomial, ...]):
        if d > max_degree:
            if gens:  # minimal, and in canonical order as added
                yield MonomialIdeal(n, gens)
            return
        forced = {mul_var(u, t) for u in prev for t in range(1, n + 1)}
        cands = levels[d - 1]
        included = set(forced)
        added: list[Monomial] = []

        def decide(idx: int):
            spend()
            if idx == len(cands):
                slice_d = tuple(u for u, _moves in cands if u in included)
                yield from by_degree(d + 1, slice_d, gens + tuple(added))
                return
            u, moves = cands[idx]
            if u in forced:
                yield from decide(idx + 1)
                return
            yield from decide(idx + 1)
            if (max_gens is None or len(gens) + len(added) < max_gens) and all(
                v in included for v in moves
            ):
                included.add(u)
                added.append(u)
                yield from decide(idx + 1)
                added.pop()
                included.discard(u)

        yield from decide(0)

    yield from by_degree(1, (), ())
