"""Independent ground truth for Betti tables, and the census of small
strongly stable ideals.

koszul_betti computes exact graded Betti numbers from the homology of
the Koszul complex, one monomial multidegree at a time, with no
stability assumption; it is the outside check on the generator formula
in betti.py. The pass walks only the non-simplex part of the lcm
lattice, on packed integers: simplex points form an up-set, so joining
each generator with the live points alone reaches every live point, and
a point's total degree is unpacked only for a block with homology.
A block's valid subsets are one bitmask, an OR of shift-OR down-set
tables. A block with a cone point is acyclic and takes no rank; other
boundary maps are sparse integer columns from one table of signed faces,
each checked for d(d) = 0 once per process, and ranked over Q by exact
elimination that files each kept column under its lowest row.
enumerate_strongly_stable lists the small strongly stable ideals, within
guard rails and a decision budget: it walks each degree's Borel-closed
slices as bitmasks over its monomials, iteratively within a degree.

The multidegree decomposition rests on two standard facts. Nonzero
homology only occurs in multidegrees that are least common multiples of
generator subsets (the Taylor complex has no basis elsewhere), and the
block at such a multidegree depends only on which subsets of its support
divide out without leaving the ideal. Blocks whose full, non-empty
support divides out are simplex complexes and contribute nothing.
"""

from __future__ import annotations

from functools import cache
from math import gcd, inf

from .betti import BettiTable
from .errors import BudgetExceeded, positive_int
from .ideals import MonomialIdeal, MonomialSubmodule
from .monomials import Monomial, borel_moves, mul_var
from .segments import lex_walk


def _rank(columns: list[dict[int, int]]) -> int:
    """Rank over Q of an integer matrix given by its sparse columns
    ({row: entry}), by exact elimination.

    A new column is reduced by the kept column filed under its lowest
    (largest) row until that row is free, where the column is kept, or
    the column is empty. Kept columns have distinct lowest rows, so they
    are independent. Against a +-1 entry the update is plain subtraction;
    against another entry p it is fraction-free, p*col - f*kept, then
    divided by the gcd of the column; neither changes the rank over Q.
    """
    kept: dict[int, dict[int, int]] = {}
    for col in columns:
        col = dict(col)
        while col:
            r = max(col)
            piv = kept.get(r)
            if piv is None:
                kept[r] = col
                break
            p, f = piv[r], col[r]
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
    return len(kept)


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


@cache
def _checked_faces(s: int) -> dict[int, int]:
    """Signed faces of the subset bitmask s, as {face: sign}, once
    d(d(e_s)) = 0 has been checked on its entry and its faces' entries.
    Neither depends on a block's support size or mask, so each subset is
    checked once per process (a raise caches nothing), and the ranks read
    the table that was checked. Callers must not mutate the result."""
    faces = dict(_faces(s))
    acc: dict[int, int] = {}
    for t, sign in faces.items():
        for u, sign2 in _checked_faces(t).items():
            acc[u] = acc.get(u, 0) + sign * sign2
    if any(acc.values()):
        raise AssertionError("Koszul boundary does not square to zero")
    return faces


@cache
def _down_set(supp: int, free: int) -> int:
    """Down-set table of a support and a free set inside it, given as set
    bits (packed guard bits in _point_masks, plain bits in the cone test):
    bit s is set exactly when the subset s of support positions (bit b
    for the b-th support bit) lies inside the free ones. From the empty
    subset, each free position b doubles the table, table << (1 << b)
    adding b to every subset so far. In _point_masks there are at most
    3^n keys per field width (the two n = 8 chain fixtures make 1,551)."""
    table = 1
    b = 0
    while supp:
        low = supp & -supp
        if free & low:
            table |= table << (1 << b)
        supp ^= low
        b += 1
    return table


@cache
def _shape_homology(p: int, mask: int) -> tuple[int, ...]:
    """Homology dimensions of one block shape: support size p and the
    bitmask of valid subsets. Shapes repeat heavily across multidegrees
    and across ideals, so the memo lasts the process.

    A cone is acyclic, so a shape with a cone point v (adding v to a
    valid subset leaves it valid) has zero homology and takes no rank;
    shifting bit s by 1 << v moves it to bit s | v when s leaves out v,
    and the subsets that leave out v are the down-set of the rest.
    """
    full = (1 << p) - 1
    for v in range(p):
        if (mask & _down_set(full, full ^ 1 << v)) << (1 << v) & ~mask == 0:
            return (0,) * (p + 1)
    by_size: list[list[int]] = [[] for _ in range(p + 1)]
    for s in range(1 << p):
        if mask >> s & 1:
            by_size[s.bit_count()].append(s)
    ranks = [0] * (p + 2)
    for i in range(1, p + 1):
        ranks[i] = _rank([_checked_faces(s) for s in by_size[i]])
    return tuple(len(by_size[i]) - ranks[i] - ranks[i + 1] for i in range(p + 1))


def _joins(points, g: int, guards: int, shift: int) -> set[int]:
    """The lcm of g with each of the packed points.

    On packed monomials an lcm is a field-wise max: the guard bits of ge
    mark the fields where q >= g, and keep widens them to whole fields,
    taken from q there and from g elsewhere.
    """
    return {
        q & keep | g & ~keep
        for q in points
        for ge in [(q | guards) - g & guards]
        for keep in [ge - (ge >> shift)]
    }


def _point_masks(ideal: MonomialIdeal) -> dict[int, tuple[int, int]]:
    """{a: (p, mask)} for each lcm point a of a nonzero ideal whose block
    is not a simplex, with a packed as the generators are
    (MonomialIdeal.packed).

    p is the support size of a, and bit s of mask is set when a - e_S
    lies in the ideal, S being the support positions picked by the bits
    of s (bit b for the b-th support variable). That holds exactly when
    S lies inside free(g) = {t : g_t < a_t} for some generator g dividing
    a, so one scan of the generators replaces a membership test per
    subset: each dividing generator ORs the down-set table of its free
    set (_down_set) into mask. No stability is assumed. A field-wise
    comparison of all variables is one subtraction: the guard bit of a
    field survives (a | guards) - g exactly when a_t >= g_t.

    The block is a simplex when a - 1_supp(a) lies in the ideal, that is
    when some generator is free on the whole support; the scan stops at
    the first such generator. (The empty support of the unit ideal's
    point is no simplex.) Simplex points form an up-set: a generator
    dividing a - 1_supp(a) divides b - 1_supp(b) for every b >= a. So
    every lcm of a subset of a live point's generators is live too, and
    joining each generator only with the live points found so far
    reaches every live point. A simplex point is kept in a dead set,
    scanned once and never joined.
    """
    pk, _top, packed = ideal.packed
    lows, guards, shift = pk.lows, pk.guards, pk.width - 1
    live: dict[int, tuple[int, int]] = {}
    dead: set[int] = set()
    for g in sorted(packed):
        fresh = _joins(live, g, guards, shift)
        fresh.add(g)
        for a in fresh:
            if a in live or a in dead:
                continue
            top = a | guards
            supp_guards = (top - lows) & guards
            below = top - (supp_guards >> shift)  # g_t < a_t iff g_t <= below_t
            mask = 0
            for h in packed:
                if (top - h) & guards == guards:
                    free = (below - h) & supp_guards
                    if free == supp_guards and supp_guards:
                        dead.add(a)
                        break
                    mask |= _down_set(supp_guards, free)
            else:
                live[a] = (supp_guards.bit_count(), mask)
    return live


def koszul_betti(module: MonomialSubmodule | MonomialIdeal) -> BettiTable:
    """Betti table from Koszul homology; exact, no stability assumption.

    Every nonzero entry of a component sits at a non-simplex lcm point of
    its generators, so the table is complete once every such point of
    every component has been visited, each component's entries shifted
    by f_h. The work grows with the non-simplex part of the lcm lattice:
    one scan of the generators per point found, live or simplex, and one
    join per live point and generator. Nothing here bounds it.
    """
    if isinstance(module, MonomialIdeal):
        module = MonomialSubmodule.of_ideal(module)
    entries: dict[tuple[int, int], int] = {}
    for ideal, f in zip(module.components, module.shifts):
        if ideal.is_zero:
            continue
        pk = ideal.packed[0]
        field = (1 << (pk.width - 1)) - 1
        for a, (p, mask) in _point_masks(ideal).items():
            dims = _shape_homology(p, mask)
            if any(dims):
                j = f + sum(a >> s & field for s in pk.shifts)  # f + |a|
                for i, dim in enumerate(dims):
                    if dim:
                        entries[i, j] = entries.get((i, j), 0) + dim
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
    excluded; n, max_degree and max_gens are ints >= 1 (else BadRange,
    before any work). Degree by degree the search picks a Borel-closed
    superset of the previous slice's shadow; the surplus over the shadow
    is automatically the minimal generating set in that degree. Order is
    deterministic. Guard rails n <= 5, max_degree <= 6 keep accidental
    blowups out, and a search past CENSUS_DECISIONS decisions raises
    BudgetExceeded after yielding what it found; pass allow_large=True
    to lift both.

    A degree's slice is a bitmask over its lex_walk order. Each
    candidate carries, built once per census, its borel_moves as a mask
    over its own degree (it may join when the mask lies inside the
    slice) and its multiples x_t * u as a mask over the next degree (the
    next slice's shadow ORs them). Inside one degree the walk is
    iterative and exclusion first: it descends excluding every
    candidate, pushing each one outside the shadow as a pending include,
    and on the way back pops the pending includes and tries each in
    turn. A pending include carries the next degree's shadow so far and
    an include ORs in its multiples mask (the shadow's own multiples are
    ORed once per distinct shadow). Passing over a candidate is one
    decision, and so is finishing a slice; a node charges all of its
    decisions before it yields, so a budget stops the walk after the same
    ideals as one charge per decision would. Only the degrees chain as
    generators, at most max_degree deep.
    """
    positive_int(n, "n")
    positive_int(max_degree, "max_degree")
    if max_gens is not None:
        positive_int(max_gens, "max_gens")
    if not allow_large and (n > 5 or max_degree > 6):
        raise BudgetExceeded(
            f"census guard rails allow n <= 5 and max_degree <= 6, got "
            f"n={n}, max_degree={max_degree}; pass allow_large=True to lift"
        )
    left = [inf if allow_large else CENSUS_DECISIONS]

    def spend(k: int):
        left[0] -= k
        if left[0] < 0:
            raise BudgetExceeded(
                f"census decision budget of {CENSUS_DECISIONS} exhausted at "
                f"n={n}, max_degree={max_degree}; pass allow_large=True to lift"
            )

    # each degree's candidates as (u, moves mask, multiples mask); a
    # monomial's moves are distinct, and so are its multiples
    index = [
        {u: i for i, u in enumerate(lex_walk((d,) + (0,) * (n - 1), n))}
        for d in range(1, max_degree + 2)
    ]
    levels = [
        [
            (
                u,
                sum(1 << here[v] for v in borel_moves(u)),
                sum(1 << up[mul_var(u, t)] for t in range(1, n + 1)),
            )
            for u in here
        ]
        for here, up in zip(index, index[1:])
    ]

    @cache
    def multiples(d: int, shadow: int) -> int:
        up_shadow = 0
        for j, (_u, _moves, up) in enumerate(levels[d - 1]):
            if shadow >> j & 1:
                up_shadow |= up
        return up_shadow

    def by_degree(d: int, shadow: int, gens: tuple[Monomial, ...]):
        cands = levels[d - 1]
        room = inf if max_gens is None else max_gens - len(gens)
        included, up_shadow = shadow, multiples(d, shadow)
        added: list[Monomial] = []
        # (index, included, up_shadow, len(added))
        pending: list[tuple[int, int, int, int]] = []
        i = 0
        while True:
            spend(len(cands) - i + 1)
            k = len(added)
            for j in range(i, len(cands)):
                if not shadow >> j & 1:
                    pending.append((j, included, up_shadow, k))
            if d == max_degree:
                if gens or added:  # minimal, and in canonical order as added
                    yield MonomialIdeal._trusted(n, gens + tuple(added))
            else:
                yield from by_degree(d + 1, up_shadow, gens + tuple(added))
            while pending:
                i, included, up_shadow, k = pending.pop()
                u, moves, up = cands[i]
                if k < room and not moves & ~included:
                    del added[k:]
                    added.append(u)
                    included |= 1 << i
                    up_shadow |= up
                    i += 1
                    break
            else:
                return

    yield from by_degree(1, 0, ())
