"""Definition-shaped reference versions of the Koszul oracle's inner loops.

The oracle builds each lcm point's subset mask from the free coordinates
of the generators dividing it, checks d(d) = 0 face by face, ranks
sparse boundary columns by unit-pivot elimination, and builds the lcm
lattice on packed integers. These are the straightforward versions they
replaced: one membership test per subset, a dense product of consecutive
boundary matrices, dense Bareiss elimination, and a lattice of tuples.
The tests compare the two exactly. lcm_multidegrees is the whole packed
lattice, sorted and unpacked, which the pass itself never lists.
GradedComplexSlice goes one step further back: the whole Koszul complex
of a module in one internal degree, with dense matrices, straight from
the definition.
"""

import itertools
from dataclasses import dataclass

from ideal_reference import graded_slice

from stablebetti import oracle
from stablebetti.ideals import MonomialIdeal, MonomialSubmodule
from stablebetti.monomials import Monomial, mul_var


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


def lcm_multidegrees(ideal: MonomialIdeal) -> list[Monomial]:
    """All least common multiples of non-empty generator subsets, sorted
    and unpacked: the whole lcm lattice, joined on packed integers by the
    oracle's own field-wise max, of which the Koszul pass walks only the
    non-simplex part (oracle._point_masks)."""
    pk, _top, packed = ideal.packed
    guards, shift = pk.guards, pk.width - 1
    pts: set[int] = set()
    for g in packed:
        pts |= oracle._joins(pts, g, guards, shift)
        pts.add(g)
    field = (1 << shift) - 1
    return sorted(tuple(q >> s & field for s in pk.shifts) for q in pts)


def tuple_lcm_multidegrees(ideal: MonomialIdeal) -> list[Monomial]:
    """All least common multiples of non-empty generator subsets, sorted,
    taken exponent by exponent on tuples."""
    pts: set[Monomial] = set()
    for g in ideal.gens:
        pts |= {tuple(map(max, g, q)) for q in pts}
        pts.add(g)
    return sorted(pts)


def product_is_zero(a: list[list[int]], b: list[list[int]]) -> bool:
    if not a or not b or not b[0]:
        return True
    for arow in a:
        for c in range(len(b[0])):
            if sum(arow[t] * b[t][c] for t in range(len(b))) != 0:
                return False
    return True


@dataclass(frozen=True)
class GradedComplexSlice:
    """The Koszul complex of a module in one fixed internal degree.

    bases[i] lists (variable subset, component, monomial) triples: subsets
    ascending in lex order, then component index, then module monomials
    lex-descending. differentials[i] is the integer matrix of d_i from
    bases[i] to bases[i-1]; the build checks d(d(x)) = 0.

    This is the dense, definition-shaped view. koszul_betti never touches
    it; the tests use it to cross-check the blockwise computation.
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
                    for u in graded_slice(ideal, d):
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
            if not product_is_zero(
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


def reference_mask(ideal: MonomialIdeal, a) -> int:
    """Bit s set when a minus the support positions picked by s is in I."""
    contains = ideal.contains
    supp = [t for t, e in enumerate(a) if e]
    p = len(supp)
    # Valid subsets form a downward-closed family; a subset needs a
    # membership test only when all its one-smaller subsets are valid.
    mask = 1
    for s in range(1, 1 << p):
        ok = True
        for b in range(p):
            if s >> b & 1 and not mask >> (s ^ (1 << b)) & 1:
                ok = False
                break
        if ok:
            q = list(a)
            for b in range(p):
                if s >> b & 1:
                    q[supp[b]] -= 1
            ok = contains(tuple(q))
        if ok:
            mask |= 1 << s
    return mask


def dense_shape_homology(p: int, mask: int) -> tuple[int, ...]:
    """Homology dimensions of one block shape from dense matrices."""
    by_size: list[list[int]] = [[] for _ in range(p + 1)]
    for s in range(1 << p):
        if mask >> s & 1:
            by_size[s.bit_count()].append(s)
    pos = [{s: t for t, s in enumerate(level)} for level in by_size]
    mats: list[list[list[int]]] = [[]]
    for i in range(1, p + 1):
        rows = [[0] * len(by_size[i]) for _ in range(len(by_size[i - 1]))]
        for c, s in enumerate(by_size[i]):
            sign = 1
            for b in range(p):
                if s >> b & 1:
                    rows[pos[i - 1][s ^ (1 << b)]][c] = sign
                    sign = -sign
        mats.append(rows)
    for i in range(2, p + 1):
        if not product_is_zero(mats[i - 1], mats[i]):
            raise AssertionError("Koszul boundary does not square to zero")
    ranks = [0] * (p + 2)
    for i in range(1, p + 1):
        ranks[i] = integer_rank(mats[i])
    return tuple(len(by_size[i]) - ranks[i] - ranks[i + 1] for i in range(p + 1))


def downward_closed_masks(p: int):
    """Every non-empty subset family of a p-set closed under subsets."""
    for mask in range(1, 1 << (1 << p), 2):
        if all(
            mask >> (s ^ (1 << b)) & 1
            for s in range(1 << p)
            if mask >> s & 1
            for b in range(p)
            if s >> b & 1
        ):
            yield mask
