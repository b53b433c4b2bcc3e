"""Definition-shaped reference versions of the Koszul oracle's inner loops.

The oracle builds each lcm point's subset mask from the free coordinates
of the generators dividing it, and checks d(d) = 0 face by face. These
are the straightforward versions they replaced: one membership test per
subset, and a dense product of consecutive boundary matrices. The tests
compare the two bit for bit.
"""

from stablebetti.ideals import MonomialIdeal
from stablebetti.oracle import _product_is_zero, integer_rank


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
        if not _product_is_zero(mats[i - 1], mats[i]):
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
