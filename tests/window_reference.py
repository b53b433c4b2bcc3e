"""Listing reference for the corner windows, caps, picks and blocks.

The realizer counts every window, cap, pick and block by lex rank. These
are the versions that list instead: each window is the peak stratum
listed down to the corner's bottom, each shadow is a lex segment that
members are tested against one by one, and each block is the full list
of monomials in x1..x_{k+1} filtered by comparison. The tests compare
the two outcome for outcome.
"""

from monomial_reference import iter_degree

from stablebetti.monomials import degree, mul_var
from stablebetti.realize_ideal import (
    MODE_STRICT,
    BoundReport,
    CornerWindow,
    _corner_bottom,
    _tail_index,
    _verdict,
    validate_positions,
)


def stratum_list(n, k, d, bounded=False):
    """A(k, d) listed lex-descending; with bounded, every degree-d
    monomial in x1..x_{k+1}."""
    pad = (0,) * (n - k - 1)
    if bounded:
        return [w + pad for w in iter_degree(k + 1, d)]
    return [w[:k] + (w[k] + 1,) + pad for w in iter_degree(k + 1, d - 1)]


def shadow(n, monos, steps=1):
    """All products of the input monomials with `steps` extra variables."""
    current = set(monos)
    for _ in range(steps):
        current = {mul_var(u, i) for u in current for i in range(1, n + 1)}
    return sorted(current, reverse=True)


def lex_shadow_floor(n, monos, target_degree):
    """Bottom of the lex segment the iterated shadow of an initial segment
    ending at min(monos) fills in target_degree; None for no input."""
    if not monos:
        return None
    low = min(monos)
    return mul_var(low, n, target_degree - degree(low))


def minus_shadow(aset, floor):
    """aset minus the lex segment from the top down to floor, by membership."""
    if floor is None:
        return list(aset)
    return [u for u in aset if u < floor]


def window_members(spec):
    """Per corner, the peak-stratum members down to the corner's bottom."""
    validate_positions(spec)
    t = _tail_index(spec)
    out = []
    for i, c in enumerate(spec.corners):
        bottom = _corner_bottom(spec, i, t)
        members = [u for u in stratum_list(spec.n, c.k, c.ell) if u >= bottom]
        if not members:
            raise AssertionError("corner window came out empty")
        out.append(members)
    return out


def compute_bounds(spec):
    members = window_members(spec)
    windows = []
    for i, c in enumerate(spec.corners):
        floor = lex_shadow_floor(spec.n, members[i - 1][-1:] if i else [], c.ell)
        avail = minus_shadow(members[i], floor)
        windows.append(
            CornerWindow(c, members[i][-1], len(members[i]), floor, len(avail))
        )
    return BoundReport(_tail_index(spec), tuple(windows))


def coupled_chain(spec, values):
    members = window_members(spec)
    bounds, picks = [], []
    for i, c in enumerate(spec.corners):
        floor = lex_shadow_floor(spec.n, picks[i - 1 : i], c.ell)
        avail = minus_shadow(members[i], floor)
        bounds.append(len(avail))
        if i >= len(values):
            break
        if values[i] > len(avail):
            return bounds, picks, i
        picks.append(avail[values[i] - 1])
    return bounds, picks, None


def check_values(spec, mode):
    if mode == MODE_STRICT:
        return _verdict(spec, mode, compute_bounds(spec).bounds)
    return _verdict(spec, mode, coupled_chain(spec, spec.values)[0])


def blocks(spec, picks):
    """Per corner, the planned generators: the bounded stratum filtered to
    lie below the previous pick's shadow and at or above this pick."""
    out = []
    for i, c in enumerate(spec.corners):
        floor = lex_shadow_floor(spec.n, picks[i - 1 : i], c.ell)
        out.append(
            tuple(
                v
                for v in stratum_list(spec.n, c.k, c.ell, bounded=True)
                if (floor is None or v < floor) and v >= picks[i]
            )
        )
    return out
