"""Exhaustive witness search for corner specs, without the constructive
theory: it scans strongly stable ideals (or m-tuples of census members)
and confirms candidates against the Betti table, so the tests can hold
realizability verdicts to an exhaustive scan.
"""

import itertools
from dataclasses import dataclass

from monomial_reference import iter_degree, max_index
from window_reference import shadow, stratum_list

from stablebetti import (
    BadRange,
    BettiTable,
    BudgetExceeded,
    MonomialIdeal,
    MonomialSubmodule,
    corner_sequence,
    ek_betti,
    enumerate_strongly_stable,
    stratum_size,
)
from stablebetti.monomials import Monomial, borel_moves


@dataclass(frozen=True)
class SearchResult:
    """complete with a witness: the witness is verified; complete without
    one: the whole pruned universe was exhausted, so nothing realizes the
    spec; not complete: none found within the budget, never infeasibility."""

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

    strata = {c.ell: stratum_list(n, c.k, c.ell) for c in corners}
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
                cur = set(shadow(n, cur))
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
        forced = set(shadow(n, prev))
        limit = next(c.k + 1 for c in corners if c.ell >= d)  # d <= last
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
