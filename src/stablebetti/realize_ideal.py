"""Decide and construct single ideals with prescribed corners.

A corner spec asks for a strongly stable ideal whose extremal Betti
entries sit exactly at given (homological position, degree) pairs with
given values. Positions are screened first (validate_positions), then
each requested value is measured against the count of admissible peak
generators in its degree: the full peak stratum, minus the lex shadow
cast by the previous corner's block. Two readings of that subtraction
are supported. "strict-paper" subtracts the shadow of the whole previous
window, giving a box of value vectors checkable up front; "coupled"
subtracts only the shadow of the block actually chosen, which depends on
the earlier values and accepts more. A strict-feasible vector is always
coupled-feasible.

Nothing is listed to get there. A window is the peak stratum from its top
down to an explicit bottom monomial, and a shadow is everything lex above
an explicit floor, so each cap is a difference of two lex ranks, each
pick is an unrank, and each block of generators is a run of consecutive
ranks (segments.lex_count, segments.lex_unrank). Each spec builds its
windows once (compute_bounds), for its bounds, verdicts, chain and blocks.

Constructors verify their own output (strong stability, exact corner
sequence, generators confined to the corner degrees) before returning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from operator import gt, neg

from .betti import BettiTable, Corner, corner_sequence, ek_betti
from .errors import (
    BudgetExceeded,
    InfeasibleSpec,
    SpecError,
    UncoveredByCharacterization,
    VerificationFailed,
    json_int,
)
from .ideals import MonomialIdeal
from .monomials import Monomial, format_monomial, mul_var
from .segments import lex_count, lex_unrank, lex_walk, stratum_member, stratum_rank

MODE_STRICT = "strict-paper"
MODE_COUPLED = "coupled"
MODES = (MODE_STRICT, MODE_COUPLED)

# Most generators construct_ideal lists; its witness's size is known first.
MAX_WITNESS_GENS = 100_000


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise SpecError(f"unknown mode {mode!r}; expected one of {MODES}")
    return mode


@dataclass(frozen=True)
class CornerSpec:
    """Requested corner positions (k_i, l_i) and values a_i.

    Positions run in the order corners appear in a table scan: k strictly
    decreasing, degrees strictly increasing, first degree at least 2.
    Malformed data raises SpecError; whether well-formed positions are
    realizable is a separate question (validate_positions, check_values).
    """

    n: int
    corners: tuple[Corner, ...]
    values: tuple[int, ...]
    # compute_bounds' reports by corners, shared with every sub-spec
    _windows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise SpecError(f"need n >= 2, got n={self.n}")
        r = len(self.corners)
        if r < 1:
            raise SpecError("need at least one corner")
        if len(self.values) != r:
            raise SpecError(
                f"{r} corners but {len(self.values)} values"
            )
        ks = [c.k for c in self.corners]
        ls = [c.ell for c in self.corners]
        if any(k < 1 for k in ks) or ks[0] > self.n - 1:
            raise SpecError(
                f"homological positions must lie in 1..{self.n - 1}, got {ks}"
            )
        if any(ks[i] <= ks[i + 1] for i in range(r - 1)):
            raise SpecError(f"homological positions must strictly decrease: {ks}")
        if ls[0] < 2:
            raise SpecError(f"the first corner degree must be >= 2, got {ls[0]}")
        if any(ls[i] >= ls[i + 1] for i in range(r - 1)):
            raise SpecError(f"corner degrees must strictly increase: {ls}")
        if any(a < 1 for a in self.values):
            raise SpecError(f"corner values must be positive, got {self.values}")

    @property
    def r(self) -> int:
        return len(self.corners)

    @property
    def covered(self) -> bool:
        """False for first degree 2 with final position 1, the undecided case."""
        return self.corners[0].ell != 2 or self.corners[-1].k != 1

    def sub_spec(self, rows, values=None) -> "CornerSpec":
        """The spec restricted to a subsequence of corner rows (0-based).
        It shares this spec's window memo, so equal corners share windows."""
        rows = tuple(rows)
        values = tuple(self.values[i] for i in rows) if values is None else values
        sub = CornerSpec(self.n, tuple(self.corners[i] for i in rows), tuple(values))
        object.__setattr__(sub, "_windows", self._windows)
        return sub

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "corners": [
                {"k": c.k, "l": c.ell, "a": a}
                for c, a in zip(self.corners, self.values)
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "CornerSpec":
        if not isinstance(obj, dict) or "n" not in obj or "corners" not in obj:
            raise SpecError('spec document needs keys "n" and "corners"')
        entries = obj["corners"]
        if not isinstance(entries, list) or not all(
            isinstance(e, dict) for e in entries
        ):
            raise SpecError('"corners" must be a list of corner objects')
        if not all("k" in e and "l" in e and "a" in e for e in entries):
            raise SpecError('every corner needs keys "k", "l" and "a"')

        def entry(e, key: str) -> int:
            return json_int(e[key], f'corner "{key}"', SpecError)

        corners = tuple(Corner(entry(e, "k"), entry(e, "l")) for e in entries)
        values = tuple(entry(e, "a") for e in entries)
        return cls(json_int(obj["n"], '"n"', SpecError), corners, values)


def validate_positions(spec: CornerSpec) -> None:
    """Raise UncoveredByCharacterization unless spec.covered.

    With first degree >= 3 every well-formed position sequence passes.
    With first degree 2 a final homological position of 1 falls outside
    the decided cases. The characterization also needs the first position
    to be n-1 once r reaches n-2, but a well-formed spec meets that
    already: r = n-2 decreasing positions in 2..n-1 start at n-1. So no
    well-formed position sequence is infeasible.
    """
    if not spec.covered:
        raise UncoveredByCharacterization(
            "first corner degree 2 with final homological position 1 is "
            "outside the decided cases"
        )


def _tail_index(spec: CornerSpec) -> int:
    """Largest i (1-based) with l_i <= r - i; 0 when there is none.

    Degrees grow and r - i shrinks, so the property holds on a prefix.
    """
    r = spec.r
    t = 0
    for i in range(1, r + 1):
        if spec.corners[i - 1].ell <= r - i:
            t = i
    return t


def _corner_bottom(spec: CornerSpec, i: int, t: int) -> Monomial:
    """Least admissible peak generator for corner i (0-based index)."""
    n = spec.n
    r = spec.r
    ks = [c.k for c in spec.corners]
    ls = [c.ell for c in spec.corners]
    i1 = i + 1
    exps = [0] * n
    if i1 == r:
        exps[ks[r - 1]] = ls[r - 1]  # x_{k_r + 1} ^ l_r
        return tuple(exps)
    if i1 <= t:
        # product over corners r down to r - l_i + 3, then the bridge
        # variable one below x_{k_{r-l_i+2}}, then the peak variable
        for j1 in range(r, r - ls[i] + 2, -1):
            exps[ks[j1 - 1] - 1] += 1
        exps[ks[r - ls[i] + 2 - 1] - 2] += 1
        exps[ks[i]] += 1
        return tuple(exps)
    # i1 in t+1 .. r-1
    for j1 in range(r, i1, -1):
        exps[ks[j1 - 1] - 1] += 1
    exps[ks[i]] += ls[i] - (r - i1)
    return tuple(exps)


@dataclass(frozen=True)
class CornerWindow:
    """One corner's admissible peak-generator window and its cap."""

    corner: Corner
    bottom: Monomial
    size: int  # |A_i|, before the shadow subtraction
    shadow_floor: Monomial | None  # bottom of the subtracted lex segment
    bound: int  # b_i = |A_i \ LexShad(previous window)|

    def to_obj(self) -> dict:
        return {
            "k": self.corner.k,
            "l": self.corner.ell,
            "bottom": format_monomial(self.bottom),
            "window_size": self.size,
            "shadow_floor": (
                None
                if self.shadow_floor is None
                else format_monomial(self.shadow_floor)
            ),
            "bound": self.bound,
        }


@dataclass(frozen=True)
class BoundReport:
    t: int
    windows: tuple[CornerWindow, ...]

    @property
    def bounds(self) -> tuple[int, ...]:
        return tuple(w.bound for w in self.windows)

    def to_obj(self) -> dict:
        return {"t": self.t, "windows": [w.to_obj() for w in self.windows]}


def _shadow_floor(spec: CornerSpec, i: int, prev: Monomial) -> Monomial:
    """Bottom of the lex shadow in corner i's degree (i >= 1) of the initial
    segment down to prev: everything >= prev * x_n^(l_i - l_{i-1}). The
    window members outside the shadow are those ranked past the floor."""
    return mul_var(prev, spec.n, spec.corners[i].ell - spec.corners[i - 1].ell)


def compute_bounds(spec: CornerSpec) -> BoundReport:
    """The window memo: per corner, its window A_i and strict cap b_i.

    b_1 counts the first window whole; later windows lose the iterated
    shadow of the entire previous window before counting. Built once per
    corners and shared with every sub-spec; an uncovered spec raises.
    """
    report = spec._windows.get(spec.corners)
    if report is None:
        validate_positions(spec)
        t = _tail_index(spec)
        out = []
        for i, c in enumerate(spec.corners):
            bottom = _corner_bottom(spec, i, t)
            size = stratum_rank(bottom, c.k)
            if not size:
                raise AssertionError("corner window came out empty")
            floor = _shadow_floor(spec, i, out[i - 1].bottom) if i else None
            shaded = stratum_rank(floor, c.k) if i else 0
            out.append(CornerWindow(c, bottom, size, floor, max(0, size - shaded)))
        report = spec._windows[spec.corners] = BoundReport(t, tuple(out))
    return report


def coupled_chain(
    spec: CornerSpec, values
) -> tuple[list[int], list[Monomial], int | None]:
    """Sequential admissible counts when each shadow starts at the pick.

    Walks the corners with the given values (a full vector or a prefix):
    at each step the admissible count is the window minus the lex shadow
    of the previously picked least generator, and the pick is the
    values[i]-th admissible element. Returns (bounds, picks, violation);
    violation is the 0-based index of the first value over its bound, or
    None. When values is a proper prefix, bounds carries one extra entry:
    the cap for the next position.
    """
    windows = compute_bounds(spec).windows
    bounds: list[int] = []
    picks: list[Monomial] = []
    for i, c in enumerate(spec.corners):
        shaded = stratum_rank(_shadow_floor(spec, i, picks[i - 1]), c.k) if i else 0
        bounds.append(max(0, windows[i].size - shaded))
        if i >= len(values):
            break
        if values[i] > bounds[i]:
            return bounds, picks, i
        picks.append(stratum_member(spec.n, c.k, c.ell, shaded + values[i]))
    return bounds, picks, None


@dataclass(frozen=True)
class ValueVerdict:
    mode: str
    feasible: bool
    requested: tuple[int, ...]
    bounds: tuple[int | None, ...]  # None past a coupled violation
    first_violation: int | None  # 1-based corner index

    def to_obj(self) -> dict:
        return {
            "mode": self.mode,
            "feasible": self.feasible,
            "requested": list(self.requested),
            "bounds": list(self.bounds),
            "first_violation": self.first_violation,
        }


def _verdict(spec: CornerSpec, mode: str, bounds) -> ValueVerdict:
    """Judge the values against a walk's caps; None past a coupled violation."""
    violation = next(
        (i for i, (a, b) in enumerate(zip(spec.values, bounds)) if a > b), None
    )
    return ValueVerdict(
        mode,
        violation is None,
        spec.values,
        tuple(bounds) + (None,) * (spec.r - len(bounds)),
        None if violation is None else violation + 1,
    )


def _caps(spec: CornerSpec, mode: str, values) -> tuple[int, ...] | list[int]:
    """Each position's cap in mode, the one place the two regimes differ:
    strict caps from the windows alone, coupled caps along values (up to
    its first violation, or one past a proper prefix)."""
    if mode == MODE_STRICT:
        return compute_bounds(spec).bounds
    return coupled_chain(spec, values)[0]


def check_values(spec: CornerSpec, mode: str = MODE_COUPLED) -> ValueVerdict:
    """Judge the requested values against the chosen mode's caps."""
    return _verdict(spec, mode, _caps(spec, _check_mode(mode), spec.values))


@dataclass(frozen=True)
class IdealRealization:
    spec: CornerSpec
    mode: str
    ideal: MonomialIdeal
    picks: tuple[Monomial, ...]  # least generator chosen per corner degree
    blocks: tuple[tuple[Monomial, ...], ...]  # generators per corner degree
    bound_report: BoundReport
    strict_verdict: ValueVerdict
    coupled_verdict: ValueVerdict
    table: BettiTable  # the witness's Betti table, from its verification

    def to_obj(self) -> dict:
        blocks = [[format_monomial(u) for u in block] for block in self.blocks]
        # construct_ideal lists the witness as the blocks concatenated
        generators = [g for block in blocks for g in block]
        return {
            "spec": self.spec.to_obj(),
            "mode": self.mode,
            "witness": {"n": self.ideal.n, "generators": generators},
            "picks": [format_monomial(u) for u in self.picks],
            "blocks": blocks,
            "bounds": self.bound_report.to_obj(),
            "verdicts": {
                MODE_STRICT: self.strict_verdict.to_obj(),
                MODE_COUPLED: self.coupled_verdict.to_obj(),
            },
        }


def _corner_text(sequence) -> str:
    """A corner sequence as ((k, l), value) pairs, for failure messages."""
    return str([((c.k, c.ell), v) for c, v in sequence])


def _check_corners(got, spec: CornerSpec, what: str) -> None:
    """Raise VerificationFailed, naming what, unless got is spec's corners."""
    want = list(zip(spec.corners, spec.values))
    if got != want:
        raise VerificationFailed(
            f"{what} has corner sequence {_corner_text(got)}, "
            f"wanted {_corner_text(want)}"
        )


def _verify_realization(ideal: MonomialIdeal, spec: CornerSpec) -> BettiTable:
    """Check a witness kept in its planned order: its (-degree, generator)
    keys strictly descend. Once it is strongly stable, minimality is one
    lookup per lower degree (MonomialIdeal.redundant_generator)."""
    keys = list(zip(map(neg, ideal.degrees), ideal.gens))
    if not all(map(gt, keys, keys[1:])):
        raise VerificationFailed("constructed generators are not in canonical order")
    if not ideal.is_strongly_stable():
        raise VerificationFailed("constructed ideal is not strongly stable")
    if ideal.redundant_generator is not None:
        raise VerificationFailed("constructed generators are not minimal as planned")
    if not set(ideal.degrees) <= {c.ell for c in spec.corners}:
        raise VerificationFailed(
            "constructed ideal has generators outside the corner degrees"
        )
    table = ek_betti(ideal)
    _check_corners(corner_sequence(table), spec, "constructed ideal")
    return table


def construct_ideal(spec: CornerSpec, mode: str = MODE_COUPLED) -> IdealRealization:
    """Build and verify a witness ideal for a feasible spec.

    The generators in the first corner degree run from x1^l1 down to the
    picked least peak generator, within max variable index k_1 + 1; each
    later degree runs from just below the previous pick's shadow down to
    its own pick, within max index k_i + 1. Their count, read off the ranks
    first, may not pass MAX_WITNESS_GENS (BudgetExceeded). Each block is
    then unranked at its first member and walked by lex successor, one
    step per generator (segments.lex_walk). Listed so, they
    are canonical and minimal, and form the ideal as they are.
    _verify_realization proves it (minimality by Eliahou-Kervaire segment
    lookups) and checks strong stability, the corner degrees and the exact
    corner sequence; a mismatch raises VerificationFailed.
    """
    _check_mode(mode)
    report = compute_bounds(spec)
    bounds, picks, violation = coupled_chain(spec, spec.values)
    strict_verdict = _verdict(spec, MODE_STRICT, report.bounds)
    coupled_verdict = _verdict(spec, MODE_COUPLED, bounds)
    verdict = strict_verdict if mode == MODE_STRICT else coupled_verdict
    if not verdict.feasible:
        i = verdict.first_violation
        raise InfeasibleSpec(
            f"corner {i} requests {spec.values[i - 1]} but the {mode} cap "
            f"is {verdict.bounds[i - 1]}"
        )
    if violation is not None:
        # strict acceptance implies coupled acceptance, so this is a fault
        raise VerificationFailed(
            f"the strict verdict accepts corner {violation + 1}, which has no "
            "admissible pick in coupled mode"
        )
    spans = []
    for i, c in enumerate(spec.corners):
        # the monomials in x1..x_{k+1} below the previous pick's shadow
        # (none before the first corner) down to this corner's pick
        above = lex_count(_shadow_floor(spec, i, picks[i - 1]), c.k + 1) if i else 0
        spans.append((above, lex_count(picks[i], c.k + 1)))
    size = sum(last - above for above, last in spans)
    if size > MAX_WITNESS_GENS:
        raise BudgetExceeded(f"witness needs {size} generators, cap {MAX_WITNESS_GENS}")
    blocks = []
    for c, (above, last) in zip(spec.corners, spans):
        # a nonempty run of ranks: unrank its first member, walk the rest
        first = lex_unrank(spec.n, c.k + 1, c.ell, above + 1)
        blocks.append(tuple(islice(lex_walk(first, c.k + 1), last - above)))
    ideal = MonomialIdeal._trusted(spec.n, tuple(g for block in blocks for g in block))
    table = _verify_realization(ideal, spec)
    return IdealRealization(
        spec,
        mode,
        ideal,
        tuple(picks),
        tuple(blocks),
        report,
        strict_verdict,
        coupled_verdict,
        table,
    )

