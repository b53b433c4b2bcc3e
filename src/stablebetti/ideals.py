"""Monomial ideals and finite direct sums of them (monomial submodules).

Generators are stored canonically (grouped by ascending degree, lex
descending inside a degree), so structural equality of the dataclasses is
ideal equality. The zero ideal is representable with an empty generator
tuple for plumbing, but the stability predicates reject it and the unit
ideal: neither is a meaningful (strongly) stable ideal here.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, count

from .errors import BadRange, MonomialSyntaxError, json_document, json_int, positive_int
from .monomials import (
    Monomial,
    Packing,
    degree,
    format_monomial,
    initial_segment,
    packing,
    parse_monomial,
)


def _as_tuples(gens) -> list:
    """Each generator as a tuple; BadRange names one that is no sequence."""
    out, g = [], gens
    try:
        for g in gens:
            out.append(tuple(g))
    except TypeError:
        raise BadRange(f"not a sequence of exponents: {g!r}") from None
    return out


def _check_generators(n: int, gens) -> None:
    """Refuse the first generator that is not n int (not bool) exponents >= 0.
    Three C-level passes clear a valid list; only a failing one is walked."""
    bad = set(map(len, gens)) - {n} or set(map(type, chain.from_iterable(gens))) - {int}
    if bad or min(chain.from_iterable(gens), default=0) < 0:
        for g in gens:
            if len(g) != n:
                raise BadRange(f"generator {g} has {len(g)} exponents, expected {n}")
            if set(map(type, g)) - {int}:
                raise BadRange(f"non-integer exponent in {g}")
            if min(g, default=0) < 0:
                raise BadRange(f"negative exponent in {g}")


def minimalize(n: int, monos) -> tuple[Monomial, ...]:
    """Drop every monomial that is a multiple of another one.

    Every monomial, as a tuple, is checked in canonical order before the
    repeats go (in the order given, if an exponent is not a number); n must
    be an int. A proper divisor has lower degree and so comes first in
    canonical order: each one left is tested, packed (monomials.packing),
    only against the kept ones of lower degree.
    """
    json_int(n, "n", BadRange)
    items = _as_tuples(monos)
    try:
        items.sort(key=lambda u: (sum(u), [-e for e in u]))
    except TypeError:  # a non-number, which the check refuses
        pass
    _check_generators(n, items)
    if not items:
        return ()
    pk = packing(n, max(max(u, default=0) for u in items))
    guards = pk.guards
    kept: list[Monomial] = []
    kept_packed: list[int] = []
    lower, d = (), None
    for u in dict.fromkeys(items):
        if degree(u) != d:
            d, lower = degree(u), tuple(kept_packed)
        q = pk.pack(u)
        probe = q | guards
        if not any((probe - g) & guards == guards for g in lower):
            kept.append(u)
            kept_packed.append(q)
    return tuple(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators, canonically ordered."""

    n: int
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        """Refuse a non-int or n < 1, then the first bad generator in the order
        given. Generators given as lists are stored as tuples, so the ideal hashes."""
        positive_int(self.n, "n")
        if not isinstance(self.gens, tuple) or set(map(type, self.gens)) - {tuple}:
            object.__setattr__(self, "gens", tuple(_as_tuples(self.gens)))
        _check_generators(self.n, self.gens)

    @classmethod
    def _trusted(cls, n: int, gens: tuple[Monomial, ...]) -> "MonomialIdeal":
        """The ideal of gens, unchecked: for package code whose n >= 1 and
        generators (tuples of n int exponents >= 0) were checked or built so."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "n", n)  # as __init__ does: __dict__ adds 150 B
        object.__setattr__(ideal, "gens", gens)
        return ideal

    @classmethod
    def from_generators(cls, n: int, monos) -> "MonomialIdeal":
        positive_int(n, "n")
        return cls._trusted(n, minimalize(n, monos))

    @classmethod
    def from_strings(cls, n: int, texts) -> "MonomialIdeal":
        return cls.from_generators(n, (parse_monomial(t, n) for t in texts))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @cached_property
    def packed(self) -> tuple[Packing, int, tuple[int, ...]]:
        """The generators' packing, its largest exponent, and the packed
        generators (computed once: the dataclass is frozen)."""
        top = max(map(max, self.gens), default=0)
        pk = packing(self.n, top)
        return pk, top, tuple(map(pk.pack, self.gens))

    def contains(self, u: Monomial) -> bool:
        (u,) = _as_tuples((u,))
        if len(u) != self.n or set(map(type, u)) - {int}:
            raise BadRange(f"monomial {u} is not {self.n} int exponents")
        if min(u) < 0:
            return False
        pk, top, packed = self.packed
        guards = pk.guards
        # clamping to the largest generator exponent keeps every field
        # below its guard bit and does not change divisibility
        q = pk.pack([e if e < top else top for e in u]) | guards
        return any((q - g) & guards == guards for g in packed)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Each generator's degree, in the listed order (computed once)."""
        return tuple(map(sum, self.gens))

    @cached_property
    def max_indices(self) -> tuple[int, ...]:
        """Each generator's largest variable index, 0 for the unit, in the
        listed order (computed once): the field of its packed top bit."""
        pk, _top, packed = self.packed
        return tuple((b - 1) // pk.width + 1 for b in map(int.bit_length, packed))

    @cached_property
    def _lower_degrees(self) -> dict[int, list[int]]:
        """Each listed degree's lower listed degrees, descending."""
        listed = sorted(set(self.degrees), reverse=True)
        return {d: [e for e in listed if e < d] for d in listed}

    @cached_property
    def redundant_generator(self):
        """A generator listed twice, else the first listed over one of its
        lower-degree initial segments, else None (computed once): on a stable
        ideal, exactly a list that is not minimal (_stability_violation)."""
        gens, lowers = set(self.gens), self._lower_degrees
        if len(gens) < len(self.gens):
            return next(g for g, c in Counter(self.gens).items() if c > 1)
        pairs = zip(self.gens, self.degrees)
        hits = (g for g, d in pairs for e in lowers[d] if initial_segment(g, e) in gens)
        return next(hits, None)

    def _stability_violation(self, strong: bool):
        """First failing exchange, or None. Unit/zero ideals always fail.

        Adjacent exchanges x_{i-1}/x_i settle the strong verdict: inside for
        every generator g, they are inside for every g * z (x_i divides g or
        z), and x_j/x_i chains x_j/x_{j+1} ... x_{i-1}/x_i. The ordered scan
        names the first failure: generators in order, (i, j) with i, then j
        ascending, every i with x_i dividing g when strong, the largest else.

        An exchange u is looked up packed among the generators and members
        found so far, then so are its initial segments at the listed lower
        degrees, each cut from the last by dropping x_max (n steps in all,
        plus one a degree). A hit divides u, so proves it inside on any
        input; u and the segments walked join the members. In a stable ideal
        u = g(u) * w, g(u) a minimal generator, max(g(u)) <= min(w)
        (Eliahou-Kervaire, J. Algebra 1990; Herzog-Hibi, 7.2), so g(u) is a
        segment and no walk of a strongly stable ideal fails. A failed walk
        or a unit generator sends the strong verdict to the scan, and a
        scanned miss goes to contains, which decides on any input.
        """
        if self.is_zero:
            return (None, 0, 0, None)
        pk, _top, packed = self.packed
        width, shifts = pk.width, pk.shifts
        bits = [1 << s for s in shifts]
        lifts = [b - (b >> width) for b in bits[1:]]  # x_{i-1}/x_i is - lift
        known = set(packed)  # a field holds top + 1 too, so q below is exact
        lowers = self._lower_degrees

        def walk_hits(q: int, d: int) -> bool:
            walk, w, c = [q], q, d
            for e in lowers[d]:
                while c > e:  # x_max(w) goes, down to degree e at most
                    s = shifts[(w.bit_length() - 1) // width]
                    a = w >> s if w >> s < c - e else c - e
                    w -= a << s
                    c -= a
                if w in known:
                    known.update(walk)
                    return True
                walk.append(w)
            return False

        def adjacent_inside() -> bool:
            for g, pg, d in zip(self.gens, packed, self.degrees):
                for lift in compress(lifts, g[1:]):
                    if pg - lift not in known and not walk_hits(pg - lift, d):
                        return False
            return True

        if strong and all(packed) and adjacent_inside():
            return None
        for g, pg, d, top in zip(self.gens, packed, self.degrees, self.max_indices):
            if not pg:
                return (g, 0, 0, None)
            for i in compress(count(2), g[1:]) if strong else (top,):
                lowered = pg - bits[i - 1]
                for j in range(1, i):
                    q = lowered + bits[j - 1]
                    if q in known or walk_hits(q, d):
                        continue
                    moved = g[: j - 1] + (g[j - 1] + 1,) + g[j : i - 1]
                    moved += (g[i - 1] - 1,) + g[i:]
                    if not self.contains(moved):
                        return (g, i, j, moved)
                    known.add(q)
        return None

    # Each verdict is computed once per ideal; strong stability implies stability.
    @cached_property
    def _weak_violation(self):
        if "_strong_violation" in self.__dict__ and self._strong_violation is None:
            return None
        return self._stability_violation(strong=False)

    @cached_property
    def _strong_violation(self):
        return self._stability_violation(strong=True)

    def is_stable(self) -> bool:
        """Every generator's exchange at its largest variable stays inside."""
        return self._weak_violation is None

    def is_strongly_stable(self) -> bool:
        """Every generator's exchange at every variable stays inside."""
        return self._strong_violation is None

    def stability_violation(self, strong: bool):
        """(generator, i, j, moved) for the first failing exchange, else None."""
        return self._strong_violation if strong else self._weak_violation

    def to_obj(self) -> dict:
        return {"n": self.n, "generators": [format_monomial(g) for g in self.gens]}

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(", ", ": "))

    @classmethod
    def from_obj(cls, obj: dict) -> "MonomialIdeal":
        if not isinstance(obj, dict) or "n" not in obj or "generators" not in obj:
            raise MonomialSyntaxError('ideal document needs keys "n" and "generators"')
        n = obj["n"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise MonomialSyntaxError(f'"n" must be a positive integer, got {n!r}')
        gens = obj["generators"]
        if not isinstance(gens, list) or not all(isinstance(t, str) for t in gens):
            raise MonomialSyntaxError('"generators" must be a list of strings')
        return cls.from_generators(n, (parse_monomial(t, n) for t in gens))


@dataclass(frozen=True)
class MonomialSubmodule:
    """Direct sum I_1 e_1 + ... + I_m e_m with degree shifts deg(e_h) = f_h.

    Shifts must be non-decreasing. A single ideal is the m = 1 case.
    """

    n: int
    components: tuple[MonomialIdeal, ...]
    shifts: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not self.components:
            raise BadRange("a submodule needs at least one component")
        if not self.shifts:
            object.__setattr__(self, "shifts", (0,) * len(self.components))
        if len(self.shifts) != len(self.components):
            raise BadRange("one shift per component required")
        if any(f < 0 for f in self.shifts):
            raise BadRange("shifts must be non-negative")
        if list(self.shifts) != sorted(self.shifts):
            raise BadRange("shifts must be non-decreasing")
        for c in self.components:
            if c.n != self.n:
                raise BadRange("all components must share the ambient ring")

    @classmethod
    def of_ideal(cls, ideal: MonomialIdeal) -> "MonomialSubmodule":
        return cls(ideal.n, (ideal,), (0,))

    @property
    def m(self) -> int:
        return len(self.components)

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "shifts": list(self.shifts),
            "components": [c.to_obj() for c in self.components],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(", ", ": "))

    @classmethod
    def from_obj(cls, obj: dict) -> "MonomialSubmodule":
        if not isinstance(obj, dict) or "components" not in obj:
            raise MonomialSyntaxError('module document needs a "components" key')
        n = obj.get("n")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise MonomialSyntaxError(f'"n" must be a positive integer, got {n!r}')
        if not isinstance(obj["components"], list):
            raise MonomialSyntaxError('"components" must be a list of ideal documents')
        comps = tuple(MonomialIdeal.from_obj(c) for c in obj["components"])
        shifts = obj.get("shifts")
        if shifts is None:
            shifts = []
        if not isinstance(shifts, list):
            raise MonomialSyntaxError('"shifts" must be a list of integers')
        shifts = tuple(json_int(f, "a shift", MonomialSyntaxError) for f in shifts)
        if "m" in obj and json_int(obj["m"], '"m"', MonomialSyntaxError) != len(comps):
            raise MonomialSyntaxError('"m" disagrees with the number of components')
        return cls(n, comps, shifts)


def parse_module_or_ideal(text: str) -> MonomialSubmodule:
    """Accept either an ideal document or a module document."""
    obj = json_document(text)
    if isinstance(obj, dict) and "components" in obj:
        return MonomialSubmodule.from_obj(obj)
    return MonomialSubmodule.of_ideal(MonomialIdeal.from_obj(obj))
