"""Monomial ideals and finite direct sums of them (monomial submodules).

Generators are stored canonically (grouped by ascending degree, lex
descending inside a degree), so structural equality of the dataclasses is
ideal equality. The zero ideal is representable with an empty generator
tuple for plumbing, but the stability predicates reject it and the unit
ideal: neither is a meaningful (strongly) stable ideal here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from .errors import BadRange, MonomialSyntaxError, json_document, json_int
from .monomials import (
    Monomial,
    Packing,
    degree,
    format_monomial,
    max_index,
    packing,
    parse_monomial,
)


def canonical_key(u: Monomial) -> tuple:
    """Sort key giving degree-ascending, lex-descending generator order."""
    return (degree(u), tuple(-e for e in u))


def _check_exponents(n: int, g: Monomial) -> None:
    if len(g) != n:
        raise BadRange(f"generator {g} has {len(g)} exponents, expected {n}")
    if any(e < 0 for e in g):
        raise BadRange(f"negative exponent in {g}")


def minimalize(n: int, monos) -> tuple[Monomial, ...]:
    """Drop every monomial that is a multiple of another one.

    A proper divisor has lower degree and so comes first in canonical
    order: each monomial is tested, packed (monomials.packing), only
    against the kept ones of lower degree.
    """
    items = sorted(set(monos), key=canonical_key)
    for u in items:
        _check_exponents(n, u)
    if not items:
        return ()
    pk = packing(n, max(max(u, default=0) for u in items))
    guards = pk.guards
    kept: list[Monomial] = []
    kept_packed: list[int] = []
    lower, d = (), None
    for u in items:
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
        if self.n < 1:
            raise BadRange(f"need n >= 1, got {self.n}")
        for g in self.gens:
            _check_exponents(self.n, g)

    @classmethod
    def from_generators(cls, n: int, monos) -> "MonomialIdeal":
        return cls(n, minimalize(n, monos))

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
        if len(u) != self.n:
            raise BadRange("monomial lives in a different ring")
        if min(u) < 0:
            return False
        pk, top, packed = self.packed
        guards = pk.guards
        # clamping to the largest generator exponent keeps every field
        # below its guard bit and does not change divisibility
        q = pk.pack([e if e < top else top for e in u]) | guards
        return any((q - g) & guards == guards for g in packed)

    def _stability_violation(self, strong: bool):
        """First failing exchange, or None. Unit/zero ideals always fail.

        Generators are scanned in order, and for each the exchanges
        (i, j) with i ascending, then j ascending: every i with x_i
        dividing the generator when strong, only its largest one when not.
        The exchanged monomial is tested packed, with x_j's exponent
        clamped as in contains. It keeps the degree of its generator, so
        a generator of that degree contains it only by being equal to it
        (a set lookup), and only the lower-degree ones are scanned.
        """
        if self.is_zero:
            return (None, 0, 0, None)
        pk, top, packed = self.packed
        guards = pk.guards
        bits = [1 << s for s in pk.shifts]
        members = set(packed)
        degrees = [degree(g) for g in self.gens]
        lower_by_degree = {
            d: tuple(h for h, e in zip(packed, degrees) if e < d) for d in set(degrees)
        }
        for g, pg, d in zip(self.gens, packed, degrees):
            if not pg:
                return (g, 0, 0, None)
            lower = lower_by_degree[d]
            i_range = [max_index(g)] if not strong else [
                i for i in range(2, self.n + 1) if g[i - 1]
            ]
            for i in i_range:
                lowered = pg - bits[i - 1]
                for j in range(1, i):
                    if g[j - 1] == top:
                        q = lowered  # the clamped exchange equals no generator
                    else:
                        q = lowered + bits[j - 1]
                        if q in members:
                            continue
                    q |= guards
                    if not any((q - h) & guards == guards for h in lower):
                        moved = list(g)
                        moved[i - 1] -= 1
                        moved[j - 1] += 1
                        return (g, i, j, tuple(moved))
        return None

    # Each verdict is computed at most once per ideal object.
    @cached_property
    def _weak_violation(self):
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

    def module_generators(self):
        """Triples (component index h, generator u, module degree deg u + f_h)."""
        for h, (ideal, f) in enumerate(zip(self.components, self.shifts)):
            for g in ideal.gens:
                yield h, g, degree(g) + f

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
