"""Exponent-vector monomials over a fixed ring K[x1, ..., xn].

A monomial is a plain tuple of n non-negative integer exponents. Variables
are 1-based and ordered x1 > x2 > ... > xn, so within a fixed degree the
builtin tuple order coincides with the lexicographic order on monomials:
``sorted(monos, reverse=True)`` is lex-descending. Across degrees the
tuple order means nothing, so the package only compares within a degree.
"""

from __future__ import annotations

import re
from operator import lshift
from typing import NamedTuple

from .errors import BadRange, MonomialSyntaxError

Monomial = tuple[int, ...]

_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def unit(n: int) -> Monomial:
    return (0,) * n


def degree(u: Monomial) -> int:
    return sum(u)


def mul_var(u: Monomial, i: int, power: int = 1) -> Monomial:
    """u * x_i**power."""
    if not 1 <= i <= len(u):
        raise BadRange(f"variable index {i} outside 1..{len(u)}")
    return u[: i - 1] + (u[i - 1] + power,) + u[i:]


class Packing(NamedTuple):
    """Monomials with exponents at most some bound, packed into integers.

    Each variable gets a field of ``width`` bits whose top (guard) bit a
    packed monomial leaves clear, so a field-wise comparison of all
    variables is one subtraction: every guard bit of
    ``(pack(u) | guards) - pack(g)`` survives exactly when g divides u.
    """

    width: int
    shifts: range
    lows: int  # the lowest bit of every field
    guards: int  # the top bit of every field

    def pack(self, u) -> int:
        return sum(map(lshift, u, self.shifts))


def packing(n: int, top: int) -> Packing:
    """The packing of n-variable monomials with exponents at most top."""
    width = top.bit_length() + 1
    shifts = range(0, width * n, width)
    lows = sum(1 << s for s in shifts)
    return Packing(width, shifts, lows, lows << (width - 1))


def initial_segment(u: Monomial, e: int) -> Monomial:
    """u's exponents from x1 up, cut off at degree e: a divisor of u."""
    t = 0
    for a in u:
        if a >= e:
            return u[:t] + (e,) + (0,) * (len(u) - t - 1)
        e -= a
        t += 1
    return u


def borel_moves(u: Monomial) -> list[Monomial]:
    """All exchanges x_j * u / x_i with j < i and x_i dividing u, in no
    particular outer order."""
    out = []
    for i in range(1, len(u)):
        if u[i]:
            for j in range(i):
                w = list(u)
                w[i] -= 1
                w[j] += 1
                out.append(tuple(w))
    return out


def parse_monomial(text: str, n: int) -> Monomial:
    """Parse ``x<I>`` / ``x<I>^<E>`` factors joined by ``*``; unit is ``1``.

    Whitespace is ignored. Parsing is strict: I must lie in 1..n and E >= 1.
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise MonomialSyntaxError("empty monomial text")
    if compact == "1":
        return unit(n)
    exps = [0] * n
    for factor in compact.split("*"):
        m = _FACTOR_RE.match(factor)
        if not m:
            raise MonomialSyntaxError(f"bad factor {factor!r} in {text!r}")
        try:
            idx = int(m.group(1))
            exp = int(m.group(2)) if m.group(2) is not None else 1
        except ValueError:  # int() refuses a string past its digit limit
            raise MonomialSyntaxError("number with too many digits") from None
        if not 1 <= idx <= n:
            raise MonomialSyntaxError(f"variable x{idx} outside x1..x{n}")
        if exp < 1:
            raise MonomialSyntaxError(f"exponent must be >= 1 in {factor!r}")
        exps[idx - 1] += exp
    return tuple(exps)


def format_monomial(u: Monomial) -> str:
    """Canonical text: ascending variable index, ^ omitted for exponent 1."""
    parts = []
    for i, e in enumerate(u, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
        elif e < 0:
            raise BadRange(f"negative exponent at x{i}")
    return "*".join(parts) if parts else "1"
