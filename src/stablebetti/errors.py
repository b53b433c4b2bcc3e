"""Error taxonomy shared across the package."""

from __future__ import annotations

import json


class StableBettiError(Exception):
    """Base class for all package errors."""


def json_int(value, what: str, error: type[StableBettiError]) -> int:
    """value itself if it is an integer; a bool, float or string raises
    error instead of being coerced."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise error(f"{what} must be an integer, got {value!r}")


def json_document(text: str):
    """json.loads(text), except that a document nested deeper than the
    parser can follow raises json.JSONDecodeError like any other malformed
    document, not RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("document nested too deeply", text, 0) from None


class MonomialSyntaxError(StableBettiError):
    """Monomial text does not match the strict grammar."""


class BadRange(StableBettiError):
    """Numeric argument outside its documented range."""


class BadDegree(StableBettiError):
    """Degree argument outside its documented range."""


class NotStable(StableBettiError):
    """Betti formula applied to a non-stable component."""

    def __init__(self, message: str, component: int, generator=None, move=None):
        super().__init__(message)
        self.component = component
        self.generator = generator
        self.move = move


class BudgetExceeded(StableBettiError):
    """Enumeration or search exceeded its configured budget."""


class SpecError(StableBettiError):
    """Corner spec violates a structural invariant (malformed input)."""


class InfeasibleSpec(StableBettiError):
    """No witness exists (or none within the search budget)."""

    def __init__(self, message: str, exhausted_budget: bool = False):
        super().__init__(message)
        self.exhausted_budget = exhausted_budget


class UncoveredByCharacterization(StableBettiError):
    """Spec falls outside the region the characterization decides."""


class VerificationFailed(StableBettiError):
    """A constructed witness failed its mandatory self-check."""
