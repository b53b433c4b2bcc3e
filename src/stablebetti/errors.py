"""Error taxonomy shared across the package."""

from __future__ import annotations

import json


class StableBettiError(Exception):
    """Base class for all package errors; exit_code is the CLI's exit status."""

    exit_code = 1


def json_int(value, what: str, error: type[StableBettiError]) -> int:
    """value itself if it is an integer; a bool, float or string raises
    error instead of being coerced."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise error(f"{what} must be an integer, got {value!r}")


def json_document(text: str):
    """json.loads(text), except that a document nested deeper than the
    parser can follow, or holding an integer of more digits than int()
    converts, raises json.JSONDecodeError like any other malformed
    document, not RecursionError or ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("document nested too deeply", text, 0) from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # int() refuses a string past its digit limit
        raise json.JSONDecodeError("number with too many digits", text, 0) from None


class MonomialSyntaxError(StableBettiError):
    """Monomial text does not match the strict grammar."""


class BadRange(StableBettiError):
    """Numeric argument outside its documented range."""


def positive_int(value, what: str, error: type[StableBettiError] = BadRange) -> int:
    """value if it is an int (not a bool) >= 1, else error naming it."""
    if json_int(value, what, error) < 1:
        raise error(f"need {what} >= 1, got {value}")
    return value


class NotStable(StableBettiError):
    """Betti formula applied to a non-stable component."""

    exit_code = 2


class BudgetExceeded(StableBettiError):
    """Enumeration or search exceeded its configured budget."""


class SpecError(StableBettiError):
    """Corner spec violates a structural invariant (malformed input)."""


class InfeasibleSpec(StableBettiError):
    """No witness exists."""

    exit_code = 2


class UncoveredByCharacterization(StableBettiError):
    """Spec falls outside the region the characterization decides."""

    exit_code = 3


class VerificationFailed(StableBettiError):
    """A constructed witness failed its mandatory self-check."""

    exit_code = 4
