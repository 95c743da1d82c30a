"""Argument-validation helpers.

Every public constructor in the package validates its arguments eagerly and
raises :class:`repro.exceptions.InvalidParameterError` with a message that
names the offending parameter.  Centralising the checks here keeps the error
messages uniform and the call sites short.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.exceptions import InvalidParameterError

__all__ = [
    "check_positive_int",
    "check_in_range",
    "check_sequence_of_ints",
]


def check_positive_int(value: object, name: str, *, minimum: int = 1) -> int:
    """Validate that *value* is an ``int`` with ``value >= minimum``.

    Parameters
    ----------
    value:
        The object to validate.  ``bool`` is rejected even though it is an
        ``int`` subclass, because ``True`` silently meaning ``1`` is almost
        always a bug at the call sites in this package.
    name:
        Parameter name used in the error message.
    minimum:
        Smallest accepted value (inclusive).

    Returns
    -------
    int
        The validated value, unchanged.

    Raises
    ------
    InvalidParameterError
        If *value* is not an integer or is below *minimum*.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(f"{name} must be an int, got {type(value).__name__}")
    if value < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_in_range(value: int, name: str, low: int, high: int) -> int:
    """Validate ``low <= value <= high`` (both inclusive)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(f"{name} must be an int, got {type(value).__name__}")
    if not (low <= value <= high):
        raise InvalidParameterError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def check_sequence_of_ints(values: Iterable[object], name: str) -> tuple:
    """Validate that *values* is a finite iterable of plain ints; return a tuple."""
    try:
        seq: Sequence[object] = tuple(values)  # type: ignore[arg-type]
    except TypeError as exc:  # pragma: no cover - defensive
        raise InvalidParameterError(f"{name} must be an iterable of ints") from exc
    for item in seq:
        if isinstance(item, bool) or not isinstance(item, int):
            raise InvalidParameterError(
                f"{name} must contain only ints, found {type(item).__name__}"
            )
    return tuple(seq)  # type: ignore[return-value]

