"""Validation of the enumeration limits, shared by the solver and the CLI, so
that the CLI can check its flags without importing the solver."""

from __future__ import annotations

HARD_CEILING = 10


def validate_ceiling(value: int | str, source: str) -> int:
    """`value` (an int, or its decimal text) as an int in 1..HARD_CEILING,
    else a ValueError naming the `source` it came from.  A bool or a float is
    refused, as its text would be."""
    try:
        ceiling = int(value) if type(value) in (int, str) else 0
    except ValueError:
        ceiling = 0
    if not 1 <= ceiling <= HARD_CEILING:
        raise ValueError(
            f"{source} must be an integer between 1 and {HARD_CEILING}, got {value!r}"
        )
    return ceiling


def validate_workers(value: int, source: str) -> None:
    """A ValueError naming the `source` unless `value` is an int >= 1 (not a
    bool)."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{source} must be an integer >= 1, got {value!r}")
