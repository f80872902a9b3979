"""Boundary checks for the counts and durations callers hand in.

One rule per kind of value, shared by the facade (:mod:`repro.api.session`),
the sweep runtime (:mod:`repro.runtime.pool`, :mod:`repro.runtime.remote`)
and through them the CLI: a value one layer rejects, no other layer
truncates, converts from text or lets through as NaN.
"""

from __future__ import annotations

import math
from typing import Any

__all__ = ["seconds", "whole_number"]


def whole_number(
    value: Any, what: str, minimum: int, error: type[Exception] = ValueError
) -> int:
    """``value`` as an integer of at least ``minimum``, else ``error``.

    A value ``int()`` would truncate (``2.5``), parse (``"3"``) or could not
    convert is rejected, never rounded.
    """
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value or number < minimum:
        raise error(f"{what} must be an integer >= {minimum}, got {value!r}")
    return number


def seconds(value: Any, what: str, error: type[Exception] = ValueError) -> float:
    """``value`` as a finite number of seconds above 0, else ``error``.

    NaN is rejected: every comparison with it is false, so a NaN timeout
    never fires and a NaN lease makes every claim look expired.
    """
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not (number == value and math.isfinite(number) and number > 0.0):
        raise error(f"{what} must be a finite number of seconds > 0, got {value!r}")
    return number
