"""The one rule for the numbers that enter the package, and its readers.

An integer is an int or a numpy integer; a real is an integer, a float or a
numpy float; a number is a real, a complex or a numpy complex. Booleans are
none of these. Every reader refuses with ValueError.
"""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np


def is_integer(x) -> bool:
    return isinstance(x, (int, np.integer)) and type(x) is not bool


def is_real(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and type(x) is not bool


def is_number(x) -> bool:
    return isinstance(x, (int, float, complex, np.number)) and type(x) is not bool


def integers(values, message: str, bits: bool = False) -> tuple[int, ...]:
    """values as ints, refused with message unless each is an integer; with
    bits set, booleans are read as 0 and 1."""
    values = tuple(values)
    if {int}.issuperset(map(type, values)):  # the common case, checked at C speed
        return values
    if not all(is_integer(v) or bits and isinstance(v, (bool, np.bool_)) for v in values):
        raise ValueError(message)
    return tuple(map(int, values))


def reals(values, message: str, count: int | None = None) -> tuple[float, ...]:
    """values as floats, refused with message unless each is a real, and an
    int beyond the float range too. A numpy array is read through tolist(),
    and given a count, one real stands for count of them."""
    if type(values) is not tuple:
        if isinstance(values, np.ndarray):
            values = values.tolist()  # Python floats take the fast path
        values = (values,) * count if count is not None and not isinstance(values, Iterable) else tuple(values)
    if {float}.issuperset(map(type, values)):  # the common case, checked at C speed
        return values
    if not all(map(is_real, values)):
        raise ValueError(message)
    try:
        return tuple(map(float, values))
    except OverflowError:
        raise ValueError(f"{message} within the float range") from None


def _array(x, name: str, kinds: str, what: str) -> np.ndarray:
    """x as an array of one of the dtype kinds; strings, booleans and objects
    are refused, not coerced, and ints past int64 are read as floats.

    numpy reads a list that mixes booleans with numbers as numbers, so a list
    is searched for booleans entry by entry."""
    try:
        a = np.asarray(x)
    except ValueError:  # numpy refuses a ragged nesting of lists
        raise ValueError(f"{name} is ragged; nested lists must have equal lengths") from None
    if a.dtype == object and all(type(e) in (int, float) for e in a.flat):  # ints past int64, as JSON numbers
        try:
            a = a.astype(float)
        except OverflowError:
            raise ValueError(f"{name} holds a number beyond the float range") from None
    if a.dtype.kind not in kinds or (
        a is not x and any(isinstance(e, (bool, np.bool_)) for e in np.asarray(x, dtype=object).flat)
    ):
        raise ValueError(f"{name} must hold {what}")
    return a


def real_array(x, name: str) -> np.ndarray:
    """x as a float array of finite real numbers."""
    a = _array(x, name, "iuf", "real numbers").astype(float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def complex_array(x, name: str) -> np.ndarray:
    """x as a complex array of numbers, finite or not."""
    return np.asarray(_array(x, name, "iufc", "numbers"), dtype=complex)
