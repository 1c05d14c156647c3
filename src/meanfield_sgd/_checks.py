"""What a valid argument is, decided once: a count is an integer, a scale a
finite real, weights a probability vector and a box two finite vectors, and
a bool is none of them.  A bad value raises ValueError, or the caller's
subclass of it, whose message starts with the argument's name."""

from __future__ import annotations

import math
import numbers

import numpy as np

WEIGHT_TOL = 1e-12   # a probability vector sums to 1 within this


def is_real(value, finite: bool = False) -> bool:
    """A real number a float can hold, not a bool; with ``finite`` a finite one."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and (math.isfinite(value) or not finite))
    except OverflowError:   # an integer beyond the float range
        return False


def check_integer(name: str, value, low: int) -> int:
    """``value`` as an int, once checked an integer (not a bool) >= ``low``."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low} (got {value!r})")
    return int(value)


def check_real(name: str, value, low: float = 0, strict: bool = True) -> float:
    """``value`` as a float, once checked a finite real > ``low`` (>= unless ``strict``)."""
    if not (is_real(value, finite=True) and (value > low if strict else value >= low)):
        raise ValueError(f"{name} must be a finite real {'>' if strict else '>='} {low} (got {value!r})")
    return float(value)


def check_weights(name: str, weights, n: int, error: type = ValueError) -> np.ndarray:
    """``weights`` as floats, once checked n weights in (0, 1] summing to 1."""
    weights = check_vector(name, weights, error)
    if weights.size != n:
        raise error(f"{name} must be {n} weights, one per atom (got {weights.size})")
    if np.any((weights <= 0) | (weights > 1)):   # nor can their sum overflow
        raise error(f"{name} must be in (0, 1]")
    total = weights.sum()
    if abs(total - 1.0) > WEIGHT_TOL:
        raise error(f"{name} must sum to 1 (got {total!r})")
    return weights


def check_vector(name: str, value, error: type = ValueError) -> np.ndarray:
    """``value`` as floats, once checked a non-empty flat sequence of finite
    numbers (no bools, strings or nested sequences)."""
    try:
        vector = np.asarray(value)
    except ValueError:   # a ragged nesting
        vector = np.empty(0)
    if not (vector.ndim == 1 and vector.size and vector.dtype.kind in "iuf" and np.isfinite(vector).all()):
        raise error(f"{name} must be finite numbers, a non-empty flat sequence of them (got {value!r})")
    return vector.astype(float, copy=False)


def check_box(low, high, names: tuple = ("low", "high")):
    """Refuse [low, high] unless both bounds are finite vectors of one length
    with low <= high in every coordinate (low == high is a point mass there)."""
    lo, hi = (check_vector(name, value) for name, value in zip(names, (low, high)))
    if hi.size != lo.size or np.any(lo > hi):
        raise ValueError(f"{names[1]} must be as long as {names[0]} and >= it in every coordinate "
                         f"(got {names[0]}={low!r}, {names[1]}={high!r})")
