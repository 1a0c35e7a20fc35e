"""The field rules every constructor and entry point checks its input with.

Each rule raises :class:`ConfigError` naming the field when the value
breaks it, and otherwise returns the value converted to its Python type.
Every numeric rule asks for a finite real number first, so NaN, the
infinities, booleans and numeric strings fail all of them.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence, Tuple

from .errors import ConfigError

_SUM_TOL = 1e-9


def _require(ok: bool, name: str, what: str, value) -> None:
    if not ok:
        raise ConfigError(f"{name} must {what}, got {value!r}")


def _finite(value) -> bool:
    # Exact float and int first (the common case); bool is an Integral, but
    # JSON true is not a number.
    if type(value) is float:
        return math.isfinite(value)
    if type(value) is int:
        return True
    return not isinstance(value, bool) and (isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value)))


def number(name: str, value) -> float:
    """A finite real number: SNRs and sweep values."""
    _require(_finite(value), name, "be a finite number", value)
    return float(value)


def positive(name: str, value) -> float:
    """Finite and > 0: distances, transmit power and gains."""
    _require(_finite(value) and value > 0, name, "be finite and > 0", value)
    return float(value)


def nonnegative(name: str, value) -> float:
    """Finite and >= 0: path-loss exponents."""
    _require(_finite(value) and value >= 0, name, "be finite and >= 0", value)
    return float(value)


def snr_from_db(name: str, value) -> float:
    """An SNR in dB, returned as the linear ratio 10**(dB/10), which must be
    finite and > 0 (so roughly -3240 dB < value < 3080 dB)."""
    db = number(name, value)
    try:
        snr = 10.0 ** (db / 10.0)
    except OverflowError:
        snr = math.inf
    _require(0.0 < snr < math.inf, name,
             "be an SNR in dB whose linear value is finite and > 0", value)
    return snr


def count(name: str, value, minimum: int = 0) -> int:
    """An integer >= ``minimum``: element counts, error and trial budgets."""
    _require(_finite(value) and value == int(value) and value >= minimum,
             name, f"be an integer >= {minimum}", value)
    return int(value)


def one_of(name: str, value, options: Tuple[str, ...]) -> str:
    """One of a fixed set: variant, zone, SIC mode, sweep axis."""
    _require(value in options, name, f"be one of {options}", value)
    return value


def nonempty(name: str, values: Sequence) -> Sequence:
    """A list with at least one entry: sweep values and users, preset grids."""
    _require(len(values) > 0, name, "be nonempty", values)
    return values


def increasing(name: str, values: Sequence) -> Sequence:
    """Each value above the one before: the grid a curve is drawn over."""
    _require(all(a < b for a, b in zip(values, values[1:])), name,
             "be strictly increasing", values)
    return values


def user_indices(name: str, indices: Sequence[int], n_users: int) -> Tuple[int, ...]:
    """Zero-based user indices: at least one, each below ``n_users`` and none
    repeated (a repeat would rerun the same cell); messages number users from 1."""
    for i, u in enumerate(nonempty(name, indices)):
        if not 0 <= u < n_users:
            raise ConfigError(f"{name}: user {u + 1} out of range 1..{n_users}")
        if u in indices[:i]:
            raise ConfigError(f"{name}: user {u + 1} is repeated")
    return tuple(indices)


def power_coefficients(name: str, values: Sequence) -> Tuple[float, ...]:
    """Per-user power shares: finite, positive, non-increasing, summing to 1.

    ``name`` holds one ``{}`` for the user index, as in
    ``"users[{}].power_coefficient"``.
    """
    _require(len(values) > 0, name.format("*"), "be given for at least one user", values)
    coeffs = tuple(positive(name.format(i), a) for i, a in enumerate(values))
    for i in range(len(coeffs) - 1):
        _require(coeffs[i] >= coeffs[i + 1], name.format(i),
                 f"be at least {name.format(i + 1)} ({coeffs[i + 1]!r})", coeffs[i])
    total = sum(coeffs)
    _require(abs(total - 1.0) <= _SUM_TOL, name.format("*"), "sum to 1", total)
    return coeffs
