"""Two-hop Rayleigh fading model for a surface-assisted downlink.

The surface is split into per-user subsurfaces, each operating either in
transmission or reflection mode.  This module holds the path loss and the
subsurface split, samples batches of the phase-aligned cascaded gain, and
exposes its Gaussian (central-limit) moments.  The per-element reference
model lives with the tests (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import InvalidParameterError
from .rules import count, nonnegative, one_of, positive

TRANSMISSION = "transmission"
REFLECTION = "reflection"
ZONES = (TRANSMISSION, REFLECTION)

# Moments of the product of two independent Rayleigh amplitudes with unit
# mean-square: E[|h||g|] = pi/4, Var[|h||g|] = 1 - pi^2/16 (per unit gain).
_MEAN_FACTOR = math.pi / 4.0
_VAR_FACTOR = 1.0 - math.pi**2 / 16.0


def path_gain(distance: float, exponent: float) -> float:
    """Power-law link gain ``distance**(-exponent)``.

    The overall two-hop gain of a BS-surface-user link is the product of
    the two per-hop gains.
    """
    return positive("distance", distance) ** -nonnegative("exponent", exponent)


@dataclass(frozen=True)
class PathLossParams:
    """Distances and exponents of the two hops serving one user."""

    bs_ris_distance: float
    ris_user_distance: float
    bs_exponent: float = 2.0
    ris_user_exponent: float = 2.0

    def __post_init__(self) -> None:
        positive("bs_ris_distance", self.bs_ris_distance)
        positive("ris_user_distance", self.ris_user_distance)
        nonnegative("bs_exponent", self.bs_exponent)
        nonnegative("ris_user_exponent", self.ris_user_exponent)

    def bs_gain(self) -> float:
        return path_gain(self.bs_ris_distance, self.bs_exponent)

    def user_gain(self) -> float:
        return path_gain(self.ris_user_distance, self.ris_user_exponent)

    def overall_gain(self) -> float:
        """Composite per-element gain of the cascaded link."""
        return self.bs_gain() * self.user_gain()


@dataclass(frozen=True)
class SubsurfaceAllocation:
    """Per-user element counts and the surface part each user is served by."""

    counts: Tuple[int, ...]
    zones: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != len(self.zones):
            raise InvalidParameterError("counts and zones must have equal length")
        if not self.counts:
            raise InvalidParameterError("allocation needs at least one user")
        for i, z in enumerate(self.zones):
            one_of(f"zones[{i}]", z, ZONES)
        object.__setattr__(self, "counts", tuple(
            count(f"counts[{i}]", n) for i, n in enumerate(self.counts)))

    @property
    def n_users(self) -> int:
        return len(self.counts)

    @property
    def n_transmission(self) -> int:
        return sum(n for n, z in zip(self.counts, self.zones) if z == TRANSMISSION)

    @property
    def n_reflection(self) -> int:
        return sum(n for n, z in zip(self.counts, self.zones) if z == REFLECTION)

    @property
    def n_total(self) -> int:
        return self.n_transmission + self.n_reflection

    def zone_total(self, user: int) -> int:
        """Total element count of the surface part serving ``user``."""
        zone = self.zones[user]
        return self.n_transmission if zone == TRANSMISSION else self.n_reflection

    def co_zone_elements(self, user: int) -> int:
        """Elements of other subsurfaces in the same part (interference size)."""
        return self.zone_total(user) - self.counts[user]

    def co_zone_users(self, user: int) -> Tuple[int, ...]:
        zone = self.zones[user]
        return tuple(i for i, z in enumerate(self.zones) if z == zone and i != user)


def sample_cascade_batch(bs_gain: float, user_gain: float, elements: int,
                         size: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of aligned cascaded gains, one per realization.

    Law-equivalent to sampling a per-element realization, aligning the
    user's own subsurface and taking the magnitude of its response (the
    reference model in ``tests/oracles.py``): the aligned response is
    the sum of per-element products of the two hop amplitudes, which are
    Rayleigh with scales ``sqrt(gain/2)``.
    """
    if elements == 0:
        return np.zeros(size)
    h = rng.rayleigh(math.sqrt(bs_gain / 2.0), (size, elements))
    g = rng.rayleigh(math.sqrt(user_gain / 2.0), (size, elements))
    return (h * g).sum(axis=1)


def clt_moments(overall_gain: float, elements: int) -> Tuple[float, float]:
    """Mean and variance of the aligned cascaded gain.

    The aligned gain is a sum of ``elements`` i.i.d. products of two
    Rayleigh amplitudes, so its Gaussian limit has mean
    ``(pi/4) * sqrt(overall_gain) * elements`` and variance
    ``(1 - pi^2/16) * overall_gain * elements``.
    """
    if count("elements", elements) == 0:
        return 0.0, 0.0
    positive("overall_gain", overall_gain)
    mean = _MEAN_FACTOR * math.sqrt(overall_gain) * elements
    variance = _VAR_FACTOR * overall_gain * elements
    return mean, variance
