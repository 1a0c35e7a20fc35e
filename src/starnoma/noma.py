"""Power-domain power split and the receiver's cancellation modes over BPSK.
The scalar reference receiver lives with the tests (``tests/oracles.py``)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .rules import positive, power_coefficients

GENIE = "genie"
DETECTED = "detected"
SIC_MODES = (GENIE, DETECTED)


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user power fractions (descending) and the total transmit power."""

    coefficients: Tuple[float, ...]
    power: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients",
                           power_coefficients("coefficients[{}]", self.coefficients))
        positive("power", self.power)

    @property
    def n_users(self) -> int:
        return len(self.coefficients)

    def amplitude(self, user: int) -> float:
        """Per-user symbol amplitude sqrt(a_k * P)."""
        return math.sqrt(self.coefficients[user] * self.power)

    def amplitudes(self) -> Tuple[float, ...]:
        return tuple(self.amplitude(k) for k in range(self.n_users))
