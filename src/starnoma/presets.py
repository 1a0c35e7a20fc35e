"""Figure-reproduction presets.

Each preset assembles the sweep runs behind one results figure, and its
signature is its ``figure`` subcommand's schema.  Values the source material
leaves open are either required arguments (fig3 allocations and element
counts, fig5 element counts) or defaulted here with the choice documented:

* fig2 classical-baseline distances default to the geometric mean of the
  two hop distances, sqrt(d_bs * d_user); this reproduces the reported
  20/25/29 dB gains at BER 1e-3.
* fig2/fig3 assume symmetric subsurfaces (both users get the swept count).
* fig4 defaults to user distances (8, 4) m at 40 dB, which reproduces the
  reported 13-element / 3-element crossing shifts for a 0.1 power-share
  increment.

A preset checks the element counts and two-user power splits it builds
configs and run names from, naming a refused one ``"<figure> <parameter>[i]"``;
its SNR grid goes as given to :class:`FigureRun`, which checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .engine import (
    CLASSICAL_VARIANT,
    ELEMENTS_AXIS,
    SNR_AXIS,
    STAR_VARIANT,
    FigureRun,
    ScenarioConfig,
    UserSpec,
)
from .errors import ConfigError
from .noma import DETECTED, GENIE
from .rules import count, increasing, nonempty, power_coefficients

FIGURE_NAMES = ("fig2", "fig3", "fig4", "fig5")


@dataclass(frozen=True)
class FigurePlan:
    name: str
    runs: Tuple[FigureRun, ...]


def _two_user_cross_zone(d_bs: float, d1: float, d2: float, a1: float, a2: float,
                         n: int, sic_mode: str) -> ScenarioConfig:
    return ScenarioConfig(
        variant=STAR_VARIANT,
        users=(
            UserSpec(d1, "transmission", n, a1),
            UserSpec(d2, "reflection", n, a2),
        ),
        bs_ris_distance=d_bs,
        sic_mode=sic_mode,
    )


def _counts(name: str, values: Sequence) -> Tuple[int, ...]:
    """Element counts: at least one, each an integer >= 0, none rounded."""
    return tuple(count(f"{name}[{i}]", n) for i, n in enumerate(nonempty(name, values)))


def _splits(name: str, pairs: Sequence) -> Tuple[Tuple[float, float], ...]:
    """Power splits: at least one, each the coefficients of two users."""
    for i, pair in enumerate(nonempty(name, pairs)):
        if len(pair) != 2:
            raise ConfigError(f"{name}[{i}] must be two power coefficients, got {pair!r}")
    return tuple(power_coefficients(f"{name}[{i}][{{}}]", pair) for i, pair in enumerate(pairs))


def fig2(element_counts: Sequence[int] = (25, 50, 75),
         snr_values: Sequence[float] = range(0, 42, 2)) -> FigurePlan:
    """Two cross-zone users at (50, 6, 4) m, powers (0.7, 0.3), perfect SIC.

    One surface run per element count plus one classical baseline with the
    geometric-mean equivalent distances.
    """
    d_bs, d1, d2 = 50.0, 6.0, 4.0
    runs = [
        FigureRun(f"star_n{n}",
                  _two_user_cross_zone(d_bs, d1, d2, 0.7, 0.3, n, GENIE),
                  SNR_AXIS, snr_values, (0, 1))
        for n in _counts("fig2 element_counts", element_counts)
    ]
    classical = ScenarioConfig(
        variant=CLASSICAL_VARIANT,
        users=(
            UserSpec(d1, "transmission", 0, 0.7,
                     classical_distance=math.sqrt(d_bs * d1)),
            UserSpec(d2, "reflection", 0, 0.3,
                     classical_distance=math.sqrt(d_bs * d2)),
        ),
        bs_ris_distance=d_bs,
        sic_mode=GENIE,
    )
    runs.append(FigureRun("classical", classical, SNR_AXIS, snr_values, (0, 1)))
    return FigurePlan("fig2", tuple(runs))


def fig3(allocations: Sequence[Tuple[float, float]],
         element_counts: Sequence[int],
         snr_values: Sequence[float] = range(0, 42, 2)) -> FigurePlan:
    """Cancelling user's BER with perfect versus detected SIC.

    The per-curve power splits and element counts are not fixed by the
    preset and must be supplied.
    """
    counts = _counts("fig3 element_counts", element_counts)
    runs = []
    for a1, a2 in _splits("fig3 allocations", allocations):
        for n in counts:
            tag = f"a{int(round(a1 * 100)):02d}_n{n}"
            for mode, label in ((GENIE, "perfect"), (DETECTED, "imperfect")):
                cfg = _two_user_cross_zone(50.0, 6.0, 4.0, a1, a2, n, mode)
                runs.append(FigureRun(f"{tag}_{label}", cfg, SNR_AXIS, snr_values, (1,)))
    return FigurePlan("fig3", tuple(runs))


def fig4(allocations: Sequence[Tuple[float, float]] = ((0.7, 0.3), (0.8, 0.2)),
         element_counts: Sequence[int] = range(6, 62, 2),
         snr_db: float = 40.0) -> FigurePlan:
    """BER against subsurface size at a fixed operating SNR.

    Default power splits differ by 0.1; both users are swept over the same
    symmetric element grid.
    """
    counts = _counts("fig4 element_counts", element_counts)
    values = increasing("fig4 element_counts", tuple(float(n) for n in counts))
    runs = []
    for a1, a2 in _splits("fig4 allocations", allocations):
        cfg = _two_user_cross_zone(50.0, 8.0, 4.0, a1, a2, counts[0], GENIE)
        runs.append(FigureRun(f"a{int(round(a1 * 100)):02d}", cfg,
                              ELEMENTS_AXIS, values, (0, 1), snr_db=snr_db))
    return FigurePlan("fig4", tuple(runs))


def fig5(element_counts: Sequence[int],
         snr_values: Sequence[float] = range(0, 52, 2)) -> FigurePlan:
    """Three users, two sharing the transmission part, at (20, 3, 2.5, 2) m.

    The per-user element split is not fixed by the preset and must be
    supplied as three counts.
    """
    n = _counts("fig5 element_counts", element_counts)
    if len(n) != 3:
        raise ConfigError("fig5 element_counts must be three counts, one per user "
                          f"(N1, N2, N3), got {list(element_counts)!r}")
    cfg = ScenarioConfig(
        variant=STAR_VARIANT,
        users=(
            UserSpec(3.0, "transmission", n[0], 0.75),
            UserSpec(2.5, "transmission", n[1], 0.248),
            UserSpec(2.0, "reflection", n[2], 0.002),
        ),
        bs_ris_distance=20.0,
        sic_mode=GENIE,
    )
    return FigurePlan("fig5", (FigureRun("three_user", cfg, SNR_AXIS, snr_values, (0, 1, 2)),))
