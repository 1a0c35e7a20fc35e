"""Figure-reproduction presets.

Each preset assembles the sweep runs behind one results figure, and its
signature is the ``figure`` command's schema.  Values the source material
leaves open are either required arguments (fig3 allocations and element
counts, fig5 element counts) or defaulted here with the choice documented:

* fig2 classical-baseline distances default to the geometric mean of the
  two hop distances, sqrt(d_bs * d_user); this reproduces the reported
  20/25/29 dB gains at BER 1e-3.
* fig2/fig3 assume symmetric subsurfaces (both users get the swept count).
* fig4 defaults to user distances (8, 4) m at 40 dB, which reproduces the
  reported 13-element / 3-element crossing shifts for a 0.1 power-share
  increment.

The grid and count checks name a refused argument ``"<figure> <parameter>"``
at the start of the error message, which the command line turns into the
name of the option that gave it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .engine import (
    CLASSICAL_VARIANT,
    ELEMENTS_AXIS,
    SNR_AXIS,
    STAR_VARIANT,
    ScenarioConfig,
    UserSpec,
)
from .errors import ConfigError
from .noma import DETECTED, GENIE
from .rules import increasing, nonempty

FIGURE_NAMES = ("fig2", "fig3", "fig4", "fig5")


@dataclass(frozen=True)
class FigureRun:
    """One sweep inside a figure: a config, an axis, and the users to plot."""

    name: str
    config: ScenarioConfig
    axis: str
    values: Tuple[float, ...]
    users: Tuple[int, ...]
    snr_db: Optional[float] = None


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


def fig2(element_counts: Sequence[int] = (25, 50, 75),
         snr_values: Sequence[float] = range(0, 42, 2)) -> FigurePlan:
    """Two cross-zone users at (50, 6, 4) m, powers (0.7, 0.3), perfect SIC.

    One surface run per element count plus one classical baseline with the
    geometric-mean equivalent distances.
    """
    snrs = increasing("fig2 snr_values", tuple(float(s) for s in snr_values))
    d_bs, d1, d2 = 50.0, 6.0, 4.0
    runs = [
        FigureRun(f"star_n{n}",
                  _two_user_cross_zone(d_bs, d1, d2, 0.7, 0.3, int(n), GENIE),
                  SNR_AXIS, snrs, (0, 1))
        for n in nonempty("fig2 element_counts", element_counts)
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
    runs.append(FigureRun("classical", classical, SNR_AXIS, snrs, (0, 1)))
    return FigurePlan("fig2", tuple(runs))


def fig3(allocations: Sequence[Tuple[float, float]],
         element_counts: Sequence[int],
         snr_values: Sequence[float] = range(0, 42, 2)) -> FigurePlan:
    """Cancelling user's BER with perfect versus detected SIC.

    The per-curve power splits and element counts are not fixed by the
    preset and must be supplied.
    """
    nonempty("fig3 allocations", allocations)
    nonempty("fig3 element_counts", element_counts)
    snrs = increasing("fig3 snr_values", tuple(float(s) for s in snr_values))
    runs = []
    for a1, a2 in allocations:
        for n in element_counts:
            tag = f"a{int(round(a1 * 100)):02d}_n{int(n)}"
            for mode, label in ((GENIE, "perfect"), (DETECTED, "imperfect")):
                cfg = _two_user_cross_zone(50.0, 6.0, 4.0, a1, a2, int(n), mode)
                runs.append(FigureRun(f"{tag}_{label}", cfg, SNR_AXIS, snrs, (1,)))
    return FigurePlan("fig3", tuple(runs))


def fig4(allocations: Sequence[Tuple[float, float]] = ((0.7, 0.3), (0.8, 0.2)),
         element_counts: Sequence[int] = range(6, 62, 2),
         snr_db: float = 40.0) -> FigurePlan:
    """BER against subsurface size at a fixed operating SNR.

    Default power splits differ by 0.1; both users are swept over the same
    symmetric element grid.
    """
    values = increasing("fig4 element_counts", nonempty(
        "fig4 element grid", tuple(float(n) for n in element_counts)))
    runs = []
    for a1, a2 in nonempty("fig4 allocations", allocations):
        cfg = _two_user_cross_zone(50.0, 8.0, 4.0, a1, a2, int(values[0]), GENIE)
        runs.append(FigureRun(f"a{int(round(a1 * 100)):02d}", cfg,
                              ELEMENTS_AXIS, values, (0, 1), snr_db=snr_db))
    return FigurePlan("fig4", tuple(runs))


def fig5(element_counts: Sequence[int],
         snr_values: Sequence[float] = range(0, 52, 2)) -> FigurePlan:
    """Three users, two sharing the transmission part, at (20, 3, 2.5, 2) m.

    The per-user element split is not fixed by the preset and must be
    supplied as three counts.
    """
    if len(element_counts) != 3:
        raise ConfigError("fig5 element_counts must be three counts, one per user "
                          f"(N1, N2, N3), got {list(element_counts)!r}")
    snrs = increasing("fig5 snr_values", tuple(float(s) for s in snr_values))
    n1, n2, n3 = (int(n) for n in element_counts)
    cfg = ScenarioConfig(
        variant=STAR_VARIANT,
        users=(
            UserSpec(3.0, "transmission", n1, 0.75),
            UserSpec(2.5, "transmission", n2, 0.248),
            UserSpec(2.0, "reflection", n3, 0.002),
        ),
        bs_ris_distance=20.0,
        sic_mode=GENIE,
    )
    return FigurePlan("fig5", (FigureRun("three_user", cfg, SNR_AXIS, snrs,
                                         (0, 1, 2)),))
