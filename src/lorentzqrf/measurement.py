"""Detection probabilities and momentum densities.

Probabilities follow the Born rule in the conserved inner product: the
chance that a detector prepared in state h fires on a system in state f is
|<h|f>|^2 / (<h|h> <f|f>), i.e. |<h|f>|^2 with both states normalized.
Momentum densities are reported per unit rapidity, i.e. |a(theta)|^2 / 2, so
that a normalized state integrates to one against d(theta); the
superposition-of-boosts scenario reports its branch densities this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .states import RapidityState, kg_inner

__all__ = [
    "ProbabilityReport",
    "momentum_density",
    "region_probability",
]


@dataclass(frozen=True)
class ProbabilityReport:
    """A probability with its labeled contributions and any caveats."""

    value: float
    components: dict[str, float] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError("probability must be finite")
        if self.value < -1e-10 or self.value > 1.0 + 1e-10:
            raise ValueError(f"probability {self.value} outside [0, 1]")


def momentum_density(state: RapidityState) -> np.ndarray:
    """Rapidity-space density |a_j|^2 / 2 (per unit theta) at state.thetas."""
    return np.abs(state.amplitudes) ** 2 / 2.0


def region_probability(detector: RapidityState, state: RapidityState) -> ProbabilityReport:
    """p(detector | state) = |<h|f>|^2 / (<h|h> <f|f>)."""
    hh, ff = kg_inner(detector, detector).real, kg_inner(state, state).real
    if not 0.0 < hh * ff < math.inf:
        raise ValueError(f"detection probability needs 0 < <h|h> <f|f> < inf, got {hh!r}, {ff!r}")
    overlap = kg_inner(detector, state) / math.sqrt(hh * ff)
    return ProbabilityReport(
        value=min(abs(overlap) ** 2, 1.0),  # guard one-ulp Cauchy-Schwarz overshoot
        components={"overlap_re": overlap.real, "overlap_im": overlap.imag},
    )
