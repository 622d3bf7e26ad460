"""Detection probabilities and momentum densities.

Probabilities follow the Born rule in the conserved inner product: the
chance that a detector prepared in state h fires on a system in state f is
|<h|f>|^2 with both states normalized.  Momentum densities are reported per
unit rapidity, i.e. |a(theta)|^2 / 2, so that a normalized state integrates
to one against d(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kinematics import invariant_interval
from .states import (
    GaussianProfile,
    RapidityGrid,
    RapidityState,
    Slice,
    SpacetimeFunction,
    from_spacetime_function,
    kg_inner,
    normalize,
)

__all__ = [
    "ProbabilityReport",
    "RegionPovm",
    "momentum_density",
    "region_probability",
    "spacelike_overlap",
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


@dataclass(frozen=True, eq=False)
class RegionPovm:
    """Rank-one detection effect for a normalizable spacetime region state."""

    state: RapidityState

    def __post_init__(self) -> None:
        object.__setattr__(self, "state", normalize(self.state))

    @classmethod
    def from_function(
        cls,
        f: SpacetimeFunction,
        mass: float,
        grid: RapidityGrid | None = None,
    ) -> "RegionPovm":
        return cls(from_spacetime_function(f, mass, grid or RapidityGrid.default()))


def momentum_density(state: RapidityState) -> np.ndarray:
    """Rapidity-space density |a_j|^2 / 2 (per unit theta) at state.thetas."""
    return np.abs(state.amplitudes) ** 2 / 2.0


def region_probability(
    detector: RegionPovm | RapidityState, state: RapidityState
) -> ProbabilityReport:
    """p(detector | state) = |<h|f>|^2 with h, f normalized."""
    h = detector.state if isinstance(detector, RegionPovm) else normalize(detector)
    ff = kg_inner(state, state).real
    if not (ff > 0.0 and math.isfinite(ff)):
        raise ValueError("detection probability needs a state with positive norm")
    overlap = kg_inner(h, state) / math.sqrt(ff)
    value = abs(overlap) ** 2
    value = min(value, 1.0)  # guard one-ulp Cauchy-Schwarz overshoot
    return ProbabilityReport(
        value=value,
        components={"overlap_re": overlap.real, "overlap_im": overlap.imag},
    )


def spacelike_overlap(
    sigma: float = 1.0,
    separation: float | None = None,
    mass: float = 1.0,
    grid: RapidityGrid | None = None,
) -> dict:
    """Detection probability between equal-time Gaussians at spacelike separation.

    Prepares two normalized width-sigma slice states at t = 0 centred
    +/- separation/2 apart (default separation 6 sigma) and returns the
    probability that a detector matched to one fires on the other.  The
    value is strictly positive however large the separation: localized
    positive-energy states are never orthogonal at spacelike separation.
    """
    if separation is None:
        separation = 6.0 * sigma
    grid = grid or RapidityGrid.default()
    left = normalize(
        from_spacetime_function(
            Slice(0.0, GaussianProfile(-separation / 2.0, sigma)), mass, grid
        )
    )
    right = normalize(
        from_spacetime_function(
            Slice(0.0, GaussianProfile(+separation / 2.0, sigma)), mass, grid
        )
    )
    p = region_probability(left, right)
    interval = invariant_interval((0.0, -separation / 2.0), (0.0, separation / 2.0))
    return {
        "sigma": sigma,
        "separation": separation,
        "mass": mass,
        "interval_kind": interval.kind,
        "interval": interval.value,
        "probability": p.value,
    }
