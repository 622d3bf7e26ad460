"""Exact special-relativistic kinematics in 1+1 dimensions.

Units: hbar = c = 1 throughout the package.  A particle of mass m > 0 on the
positive-energy mass shell has two-momentum (e, p) with e = sqrt(m^2 + p^2),
rapidity theta defined by p = m sinh(theta), e = m cosh(theta), and velocity
v = tanh(theta).  Boosts act on spacetime column vectors (t, x) through the
matrix

    L(alpha) = [[cosh(alpha), -sinh(alpha)],
                [-sinh(alpha), cosh(alpha)]],

which has unit determinant and composes additively in alpha.  On mass-shell
rapidities the same boost acts as theta -> theta - alpha.

The module holds what the states, frames, coordinates and scenarios build
on: events (`SpacetimePoint`), their boosts and invariant intervals, the mass
check, the velocity-to-rapidity map and exact rapidity addition.
Everything in it is closed-form double-precision arithmetic; there are no
grids or tolerances beyond float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpacetimePoint",
    "Interval",
    "check_mass",
    "rapidity_of_velocity",
    "boost_matrix",
    "boost_point",
    "boost_events",
    "add_rapidity",
    "invariant_interval",
    "separation_interval",
]


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def check_mass(m: float, name: str = "mass") -> float:
    """Validate a rest mass `name` (finite and strictly positive); return it."""
    _require_finite(name, m)
    if m <= 0.0:
        raise ValueError(f"{name} must be positive, got {m!r}")
    return float(m)


@dataclass(frozen=True)
class SpacetimePoint:
    """Event (t, x) in inertial coordinates."""

    t: float
    x: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            _require_finite("spacetime point", self.t, self.x)

    def __iter__(self):
        yield self.t
        yield self.x


@dataclass(frozen=True)
class Interval:
    """Tagged invariant separation: kind is 'timelike' or 'spacelike'.

    value >= 0 is the proper time (timelike, includes lightlike as 0) or the
    proper distance (spacelike).
    """

    kind: str
    value: float


def rapidity_of_velocity(v: float) -> float:
    """Rapidity theta with v = tanh(theta); requires |v| < 1."""
    _require_finite("velocity", v)
    if abs(v) >= 1.0:
        raise ValueError(f"|velocity| must be < 1, got {v!r}")
    return math.atanh(v)


def boost_matrix(alpha: float) -> np.ndarray:
    """2x2 boost matrix acting on (t, x) column vectors; det == 1 exactly."""
    _require_finite("rapidity", alpha)
    ch, sh = math.cosh(alpha), math.sinh(alpha)
    return np.array([[ch, -sh], [-sh, ch]], dtype=float)


def boost_point(alpha: float, point: SpacetimePoint | tuple[float, float]) -> SpacetimePoint:
    """Apply boost_matrix(alpha) to an event (`boost_events` of one)."""
    return boost_events(alpha, (SpacetimePoint(*map(float, point)),))[0]


def boost_events(alpha: float, events: tuple[SpacetimePoint, ...]) -> tuple:
    """boost_matrix(alpha) applied to every event, from one cosh/sinh pair.
    The boost by 0 returns the events as given, so it keeps every bit, signed
    zeros too; an event whose boost overflows raises ValueError."""
    if not alpha:
        return tuple(events)
    ch, sh = math.cosh(alpha), math.sinh(alpha)
    return tuple([SpacetimePoint(ch * ev.t - sh * ev.x, ch * ev.x - sh * ev.t) for ev in events])


def add_rapidity(hi: float, lo: float, delta: float) -> tuple[float, float]:
    """(hi + lo) + delta as a compensated pair (hi', lo'): hi' is the sum
    rounded once and lo' its rounding error.  An origin carried this way
    comes back bit for bit under opposite shifts, (o - w) + w == o, which a
    plain float sum misses by an ulp in about 5% of draws."""
    # Knuth's TwoSum of hi and delta, then of that sum and lo plus its error
    s = hi + delta
    d = s - hi
    lo += (hi - (s - d)) + (delta - d)
    h = s + lo
    d = h - s
    return h, (s - (h - d)) + (lo - d)


def invariant_interval(
    a: SpacetimePoint | tuple[float, float], b: SpacetimePoint | tuple[float, float]
) -> Interval:
    """Invariant separation between two events, tagged by causal character.

    Timelike or lightlike: Interval('timelike', sqrt(dt^2 - dx^2)).
    Spacelike: Interval('spacelike', sqrt(dx^2 - dt^2)).
    """
    ta, xa = a
    tb, xb = b
    _require_finite("spacetime point", ta, xa, tb, xb)
    return separation_interval(tb - ta, xb - xa)


def separation_interval(dt: float, dx: float) -> Interval:
    """invariant_interval of two finite events from their separation (dt, dx);
    raises ValueError when dt^2 - dx^2 overflows double precision."""
    s2 = dt * dt - dx * dx
    if not math.isfinite(s2):
        raise ValueError(f"event separation ({dt!r}, {dx!r}) overflows dt^2 - dx^2")
    if s2 >= 0.0:
        return Interval("timelike", math.sqrt(s2))
    return Interval("spacelike", math.sqrt(-s2))
