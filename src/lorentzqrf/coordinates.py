"""Exact quantum-controlled Lorentz transformations of event coordinates.

This is the kinematic counterpart of the wave-packet frame changes: events
are exact `kinematics.SpacetimePoint` labels (t, x), laboratories are
superpositions of velocity branches, and a frame change is one pass over the
branches that boosts each branch's events by -atanh(v) of its own velocity,
flips v -> -v and hands the laboratory to the system that was at rest.
Everything here is closed-form 2x2 matrix algebra per branch, with one
cosh/sinh pair per branch shared by all of its events; no discretization
enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .kinematics import Interval, SpacetimePoint, separation_interval

__all__ = [
    "EventCoordinate",
    "VelocityBranch",
    "JointCoordinateState",
    "transform_frame",
    "distance_expectation",
    "state_to_dict",
    "state_from_dict",
]

# an event pinned to exact coordinates (no spread, no dynamics)
EventCoordinate = SpacetimePoint


@dataclass(frozen=True)
class VelocityBranch:
    """One velocity component of a laboratory state, |v| < 1 strictly."""

    v: float
    amplitude: complex = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v) and abs(self.v) < 1.0):
            raise ValueError(f"branch velocity must satisfy |v| < 1, got {self.v}")


@dataclass(frozen=True)
class JointCoordinateState:
    """Laboratory velocity branches with branch-correlated event lists."""

    lab_owner: str
    lab: tuple[VelocityBranch, ...]
    events: tuple[tuple[EventCoordinate, ...], ...]

    def __post_init__(self) -> None:
        lab = tuple(self.lab)
        if not lab:
            raise ValueError("state needs at least one velocity branch")
        events = tuple(map(tuple, self.events))
        if not {EventCoordinate}.issuperset(map(type, chain.from_iterable(events))):
            # build (t, x) pairs into validated events
            events = tuple(
                tuple(EventCoordinate(*map(float, ev)) for ev in row) for row in events
            )
        if len(events) != len(lab):
            raise ValueError("one event list per velocity branch required")
        lengths = {len(row) for row in events}
        if len(lengths) != 1:
            raise ValueError("event-list length must be uniform across branches")
        object.__setattr__(self, "lab", lab)
        object.__setattr__(self, "events", events)

    @property
    def n_events(self) -> int:
        return len(self.events[0])


def transform_frame(
    state: JointCoordinateState, from_label: str, to_label: str
) -> JointCoordinateState:
    """The frame change from `from_label`'s laboratory to `to_label`'s.

    Each branch's events are boosted by -atanh(v) of that branch's velocity
    and its velocity flips to -v.  Branch amplitudes are untouched, and two
    opposite transforms restore the velocities exactly and the events up to
    floating-point roundoff.  Events are the bits of
    `kinematics.boost_point(-atanh(v), ev)`; one that overflows raises.
    """
    if state.lab_owner != from_label:
        raise ValueError(
            f"state describes the lab of {state.lab_owner!r}, not {from_label!r}"
        )
    lab, events = [], []
    for branch, row in zip(state.lab, state.events):
        alpha = -math.atanh(branch.v)
        ch, sh = math.cosh(alpha), math.sinh(alpha)
        lab.append(VelocityBranch(-branch.v, branch.amplitude))
        events.append(
            tuple(EventCoordinate(ch * ev.t - sh * ev.x, ch * ev.x - sh * ev.t) for ev in row)
        )
    return JointCoordinateState(to_label, tuple(lab), tuple(events))


def distance_expectation(
    state: JointCoordinateState, i: int, j: int
) -> list[Interval]:
    """Invariant interval between events i and j, one value per branch.

    Timelike pairs report proper time sqrt(dt^2 - dx^2); spacelike pairs
    report the tagged proper distance instead.  Because each branch's events
    are boosted coherently, the reported value is branch-independent for
    shared input events and unchanged by transform_frame.  Each value has the
    bits of `kinematics.invariant_interval(row[i], row[j])`.
    """
    return [separation_interval(r[j].t - r[i].t, r[j].x - r[i].x) for r in state.events]


def state_to_dict(state: JointCoordinateState) -> dict:
    """Plain-JSON form of a JointCoordinateState."""
    return {
        "lab_owner": state.lab_owner,
        "lab": [
            {"v": b.v, "amplitude": [b.amplitude.real, b.amplitude.imag]}
            for b in state.lab
        ],
        "events": [[[ev.t, ev.x] for ev in row] for row in state.events],
    }


def state_from_dict(data: dict) -> JointCoordinateState:
    """Inverse of state_to_dict."""
    lab = tuple(
        VelocityBranch(float(b["v"]), complex(*b.get("amplitude", (1.0, 0.0))))
        for b in data["lab"]
    )
    events = tuple(
        tuple(EventCoordinate(float(t), float(x)) for t, x in row)
        for row in data["events"]
    )
    return JointCoordinateState(str(data["lab_owner"]), lab, events)
