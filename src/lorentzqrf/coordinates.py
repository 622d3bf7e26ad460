"""Exact quantum-controlled Lorentz transformations of event coordinates.

This is the kinematic counterpart of the wave-packet frame changes: events
are exact `kinematics.SpacetimePoint` labels (t, x), laboratories are
superpositions of velocity branches, and a frame change is the same
`frames.controlled_boost` that moves packets: each branch's velocity flips,
v -> -v, its events are boosted by -atanh(v), and the laboratory passes to
the system that was at rest.  A branch's event list, like a packet, is its
events as given plus a rapidity origin carried exactly, so opposite frame
changes restore every event bit for bit.  No discretization enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .frames import check_branches, controlled_boost
from .kinematics import (
    Interval, SpacetimePoint, add_rapidity, boost_events, separation_interval
)

__all__ = [
    "EventCoordinate",
    "VelocityBranch",
    "JointCoordinateState",
    "transform_frame",
    "distance_expectation",
    "state_to_dict",
]

# an event pinned to exact coordinates (no spread, no dynamics)
EventCoordinate = SpacetimePoint


def _event(ev) -> EventCoordinate:
    return ev if type(ev) is EventCoordinate else EventCoordinate(*map(float, ev))


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
    """Laboratory velocity branches with branch-correlated event lists.

    A branch's list is its events as given (`given`) plus a rapidity origin
    (`origins`: one compensated pair of `kinematics.add_rapidity` per
    branch), and `events` holds its coordinates in this lab: the given
    events boosted by -origin with `kinematics.boost_events`.  Built from
    rows of events or (t, x) pairs, a state has every origin at 0, where the
    coordinates are the given events themselves.
    """

    lab_owner: str
    lab: tuple[VelocityBranch, ...]
    events: tuple[tuple[EventCoordinate, ...], ...]

    def __post_init__(self) -> None:
        lab = tuple(self.lab)
        events = tuple(tuple(map(_event, row)) for row in self.events)
        check_branches([b.v for b in lab], events, (self.lab_owner,))
        object.__setattr__(self, "lab", lab)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "given", events)
        object.__setattr__(self, "origins", ((0.0, 0.0),) * len(lab))

    @property
    def n_events(self) -> int:
        return len(self.events[0])


def transform_frame(
    state: JointCoordinateState, from_label: str, to_label: str
) -> JointCoordinateState:
    """The frame change from `from_label`'s laboratory to `to_label`'s.

    Each branch's events are boosted by -atanh(v) of that branch's velocity
    and its velocity flips to -v.  Branch amplitudes are untouched, and two
    opposite transforms restore the velocities and the events exactly.
    Events are the bits of `kinematics.boost_point(-atanh(v), ev)` for the
    events as given; one that overflows raises.
    """
    if state.lab_owner != from_label:
        raise ValueError(
            f"state describes the lab of {state.lab_owner!r}, not {from_label!r}"
        )
    if to_label == from_label:
        raise ValueError(f"the frame change needs a lab other than {from_label!r}")
    lab, origins = controlled_boost(
        state.lab, state.origins, lambda branch: math.atanh(branch.v),
        lambda branch: VelocityBranch(-branch.v, branch.amplitude),
        lambda origin, alpha: add_rapidity(*origin, -alpha),
    )
    # flipped velocities stay distinct and the given events stay valid, so
    # the new state computes its coordinates once and validates nothing again
    moved = object.__new__(JointCoordinateState)
    moved.__dict__.update(
        lab_owner=to_label, lab=lab, given=state.given, origins=origins,
        events=tuple([boost_events(-hi, row) for row, (hi, _) in zip(state.given, origins)]),
    )
    return moved


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
    """Plain-JSON form of a JointCoordinateState: its events in its lab."""
    return {
        "lab_owner": state.lab_owner,
        "lab": [
            {"v": b.v, "amplitude": [b.amplitude.real, b.amplitude.imag]}
            for b in state.lab
        ],
        "events": [[[ev.t, ev.x] for ev in row] for row in state.events],
    }
