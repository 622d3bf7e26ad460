"""Tests for exact coordinate-level frame changes."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lorentzqrf.coordinates import (
    EventCoordinate,
    JointCoordinateState,
    VelocityBranch,
    distance_expectation,
    state_to_dict,
    transform_frame,
)
from lorentzqrf.kinematics import (
    SpacetimePoint,
    boost_matrix,
    boost_point,
    invariant_interval,
    rapidity_of_velocity,
)
from lorentzqrf.report import canonical_json


def _state(velocities, event_rows, owner="A"):
    return JointCoordinateState(
        lab_owner=owner,
        lab=tuple(VelocityBranch(v) for v in velocities),
        events=tuple(
            tuple(EventCoordinate(t, x) for t, x in row) for row in event_rows
        ),
    )


def test_validation():
    with pytest.raises(ValueError):
        EventCoordinate(float("inf"), 0.0)
    with pytest.raises(ValueError):
        VelocityBranch(1.0)
    with pytest.raises(ValueError):
        JointCoordinateState("A", (), ())
    with pytest.raises(ValueError):
        _state([0.1, 0.2], [[(0, 0)], [(0, 0), (1, 1)]])
    with pytest.raises(ValueError):
        JointCoordinateState("A", (VelocityBranch(0.5),), ())
    # a velocity names one branch only, whatever the sign of zero
    for vs in ([0.5, 0.5], [0.0, -0.0]):
        with pytest.raises(ValueError, match="branches must be distinct"):
            _state(vs, [[(0, 0)], [(1, 1)]])


def test_events_are_built_into_event_coordinates():
    """(t, x) pairs become EventCoordinates at construction, events that all
    are one are kept as given, and a non-finite pair is rejected there."""
    ev = EventCoordinate(3.0, 4.0)
    state = JointCoordinateState("A", (VelocityBranch(0.5),), (((1, 2.0), ev),))
    assert state.events == ((EventCoordinate(1.0, 2.0), ev),)
    assert all(type(e) is EventCoordinate for e in state.events[0])
    assert state_to_dict(state)["events"] == [[[1.0, 2.0], [3.0, 4.0]]]
    kept = JointCoordinateState("A", (VelocityBranch(0.5),), ((ev, ev),))
    assert kept.events[0][0] is ev
    for bad in ((math.nan, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            JointCoordinateState("A", (VelocityBranch(0.5),), ((bad,),))


def test_event_coordinate_is_the_kinematics_point():
    assert EventCoordinate is SpacetimePoint
    assert tuple(EventCoordinate(1.0, 2.0)) == (1.0, 2.0)


def test_transform_frame_rejects_owner_mismatch():
    s = _state([0.6, -0.3], [[(0.0, 0.0)], [(0.0, 0.0)]], owner="A")
    with pytest.raises(ValueError, match="lab of 'A', not 'C'"):
        transform_frame(s, "C", "A")
    with pytest.raises(ValueError, match="a lab other than 'A'"):
        transform_frame(s, "A", "A")


def test_transform_frame_flips_velocities_exactly():
    s = _state([0.6, -0.3, 0.0], [[(0.0, 0.0)]] * 3, owner="A")
    out = transform_frame(s, "A", "C")
    assert [b.v for b in out.lab] == [-0.6, 0.3, 0.0]
    assert out.lab_owner == "C"
    # the origin is fixed by every boost
    assert out.events == s.events


def test_transform_frame_identity_at_rest():
    rest = _state([0.0], [[(1.0, 2.0), (3.0, -4.0)]])
    out = transform_frame(rest, "A", "C")
    assert out.events == rest.events
    assert out.lab == rest.lab


def test_transform_frame_boost_example():
    # boost by -atanh(0.6): cosh = 1.25, sinh = -0.75
    s = _state([0.6], [[(1.0, 0.0)]])
    ev = transform_frame(s, "A", "C").events[0][0]
    assert ev.t == pytest.approx(1.25, abs=1e-15)
    assert ev.x == pytest.approx(0.75, abs=1e-15)


def test_transform_frame_matrix_oracle():
    s = _state([0.6, 0.8], [[(1.0, 0.0), (0.0, 1.0)], [(1.0, 0.0), (0.0, 1.0)]])
    out = transform_frame(s, "A", "C")
    assert out.lab_owner == "C"
    for branch_in, branch_out, row in zip(s.lab, out.lab, out.events):
        lam = boost_matrix(-rapidity_of_velocity(branch_in.v))
        assert branch_out.v == -branch_in.v
        for ev_in, ev_out in zip([(1.0, 0.0), (0.0, 1.0)], row):
            want = lam @ np.array(ev_in)
            assert ev_out.t == pytest.approx(want[0], abs=1e-14)
            assert ev_out.x == pytest.approx(want[1], abs=1e-14)


def test_transform_frame_identity_lab():
    s = _state([0.0], [[(1.0, 2.0)]], owner="A")
    out = transform_frame(s, "A", "C")
    assert out.lab_owner == "C"
    assert out.events == s.events


def _event_bits(state):
    return [[(ev.t.hex(), ev.x.hex()) for ev in row] for row in state.events]


def test_transform_frame_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        vels = rng.uniform(-0.99, 0.99, size=n)
        rows = [
            [(float(t), float(x)) for t, x in rng.uniform(-10, 10, size=(3, 2))]
        ] * n
        s = _state(vels, rows)
        back = transform_frame(transform_frame(s, "A", "C"), "C", "A")
        assert back.lab == s.lab
        assert _event_bits(back) == _event_bits(s)


def test_distance_expectation_examples():
    s = _state([0.3, -0.7], [[(0.0, 0.0), (1.0, 0.0)]] * 2)
    vals = distance_expectation(s, 0, 1)
    assert all(iv.kind == "timelike" for iv in vals)
    assert [iv.value for iv in vals] == pytest.approx([1.0, 1.0], abs=1e-15)

    after = transform_frame(s, "A", "C")
    vals2 = distance_expectation(after, 0, 1)
    assert [iv.value for iv in vals2] == pytest.approx([1.0, 1.0], abs=1e-12)

    root3 = _state([0.6], [[(0.0, 0.0), (2.0, 1.0)]])
    assert distance_expectation(root3, 0, 1)[0].value == pytest.approx(
        math.sqrt(3.0), abs=1e-15
    )
    after3 = transform_frame(root3, "A", "C")
    assert distance_expectation(after3, 0, 1)[0].value == pytest.approx(
        math.sqrt(3.0), abs=1e-12
    )


def test_distance_expectation_spacelike_tagged():
    s = _state([0.5], [[(0.0, 0.0), (1.0, 2.0)]])
    iv = distance_expectation(s, 0, 1)[0]
    assert iv.kind == "spacelike"
    assert iv.value == pytest.approx(math.sqrt(3.0), abs=1e-15)


def test_distance_invariance_property():
    # the squared interval is smooth in the coordinates, so it is compared
    # at 1e-12 relative to the squared coordinate scale; the square-root
    # readout is ill-conditioned at the light cone and is held to 1e-12
    # relative only where value >= 1
    rng = np.random.default_rng(9)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        vels = rng.uniform(-0.99, 0.99, size=n)
        events = [(float(t), float(x)) for t, x in rng.uniform(-10, 10, size=(4, 2))]
        s = _state(vels, [events] * n)
        moved = transform_frame(s, "A", "C")
        before = distance_expectation(s, 0, 3)
        after = distance_expectation(moved, 0, 3)
        for row_b, row_a, b, a in zip(s.events, moved.events, before, after):
            assert a.kind == b.kind
            sb = b.value**2 if b.kind == "timelike" else -b.value**2
            sa = a.value**2 if a.kind == "timelike" else -a.value**2
            scale = max(
                ev.t**2 + ev.x**2
                for ev in (row_b[0], row_b[3], row_a[0], row_a[3])
            )
            assert abs(sa - sb) <= 1e-12 * max(1.0, scale)
            if b.value >= 1.0:
                assert a.value == pytest.approx(b.value, rel=1e-12)


def test_amplitudes_preserved():
    s = JointCoordinateState(
        "A",
        (VelocityBranch(0.6, 0.3 + 0.4j), VelocityBranch(-0.2, 0.5)),
        ((EventCoordinate(0.0, 0.0),), (EventCoordinate(0.0, 0.0),)),
    )
    out = transform_frame(s, "A", "C")
    assert [b.amplitude for b in out.lab] == [0.3 + 0.4j, 0.5]


# ---------------------------------------------------------------------------
# properties

_coordinates = st.floats(-10.0, 10.0)


def _velocities(bound, most):
    """Distinct branch velocities in [-bound, bound] (0.0 and -0.0 are one)."""
    return st.lists(st.floats(-bound, bound), min_size=1, max_size=most, unique=True)


@st.composite
def _joint_states(draw):
    n_events = draw(st.integers(2, 4))
    lab = tuple(
        VelocityBranch(v, draw(st.complex_numbers(max_magnitude=10.0, allow_nan=False)))
        for v in draw(_velocities(0.99, 4))
    )
    events = tuple(
        tuple(
            EventCoordinate(draw(_coordinates), draw(_coordinates))
            for _ in range(n_events)
        )
        for _ in lab
    )
    return JointCoordinateState(draw(st.sampled_from("ABC")), lab, events)


@given(_joint_states())
def test_transform_frame_round_trip_property(s):
    back = transform_frame(transform_frame(s, s.lab_owner, "Z"), "Z", s.lab_owner)
    assert back.lab_owner == s.lab_owner
    # velocities flip sign twice, amplitudes are untouched and the events'
    # rapidity origin returns to 0, where they are the events as given
    assert back.lab == s.lab
    assert _event_bits(back) == _event_bits(s)


@given(_joint_states())
def test_transform_frame_preserves_causal_kind_and_interval(s):
    moved = transform_frame(s, s.lab_owner, "Z")
    before = distance_expectation(s, 0, 1)
    after = distance_expectation(moved, 0, 1)
    for row_b, row_a, b, a in zip(s.events, moved.events, before, after):
        sb = b.value**2 if b.kind == "timelike" else -b.value**2
        sa = a.value**2 if a.kind == "timelike" else -a.value**2
        scale = max(
            1.0, *(ev.t**2 + ev.x**2 for ev in (row_b[0], row_b[1], row_a[0], row_a[1]))
        )
        assert abs(sa - sb) <= 1e-12 * scale
        # rounding can move a pair across the light cone only from within it
        if abs(sb) > 1e-12 * scale:
            assert a.kind == b.kind


@given(_joint_states())
def test_state_dict_round_trip_property(s):
    """state_to_dict holds the lab and the events in it, and they survive
    the report's canonical JSON text."""
    d = state_to_dict(s)
    for data in (d, json.loads(canonical_json(d))):
        assert data["lab_owner"] == s.lab_owner
        assert [VelocityBranch(b["v"], complex(*b["amplitude"])) for b in data["lab"]] == list(
            s.lab
        )
        assert [[EventCoordinate(*ev) for ev in row] for row in data["events"]] == [
            list(row) for row in s.events
        ]


def _bits(obj):
    """A dataclass's fields with floats as exact bits (float.hex keeps the
    sign of zero)."""
    return tuple(v.hex() if isinstance(v, float) else v for v in vars(obj).values())


def _oracle(f, *args):
    """_bits of f(*args), or ValueError if it raises that."""
    try:
        return _bits(f(*args))
    except ValueError:
        return ValueError


@st.composite
def _wide_joint_states(draw):
    """States whose coordinates reach +-1e308, where boosts and separations
    can overflow."""
    n_events = draw(st.integers(2, 4))
    coordinate = st.one_of(
        _coordinates, st.floats(-1e308, 1e308), st.sampled_from((-1e308, 1e308))
    )
    lab = tuple(VelocityBranch(v) for v in draw(_velocities(0.999, 3)))
    events = tuple(
        tuple(EventCoordinate(draw(coordinate), draw(coordinate)) for _ in range(n_events))
        for _ in lab
    )
    return JointCoordinateState("A", lab, events)


@given(_wide_joint_states())
def test_frame_change_matches_per_event_oracles(s):
    """transform_frame events are the bits of boost_point(-atanh(v), ev) and
    distance_expectation intervals those of invariant_interval; where an
    oracle raises ValueError (overflow), the fast path raises it too."""
    boosted = [
        [_oracle(boost_point, -math.atanh(b.v), ev) for ev in row]
        for b, row in zip(s.lab, s.events)
    ]
    if any(ValueError in row for row in boosted):
        with pytest.raises(ValueError, match="finite"):
            transform_frame(s, "A", "B")
    else:
        moved = transform_frame(s, "A", "B")
        assert [[_bits(ev) for ev in row] for row in moved.events] == boosted
        assert [b.v for b in moved.lab] == [-b.v for b in s.lab]
    for i, j in itertools.product(range(s.n_events), repeat=2):
        want = [_oracle(invariant_interval, row[i], row[j]) for row in s.events]
        if ValueError in want:
            with pytest.raises(ValueError, match="overflows"):
                distance_expectation(s, i, j)
        else:
            assert [_bits(iv) for iv in distance_expectation(s, i, j)] == want
