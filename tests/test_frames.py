"""Tests for branched frame changes and the cyclic-lattice model."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorentzqrf.coordinates import JointCoordinateState, VelocityBranch, transform_frame
from lorentzqrf.frames import (
    BranchedFrameState,
    CyclicLattice,
    DeltaTime,
    LatticeTwirlState,
    SharpBranch,
    SharpExternalState,
    branch_overlap_matrix,
    change_frame,
    jump_to_frame,
    superposed_slice_state,
    total_norm,
    twirl_factor_fidelity,
    twirl_lattice,
)
from lorentzqrf.states import (
    GaussianProfile,
    Gaussian2D,
    RapidityGrid,
    RapidityState,
    Slice,
    TiltedSlice,
    boost_state,
    from_spacetime_function,
    kg_inner,
    kg_norm,
    normalize,
    resample,
)


def _packet(grid, mass=1.0, center=0.0, sigma=1.0, seed=None):
    prep = Slice(0.0, GaussianProfile(center, sigma))
    return normalize(from_spacetime_function(prep, mass, grid))


def _random_packet(rng, grid, mass=1.0):
    prep = Gaussian2D(
        t0=rng.uniform(-1.0, 1.0),
        x0=rng.uniform(-2.0, 2.0),
        sigma_t=rng.uniform(0.6, 1.4),
        sigma_x=rng.uniform(0.6, 1.4),
        energy=mass * rng.uniform(1.0, 1.4),
        momentum=rng.uniform(-0.5, 0.5) * mass,
    )
    return normalize(from_spacetime_function(prep, mass, grid))


def _two_branch_state(grid, omegas, amps, profile=None, frame_mass=1.0, branch_mass=2.0):
    payloads = tuple(
        (_packet(grid, center=c),) for c in (-1.0, 1.0)[: len(omegas)]
    )
    return BranchedFrameState(
        frame="C",
        frame_mass=frame_mass,
        branch_system="A",
        branches=tuple(SharpBranch(o, a, branch_mass) for o, a in zip(omegas, amps)),
        payload_labels=("B",),
        payloads=payloads,
        time_profile=profile,
    )


# ---------------------------------------------------------------------------
# construction and bookkeeping


def test_branches_sorted_and_payloads_follow(grid):
    pay_hi = _packet(grid, center=3.0)
    pay_lo = _packet(grid, center=-3.0)
    state = BranchedFrameState(
        frame="C",
        frame_mass=1.0,
        branch_system="A",
        branches=(SharpBranch(0.7, 0.6, 2.0), SharpBranch(-0.3, 0.8, 2.0)),
        payload_labels=("B",),
        payloads=((pay_hi,), (pay_lo,)),
    )
    assert [b.rapidity for b in state.branches] == [-0.3, 0.7]
    assert state.payloads[0][0] is pay_lo
    assert state.payloads[1][0] is pay_hi
    assert state.system_labels == ("A", "B")


def test_construction_validation(grid):
    pay = _packet(grid)
    good = dict(
        frame="C",
        frame_mass=1.0,
        branch_system="A",
        branches=(SharpBranch(0.0, 1.0, 2.0),),
        payload_labels=("B",),
        payloads=((pay,),),
    )
    BranchedFrameState(**good)
    with pytest.raises(ValueError):
        BranchedFrameState(**{**good, "branches": ()})
    with pytest.raises(ValueError):
        BranchedFrameState(
            **{
                **good,
                "branches": (SharpBranch(0.0, 1.0, 2.0), SharpBranch(0.0, 1.0, 2.0)),
                "payloads": ((pay,), (pay,)),
            }
        )
    with pytest.raises(ValueError):
        BranchedFrameState(
            **{
                **good,
                "branches": (SharpBranch(0.0, 1.0, 2.0), SharpBranch(0.5, 1.0, 3.0)),
                "payloads": ((pay,), (pay,)),
            }
        )
    with pytest.raises(ValueError):
        BranchedFrameState(**{**good, "frame": "A"})
    # a system label may name one system only
    for labels in (("B", "B"), ("A", "B")):
        with pytest.raises(ValueError, match=f"system label '{labels[0]}' is repeated"):
            BranchedFrameState(**{**good, "payload_labels": labels, "payloads": ((pay, pay),)})
    with pytest.raises(ValueError):
        BranchedFrameState(**{**good, "payloads": ((pay, pay),)})
    other_mass = normalize(
        from_spacetime_function(Slice(0.0, GaussianProfile(0.0, 1.0)), 2.0, grid)
    )
    with pytest.raises(ValueError):
        BranchedFrameState(
            **{
                **good,
                "branches": (SharpBranch(0.0, 1.0, 2.0), SharpBranch(0.5, 1.0, 2.0)),
                "payloads": ((pay,), (other_mass,)),
            }
        )


def test_total_norm_weights_branches(grid):
    state = _two_branch_state(grid, (0.0, 0.5), (0.6, 0.8))
    assert total_norm(state) == pytest.approx(1.0, abs=1e-12)
    double = _two_branch_state(grid, (0.0, 0.5), (1.2, 1.6))
    assert total_norm(double) == pytest.approx(2.0, abs=1e-12)


def test_branch_overlap_matrix_product_detection(grid):
    pay = _packet(grid)
    shared = BranchedFrameState(
        frame="C",
        frame_mass=1.0,
        branch_system="A",
        branches=(SharpBranch(-0.4, 0.6, 2.0), SharpBranch(0.9, 0.8, 2.0)),
        payload_labels=("B",),
        payloads=((pay,), (pay,)),
    )
    g = branch_overlap_matrix(shared)
    # identical payloads: G is the constant matrix -> rank one (product state)
    s = np.linalg.svd(g, compute_uv=False)
    assert s[0] / np.sum(s) == pytest.approx(1.0, abs=1e-12)

    distinct = _two_branch_state(grid, (-0.4, 0.9), (0.6, 0.8))
    s2 = np.linalg.svd(branch_overlap_matrix(distinct), compute_uv=False)
    assert s2[0] / np.sum(s2) < 1.0 - 1e-6


def test_branch_overlap_matrix_matches_pairwise_kg_inner(grid):
    # K = 16 branches; one payload column mixes lattice and off-lattice
    # origins (resampled), the other shares one off-lattice origin
    rng = np.random.default_rng(195)
    k = 16
    step = grid.step
    mixed = [
        boost_state(_random_packet(rng, grid), (i * step) if i % 2 else rng.uniform(-0.4, 0.4))
        for i in range(k)
    ]
    shared = [boost_state(_random_packet(rng, grid), 0.37 * step) for _ in range(k)]
    state = BranchedFrameState(
        frame="C",
        frame_mass=1.0,
        branch_system="A",
        branches=tuple(SharpBranch(0.1 * i - 0.75, 1.0, 2.0) for i in range(k)),
        payload_labels=("B", "D"),
        payloads=tuple(zip(mixed, shared)),
    )
    g = branch_overlap_matrix(state)
    # pairwise products, with the mixed column met on the lattice once, as G
    # defines it (kg_inner alone would skip resampling a pair on one origin)
    want = np.ones((k, k), dtype=complex)
    mixed_col = [resample(row[0]) for row in state.payloads]
    for col in (mixed_col, [row[1] for row in state.payloads]):
        for i, j in np.ndindex(k, k):
            want[i, j] *= kg_inner(col[i], col[j])
    scale = np.max(np.abs(g))
    assert np.max(np.abs(g - want)) <= 1e-14 * scale
    assert np.max(np.abs(g - g.conj().T)) <= 1e-14 * scale


def test_branch_overlap_matrix_stays_within_its_window_bound(grid):
    """Over the span of the column's windows, G drops at most
    1e-16 (max|a| sum w|b| + max|b| sum w|a|) of each full-grid factor
    <a|b> (its docstring); one payload column, so G is that factor."""
    rng = np.random.default_rng(196)
    # a narrow and a wide payload, so the span is the wide one's window, on
    # and off the lattice; the jump resamples them onto one origin
    narrow = normalize(from_spacetime_function(Slice(0.2, GaussianProfile(0.5, 5.0)), 1.0, grid))
    payloads = [narrow, _packet(grid, sigma=0.05)] + [_random_packet(rng, grid) for _ in range(4)]
    omegas = [0.0, 9 * grid.step, -0.3, 0.41, 37.4 * grid.step, -0.77]
    state = change_frame(
        BranchedFrameState(
            frame="C",
            frame_mass=1.0,
            branch_system="A",
            branches=tuple(SharpBranch(o, 1.0, 2.0) for o in omegas),
            payload_labels=("B",),
            payloads=tuple((p,) for p in payloads),
        ),
        "C",
        "A",
    )
    col = [resample(row[0]) for row in state.payloads]
    lo = min(p.window.start for p in col)
    hi = max(p.window.stop for p in col)
    assert 0 < lo and hi < grid.count  # the span leaves sites out
    amps, w = np.array([p.amplitudes for p in col]), grid.weights
    full = (np.conj(amps) * w) @ amps.T
    mag = np.abs(amps)
    peak, mass = mag.max(axis=1), mag @ w
    bound = 1e-16 * (peak[:, None] * mass[None, :] + mass[:, None] * peak[None, :])
    rounding = 1e-15 * np.sqrt(np.outer(mag**2 @ w, mag**2 @ w))
    g = branch_overlap_matrix(state)
    assert np.all(np.abs(g - full) <= bound + rounding)


def test_branch_overlap_matrix_of_zero_payloads_is_zero(grid):
    zero = RapidityState(grid, 1.0, np.zeros(grid.count))
    for origins in ((0.0, 0.0), (0.0, 0.37 * grid.step)):
        state = BranchedFrameState(
            frame="C",
            frame_mass=1.0,
            branch_system="A",
            branches=(SharpBranch(-0.4, 0.6, 2.0), SharpBranch(0.9, 0.8, 2.0)),
            payload_labels=("B", "D"),
            payloads=tuple(
                (_packet(grid), boost_state(zero, -o)) for o in origins
            ),
        )
        g = branch_overlap_matrix(state)
        assert g.shape == (2, 2) and np.array_equal(g, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# change_frame


def test_change_frame_bookkeeping(grid):
    state = _two_branch_state(grid, (-0.3, 0.7), (0.6, 0.8))
    jumped = change_frame(state, "C", "A")
    assert jumped.frame == "A"
    assert jumped.branch_system == "C"
    assert jumped.frame_mass == state.branch_mass
    assert jumped.branch_mass == state.frame_mass
    assert [b.rapidity for b in jumped.branches] == [-0.7, 0.3]
    with pytest.raises(ValueError):
        change_frame(state, "A", "C")
    with pytest.raises(ValueError):
        change_frame(state, "C", "B")


def test_change_frame_payload_is_branchwise_boost(grid):
    h = grid.step
    omega = 32 * h
    state = _two_branch_state(grid, (0.0, omega), (0.6, 0.8))
    jumped = change_frame(state, "C", "A")
    # jumped branches sorted: (-omega, then 0)
    expect_hi = boost_state(state.payloads[1][0], -omega)
    assert jumped.payloads[0][0].origin == expect_hi.origin == omega
    np.testing.assert_array_equal(jumped.payloads[0][0].amplitudes, expect_hi.amplitudes)
    assert jumped.payloads[1][0].origin == 0.0
    np.testing.assert_array_equal(
        jumped.payloads[1][0].amplitudes, state.payloads[0][0].amplitudes
    )


def test_change_frame_round_trip_lattice_exact(grid):
    h = grid.step
    state = _two_branch_state(grid, (-16 * h, 48 * h), (0.6, 0.8j))
    back = change_frame(change_frame(state, "C", "A"), "A", "C")
    assert back.frame == "C" and back.branch_system == "A"
    for b0, b1 in zip(state.branches, back.branches):
        assert b1.rapidity == pytest.approx(b0.rapidity, abs=1e-15)
        assert b1.amplitude == pytest.approx(b0.amplitude, abs=1e-14)
    for row0, row1 in zip(state.payloads, back.payloads):
        np.testing.assert_allclose(
            row1[0].amplitudes, row0[0].amplitudes, atol=1e-13
        )


def test_change_frame_round_trip_generic_rapidity(grid):
    # off-lattice boosts only move the payload origin, so the round trip
    # restores origin and amplitudes exactly
    state = _two_branch_state(grid, (-0.37, 0.81), (0.6, 0.8))
    jumped = change_frame(state, "C", "A")
    assert sorted(row[0].origin for row in jumped.payloads) == [-0.37, 0.81]
    back = change_frame(jumped, "A", "C")
    for row0, row1 in zip(state.payloads, back.payloads):
        assert row1[0].origin == row0[0].origin == 0.0
        np.testing.assert_array_equal(row1[0].amplitudes, row0[0].amplitudes)


@settings(max_examples=15)
@given(
    k=st.integers(1, 6),
    t0=st.floats(0.0, 50.0),
    seed=st.integers(0, 2**16),
)
def test_change_frame_round_trip_property(grid, k, t0, seed):
    """Jumping there and back restores every payload's origin and amplitudes
    bit for bit, for any branch count, branch rapidities, payload offset and
    payload origin in [-1, 1]."""
    rng = np.random.default_rng(seed)
    omegas = rng.choice(np.linspace(-1.5, 1.5, 997), size=k, replace=False)
    payloads = tuple(
        (
            boost_state(
                normalize(
                    from_spacetime_function(
                        Gaussian2D(t0=t0, x0=float(rng.uniform(-1.0, 1.0)), energy=1.0),
                        1.0,
                        grid,
                    )
                ),
                float(rng.uniform(-1.0, 1.0)),
            ),
        )
        for _ in range(k)
    )
    state = BranchedFrameState(
        frame="C",
        frame_mass=1.0,
        branch_system="A",
        branches=tuple(SharpBranch(float(om), 1.0 / math.sqrt(k), 1.3) for om in omegas),
        payload_labels=("B",),
        payloads=payloads,
    )
    back = change_frame(change_frame(state, "C", "A"), "A", "C")
    assert total_norm(back) == total_norm(state)
    for b0, row0, b1, row1 in zip(state.branches, state.payloads, back.branches, back.payloads):
        assert b1.rapidity == b0.rapidity
        assert row1[0].origin == row0[0].origin
        assert np.array_equal(row1[0].amplitudes, row0[0].amplitudes)


@settings(max_examples=30)
@given(
    k=st.integers(1, 6),
    rapidities=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=4, unique=True),
    data=st.data(),
)
def test_back_and_forth_frame_changes_are_bit_exact(grid, k, rapidities, data):
    """k frame changes there and back restore packets (origin and amplitudes)
    and events (every coordinate, signed zeros included) bit for bit."""
    packet = _packet(grid)
    origins = [data.draw(st.floats(-1.0, 1.0)) for _ in rapidities]
    state = BranchedFrameState(
        frame="C",
        frame_mass=1.0,
        branch_system="A",
        branches=tuple(SharpBranch(om, 1.0, 1.3) for om in rapidities),
        payload_labels=("B",),
        payloads=tuple((boost_state(packet, -o),) for o in origins),
    )
    velocities = data.draw(st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=4, unique=True))
    coordinate = st.floats(-1e3, 1e3)
    events = JointCoordinateState(
        "A",
        tuple(VelocityBranch(v) for v in velocities),
        [[(data.draw(coordinate), data.draw(coordinate)) for _ in range(3)] for _ in velocities],
    )
    moved, lab = state, events
    for _ in range(k):
        moved = change_frame(change_frame(moved, "C", "A"), "A", "C")
        lab = transform_frame(transform_frame(lab, "A", "B"), "B", "A")
    for row0, row1 in zip(state.payloads, moved.payloads):
        assert row1[0].origin.hex() == row0[0].origin.hex()
        assert row1[0].amplitudes is row0[0].amplitudes
    assert lab.lab == events.lab
    assert [[(e.t.hex(), e.x.hex()) for e in row] for row in lab.events] == [
        [(e.t.hex(), e.x.hex()) for e in row] for row in events.events
    ]


def test_change_frame_norm_preserved(grid):
    h = grid.step
    for profile in (None, DeltaTime(0.83)):
        state = _two_branch_state(grid, (-16 * h, 48 * h), (0.6, 0.8), profile=profile)
        jumped = change_frame(state, "C", "A")
        assert abs(total_norm(jumped) - total_norm(state)) < 1e-12


def test_change_frame_delta_profile_phases(grid):
    t0 = 0.83
    m_sharp = 2.0
    state = _two_branch_state(
        grid, (0.0, 0.5), (0.6, 0.8), profile=DeltaTime(t0), branch_mass=m_sharp
    )
    jumped = change_frame(state, "C", "A")
    # jumped branch at +0 came from omega=0, at -0.5 from omega=0.5
    by_rap = {round(b.rapidity, 6): b.amplitude for b in jumped.branches}
    assert by_rap[0.0] == pytest.approx(
        0.6 * cmath.exp(1j * m_sharp * t0), abs=1e-14
    )
    assert by_rap[-0.5] == pytest.approx(
        0.8 * cmath.exp(1j * m_sharp * math.cosh(0.5) * t0), abs=1e-14
    )
    assert jumped.time_profile is None


# ---------------------------------------------------------------------------
# superposed slice state


def test_superposed_slice_state_matches_manual_construction(grid):
    profile = GaussianProfile(0.0, 1.0)
    omegas = (0.25, 0.65)
    amps = (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))
    m_a, m_b, m_c = 2.0, 1.0, 3.0
    t_a, t_b = 0.6, 0.2
    out = superposed_slice_state(
        profile,
        list(zip(omegas, amps)),
        payload_time=t_b,
        frame_time=t_a,
        frame_mass=m_c,
        branch_mass=m_a,
        payload_mass=m_b,
        grid=grid,
    )
    assert out.frame == "A" and out.branch_system == "C"
    assert out.frame_mass == m_a and out.branch_mass == m_c

    payload = from_spacetime_function(Slice(t_b, profile), m_b, grid)
    t_c = (m_a / m_c) * t_a
    expected = {}
    for om, amp in zip(omegas, amps):
        phase = cmath.exp(1j * m_c * math.cosh(om) * t_c)
        expected[-om] = (amp * phase, boost_state(payload, -om))
    for branch, row in zip(out.branches, out.payloads):
        amp, pay = expected[branch.rapidity]
        assert branch.amplitude == pytest.approx(amp, abs=1e-14)
        np.testing.assert_allclose(row[0].amplitudes, pay.amplitudes, atol=1e-14)


def test_superposed_slice_payload_is_tilted_slice(grid):
    # branch omega: payload support is the boosted surface, slope +tanh(omega)
    omega = 0.5
    sigma, t_b, m_b = 1.0, 0.4, 1.0
    out = superposed_slice_state(
        GaussianProfile(0.0, sigma),
        [(0.0, 0.6), (omega, 0.8)],
        payload_time=t_b,
        grid=grid,
        payload_mass=m_b,
    )
    pay = {round(b.rapidity, 6): row[0] for b, row in zip(out.branches, out.payloads)}[
        -omega
    ]
    ch, sh = math.cosh(omega), math.sinh(omega)
    surface = TiltedSlice(t_b / ch, math.tanh(omega), GaussianProfile(sh * t_b, sigma * ch))
    tilted = from_spacetime_function(surface, m_b, grid)
    # exact at the payload's own rapidities; on the grid's lattice within
    # the resampling error
    expect = surface.transform(pay.energies, pay.momenta) / ch
    assert np.max(np.abs(pay.amplitudes - expect)) < 1e-12
    keep = np.abs(grid.thetas) < 8.0
    diff = np.max(np.abs(resample(pay).amplitudes - tilted.amplitudes / ch)[keep])
    assert diff < 1e-7


# ---------------------------------------------------------------------------
# cyclic lattice model


def _shift_matrix(size):
    p = np.zeros((size, size))
    for j in range(size):
        p[(j + 1) % size, j] = 1.0
    return p


def _twirl_matrix(size, n_systems):
    p = _shift_matrix(size)
    dim = size**n_systems
    g = np.zeros((dim, dim), dtype=complex)
    for w in range(size):
        pw = np.linalg.matrix_power(p, w)
        block = np.array([[1.0]])
        for _ in range(n_systems):
            block = np.kron(block, pw)
        g += block / math.sqrt(size)
    return g


def test_twirl_matches_matrix_oracle():
    rng = np.random.default_rng(7)
    for size in (4, 8):
        lat = CyclicLattice(size, 0.5)
        branches = []
        seen = set()
        while len(branches) < 3:
            sites = tuple(rng.integers(0, size, size=2))
            if sites in seen:
                continue
            seen.add(sites)
            branches.append((complex(rng.normal(), rng.normal()), sites))
        ext = SharpExternalState(lat, ("B", "C"), tuple(branches))
        twirled = twirl_lattice(ext)
        oracle = _twirl_matrix(size, 2) @ ext.tensor().reshape(-1)
        np.testing.assert_allclose(
            twirled.tensor.reshape(-1), oracle, atol=1e-13
        )


def test_twirl_is_shift_invariant():
    lat = CyclicLattice(8, 0.5)
    ext = SharpExternalState(lat, ("B", "C"), ((0.6, (1, 4)), (0.8j, (2, 7))))
    t = twirl_lattice(ext).tensor
    shifted = np.roll(t, 1, axis=(0, 1))
    np.testing.assert_allclose(shifted, t, atol=1e-15)


@given(
    size=st.integers(2, 9),
    shift=st.integers(0, 8),
    raw=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8), st.floats(0.1, 1.0)),
        min_size=1,
        max_size=4,
    ),
)
def test_twirl_invariant_under_global_lattice_shift(size, shift, raw):
    """Boosting every system by the same lattice step before the twirl
    changes nothing, bit for bit."""
    branches, seen = [], set()
    for a, b, amp in raw:
        sites = (a % size, b % size)
        if sites not in seen:
            seen.add(sites)
            branches.append((complex(amp, 0.5), sites))
    lat = CyclicLattice(size, 0.5)
    ext = SharpExternalState(lat, ("B", "C"), tuple(branches))
    moved = SharpExternalState(
        lat, ("B", "C"), tuple((amp, (a + shift, b + shift)) for amp, (a, b) in branches)
    )
    assert np.array_equal(twirl_lattice(moved).tensor, twirl_lattice(ext).tensor)


def test_jump_factor_uniform_and_relational_sites():
    lat = CyclicLattice(8, 0.5)
    ext = SharpExternalState(lat, ("A", "B"), ((1.0, (2, 6)),))
    factor, rel = jump_to_frame(twirl_lattice(ext), "A")
    np.testing.assert_allclose(np.abs(factor), np.full(8, 1 / math.sqrt(8)), atol=1e-13)
    assert rel.labels == ("B",)
    assert len(rel.branches) == 1
    amp, sites = rel.branches[0]
    assert sites == ((6 - 2) % 8,)
    assert abs(amp) == pytest.approx(1.0, abs=1e-13)


def test_jump_three_systems_relative_sites():
    lat = CyclicLattice(8, 0.5)
    ext = SharpExternalState(
        lat, ("A", "B", "C"), ((0.6, (1, 3, 6)), (0.8, (5, 2, 4)))
    )
    _, rel_a = jump_to_frame(twirl_lattice(ext), "A")
    got = {sites: amp for amp, sites in rel_a.branches}
    assert set(got) == {((3 - 1) % 8, (6 - 1) % 8), ((2 - 5) % 8, (4 - 5) % 8)}
    mags = sorted(abs(v) for v in got.values())
    assert mags == pytest.approx([0.6, 0.8], abs=1e-13)


def test_jump_relational_invariance_under_global_boost():
    lat = CyclicLattice(8, 0.5)
    ext = SharpExternalState(lat, ("A", "B"), ((0.6, (1, 4)), (0.8, (2, 3))))
    _, rel = jump_to_frame(twirl_lattice(ext), "A")
    for shift in (1, 3, 5):
        moved = SharpExternalState(
            lat,
            ("A", "B"),
            tuple(
                (amp, tuple((s + shift) % 8 for s in sites))
                for amp, sites in ext.branches
            ),
        )
        _, rel2 = jump_to_frame(twirl_lattice(moved), "A")
        got = {sites: amp for amp, sites in rel2.branches}
        want = {sites: amp for amp, sites in rel.branches}
        assert set(got) == set(want)
        for sites in want:
            assert got[sites] == pytest.approx(want[sites], abs=1e-12)


def test_jump_fidelity_all_sizes():
    rng = np.random.default_rng(11)
    for size in (4, 8, 16):
        lat = CyclicLattice(size, 0.3)
        branches = []
        seen = set()
        while len(branches) < 4:
            sites = tuple(rng.integers(0, size, size=3))
            if sites in seen:
                continue
            seen.add(sites)
            branches.append((complex(rng.normal(), rng.normal()), sites))
        tw = twirl_lattice(SharpExternalState(lat, ("A", "B", "C"), tuple(branches)))
        for label in ("A", "B", "C"):
            assert twirl_factor_fidelity(tw, label) >= 1.0 - 1e-12


def test_jump_between_frames_consistent():
    # relational description seen from B equals A's description re-centered
    lat = CyclicLattice(8, 0.5)
    ext = SharpExternalState(lat, ("A", "B"), ((1.0, (2, 6)),))
    tw = twirl_lattice(ext)
    _, rel_a = jump_to_frame(tw, "A")  # B relative to A
    _, rel_b = jump_to_frame(tw, "B")  # A relative to B
    site_ab = rel_a.branches[0][1][0]
    site_ba = rel_b.branches[0][1][0]
    assert (site_ab + site_ba) % 8 == 0


def test_jump_rejects_nonfactorizing_state():
    lat = CyclicLattice(4, 0.5)
    tensor = np.zeros((4, 4), dtype=complex)
    tensor[0, 1] = 1.0
    tensor[2, 0] = 0.7  # not shift-invariant, does not factorize
    state = LatticeTwirlState(lat, ("A", "B"), tensor)
    with pytest.raises(ValueError):
        jump_to_frame(state, "A")


def test_jump_rejects_an_unknown_frame_label():
    ext = SharpExternalState(CyclicLattice(4, 0.5), ("A", "B"), ((1.0, (0, 1)),))
    with pytest.raises(ValueError, match="^unknown system 'Z'$"):
        jump_to_frame(twirl_lattice(ext), "Z")


@pytest.mark.parametrize("rapidity", [math.inf, -math.inf, math.nan])
def test_sharp_branch_rejects_a_non_finite_rapidity(rapidity):
    with pytest.raises(ValueError, match="^branch rapidity must be finite"):
        SharpBranch(rapidity, 1.0, 1.0)


def test_lattice_validation():
    with pytest.raises(ValueError):
        CyclicLattice(1, 0.5)
    with pytest.raises(ValueError):
        CyclicLattice(4, 0.0)
    lat = CyclicLattice(4, 0.5)
    with pytest.raises(ValueError):
        SharpExternalState(lat, ("A",), ((1.0, (0, 1)),))
    with pytest.raises(ValueError):
        SharpExternalState(lat, ("A", "B"), ((1.0, (0, 1)), (0.5, (0, 1))))
    with pytest.raises(ValueError):
        LatticeTwirlState(lat, ("A", "B"), np.zeros((4, 3)))
    # a repeated label would leave the frame to jump to ambiguous
    with pytest.raises(ValueError, match="system label 'A' is repeated"):
        LatticeTwirlState(CyclicLattice(2, 0.5), ("A", "A"), np.eye(2))
