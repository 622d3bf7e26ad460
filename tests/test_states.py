"""Rapidity-grid states: constructors, wavefunctions, boosts, propagator.

Oracles used here and nowhere in production code:
  * scipy.integrate.dblquad / quad reintegrations of the closed-form
    spacetime transforms;
  * scipy.special Hankel/Macdonald functions for the two-point function
    (W timelike = -(i pi/2) H0^(2)(m s), spacelike = K0(m s'));
  * a dense equal-time x-quadrature of (i/2pi) integral dx (psi* d_t phi - h.c.)
    for the conserved inner product.

Frozen regression constants below were computed from those oracles.
"""

from __future__ import annotations

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, trapezoid
from scipy.special import hankel2, j0, k0, y0

from lorentzqrf import states
from lorentzqrf.acceptance import _random_state
from lorentzqrf.kinematics import SpacetimePoint, boost_point
from lorentzqrf.states import (
    Gaussian2D,
    GaussianProfile,
    PropagatorQuery,
    RapidityGrid,
    RapidityState,
    Slice,
    TiltedSlice,
    boost_state,
    default_probe_points,
    from_spacetime_function,
    kg_equation_residual,
    kg_inner,
    kg_norm,
    normalize,
    propagator,
    resample,
    slice_profile,
    translate,
    wavefunction,
    wavefunction_grid,
)


def _random_source(rng, mass=1.0, t0=0.0, x0=0.0):
    return Gaussian2D(
        t0=t0 + float(rng.uniform(-0.5, 0.5)),
        x0=x0 + float(rng.uniform(-0.5, 0.5)),
        sigma_t=float(rng.uniform(0.6, 1.4)),
        sigma_x=float(rng.uniform(0.6, 1.4)),
        energy=mass * float(rng.uniform(1.0, 1.8)),
        momentum=float(rng.uniform(-0.8, 0.8)),
    )


def _random_packet(rng, grid, mass=1.0):
    return normalize(from_spacetime_function(_random_source(rng, mass), mass, grid))


# ---------------------------------------------------------------------------
# grids


def test_grid_validation():
    with pytest.raises(ValueError):
        RapidityGrid(0.0, -0.1, 16)
    with pytest.raises(ValueError):
        RapidityGrid(0.0, 0.1, 4)
    g = RapidityGrid.default()
    assert g.count == 4096
    assert g.theta_min == -10.0
    assert g.theta_max == pytest.approx(10.0, abs=1e-12)
    # trapezoid weights integrate a smooth function accurately
    total = float(np.sum(g.weights * np.cosh(g.thetas) ** -2))
    assert total == pytest.approx(0.5 * quad(lambda t: np.cosh(t) ** -2, -10, 10)[0], abs=1e-12)


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: RapidityGrid(math.nan, 0.1, 16),
            "grid theta_min and step must be finite, got nan and 0.1",
        ),
        (
            lambda: RapidityGrid(0.0, math.inf, 16),
            "grid theta_min and step must be finite, got 0.0 and inf",
        ),
        (lambda: RapidityGrid.symmetric(0.0), "half_width must be positive"),
    ],
    ids=["nan-theta_min", "inf-step", "symmetric-zero-width"],
)
def test_grid_rejects_bad_parameters_by_name(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_normalize_rejects_a_zero_state(grid):
    state = from_spacetime_function(Slice(0.0, GaussianProfile()), 1.0, grid)
    zero = state.with_amplitudes(np.zeros_like(state.amplitudes))
    with pytest.raises(ValueError, match=r"^cannot normalize state with norm 0\.0$"):
        normalize(zero)


@pytest.mark.parametrize(
    "make",
    [
        lambda: RapidityGrid.symmetric(10.0, 4096.0),
        lambda: RapidityGrid(-1.0, 0.1, 10.5),
        lambda: RapidityGrid(-1.0, 0.1, 16.0),
        lambda: RapidityGrid(-1.0, 0.1, True),
    ],
    ids=["symmetric-float", "fraction", "integral-float", "bool"],
)
def test_grid_rejects_non_integer_count(make):
    with pytest.raises(TypeError, match="count"):
        make()


def test_grid_accepts_numpy_integer_count():
    assert RapidityGrid(-1.0, 0.1, np.int64(16)) == RapidityGrid(-1.0, 0.1, 16)


# ---------------------------------------------------------------------------
# constructors


def test_slice_gaussian_amplitudes(grid):
    s = from_spacetime_function(Slice(0.0, GaussianProfile(0.0, 1.0)), 1.0, grid)
    expect = 2.0 * math.sqrt(math.pi) * np.exp(-np.sinh(grid.thetas) ** 2)
    assert np.max(np.abs(s.amplitudes - expect)) < 1e-12


def test_gaussian2d_against_quadrature(grid):
    f = Gaussian2D(t0=0.4, x0=-0.3, sigma_t=0.7, sigma_x=1.1, energy=1.3, momentum=0.5)
    s = from_spacetime_function(f, 1.0, grid)
    for j in [1800, 2048, 2300]:
        th = grid.thetas[j]
        e, p = math.cosh(th), math.sinh(th)

        def integrand_t(t):
            return np.exp(1j * e * t) * np.exp(
                -((t - f.t0) ** 2) / (4 * f.sigma_t**2) - 1j * f.energy * (t - f.t0)
            )

        def integrand_x(x):
            return np.exp(-1j * p * x) * np.exp(
                -((x - f.x0) ** 2) / (4 * f.sigma_x**2) + 1j * f.momentum * (x - f.x0)
            )

        it = complex(
            quad(lambda t: integrand_t(t).real, -8, 8, limit=200)[0],
            quad(lambda t: integrand_t(t).imag, -8, 8, limit=200)[0],
        )
        ix = complex(
            quad(lambda x: integrand_x(x).real, -12, 12, limit=200)[0],
            quad(lambda x: integrand_x(x).imag, -12, 12, limit=200)[0],
        )
        assert abs(s.amplitudes[j] - it * ix) < 1e-10 * max(1.0, abs(it * ix))


def _full_transform(f, e, p):
    """Gaussian2D.transform with the exponential evaluated at every site."""
    amp = 4.0 * math.pi * f.sigma_t * f.sigma_x
    return amp * np.exp(
        1j * (e * f.t0 - p * f.x0)
        - f.sigma_t**2 * (e - f.energy) ** 2
        - f.sigma_x**2 * (p - f.momentum) ** 2
    )


_WIDTHS = st.floats(-3.0, 2.0).map(lambda v: 10.0**v)  # narrow to wide


@settings(max_examples=60, deadline=None)
@given(
    t0=st.floats(-10.0, 10.0),
    x0=st.floats(-10.0, 10.0),
    sigma_t=_WIDTHS,
    sigma_x=_WIDTHS,
    energy=st.floats(-100.0, 100.0),  # far off shell at either sign
    momentum=st.floats(-100.0, 100.0),
    mass=st.floats(0.1, 5.0),
)
def test_gaussian2d_transform_skips_only_underflowing_sites(
    grid, t0, x0, sigma_t, sigma_x, energy, momentum, mass
):
    f = Gaussian2D(t0, x0, sigma_t, sigma_x, energy, momentum)
    e, p = mass * np.cosh(grid.thetas), mass * np.sinh(grid.thetas)
    assert np.array_equal(f.transform(e, p), _full_transform(f, e, p))


@pytest.mark.parametrize("field", ["sigma_t", "sigma_x"])
def test_gaussian2d_rejects_a_width_whose_square_overflows(grid, field):
    limit = math.sqrt(sys.float_info.max)
    Gaussian2D(**{field: limit})  # the largest width still squares
    with pytest.raises(ValueError, match=f"^{field} must be at most 1.341e\\+154, "):
        from_spacetime_function(Gaussian2D(**{field: 2e154}), 1.0, grid)


def test_gaussian2d_rejects_widths_whose_prefactor_overflows(grid):
    # each width squares, but 4*pi*sigma_t*sigma_x does not fit a float
    message = (
        r"^sigma_t \* sigma_x must be at most 1.431e\+307, .* "
        r"got sigma_t=1e\+154 and sigma_x=1e\+154$"
    )
    with pytest.raises(ValueError, match=message):
        from_spacetime_function(Gaussian2D(sigma_t=1e154, sigma_x=1e154), 1.0, grid)
    Gaussian2D(sigma_t=1e154, sigma_x=1e153)  # prefactor 1.3e308 still fits


def test_tilted_slice_against_quadrature(grid):
    prof = GaussianProfile(0.3, 0.9)
    f = TiltedSlice(0.2, -0.4, prof)
    s = from_spacetime_function(f, 1.0, grid)
    for j in [1900, 2048, 2200]:
        th = grid.thetas[j]
        e, p = math.cosh(th), math.sinh(th)

        def integrand(x):
            return np.exp(1j * (e * (f.t0 + f.tilt * x) - p * x)) * prof(x)

        val = complex(
            quad(lambda x: integrand(x).real, -10, 10, limit=200)[0],
            quad(lambda x: integrand(x).imag, -10, 10, limit=200)[0],
        )
        assert abs(s.amplitudes[j] - val) < 1e-10 * max(1.0, abs(val))
    with pytest.raises(ValueError):
        TiltedSlice(0.0, 1.0, prof)


def test_support_truncation_note(grid):
    # sigma = 2e-4 spreads momentum beyond the default grid edge p = sinh(10)
    s = from_spacetime_function(Slice(0.0, GaussianProfile(0.0, 2e-4)), 1.0, grid)
    assert any("support" in n for n in s.notes)


# ---------------------------------------------------------------------------
# wavefunctions


def test_wavefunction_grid_matches_pointwise(grid):
    s = _random_packet(np.random.default_rng(1), grid)
    ts = np.linspace(-1.0, 1.0, 7)
    xs = np.linspace(-2.0, 2.0, 5)
    table = wavefunction_grid(s, ts, xs)
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            assert abs(table[i, j] - wavefunction(s, (t, x))) < 1e-13


def test_slice_profile_round_trip(grid):
    prof = GaussianProfile(0.7, 1.3, momentum=-0.4)
    s = from_spacetime_function(Slice(0.25, prof), 1.0, grid)
    xs = np.linspace(-6.0, 8.0, 400)
    rec = slice_profile(s, 0.25, xs)
    assert np.max(np.abs(rec - prof(xs))) < 1e-9
    # translation moves the reconstructed profile rigidly
    s2 = translate(s, 0.1, 0.6)
    rec2 = slice_profile(s2, 0.35, xs)
    assert np.max(np.abs(rec2 - prof(xs - 0.6))) < 1e-9


def _dense_sum(state, coeffs, ts, xs):
    """sum_j c_j exp(-i E_j t + i p_j x) over every site, in one dense product."""
    ts = np.asarray(ts, dtype=float)
    xs = np.asarray(xs, dtype=float)
    left = np.exp(-1j * np.outer(ts, state.energies)) * coeffs
    return left @ np.exp(1j * np.outer(state.momenta, xs))


def _random_amplitudes(rng, grid, center, width):
    """Complex noise under a Gaussian envelope in rapidity."""
    envelope = np.exp(-((grid.thetas - center) ** 2) / (2.0 * width**2))
    noise = rng.normal(size=grid.count) + 1j * rng.normal(size=grid.count)
    return envelope * noise


def test_wavefunction_grid_matches_dense_sum(grid):
    rng = np.random.default_rng(21)
    for _ in range(4):
        a = _random_amplitudes(
            rng, grid, float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.2, 2.0))
        )
        s = RapidityState(grid, float(rng.uniform(0.5, 2.0)), a)
        ts = rng.uniform(-3.0, 3.0, size=9)
        xs = rng.uniform(-5.0, 5.0, size=13)
        coeffs = s.weights * s.amplitudes
        scale = float(np.sum(np.abs(coeffs)))
        dense = _dense_sum(s, coeffs, ts, xs)
        assert np.max(np.abs(wavefunction_grid(s, ts, xs) - dense)) < 1e-13 * scale
        assert abs(wavefunction(s, (ts[2], xs[5])) - dense[2, 5]) < 1e-13 * scale


def test_wavefunction_grid_blocks_over_a_full_support_state(grid):
    # nonzero at both grid ends, so the window is the whole grid; both axes
    # span two full blocks and a partial one
    rng = np.random.default_rng(22)
    a = rng.normal(size=grid.count) + 1j * rng.normal(size=grid.count)
    s = RapidityState(grid, 0.01, a)
    block = states._BLOCK_ENTRIES // grid.count
    ts = rng.uniform(-50.0, 50.0, size=2 * block + 37)
    xs = rng.uniform(-50.0, 50.0, size=2 * block + 5)
    coeffs = s.weights * s.amplitudes
    table = wavefunction_grid(s, ts, xs)
    assert table.shape == (ts.size, xs.size)
    dense = _dense_sum(s, coeffs, ts, xs)
    assert np.max(np.abs(table - dense)) < 1e-13 * float(np.sum(np.abs(coeffs)))


def test_wavefunction_grid_splits_evenly_spaced_axes(grid):
    # the full-support state of the test above on np.linspace axes, which
    # the kernel splits into anchors and offsets
    rng = np.random.default_rng(25)
    a = rng.normal(size=grid.count) + 1j * rng.normal(size=grid.count)
    s = RapidityState(grid, 0.01, a)
    coeffs = s.weights * s.amplitudes
    scale = float(np.sum(np.abs(coeffs)))
    block = states._BLOCK_ENTRIES // grid.count
    ts = np.linspace(-50.0, 50.0, 2 * block + 37)
    xs = np.linspace(-50.0, 50.0, 2 * block + 5)
    assert states._split(ts, 18)[1].size == 18
    assert states._split(xs, block)[1].size == block
    bumped = np.linspace(-40.0, 30.0, 151)
    bumped[75] += 8 * states._PROGRESSION_ULPS * np.spacing(40.0)
    assert states._split(bumped, 13) is None
    cases = [
        (ts, xs),
        (np.linspace(3.0, -4.0, 40), np.linspace(20.0, -30.0, 301)),  # descending
        (np.full(5, 0.7), np.linspace(-2.0, 2.0, 9)),  # constant t
        (np.linspace(-1.0, 1.0, 7), np.full(6, -1.3)),  # constant x
        (np.linspace(-2.0, 1.0, 3), bumped),
    ] + [
        (np.linspace(-1.0, 2.0, nt), np.linspace(-3.0, 5.0, nx))
        for nt in range(1, 5)
        for nx in range(1, 5)
    ]
    for ts, xs in cases:
        table = wavefunction_grid(s, ts, xs)
        assert table.shape == (ts.size, xs.size)
        assert np.max(np.abs(table - _dense_sum(s, coeffs, ts, xs))) < 1e-13 * scale


@st.composite
def _synthesis_axes(draw):
    """An axis of one of the kinds the kernel tells apart, within +-50."""
    kind = draw(st.sampled_from(["ascending", "descending", "constant", "random", "bumped"]))
    size = draw(st.integers(1, 4) | st.integers(5, 130))
    a, b = sorted(draw(st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=2)))
    if kind == "constant":
        return np.full(size, a)
    if kind == "random":
        return np.random.default_rng(draw(st.integers(0, 2**16))).uniform(-50.0, 50.0, size)
    v = np.linspace(a, b, size)
    if kind == "bumped":  # off a progression by twice the tolerance
        v[size // 2] += 8 * states._PROGRESSION_ULPS * np.spacing(np.max(np.abs(v)))
    return v[::-1].copy() if kind == "descending" else v


@settings(max_examples=30)
@given(ts=_synthesis_axes(), xs=_synthesis_axes())
def test_wavefunction_grid_matches_dense_sum_property(grid, ts, xs):
    # the full-support state of the block tests: rows and columns of every
    # kind, in one tile or several
    rng = np.random.default_rng(27)
    a = rng.normal(size=grid.count) + 1j * rng.normal(size=grid.count)
    s = RapidityState(grid, 0.01, a)
    coeffs = s.weights * s.amplitudes
    table = wavefunction_grid(s, ts, xs)
    assert table.shape == (ts.size, xs.size)
    dense = _dense_sum(s, coeffs, ts, xs)
    assert np.max(np.abs(table - dense)) < 1e-13 * float(np.sum(np.abs(coeffs)))


def test_wavefunction_grid_long_line_at_sampled_points(grid):
    s = normalize(from_spacetime_function(Slice(0.3, GaussianProfile(0.2, 0.05)), 1.0, grid))
    xs = np.linspace(-2.5, 2.5, 20001)
    line = wavefunction_grid(s, [0.3], xs)[0]
    spots = np.random.default_rng(26).integers(0, xs.size, size=40)
    coeffs = s.weights * s.amplitudes
    dense = _dense_sum(s, coeffs, [0.3], xs[spots])[0]
    assert np.max(np.abs(line[spots] - dense)) < 1e-13 * float(np.sum(np.abs(coeffs)))


def test_synthesis_of_single_site_and_empty_states(grid):
    ts = np.array([-0.4, 0.0, 1.7])
    xs = np.array([-2.0, 0.3, 0.9, 5.0])
    a = np.zeros(grid.count, dtype=complex)
    a[1234] = 0.8 - 0.3j
    s = RapidityState(grid, 1.5, a)
    e, p, w = s.energies[1234], s.momenta[1234], s.weights[1234]
    exact = w * a[1234] * np.exp(-1j * (np.outer(ts, np.full(xs.size, e)) - p * xs))
    assert np.max(np.abs(wavefunction_grid(s, ts, xs) - exact)) < 1e-15
    empty = RapidityState(grid, 1.5, np.zeros(grid.count))
    table = wavefunction_grid(empty, ts, xs)
    assert table.shape == (3, 4) and not np.any(table)
    assert wavefunction(empty, (0.2, 0.1)) == 0j
    assert not np.any(slice_profile(empty, 0.0, xs))


def test_slice_profile_matches_dense_fourier_sum(grid):
    rng = np.random.default_rng(23)
    for _ in range(3):
        a = _random_amplitudes(
            rng, grid, float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.2, 1.5))
        )
        s = RapidityState(grid, float(rng.uniform(0.5, 2.0)), a)
        t0 = float(rng.uniform(-1.0, 1.0))
        xs = np.linspace(-8.0, 8.0, 301)
        # phi(x) = (1/2pi) sum_j dp_j exp(i p_j x) a_j exp(-i E_j t0), dp = 2 E w
        dp = 2.0 * s.energies * s.weights
        terms = dp * s.amplitudes * np.exp(-1j * s.energies * t0)
        dense = np.exp(1j * np.outer(xs, s.momenta)) @ terms / (2.0 * math.pi)
        scale = float(np.sum(np.abs(terms))) / (2.0 * math.pi)
        assert np.max(np.abs(slice_profile(s, t0, xs) - dense)) < 1e-13 * scale


def test_wavefunction_grid_memory_is_bounded(grid):
    s = normalize(from_spacetime_function(Slice(0.0, GaussianProfile(0.0, 0.5)), 1.0, grid))
    xs = np.linspace(-25.0, 25.0, 20001)
    tracemalloc.start()
    try:
        line = wavefunction_grid(s, [0.0], xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert line.shape == (1, xs.size)
    assert peak < 64 * 2**20


def test_wavefunction_grid_working_memory_is_two_tiles(grid):
    # on a full-support state, random axes and a long evenly spaced line
    # both keep the traced peak, less the output, within two tiles
    rng = np.random.default_rng(22)
    a = rng.normal(size=grid.count) + 1j * rng.normal(size=grid.count)
    s = RapidityState(grid, 0.01, a)
    block = states._BLOCK_ENTRIES // grid.count
    cases = [
        (rng.uniform(-50.0, 50.0, size=2 * block + 37), rng.uniform(-50.0, 50.0, size=2 * block + 5)),
        (np.zeros(1), np.linspace(-25.0, 25.0, 20001)),
    ]
    for ts, xs in cases:
        tracemalloc.start()
        try:
            table = wavefunction_grid(s, ts, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - table.nbytes <= 2 * states._BLOCK_ENTRIES * 16


def _synthesis_bits(state, seed):
    """Bytes of every kind of spectral sum on the state, at seeded points."""
    rng = np.random.default_rng(seed)
    points = [SpacetimePoint(t, x) for t, x in rng.uniform(-5.0, 5.0, size=(4, 2))]
    values = [
        *[wavefunction(state, pt) for pt in points],
        wavefunction_grid(state, np.linspace(-1.0, 2.0, 9), np.linspace(-3.0, 3.0, 40)),
        wavefunction_grid(state, rng.uniform(-5.0, 5.0, 7), rng.uniform(-5.0, 5.0, 30)),
        slice_profile(state, 0.3, np.linspace(-4.0, 4.0, 50)),
        kg_equation_residual(state, points),
    ]
    return [np.asarray(v).tobytes() for v in values]


def _windowed_states():
    """Random states with windows of 10-4096 sites on the default grid, at
    origin 0 and off the lattice, and one window of 6000 sites on a finer grid."""
    rng = np.random.default_rng(31)
    cases = []
    for k, n in enumerate([10, 57, 600, 2049, 4096]):
        grid = RapidityGrid.default()
        a = np.zeros(grid.count, dtype=complex)
        start = int(rng.integers(0, grid.count - n + 1))
        a[start : start + n] = rng.normal(size=n) + 1j * rng.normal(size=n)
        origin = 0.0 if k % 2 else float(rng.uniform(-0.5, 0.5))
        cases.append((grid, float(rng.uniform(0.5, 2.0)), a, origin))
    fine = RapidityGrid.symmetric(10.0, 20001)
    a = np.zeros(fine.count, dtype=complex)
    a[7000:13000] = rng.normal(size=6000) + 1j * rng.normal(size=6000)
    cases.append((fine, 1.3, a, 0.37 * fine.step))
    return cases


def test_cached_spectrum_changes_no_bits():
    for grid, mass, a, origin in _windowed_states():
        cold = _synthesis_bits(RapidityState(grid, mass, a, origin=origin), 1)
        warm = RapidityState(grid, mass, a, origin=origin)
        _synthesis_bits(warm, 2)
        assert _synthesis_bits(warm, 1) == cold
        # a boost drops the old origin's E and p: a warm state boosted by a
        # lattice and an off-lattice rapidity sums as a cold one at its origin
        for alpha in (3 * grid.step, 0.123):
            moved = boost_state(warm, alpha)
            fresh = RapidityState(grid, mass, a, origin=moved.origin, origin_lo=moved.origin_lo)
            assert _synthesis_bits(moved, 3) == _synthesis_bits(fresh, 3)


def test_window_spectrum_is_computed_once_per_state(grid, monkeypatch):
    # a cost guard that needs no timing: 121 scalar wavefunctions take the
    # window's cosh and sinh once, and a boosted copy once more
    s = _random_packet(np.random.default_rng(8), grid)
    calls = {"cosh": 0, "sinh": 0}
    for name in calls:

        def counted(*args, _fn=getattr(np, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    points = np.random.default_rng(9).uniform(-2.0, 2.0, size=(121, 2))
    for expect in (1, 2):
        for t, x in points:
            wavefunction(s, (t, x))
        assert calls == {"cosh": expect, "sinh": expect}
        s = boost_state(s, 0.4)


def test_synthesis_takes_no_complex_exponential(grid, monkeypatch):
    # every phase factor of a spectral sum comes from states._cis: scalar,
    # gridded (evenly spaced and random axes), slice-profile and residual
    # sums call np.exp on no complex array
    s = _random_packet(np.random.default_rng(10), grid)
    complex_calls = []

    def counted(x, *args, _fn=np.exp, **kwargs):
        if np.iscomplexobj(x):
            complex_calls.append(np.shape(x))
        return _fn(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    rng = np.random.default_rng(11)
    wavefunction(s, (0.4, -0.7))
    wavefunction_grid(s, np.linspace(-1.0, 1.0, 9), np.linspace(-2.0, 2.0, 40))
    wavefunction_grid(s, rng.uniform(-2.0, 2.0, 7), rng.uniform(-2.0, 2.0, 30))
    slice_profile(s, 0.2, np.linspace(-3.0, 3.0, 50))
    kg_equation_residual(s, [(0.1, 0.2), (-0.3, 1.1)])
    assert complex_calls == []


def _ld_cis(phase):
    ph = np.asarray(phase, dtype=np.longdouble)
    return np.cos(ph), np.sin(ph)


def test_cis_matches_long_double_cos_and_sin():
    rng = np.random.default_rng(12)
    for scale in (1e-3, 1.0, np.pi, 1e2, 1e4, 1e6):
        phase = rng.uniform(-scale, scale, 20000)
        z = states._cis(phase)
        cos, sin = _ld_cis(phase)
        assert np.max(np.abs(z.real - cos)) <= 4e-16
        assert np.max(np.abs(z.imag - sin)) <= 4e-16
        assert np.max(np.abs(np.abs(z) - 1.0)) <= 4.5e-16
    # spot checks up to 1e15, and multiples of pi/2, where cos or sin is near 0
    phase = np.concatenate(
        [rng.uniform(-1.0, 1.0, 50) * 10.0**k for k in range(7, 16)]
        + [np.pi / 2 * np.arange(-8, 9), [0.5 * np.pi, np.pi, 1e15 + 0.5]]
    )
    z = states._cis(phase)
    cos, sin = _ld_cis(phase)
    assert np.max(np.abs(z.real - cos)) <= 4e-16
    assert np.max(np.abs(z.imag - sin)) <= 4e-16


def test_cis_special_values():
    one = complex(states._cis(0.0))
    assert one == 1 + 0j and math.copysign(1.0, one.imag) == 1.0
    neg = complex(states._cis(-0.0))
    assert neg.real == 1.0 and neg.imag == 0.0 and math.copysign(1.0, neg.imag) == -1.0
    with np.errstate(invalid="ignore"):
        bad = states._cis(np.array([np.inf, -np.inf, np.nan]))
    assert np.all(np.isnan(bad.real)) and np.all(np.isnan(bad.imag))


def test_cis_bits_do_not_depend_on_layout_or_length():
    rng = np.random.default_rng(13)
    phase = rng.uniform(-1e4, 1e4, 3000)
    whole = states._cis(phase)
    wide = np.zeros(3 * phase.size + 1)
    wide[1::3] = phase
    assert states._cis(wide[1::3]).tobytes() == whole.tobytes()
    table = np.zeros((phase.size, 2))
    table[:, 1] = phase
    assert states._cis(table[:, 1]).tobytes() == whole.tobytes()
    for n in [*range(1, 70), 127, 128, 129, 1000, 2999]:
        for start in (0, 1, 3, 5):
            assert states._cis(phase[start : start + n]).tobytes() == whole[start : start + n].tobytes()
    for k in range(0, phase.size, 97):
        assert complex(states._cis(phase[k])) == complex(whole[k])
    assert states._cis(phase.reshape(30, 100)).tobytes() == whole.tobytes()


# ---------------------------------------------------------------------------
# inner product


def test_kg_inner_equal_time_oracle(grid):
    """1/(2pi) * i integral dx (psi* d_t phi - (d_t psi)* phi) == kg_inner."""
    rng = np.random.default_rng(2)
    a = _random_packet(rng, grid)
    b = _random_packet(rng, grid)
    xs = np.linspace(-60.0, 60.0, 20001)
    t = 0.13
    psi = wavefunction_grid(a, np.array([t]), xs)[0]
    phi = wavefunction_grid(b, np.array([t]), xs)[0]
    a_dt = a.with_amplitudes(a.amplitudes * (-1j * a.energies))
    b_dt = b.with_amplitudes(b.amplitudes * (-1j * b.energies))
    dpsi = wavefunction_grid(a_dt, np.array([t]), xs)[0]
    dphi = wavefunction_grid(b_dt, np.array([t]), xs)[0]
    integrand = np.conj(psi) * dphi - np.conj(dpsi) * phi
    val = 1j * trapezoid(integrand, xs) / (2.0 * math.pi)
    assert abs(val - kg_inner(a, b)) < 1e-6


def test_kg_inner_conserved_under_maps(grid):
    rng = np.random.default_rng(3)
    a = _random_packet(rng, grid)
    b = _random_packet(rng, grid)
    i0 = kg_inner(a, b)
    assert abs(kg_inner(translate(a, -0.7, 0.0), translate(b, -0.7, 0.0)) - i0) < 1e-14
    assert abs(kg_inner(translate(a, 0.2, -0.5), translate(b, 0.2, -0.5)) - i0) < 1e-14
    assert kg_norm(normalize(a)) == pytest.approx(1.0, abs=1e-14)


def test_kg_inner_mismatch_errors(grid):
    a = _random_packet(np.random.default_rng(4), grid)
    other = RapidityGrid.symmetric(8.0, 1024)
    b = from_spacetime_function(Slice(0.0, GaussianProfile()), 1.0, other)
    with pytest.raises(ValueError):
        kg_inner(a, b)
    c = from_spacetime_function(Slice(0.0, GaussianProfile()), 2.0, grid)
    with pytest.raises(ValueError):
        kg_inner(a, c)


def _fsum_inner(a, b, sites):
    """sum of w_j conj(a_j) b_j over `sites`, each part by math.fsum, and
    sum of the terms' magnitudes."""
    terms = a.weights[sites] * np.conj(a.amplitudes[sites]) * b.amplitudes[sites]
    return complex(math.fsum(terms.real), math.fsum(terms.imag)), float(np.sum(np.abs(terms)))


def _c10_pairs(grid):
    # pairs prepared as criterion 10's probability pool is
    rng = np.random.default_rng(1010)
    return [(_random_state(rng, 1.0, grid), _random_state(rng, 1.0, grid)) for _ in range(20)]


def _narrow_and_wide(grid):
    narrow = from_spacetime_function(Slice(0.2, GaussianProfile(0.5, 5.0)), 1.0, grid)
    wide = from_spacetime_function(Slice(0.0, GaussianProfile(0.0, 0.05)), 1.0, grid)
    return [(narrow, wide), (wide, narrow)]


def _cross_origin(grid):
    rng = np.random.default_rng(1011)
    f, g = _random_packet(rng, grid), _random_packet(rng, grid)
    alpha = 37.4 * grid.step  # off the lattice
    return [(boost_state(f, alpha), g), (f, boost_state(g, -0.3)), (boost_state(f, 0.7), g)]


@pytest.mark.parametrize(
    "make",
    [_c10_pairs, _narrow_and_wide, _cross_origin],
    ids=["c10", "narrow-wide", "cross-origin"],
)
def test_kg_inner_stays_within_its_window_bound(grid, make):
    """The terms kg_inner leaves out of the full weighted sum total at most
    1e-16 (max|a| sum w|b| + max|b| sum w|a|) (its docstring), and the sum it
    takes errs from the windows' exact overlap sum by rounding alone."""
    for a, b in make(grid):
        if a.origin != b.origin:
            a, b = resample(a), resample(b)
        lo, hi = max(a.window.start, b.window.start), min(a.window.stop, b.window.stop)
        assert 0 < hi - lo < grid.count  # a strict, non-empty overlap
        full, _ = _fsum_inner(a, b, slice(None))
        overlap, size = _fsum_inner(a, b, slice(lo, hi))
        mag_a, mag_b = np.abs(a.amplitudes), np.abs(b.amplitudes)
        bound = 1e-16 * (
            mag_a.max() * np.sum(grid.weights * mag_b) + mag_b.max() * np.sum(grid.weights * mag_a)
        )
        rounding = 4 * (hi - lo) * sys.float_info.epsilon * size
        assert abs(full - overlap) <= bound
        assert abs(kg_inner(a, b) - overlap) <= rounding
        assert abs(kg_inner(a, b) - full) <= bound + rounding


def test_kg_inner_of_disjoint_windows_is_exactly_zero(grid):
    # a's tail under 1e-16 of its peak overlaps b: the full sum is not 0
    a = np.zeros(grid.count, dtype=complex)
    a[100:200], a[300:400] = 1.0, 1e-17
    b = np.zeros(grid.count, dtype=complex)
    b[300:400] = 1.0
    sa, sb = RapidityState(grid, 1.0, a), RapidityState(grid, 1.0, b)
    assert sa.window == slice(100, 200) and sb.window == slice(300, 400)
    assert _fsum_inner(sa, sb, slice(None))[0] != 0.0
    for x, y in ((sa, sb), (sb, sa)):
        value = kg_inner(x, y)
        assert type(value) is complex and value == 0j
    zero = RapidityState(grid, 1.0, np.zeros(grid.count))
    assert kg_inner(zero, sb) == 0j and kg_inner(sb, zero) == 0j


def test_normalize_keeps_the_fields_and_drops_the_caches(grid):
    raw = from_spacetime_function(Slice(0.0, GaussianProfile(0.3, 0.4)), 1.0, grid)
    moved = boost_state(boost_state(raw, 0.1), 0.2)  # origin_lo != 0
    state = RapidityState(
        grid, 1.0, moved.amplitudes, ("a note",), moved.origin, moved.origin_lo
    )
    assert state.origin_lo != 0.0
    state.spectrum  # cache window and spectrum on the source
    unit = normalize(state)
    assert type(unit) is RapidityState
    assert (unit.grid, unit.mass, unit.notes) == (grid, 1.0, ("a note",))
    assert (unit.origin, unit.origin_lo) == (state.origin, state.origin_lo)
    assert np.array_equal(unit.amplitudes, state.amplitudes / kg_norm(state))
    assert not unit.amplitudes.flags.writeable
    assert "window" not in vars(unit) and "spectrum" not in vars(unit)
    assert kg_norm(unit) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# maps


def test_translate_evolve_identity(grid):
    # Schroedinger evolution by dt, amplitudes times exp(-i E dt), is
    # translate(s, -dt, 0)
    s = _random_packet(np.random.default_rng(5), grid)
    st = translate(s, 0.41, 0.0)
    evolved = s.amplitudes * np.exp(-1j * s.energies * -0.41)
    assert np.max(np.abs(st.amplitudes - evolved)) == 0.0


def test_translation_moves_wavefunction(grid):
    s = _random_packet(np.random.default_rng(6), grid)
    s2 = translate(s, 0.3, -0.8)
    for pt in [(0.0, 0.0), (0.4, 0.7), (-0.2, 1.0)]:
        t, x = pt
        assert abs(
            wavefunction(s2, (t + 0.3, x - 0.8)) - wavefunction(s, pt)
        ) < 1e-12


def _lattice_shift(state, k):
    """Reference: the boost by k steps as an index shift on the grid's lattice."""
    a, n = state.amplitudes, state.grid.count
    new = np.zeros_like(a)
    if k == 0:
        new[:] = a
    elif k > 0:
        if k < n:
            new[: n - k] = a[k:]
    elif -k < n:
        new[-k:] = a[: n + k]
    return new


def _exact_boost(f, grid, alpha, mass=1.0):
    """Oracle: the source transform of f at the boosted rapidities theta + alpha."""
    th = grid.thetas + alpha
    return f.transform(mass * np.cosh(th), mass * np.sinh(th))


def test_boost_lattice_exactness(grid):
    s = _random_packet(np.random.default_rng(7), grid)
    k = 64
    b = boost_state(s, k * grid.step)
    # the boost moves the origin only; resampling shifts indices exactly
    assert b.origin == -k * grid.step
    assert b.amplitudes is s.amplitudes
    r = resample(b)
    assert r.origin == 0.0
    assert np.max(np.abs(r.amplitudes[: grid.count - k] - s.amplitudes[k:])) == 0.0
    assert np.all(r.amplitudes[grid.count - k :] == 0.0)
    # composition of lattice boosts is exact
    b2 = boost_state(boost_state(s, 8 * grid.step), -8 * grid.step)
    assert b2.origin == 0.0
    assert np.array_equal(b2.amplitudes, s.amplitudes)


def test_boost_covariance(grid):
    """psi'(boost_point(alpha, pt)) == psi(pt) for lattice and generic alpha."""
    rng = np.random.default_rng(8)
    s = _random_packet(rng, grid)
    pts = [SpacetimePoint(*rng.uniform(-1.0, 1.0, size=2)) for _ in range(6)]
    for alpha in (8 * grid.step, -64 * grid.step, 0.61, -1.43):
        b = boost_state(s, alpha)
        for pt in pts:
            assert abs(wavefunction(b, boost_point(alpha, pt)) - wavefunction(s, pt)) < 1e-13


def test_boost_inner_product_invariance(grid):
    rng = np.random.default_rng(9)
    a = _random_packet(rng, grid)
    b = _random_packet(rng, grid)
    i0 = kg_inner(a, b)
    for alpha in [grid.step, -8 * grid.step, 64 * grid.step, 0.5, -1.7, 1.99]:
        assert kg_inner(boost_state(a, alpha), boost_state(b, alpha)) == i0
    # states on different origins meet on the grid's lattice
    x, y = boost_state(a, 0.5), boost_state(b, -0.3)
    assert kg_inner(x, y) == kg_inner(resample(x), resample(y))
    assert abs(kg_inner(x, y) - kg_inner(y, x).conjugate()) < 1e-15


def test_boost_interpolation_notes(grid):
    s = _random_packet(np.random.default_rng(10), grid)
    # a boost interpolates nothing and drops nothing, at any rapidity
    for alpha in (0.777, 9.0, 64 * grid.step):
        assert boost_state(s, alpha).notes == s.notes
    # resampling onto the grid keeps no residual note in the interior...
    assert resample(boost_state(s, 0.777)).notes == s.notes
    # ...and warns about truncation when support reaches the grid edge
    edgy = resample(boost_state(s, 9.0))
    assert any("boundary" in n for n in edgy.notes)
    assert resample(s) is s


def test_boost_state_rejects_non_finite_rapidity(grid):
    s = _random_packet(np.random.default_rng(11), grid)
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            boost_state(s, alpha)
    with pytest.raises(ValueError, match="origin"):
        RapidityState(grid, 1.0, s.amplitudes, origin=math.nan)


def test_boost_state_is_constant_bookkeeping(grid):
    """A boost shares the validated amplitudes and the cached window, moves
    only the origin (back exactly under the opposite boost), and still
    rejects an origin that overflows; with_amplitudes recomputes the window."""
    s = _random_packet(np.random.default_rng(12), grid)
    win = s.window
    for alpha in (0.61, 64 * grid.step):
        b = boost_state(s, alpha)
        assert b.amplitudes is s.amplitudes
        assert b.window is win
        assert (b.grid, b.mass, b.notes) == (s.grid, s.mass, s.notes)
        assert boost_state(b, -alpha).origin == s.origin == 0.0
    far = boost_state(s, -1e308)
    with pytest.raises(ValueError, match="rapidity origin must be finite"):
        boost_state(far, -1e308)
    with pytest.raises(ValueError, match="finite"):
        boost_state(far, math.nan)
    narrow = np.zeros(grid.count, dtype=complex)
    narrow[100:110] = 1.0
    moved = boost_state(s, 0.61).with_amplitudes(narrow)
    assert moved.window == slice(100, 110) != win
    assert moved.origin == -0.61 and moved.amplitudes is not s.amplitudes
    # the origin is a compensated pair; one given by hand is normalized
    by_hand = RapidityState(grid, 1.0, s.amplitudes, origin=0.25, origin_lo=0.5)
    assert (by_hand.origin, by_hand.origin_lo) == (0.75, 0.0)


@settings(max_examples=20)
@given(
    a=st.floats(-3.0, 3.0, allow_subnormal=False),
    b=st.floats(-3.0, 3.0, allow_subnormal=False),
)
def test_boost_composition_property(grid, a, b):
    """boost(boost(f, a), b) is boost(f, a + b) bit for bit from origin 0."""
    f = _random_packet(np.random.default_rng(12), grid)
    twice = boost_state(boost_state(f, a), b)
    once = boost_state(f, a + b)
    assert twice.origin == once.origin
    assert np.array_equal(twice.amplitudes, once.amplitudes)
    assert np.array_equal(twice.thetas, once.thetas)


@settings(max_examples=20)
@given(
    steps=st.integers(-200, 200),
    frac=st.sampled_from([0.0, 0.5e-10, 0.13, 0.5, 0.91]),
    seed=st.integers(0, 2**16),
)
def test_resample_matches_grid_boost_property(grid, steps, frac, seed):
    """resample(boost_state(s, alpha)) is the index shift of the amplitudes,
    bit for bit, on the lattice, and within 1e-11 max|a| of the exact boosted
    amplitudes off it."""
    f = _random_source(np.random.default_rng(seed))
    raw = from_spacetime_function(f, 1.0, grid)
    s = normalize(raw)
    alpha = (steps + frac) * grid.step
    got = resample(boost_state(s, alpha)).amplitudes
    if frac < 1e-9:
        assert np.array_equal(got.view(float), _lattice_shift(s, steps).view(float))
    else:
        exact = _exact_boost(f, grid, alpha) / kg_norm(raw)
        assert np.max(np.abs(got - exact)) <= 1e-11 * np.max(np.abs(s.amplitudes))


@pytest.mark.parametrize("t0, x0", [(0.0, 0.0), (20.0, 0.0), (50.0, 0.0), (50.0, 30.0)])
def test_cross_origin_overlap_error_is_flat_in_the_offset(grid, t0, x0):
    """kg_inner of a boosted, off-lattice f with g on origin 0 matches the
    overlap taken with f's exact boosted amplitudes within 1e-10 |f||g|,
    however far f sits from the origin.  g is that exact boost itself, so
    the overlap is as large as it can be."""
    f = _random_source(np.random.default_rng(13), t0=t0, x0=x0)
    alpha = 0.3 + 0.37 * grid.step
    exact = _exact_boost(f, grid, alpha)
    fs, g = from_spacetime_function(f, 1.0, grid), RapidityState(grid, 1.0, exact)
    got = kg_inner(boost_state(fs, alpha), g)
    want = np.sum(grid.weights * np.abs(exact) ** 2)
    assert abs(got - want) <= 1e-10 * kg_norm(fs) * kg_norm(g)
    # support that reaches the grid edge stays finite and keeps its note
    edge = from_spacetime_function(Gaussian2D(t0, x0, 1e-4, 1e-4), 1.0, grid)
    assert any("boundary" in n for n in edge.notes)
    for beta in (alpha, -alpha):
        moved = resample(boost_state(edge, beta))
        assert np.all(np.isfinite(moved.amplitudes.view(float)))
        assert moved.notes[:-1] == edge.notes and "boundary" in moved.notes[-1]


@pytest.mark.parametrize("steps", [6200.0, -5000.0, 3000.37, -6142.5])
def test_resample_notes_a_branch_boosted_off_the_grid(grid, steps):
    """A boost that carries the whole support past the grid edge leaves a
    zero state, with a note saying so, on and off the lattice."""
    alpha = steps * grid.step
    s = from_spacetime_function(Slice(0.0, GaussianProfile(0.0, 2.5)), 1.0, grid)
    moved = resample(boost_state(s, alpha))
    assert not np.any(moved.amplitudes)
    assert moved.notes == (
        "boosted support lies entirely off the grid; all amplitude dropped",
    )
    # a zero state loses nothing, so it gets no note
    zero = RapidityState(grid, 1.0, np.zeros(grid.count), origin=alpha)
    assert resample(zero).notes == ()


def _full_grid_notes(source, amplitudes):
    """Reference: resample's support note read from |a| over the whole grid."""
    grid, th = source.grid, source.grid.thetas
    mag = np.abs(amplitudes)
    sig = np.flatnonzero(mag > 1e-10 * np.max(mag))
    margin = 0.05 * (grid.theta_max - grid.theta_min)
    if not sig.size:
        if np.any(source.amplitudes):
            return source.notes + (
                "boosted support lies entirely off the grid; all amplitude dropped",
            )
    elif th[sig[0]] < th[0] + margin or th[sig[-1]] > th[-1] - margin:
        return source.notes + (
            "boosted support within 5% of the grid boundary; amplitudes may be truncated",
        )
    return source.notes


def _handed_down_cases(grid):
    """(state, rapidity) pairs covering resample's ways of reading |a|."""
    wide = from_spacetime_function(Slice(0.0, GaussianProfile(0.0, 1.0)), 1.0, grid)
    win = wide.window
    quarter = (win.stop - win.start) // 4
    cases = {
        "lattice-inside": (wide, 37 * grid.step),
        # the moved window runs past the low or the high end of the grid, its
        # peak with it, so the tail beyond it is no longer under the cut
        "lattice-clipped-low": (wide, (win.start + 3 * quarter) * grid.step),
        "lattice-clipped-high": (wide, (win.stop - grid.count - 3 * quarter) * grid.step),
        "lattice-off-grid": (wide, 6200 * grid.step),
        "spline-off-grid": (wide, 3000.37 * grid.step),
    }
    for t0 in (0.0, 20.0, 50.0):
        f = _random_source(np.random.default_rng(14), t0=t0)
        cases[f"spline-t0={t0:g}"] = (from_spacetime_function(f, 1.0, grid), 0.3 + 0.37 * grid.step)
    zero = RapidityState(grid, 1.0, np.zeros(grid.count))
    cases["zero-lattice"], cases["zero-spline"] = (zero, 5 * grid.step), (zero, 0.37 * grid.step)
    return cases


@pytest.mark.parametrize("case", list(_handed_down_cases(RapidityGrid.default())))
def test_resample_hands_down_the_full_grid_window(grid, case):
    """resample reads |a| only over the range it writes, yet the `window` it
    caches on its result and its notes are those of the whole grid."""
    state, alpha = _handed_down_cases(grid)[case]
    moved = resample(boost_state(state, alpha))
    assert "window" in vars(moved)
    assert moved.window == RapidityState.window.func(moved)
    assert moved.notes == _full_grid_notes(state, moved.amplitudes)
    assert not moved.amplitudes.flags.writeable and "spectrum" not in vars(moved)
    assert (moved.origin, moved.origin_lo) == (0.0, 0.0)
    if case.startswith("lattice"):
        steps = round(alpha / grid.step)
        assert np.array_equal(moved.amplitudes.view(float), _lattice_shift(state, steps).view(float))
    if case.startswith("lattice-clipped"):
        assert 0 < moved.window.stop - moved.window.start < state.window.stop - state.window.start


def _resample_with_np_exp(state):
    """Reference: resample's off-lattice filter with its carrier phase
    factors taken by np.exp."""
    grid, a, alpha = state.grid, state.amplitudes, -state.origin
    th, n, win = grid.thetas, grid.count, state.window
    k = alpha / grid.step
    kf = math.floor(k)
    lo, hi = max(win.start - 3, 0), min(win.stop + 3, n)
    i0, i1 = max(lo - kf, 0), min(hi - kf, n)
    new = np.zeros_like(a)
    src = th[lo:hi] - alpha
    e, p = state.mass * np.cosh(src), state.mass * np.sinh(src)
    t, x = states._carrier(a[lo:hi], e, p)
    env = np.zeros(hi - lo + 5, dtype=complex)
    env[2:-3] = a[lo:hi] * np.exp(-1j * (e * t - p * x))
    f, first = k - kf, i0 + kf - lo
    taps = range(-2, 4)
    weights = [math.prod((f - m) / (j - m) for m in taps if m != j) for j in taps]
    out = sum(w * env[first + r : first + r + i1 - i0] for r, w in enumerate(weights))
    e, p = state.mass * np.cosh(th[i0:i1]), state.mass * np.sinh(th[i0:i1])
    new[i0:i1] = out * np.exp(1j * (e * t - p * x))
    return new


@pytest.mark.parametrize("t0", [0.0, 20.0, 50.0])
def test_resample_carrier_factors_match_np_exp(grid, t0):
    """The off-lattice amplitudes stay within 1e-15 max|a| of the same filter
    with its carrier phase factors taken by np.exp."""
    f = _random_source(np.random.default_rng(15), t0=t0, x0=0.5 * t0)
    s = normalize(from_spacetime_function(f, 1.0, grid))
    for alpha in (0.37 * grid.step, -0.8 + 0.61 * grid.step):
        moved = boost_state(s, alpha)
        got, want = resample(moved).amplitudes, _resample_with_np_exp(moved)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(s.amplitudes))


def test_resample_rejects_a_filter_output_that_overflows(grid):
    a = np.zeros(grid.count, dtype=complex)
    a[1000:1100] = 1.7e308  # finite, but the filter's partial sums are not
    state = RapidityState(grid, 1.0, a, origin=0.5 * grid.step)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            resample(state)


def test_boosted_slice_is_tilted_slice(grid):
    """A boosted equal-time slice is exactly the preparation supported on the
    tilted line t = t0/cosh(alpha) - tanh(alpha) x (with center -sinh(alpha) t0,
    width sigma cosh(alpha) and prefactor 1/cosh(alpha))."""
    alpha, t0, sig = 0.5, 0.8, 1.0
    s = from_spacetime_function(Slice(t0, GaussianProfile(0.0, sig)), 1.0, grid)
    b = boost_state(s, alpha)
    ch, sh, th = math.cosh(alpha), math.sinh(alpha), math.tanh(alpha)
    surface = TiltedSlice(t0 / ch, -th, GaussianProfile(-sh * t0, sig * ch))
    # exact at the boosted state's own rapidities
    expect = surface.transform(b.energies, b.momenta) / ch
    assert np.max(np.abs(b.amplitudes - expect)) < 1e-12
    # and within the resampling error on the grid's lattice
    tilted = from_spacetime_function(surface, 1.0, grid)
    keep = np.abs(grid.thetas) < 8.0
    assert np.max(np.abs(resample(b).amplitudes - tilted.amplitudes / ch)[keep]) < 1e-7


def test_tilted_slice_boosts_to_flat_gaussian(grid):
    """A Gaussian on t = -tanh(w) x, boosted by -w, is an equal-time Gaussian
    of width sigma/cosh(w)."""
    om = math.log(2.0)
    sig = 1.0
    tilted = from_spacetime_function(
        TiltedSlice(0.0, -math.tanh(om), GaussianProfile(0.0, sig)), 1.0, grid
    )
    flat = boost_state(tilted, -om)
    # the flat Gaussian's transform at the boosted state's own rapidities
    target = Slice(0.0, GaussianProfile(0.0, sig / math.cosh(om)))
    expect = target.transform(flat.energies, flat.momenta)
    j = int(np.argmax(np.abs(expect)))
    ratio = flat.amplitudes[j] / expect[j]
    assert ratio.real == pytest.approx(math.cosh(om), abs=1e-12)
    assert abs(ratio.imag) < 1e-12
    assert np.max(np.abs(flat.amplitudes - ratio * expect)) < 1e-12


# ---------------------------------------------------------------------------
# propagator


def _oracle_propagator(dt, dx, m):
    s2 = dt * dt - dx * dx
    if s2 > 0:
        w = -1j * math.pi / 2 * hankel2(0, m * math.sqrt(s2))
        return w if dt > 0 else np.conj(w)
    return complex(k0(m * math.sqrt(-s2)))


def test_propagator_frozen_examples():
    wt = propagator(PropagatorQuery(1.0, 0.0, 1.0))
    assert wt == pytest.approx(-0.1386337152040752 - 1.2019697153172066j, abs=1e-12)
    ws = propagator(PropagatorQuery(0.0, 1.0, 1.0))
    assert ws == pytest.approx(0.42102443824070834 + 0.0j, abs=1e-12)
    assert ws.imag == 0.0
    assert ws.real > 0.4


def test_propagator_against_bessel_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        m = float(rng.uniform(0.2, 3.0))
        dt = float(rng.uniform(-4.0, 4.0))
        dx = float(rng.uniform(-4.0, 4.0))
        if abs(abs(dt) - abs(dx)) < 0.05:
            continue
        w = propagator(PropagatorQuery(dt, dx, m))
        o = _oracle_propagator(dt, dx, m)
        assert abs(w - o) < 1e-10 * max(1.0, abs(o))


def test_propagator_diverges_at_lightlike_separations():
    with pytest.raises(ValueError):
        propagator(PropagatorQuery(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        propagator(PropagatorQuery(0.0, 0.0, 1.0))


def test_propagator_separations_whose_squares_overflow():
    # dt^2 - dx^2 would be inf - inf; (dt - dx)(dt + dx) is +-inf
    with pytest.raises(ValueError, match="exceeds"):
        propagator(PropagatorQuery(1e200, 1e199, 1.0))
    assert propagator(PropagatorQuery(1e199, 1e200, 1.0)) == 0.0


def test_propagator_spacelike_positive():
    for dx in [0.3, 1.0, 2.5, 6.0]:
        w = propagator(PropagatorQuery(0.0, dx, 1.0))
        assert w.imag == 0.0
        assert w.real > 0.0


@pytest.mark.parametrize("center", [2193.3, 2904.0, 4072.1])
def test_propagator_where_adaptive_quadrature_misconverged(center):
    # adaptive quadrature (QAGS) was off by 9.4e-5 at m*s = 2193.3 and 8.7e-3
    # at 2904.0, in spikes narrower than 0.01; scan across each in 0.001 steps
    for z in center + 0.001 * np.arange(-25, 26):
        w = propagator(PropagatorQuery(1.0, 0.0, float(z)))
        o = _oracle_propagator(1.0, 0.0, float(z))
        assert abs(w - o) < 1e-10 * abs(o)


def test_propagator_across_scales():
    # both time directions and spacelike separations, m*s from 1e-150 (where
    # W ~ -log(m s)) up to 1e12 (K0 underflows to 0 past ~745)
    for z in np.logspace(-150.0, 12.0, 100):
        for dt, dx in [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)]:
            w = propagator(PropagatorQuery(dt, dx, float(z)))
            o = _oracle_propagator(dt, dx, float(z))
            assert abs(w - o) <= 1e-10 * abs(o)
    # where m*s overflows, the spacelike value underflows to 0
    assert propagator(PropagatorQuery(0.0, 1e300, 1e300)) == 0.0
    # below about 2e-307 the tail cut 40/(m s) would overflow
    for dt, dx in [(1e-160, 0.0), (0.0, 1e-160)]:
        with pytest.raises(ValueError, match="tail cut"):
            propagator(PropagatorQuery(dt, dx, 1e-160))


def test_propagator_at_the_smallest_accepted_ms():
    # the last panel reaches r^2 ~ 40/(m s) ~ 1.8e308: no node may overflow.
    # hankel2 returns nan this close to 0, so the oracle is J0 - i Y0
    z = 1.01 * states._MIN_MS
    h2 = complex(j0(z), -y0(z))
    for dt, dx, o in [
        (1.0, 0.0, -0.5j * math.pi * h2),
        (-1.0, 0.0, (-0.5j * math.pi * h2).conjugate()),
        (0.0, 1.0, complex(k0(z))),
    ]:
        w = propagator(PropagatorQuery(dt, dx, z))
        assert np.isfinite(w)
        assert abs(w - o) <= 1e-10 * abs(o)


def test_propagator_timelike_bound():
    # no cost cap: accurate far out, in either time direction and through m or s
    for z in [1e4, 1e8, 1e12]:
        cases = [(z, 0.0, 1.0), (-1.0, 0.0, z), (5.0, 3.0, z / 4), (-5.0, 3.0, z / 4)]
        for dt, dx, m in cases:
            w = propagator(PropagatorQuery(dt, dx, m))
            o = _oracle_propagator(dt, dx, m)
            assert abs(w - o) < 1e-10 * abs(o)


# ---------------------------------------------------------------------------
# equation of motion


def test_kg_equation_residual_small(grid):
    rng = np.random.default_rng(12)
    for _ in range(3):
        s = _random_packet(rng, grid)
        assert kg_equation_residual(s) < 1e-8
    # high-energy, tightly localized packet is the hard case
    hard = normalize(
        from_spacetime_function(
            Gaussian2D(sigma_t=0.02, sigma_x=0.02, energy=50.0), 50.0, grid
        )
    )
    assert kg_equation_residual(hard) < 1e-8


def _residual_reference(state, points):
    """The residual evaluated site by site over the whole grid, one
    extended-precision wavefunction per stencil sample at the exact time
    t + k delta, its phase factored as exp(-i E t) exp(-i E k delta)."""
    ld = np.longdouble
    e = ld(state.mass) * np.cosh(state.thetas.astype(ld))
    p = ld(state.mass) * np.sinh(state.thetas.astype(ld))
    wa = state.grid.weights.astype(ld) * state.amplitudes.astype(np.clongdouble)
    dens = state.weights * np.abs(state.amplitudes) ** 2
    e2_mean = float(np.sum(dens * state.energies**2) / np.sum(dens))
    delta = ld(0.06 / math.sqrt(e2_mean))
    stencil = [ld(c) / 5040 for c in (-9, 128, -1008, 8064, -14350, 8064, -1008, 128, -9)]
    worst = 0.0
    for t, x in points:
        psi = wa * np.exp(-1j * (e * ld(t) - p * ld(x)))
        samples = [np.sum(psi * np.exp(-1j * e * (k * delta))) for k in range(-4, 5)]
        fd = sum(c * v for c, v in zip(stencil, samples))
        worst = max(worst, float(abs(fd / delta**2 - np.sum(psi * -(e * e)))))
    return worst


def test_kg_equation_residual_matches_unwindowed_reference(grid):
    # the hard marker, criterion 10's off-lattice boosted slice payload and a
    # narrow-spectrum state (sigma m = 5), each also at |t| near 50; the
    # shipped code errs by at most 7.8e-17 scale, computing H_j in double
    # instead by 4.5e-16 to 1.1e-14 scale
    rng = np.random.default_rng(24)
    hard = normalize(
        from_spacetime_function(
            Gaussian2D(1.0, 0.3, 0.02, 0.02, energy=50.0), 50.0, grid
        )
    )
    payload = from_spacetime_function(Slice(0.4, GaussianProfile(0.0, 1.0)), 1.0, grid)
    boosted = normalize(boost_state(payload, -0.65))
    narrow = normalize(from_spacetime_function(Slice(0.0, GaussianProfile(0.0, 5.0)), 1.0, grid))
    far = [(50.0 + 0.37 * i, 0.5 * i - 1.0) for i in range(-3, 3)]
    cases = [
        (s, default_probe_points(s, 6))
        for s in (_random_packet(rng, grid), hard, boosted, narrow)
    ]
    cases += [(hard, far), (boosted, far), (narrow, [(-t, x) for t, x in far])]
    for s, points in cases:
        scale = float(np.sum(s.weights * s.energies**2 * np.abs(s.amplitudes)))
        got = kg_equation_residual(s, points)
        assert type(got) is float
        assert abs(got - _residual_reference(s, points)) < 1.5e-16 * scale


def test_kg_equation_residual_does_not_grow_with_time(grid):
    # the stencil samples psi at the exact times t + k delta, so rounding
    # t + k delta to a double cannot bend it: 2.5e-11 and 4.6e-11 measured
    marker = normalize(
        from_spacetime_function(
            Gaussian2D(1.0, 0.3, 0.02, 0.02, energy=50.0), 50.0, grid
        )
    )
    for t in (1e3, 1e6):
        assert kg_equation_residual(marker, [(t, 0.3)]) < 1e-8


def test_kg_equation_residual_rejects_bad_probes(grid):
    marker = from_spacetime_function(
        Gaussian2D(1.0, 0.3, 0.02, 0.02, energy=50.0), 50.0, grid
    )
    for points in ([(math.nan, 0.0)], [(math.inf, 0.0)], [(1.0, 0.3), (0.0, -math.inf)]):
        with pytest.raises(ValueError, match="probe point .* is not finite"):
            kg_equation_residual(marker, points)
    with pytest.raises(ValueError, match="at least one probe point"):
        kg_equation_residual(marker, [])
    # a finite probe whose phase E t overflows
    with pytest.raises(ValueError, match=r"residual at probe point \(1e\+308, 0.0\) is not finite"):
        with np.errstate(over="ignore", invalid="ignore"):
            kg_equation_residual(marker, [(1.0, 0.3), (1e308, 0.0)])


def test_kg_equation_residual_memory_does_not_grow_with_probes(grid):
    rng = np.random.default_rng(22)
    a = rng.normal(size=grid.count) + 1j * rng.normal(size=grid.count)
    s = RapidityState(grid, 0.01, a)
    assert s.window == slice(0, grid.count)
    points = [(float(t), float(x)) for t, x in rng.uniform(-5.0, 5.0, size=(256, 2))]
    kg_equation_residual(s, points[:1])  # fill the grid caches outside the measurement
    peaks = []
    for count in (16, 256):
        tracemalloc.start()
        try:
            kg_equation_residual(s, points[:count])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]
    # a few rows over the 4096-site window: 2.0 MB measured
    assert peaks[1] < 3e6
