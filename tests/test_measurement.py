"""Detection probabilities and rapidity densities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from lorentzqrf import measurement, states
from lorentzqrf.measurement import (
    ProbabilityReport,
    momentum_density,
    region_probability,
)
from lorentzqrf.states import (
    Gaussian2D,
    GaussianProfile,
    RapidityGrid,
    Slice,
    boost_state,
    from_spacetime_function,
    kg_inner,
    normalize,
    resample,
)


def _packet(rng, grid, mass=1.0):
    f = Gaussian2D(
        t0=float(rng.uniform(-0.5, 0.5)),
        x0=float(rng.uniform(-0.5, 0.5)),
        sigma_t=float(rng.uniform(0.6, 1.4)),
        sigma_x=float(rng.uniform(0.6, 1.4)),
        energy=mass * float(rng.uniform(1.0, 1.8)),
        momentum=float(rng.uniform(-0.8, 0.8)),
    )
    return normalize(from_spacetime_function(f, mass, grid))


def test_density_normalization(grid):
    s = _packet(np.random.default_rng(0), grid)
    total = float(np.sum(2.0 * grid.weights * momentum_density(s)))
    assert total == pytest.approx(1.0, abs=1e-13)


def test_density_rigid_shift_under_lattice_boost(grid):
    s = _packet(np.random.default_rng(1), grid)
    k = 40
    b = boost_state(s, k * grid.step)
    d0 = momentum_density(s)
    # a'(theta) = a(theta + alpha): pattern moves to smaller theta by alpha,
    # as the state's rapidities or, on the grid's lattice, as an index shift
    assert np.array_equal(momentum_density(b), d0)
    assert np.array_equal(b.thetas, grid.thetas - k * grid.step)
    d1 = momentum_density(resample(b))
    assert np.max(np.abs(d1[: grid.count - k] - d0[k:])) == 0.0


def test_region_probability_bounds(grid):
    rng = np.random.default_rng(3)
    for _ in range(50):
        h = _packet(rng, grid)
        f = _packet(rng, grid)
        p = region_probability(h, f).value
        assert 0.0 <= p <= 1.0
    s = _packet(rng, grid)
    assert region_probability(s, s).value == 1.0


def test_region_probability_against_quadrature(grid):
    """Lattice inner product vs adaptive quadrature of the same overlap."""
    sig, dx, m = 1.0, 2.0, 1.0
    a = from_spacetime_function(Slice(0.0, GaussianProfile(-dx / 2, sig)), m, grid)
    b = from_spacetime_function(Slice(0.0, GaussianProfile(+dx / 2, sig)), m, grid)

    def integrand(th):
        p = m * math.sinh(th)
        return 4.0 * math.pi * sig**2 * math.exp(-2.0 * sig**2 * p * p) * math.cos(p * dx)

    overlap = 0.5 * quad(integrand, -10.0, 10.0, limit=400)[0]
    norm2 = 0.5 * quad(
        lambda th: 4.0 * math.pi * sig**2 * math.exp(-2.0 * sig**2 * (m * math.sinh(th)) ** 2),
        -10.0,
        10.0,
        limit=400,
    )[0]
    expect = (overlap / norm2) ** 2
    assert region_probability(a, b).value == pytest.approx(expect, rel=1e-10)


def test_povm_wrapper_and_report_fields(grid):
    rng = np.random.default_rng(4)
    f = _packet(rng, grid)
    # an unnormalized detector state: region_probability divides out its norm
    detector = from_spacetime_function(Slice(0.0, GaussianProfile(0.0, 1.0)), 1.0, grid)
    rep = region_probability(detector, f)
    overlap = complex(rep.components["overlap_re"], rep.components["overlap_im"])
    assert rep.value == pytest.approx(abs(overlap) ** 2, rel=1e-12)
    with pytest.raises(ValueError):
        ProbabilityReport(1.5)
    with pytest.raises(ValueError):
        ProbabilityReport(float("nan"))


def test_region_probability_matches_normalizing_the_detector_first(grid):
    rng = np.random.default_rng(8)
    for width in (0.3, 1.0, 4.0):
        f = _packet(rng, grid)
        detector = from_spacetime_function(Slice(0.1, GaussianProfile(0.2, width)), 1.0, grid)
        assert abs(kg_inner(detector, detector).real - 1.0) > 0.1  # unnormalized
        overlap = kg_inner(normalize(detector), f) / math.sqrt(kg_inner(f, f).real)
        rep = region_probability(detector, f)
        assert rep.value == pytest.approx(abs(overlap) ** 2, rel=0.0, abs=1e-15)
        got = complex(rep.components["overlap_re"], rep.components["overlap_im"])
        assert abs(got - overlap) <= 1e-15


def test_region_probability_rejects_a_zero_norm_state(grid):
    f = _packet(np.random.default_rng(9), grid)
    zero = f.with_amplitudes(np.zeros_like(f.amplitudes))
    for detector, state in ((zero, f), (f, zero)):
        with pytest.raises(ValueError, match=r"needs 0 < <h\|h> <f\|f> < inf"):
            region_probability(detector, state)


def test_region_probability_takes_three_inner_products_and_no_normalize(grid, monkeypatch):
    rng = np.random.default_rng(10)
    h, f = _packet(rng, grid), _packet(rng, grid)
    calls = {"kg_inner": 0, "normalize": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(measurement, "kg_inner", counted("kg_inner", measurement.kg_inner))
    normalize_counted = counted("normalize", states.normalize)
    monkeypatch.setattr(states, "normalize", normalize_counted)
    monkeypatch.setattr(measurement, "normalize", normalize_counted, raising=False)
    region_probability(h, f)
    assert calls == {"kg_inner": 3, "normalize": 0}


def test_probability_boost_invariance(grid):
    rng = np.random.default_rng(5)
    h = _packet(rng, grid)
    f = _packet(rng, grid)
    p0 = region_probability(h, f).value
    for k in (-64, -8, 8, 64):
        a = k * grid.step
        p = region_probability(boost_state(h, a), boost_state(f, a)).value
        assert p == pytest.approx(p0, abs=1e-12)


def test_probability_additivity_for_disjoint_parts(grid):
    rng = np.random.default_rng(6)
    f = _packet(rng, grid)
    # split a detector into disjoint rapidity halves: probabilities add
    h = _packet(rng, grid)
    left = np.where(grid.thetas < 0.0, h.amplitudes, 0.0)
    right = np.where(grid.thetas >= 0.0, h.amplitudes, 0.0)
    h_left = normalize(h.with_amplitudes(left))
    h_right = normalize(h.with_amplitudes(right))
    w_left = kg_inner(h.with_amplitudes(left), h.with_amplitudes(left)).real
    w_right = kg_inner(h.with_amplitudes(right), h.with_amplitudes(right)).real
    p_whole = region_probability(h, f).value
    overlap_l = kg_inner(h_left.with_amplitudes(h_left.amplitudes * math.sqrt(w_left)), f)
    overlap_r = kg_inner(h_right.with_amplitudes(h_right.amplitudes * math.sqrt(w_right)), f)
    recombined = abs(overlap_l + overlap_r) ** 2 / (
        (w_left + w_right) * kg_inner(f, f).real
    )
    assert recombined == pytest.approx(p_whole, abs=1e-10)
