"""One test per acceptance criterion, sharing a single suite run.

The suite itself (lorentzqrf.acceptance) carries the oracles; these tests
assert each criterion's verdict and surface its one-line summary.
"""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lorentzqrf import acceptance
from lorentzqrf.report import canonical_json
from lorentzqrf.scenarios import InterferenceScenario


@pytest.fixture(scope="module")
def suite():
    return acceptance.run_all()


def _check(suite, number):
    result = next(r for r in suite if r.number == number)
    line = f"[{'PASS' if result.passed else 'FAIL'}] criterion {number}: {result.name} — {result.summary}"
    print(line)
    assert result.passed, line
    return result


def test_criterion_01_inner_product_boost_invariance(suite):
    _check(suite, 1)


def test_criterion_02_propagator_closed_forms(suite):
    _check(suite, 2)


def test_criterion_03_superposed_time_dilation(suite):
    _check(suite, 3)


def test_criterion_04_superposed_length_contraction(suite):
    _check(suite, 4)


def test_criterion_05_gaussian_width_contraction(suite):
    _check(suite, 5)


def test_criterion_06_frame_change_unitarity_round_trip(suite):
    _check(suite, 6)


def test_criterion_07_twirl_factorization(suite):
    _check(suite, 7)


def test_criterion_08_distance_operator_invariance(suite):
    _check(suite, 8)


def test_criterion_09_interference_probe_oracle(suite):
    _check(suite, 9)


def test_criterion_10_residual_and_probability_bound(suite):
    _check(suite, 10)


def test_criterion_11_report_determinism(suite):
    _check(suite, 11)


def test_payload_is_canonical_and_complete(suite):
    payload = acceptance.results_payload(suite)
    assert payload["suite"] == "acceptance"
    assert payload["pass"] is all(r.passed for r in suite)
    assert [c["number"] for c in payload["criteria"]] == list(range(1, 12))
    blob = canonical_json(payload)
    parsed = json.loads(blob)
    assert canonical_json(parsed) == blob


def test_gauss_legendre_nodes_match_leggauss():
    nodes, weights = acceptance._leggauss(1200)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(1200)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-15
    assert np.max(np.abs(weights - ref_weights) / ref_weights) <= 1e-6
    # at the oracle's order, even monomials integrate to 2/(d+1)
    nodes, weights = acceptance._leggauss(3000)
    assert not nodes.flags.writeable and not weights.flags.writeable
    for d in range(0, 41, 2):
        assert abs(weights @ nodes**d - 2.0 / (d + 1)) <= 1e-14


def _full_matrix_amplitude(scn, omega, eps, nt, nx):
    """Criterion 9's contour quadrature as one nt x nx matrix, tw @ M @ xw."""
    m, sx, st = scn.mass, scn.sigma_x, scn.sigma_t
    beta = 1.0 + omega * omega / 2.0
    tn, tw = acceptance._leggauss(nt)
    xn, xw = acceptance._leggauss(nx)
    t_lo, t_hi = scn.t0 - 14.0 * st, scn.t0 + 14.0 * st
    x_lo, x_hi = scn.x0 - 18.0 * sx, scn.x0 + 18.0 * sx
    ts = 0.5 * (t_hi + t_lo) + 0.5 * (t_hi - t_lo) * tn - 1j * eps
    tw = 0.5 * (t_hi - t_lo) * tw
    xs = 0.5 * (x_hi + x_lo) + 0.5 * (x_hi - x_lo) * xn
    xw = 0.5 * (x_hi - x_lo) * xw
    T, X = ts[:, None], xs[None, :]
    packet = np.exp(
        -((beta * X - omega * T - scn.x0) ** 2) / (4 * sx * sx)
        - ((beta * T - omega * X - scn.t0) ** 2) / (4 * st * st)
    )
    d = T - scn.tp
    kernel = np.sqrt(m / (1j * d)) * np.exp(1j * m * (X - scn.xp) ** 2 / (2 * d))
    return complex(tw @ (packet * kernel) @ xw)


@pytest.mark.parametrize(
    "fields, omegas",
    [({}, None), ({"x0": 0.7, "t0": -0.4}, (0.3, -0.5))],
    ids=["default", "shifted"],
)
def test_tiled_contour_oracle_matches_full_matrix(fields, omegas):
    # nt = 1000 gives 64-column tiles, so nx = 157 makes two full tiles and a
    # partial one.  Equal bits hold with one BLAS thread; a threaded
    # full-matrix product sums in another order, hence the 1e-15 bound.
    scn = replace(InterferenceScenario(), **fields)
    omegas = omegas or (scn.omega1, scn.omega2)
    got = acceptance._contour_oracle_amplitudes(scn, omegas, eps=1.0, nt=1000, nx=157)
    assert len(got) == len(omegas)
    for omega, amp in zip(omegas, got):
        ref = _full_matrix_amplitude(scn, omega, 1.0, 1000, 157)
        assert abs(amp - ref) <= 1e-15 * abs(ref)


def test_contour_oracle_memory_is_bounded():
    scn = InterferenceScenario()
    acceptance._leggauss(3000)  # fill the node cache outside the measurement
    acceptance._leggauss(1200)
    tracemalloc.start()
    try:
        acceptance._contour_oracle_amplitudes(scn, (scn.omega1, scn.omega2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one full 3000 x 1200 complex matrix alone would be 58 MB
    assert peak < 8e6
