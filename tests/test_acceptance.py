"""One test per acceptance criterion, sharing a single suite run.

The suite itself (lorentzqrf.acceptance) carries the oracles; these tests
assert each criterion's verdict and surface its one-line summary.
"""

import json

import numpy as np
import pytest

from lorentzqrf import acceptance
from lorentzqrf.report import canonical_json


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
