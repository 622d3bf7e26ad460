"""One test per acceptance criterion, sharing a single suite run.

The suite itself (lorentzqrf.acceptance) carries the oracles; these tests
assert each criterion's verdict and surface its one-line summary.
"""

import ast
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lorentzqrf import acceptance
from lorentzqrf import coordinates as coords
from lorentzqrf.report import canonical_json
from lorentzqrf.scenarios import BranchCheck, Check, InterferenceScenario


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


def test_benchmark_criterion_bounds_name_detail_keys(suite):
    """`perfbench/workloads.py` reads each (criterion, key) of its
    CRITERION_BOUNDS from that criterion's details, so a renamed key fails
    here before it fails a benchmark run.  The file is parsed, not imported."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bounds = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "CRITERION_BOUNDS" for t in node.targets)
    )
    details = {r.number: r.details for r in suite}
    missing = [(n, key) for n, key, _ in bounds if key not in details[n]]
    assert bounds and missing == []
    # no copied bound is stricter than the library's, so a passing selftest
    # always passes the benchmark's gate
    allowed = {(r.number, c.key): c.allowed for r in suite for c in r.checks}
    looser = [(n, key, bound) for n, key, bound in bounds if allowed[n, key] > bound]
    assert looser == []


@pytest.mark.parametrize("allowed", [1e-12, 1e-4, 0.4, 5e-324, 1.0])
def test_check_fails_at_its_bound(allowed):
    assert not Check("k", allowed, allowed).passed
    assert Check("k", np.nextafter(allowed, 0.0), allowed).passed
    assert Check("k", allowed, allowed).margin == 1.0
    # a scenario check goes through the same rule
    assert not BranchCheck("k", 0.0, 0.0, allowed, allowed, "p").passed
    assert BranchCheck("k", 0.0, 0.0, allowed, allowed, "p").margin == 1.0


@pytest.mark.parametrize(
    "error, passed, margin", [(0.0, True, 0.0), (5e-324, False, math.inf)]
)
def test_exact_check_passes_only_at_zero(error, passed, margin):
    check = Check("round_trip", error, 0.0)
    assert check.passed is passed and check.margin == margin
    assert BranchCheck("k", 0.0, 0.0, error, 0.0, "p").passed is passed


@pytest.mark.parametrize(
    "failing", [Check("worst", 3e-12, 1e-12), Check("round_trip", 5e-324, 0.0)]
)
def test_one_failing_check_fails_its_criterion(failing):
    result = acceptance.CriterionResult(
        99, "test", (Check("fine", 1e-13, 1e-12), failing), "note", {"info": 1.0}
    )
    assert result.passed is False
    named = rf"\b{failing.key} \S+ \(allowed \S+, margin (\S+)\)"
    assert float(re.search(named, result.summary).group(1)) > 1.0
    assert result.summary.endswith(", note")
    # details hold errors, never margins: finite even when an exact check fails
    assert result.details == {"info": 1.0, "fine": 1e-13, failing.key: failing.error}
    assert all(math.isfinite(v) for v in result.details.values())
    payload = canonical_json(acceptance.results_payload([result]))
    assert json.loads(payload)["pass"] is False


def test_criterion_2_bessel_constants_match_scipy():
    from scipy.special import hankel2, j0, k0, y0  # oracle

    for tabulated, reference in (
        (acceptance._J0_1, j0(1.0)),
        (acceptance._Y0_1, y0(1.0)),
        (acceptance._K0_1, k0(1.0)),
    ):
        assert abs(tabulated - reference) <= 1e-15 * abs(reference)
    h2 = complex(acceptance._J0_1, -acceptance._Y0_1)
    assert abs(h2 - hankel2(0, 1.0)) <= 1e-15 * abs(h2)


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


def _full_matrix_terms(scn, omega, eps, nt, nx, real=np.float64):
    """Criterion 9's contour quadrature as one nt x nx matrix: tw, M, xw with
    the amplitude tw @ M @ xw, evaluated in the precision `real`."""
    m, sx, st = scn.mass, scn.sigma_x, scn.sigma_t
    beta = 1.0 + omega * omega / 2.0
    tn, tw = (a.astype(real) for a in acceptance._leggauss(nt))
    xn, xw = (a.astype(real) for a in acceptance._leggauss(nx))
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
    return tw, packet * kernel, xw


def _full_matrix_amplitude(scn, omega, eps, nt, nx):
    tw, terms, xw = _full_matrix_terms(scn, omega, eps, nt, nx)
    return complex(tw @ terms @ xw)


@pytest.mark.parametrize(
    "fields, omegas",
    [({}, None), ({"x0": 0.7, "t0": -0.4}, (0.3, -0.5))],
    ids=["default", "shifted"],
)
def test_tiled_contour_oracle_matches_full_matrix(fields, omegas):
    # nt = 1000 gives 64-node tiles, so nx = 157 makes two full tiles and a
    # partial one.  The tiled oracle builds each node's exponent from row and
    # column vectors and takes one exponential, as exp(Re) times a half-angle
    # tangent's (cos, sin), where the full matrix takes three complex ones,
    # so the two need not agree in every bit: hence the 1e-15 bound.
    scn = replace(InterferenceScenario(), **fields)
    omegas = omegas or (scn.omega1, scn.omega2)
    got = acceptance._contour_oracle_amplitudes(scn, omegas, eps=1.0, nt=1000, nx=157)
    assert len(got) == len(omegas)
    for omega, amp in zip(omegas, got):
        ref = _full_matrix_amplitude(scn, omega, 1.0, 1000, 157)
        assert abs(amp - ref) <= 1e-15 * abs(ref)


def _oracle_accuracy_cases():
    rng = np.random.default_rng(2718)
    yield InterferenceScenario()
    # the small-amplitude input of the scenario tests
    yield InterferenceScenario(
        x0=3, t0=1, sigma_x=0.05, sigma_t=0.75, mass=80,
        omega1=0.08, omega2=0.07, tp=-2, xp=0,
    )
    for _ in range(3):
        yield InterferenceScenario(
            x0=rng.uniform(-1.0, 1.0), t0=rng.uniform(-1.0, 1.0),
            sigma_x=rng.uniform(0.5, 1.5), sigma_t=rng.uniform(0.5, 1.5),
            mass=rng.uniform(0.5, 3.0),
            omega1=rng.uniform(-0.1, 0.1), omega2=rng.uniform(-0.1, 0.1),
            tp=rng.uniform(2.0, 6.0), xp=rng.uniform(-2.0, 2.0),
        )


def test_contour_oracle_matches_long_double_rule():
    """The oracle against the same rule's full-matrix integrand evaluated in
    long double, to within 1e-14 of the sum of the terms' moduli: that sum,
    not the amplitude, sets the rounding scale when the terms cancel."""
    nt, nx = 512, 144  # 128-node tiles: one full, one partial
    for scn in _oracle_accuracy_cases():
        omegas = (scn.omega1, scn.omega2)
        got = acceptance._contour_oracle_amplitudes(scn, omegas, nt=nt, nx=nx)
        for omega, amp in zip(omegas, got):
            tw, terms, xw = _full_matrix_terms(scn, omega, 1.0, nt, nx, np.longdouble)
            ref = complex(tw @ terms @ xw)
            scale = float(np.abs(tw[:, None] * terms * xw).sum())
            assert abs(amp - ref) <= 1e-14 * scale, (scn, omega)


def test_contour_oracle_bits_do_not_depend_on_blas_threads():
    # each x node's t sum is one dot product over all t nodes, whichever
    # thread computes it (nx = 157 ends in a partial tile)
    code = (
        "from lorentzqrf import acceptance\n"
        "from lorentzqrf.scenarios import InterferenceScenario\n"
        "scn = InterferenceScenario()\n"
        "amps = acceptance._contour_oracle_amplitudes("
        "scn, (scn.omega1, scn.omega2), nt=1000, nx=157)\n"
        "print(*(x.hex() for a in amps for x in (a.real, a.imag)))\n"
    )
    src = str(Path(acceptance.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        )
        outputs.append(run.stdout.split())
    assert len(outputs[0]) == 4
    assert outputs[0] == outputs[1]


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
    # three 21 x 3000 complex tiles and the t and x vectors come to 3.6 MB; one
    # more tile (1 MB) fails, as does one full 3000 x 1200 matrix (58 MB)
    assert peak < 4e6


def test_contour_oracle_takes_no_complex_exponential(monkeypatch):
    # exp(Re) is a real exponential and (cos, sin)(Im) come from a half-angle
    # tangent: np.exp sees no complex array
    scn = InterferenceScenario()
    complex_calls = []

    def counted(x, *args, _fn=np.exp, **kwargs):
        if np.iscomplexobj(x):
            complex_calls.append(np.shape(x))
        return _fn(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    acceptance._contour_oracle_amplitudes(scn, (scn.omega1, scn.omega2), nt=300, nx=50)
    assert complex_calls == []


def _scalar_coordinate_instance(rng):
    """Criterion 8's instance drawn one coordinate at a time."""
    n_branch = int(rng.integers(1, 5))
    vs = []
    while len(vs) < n_branch:
        v = float(rng.uniform(-0.99, 0.99))
        if all(abs(v - u) > 1e-6 for u in vs):
            vs.append(v)
    n_events = int(rng.integers(2, 5))
    rows = tuple(
        tuple(
            coords.EventCoordinate(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
            for _ in range(n_events)
        )
        for _ in range(n_branch)
    )
    return coords.JointCoordinateState(
        "A", tuple(coords.VelocityBranch(v) for v in vs), rows
    )


def test_coordinate_instance_reproduces_the_scalar_stream():
    fast, slow = np.random.default_rng(808), np.random.default_rng(808)
    for _ in range(200):
        got = acceptance._coordinate_instance(fast)
        ref = _scalar_coordinate_instance(slow)
        assert got == ref
        assert all(type(ev) is coords.EventCoordinate for row in got.events for ev in row)
        assert fast.bit_generator.state == slow.bit_generator.state
