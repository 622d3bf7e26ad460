"""Tests for the end-to-end scenario runners."""

import math

import numpy as np
import pytest

from lorentzqrf.acceptance import _contour_oracle_amplitudes
from lorentzqrf.kinematics import boost_matrix, rapidity_of_velocity
from lorentzqrf.scenarios import (
    BoostSuperpositionScenario,
    BranchCheck,
    ContractionScenario,
    DilationScenario,
    FitError,
    InterferenceScenario,
    ScenarioReport,
    SliceScenario,
    WidthScenario,
    interference_amplitude,
    run_boost_superposition,
    run_length_contraction,
    run_nonrel_interference,
    run_superposed_slice,
    run_time_dilation,
    run_width_contraction,
)
from lorentzqrf.states import RapidityGrid


# ---------------------------------------------------------------------------
# report plumbing


def test_branch_check_pass_semantics():
    rel = BranchCheck("a", 1.0, 2.0, 2.0 + 1e-13, 1e-12, "exact-coordinate")
    assert rel.passed
    rel_bad = BranchCheck("a", 1.0, 2.0, 2.0 + 1e-11, 1e-12, "exact-coordinate")
    assert not rel_bad.passed
    # zero prediction switches to an absolute comparison
    zero_ok = BranchCheck("a", 1.0, 0.0, 5e-13, 1e-12, "exact-coordinate")
    assert zero_ok.passed
    zero_bad = BranchCheck("a", 1.0, 0.0, 5e-12, 1e-12, "exact-coordinate")
    assert not zero_bad.passed


def test_report_serialization_round_trip_shape():
    rep = run_length_contraction(ContractionScenario())
    d = rep.to_dict()
    assert d["scenario"] == "length-contraction"
    assert d["pass"] is True
    assert {b["label"] for b in d["branches"]} == {
        "b:length",
        "b:simultaneity",
        "d:length",
        "d:simultaneity",
    }
    for b in d["branches"]:
        assert set(b) == {
            "label",
            "parameter",
            "predicted",
            "measured",
            "tolerance",
            "path",
            "pass",
        }


# ---------------------------------------------------------------------------
# time dilation


def test_dilation_exact_default_pair():
    rep = run_time_dilation(DilationScenario())
    assert rep.passed
    by_label = {b.label: b for b in rep.branches}
    assert by_label["omega=0"].measured == pytest.approx(1.0, abs=0)
    assert by_label["omega=0.693147"].measured == pytest.approx(1.25, abs=1e-15)


def test_dilation_exact_random_sweep():
    rng = np.random.default_rng(20260813)
    for _ in range(100):
        t1 = rng.uniform(-2.0, 2.0)
        dt = rng.uniform(0.5, 3.0)
        x0 = rng.uniform(-3.0, 3.0)
        om1, om2 = rng.uniform(-5.0, 5.0, size=2)
        if om1 == om2:
            continue
        rep = run_time_dilation(
            DilationScenario(t1=t1, dt=dt, x0=x0, omega1=om1, omega2=om2)
        )
        for check in rep.branches:
            gamma = math.cosh(check.parameter)
            assert abs(check.measured - gamma * dt) <= 1e-12 * gamma * dt
        assert rep.passed


def test_dilation_exact_matches_matrix_oracle():
    scn = DilationScenario(t1=0.2, dt=1.5, x0=-0.4, omega1=0.3, omega2=-1.1)
    rep = run_time_dilation(scn)
    for check in rep.branches:
        lam = boost_matrix(-check.parameter)
        ev1 = lam @ np.array([scn.t1, scn.x0])
        ev2 = lam @ np.array([scn.t1 + scn.dt, scn.x0])
        assert check.measured == pytest.approx(ev2[0] - ev1[0], abs=1e-15)


def test_dilation_packet_mode_within_one_percent():
    rep = run_time_dilation(
        DilationScenario(
            mode="narrow-gaussian",
            omega1=math.log(2.0),
            omega2=math.atanh(0.8),
            x0=0.3,
        )
    )
    assert rep.passed
    for check in rep.branches:
        assert check.path == "wave-packet"
        rel = abs(check.measured - check.predicted) / check.predicted
        assert rel < 1e-2
        # the fit is far better than the quoted tolerance
        assert rel < 1e-5


def test_dilation_validation_errors():
    with pytest.raises(ValueError):
        DilationScenario(t1=1.0, dt=0.0)
    with pytest.raises(ValueError):
        DilationScenario(omega1=0.5, omega2=0.5)
    with pytest.raises(ValueError):
        DilationScenario(mode="adaptive")
    with pytest.raises(ValueError):
        DilationScenario(mode="narrow-gaussian", sigma=-0.1)
    # markers too wide to separate the two events
    with pytest.raises(FitError):
        run_time_dilation(
            DilationScenario(mode="narrow-gaussian", sigma=0.5, mass=50.0)
        )


# ---------------------------------------------------------------------------
# length contraction


def test_contraction_defaults():
    rep = run_length_contraction(ContractionScenario())
    assert rep.passed
    by_label = {b.label: b for b in rep.branches}
    assert by_label["b:length"].measured == pytest.approx(0.8, abs=1e-15)
    assert by_label["d:length"].measured == pytest.approx(0.6, abs=1e-15)
    assert abs(by_label["b:simultaneity"].measured) < 1e-12
    assert abs(by_label["d:simultaneity"].measured) < 1e-12


def test_contraction_random_sweep():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x1 = rng.uniform(-3.0, 3.0)
        dx = rng.uniform(0.2, 4.0)
        v_b, v_d = rng.uniform(-0.95, 0.95, size=2)
        rep = run_length_contraction(
            ContractionScenario(x1=x1, x2=x1 + dx, v_b=v_b, v_d=v_d)
        )
        assert rep.passed
        for check in rep.branches:
            if check.label.endswith("length"):
                gamma = 1.0 / math.sqrt(1.0 - check.parameter**2)
                assert abs(check.measured - dx / gamma) < 1e-12 * dx


def test_contraction_offset_pair_times_allowed():
    # shifting a pair rigidly in time keeps its simultaneity condition
    v = 0.6
    base = (v * 0.0 + 0.7, v * 1.0 + 0.7)
    rep = run_length_contraction(ContractionScenario(v_b=v, t_b=base))
    assert rep.passed


def test_contraction_cross_pair_not_simultaneous():
    scn = ContractionScenario()
    rep = run_length_contraction(scn)
    events = rep.grids["v=0.6"]["D"]
    dt_cross = events[1][0] - events[0][0]
    om = rapidity_of_velocity(scn.v_b)
    expected = math.cosh(om) * (scn.v_d - scn.v_b) * (scn.x2 - scn.x1)
    assert dt_cross == pytest.approx(expected, rel=1e-12)
    assert abs(dt_cross) > 0.1


def test_contraction_validation_errors():
    with pytest.raises(ValueError):
        ContractionScenario(v_b=1.0)
    with pytest.raises(ValueError):
        ContractionScenario(x1=1.0, x2=1.0)
    with pytest.raises(ValueError, match="pair B"):
        ContractionScenario(t_b=(0.0, 0.0))
    with pytest.raises(ValueError, match="pair D"):
        ContractionScenario(t_d=(0.0, 0.1))


def test_dilation_contraction_duality():
    # gamma from the dilation branch times 1/gamma from the contraction
    # branch at the same velocity multiply back to one
    v = 0.6
    om = rapidity_of_velocity(v)
    dil = run_time_dilation(DilationScenario(omega1=om, omega2=-om))
    con = run_length_contraction(ContractionScenario(v_b=v, v_d=-v))
    gamma_meas = {b.label: b.measured for b in dil.branches}[f"omega={om:g}"]
    length_meas = {b.label: b.measured for b in con.branches}["b:length"]
    assert gamma_meas * length_meas == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# width contraction


def test_width_contraction_default_branches():
    rep = run_width_contraction(WidthScenario())
    assert rep.passed
    assert len(rep.branches) == 3
    for check in rep.branches:
        rel = abs(check.measured - check.predicted) / check.predicted
        assert rel < 1e-2
    # rest branch is exact up to the fit
    rest = {b.label: b for b in rep.branches}["omega=0"]
    assert abs(rest.measured - 1.0) < 1e-6


def test_width_contraction_tracks_coordinate_factor():
    rep = run_width_contraction(WidthScenario(sigma=0.7))
    factors = rep.details["coordinate_factors"]
    for check in rep.branches:
        factor = factors[check.label]
        assert check.predicted == pytest.approx(0.7 * factor, rel=1e-15)
        assert check.measured / 0.7 == pytest.approx(factor, rel=1e-2)


def test_width_contraction_sharper_mass_tightens_fit():
    loose = run_width_contraction(WidthScenario(mass=2.0, omegas=(math.log(2.0),)))
    tight = run_width_contraction(WidthScenario(mass=10.0, omegas=(math.log(2.0),)))
    err = lambda rep: abs(
        rep.branches[0].measured / rep.branches[0].predicted - 1.0
    )
    assert err(tight) < err(loose)


def test_width_validation_errors():
    with pytest.raises(ValueError):
        WidthScenario(sigma=0.0)
    with pytest.raises(ValueError):
        WidthScenario(omegas=())
    with pytest.raises(ValueError):
        WidthScenario(omegas=(0.1, 0.1))


# ---------------------------------------------------------------------------
# superposed slices


def test_superposed_slice_ridges():
    rep = run_superposed_slice(SliceScenario())
    assert rep.passed
    by_label = {b.label: b for b in rep.branches}
    for om in (0.25, 0.65):
        slope = by_label[f"omega={om:g}:slope"]
        intercept = by_label[f"omega={om:g}:intercept"]
        assert slope.measured == pytest.approx(math.tanh(om), abs=1e-10)
        assert intercept.measured == pytest.approx(
            0.4 / math.cosh(om), abs=1e-10
        )


def test_superposed_slice_payload_time_scaling():
    rep1 = run_superposed_slice(SliceScenario(payload_time=0.2))
    rep2 = run_superposed_slice(SliceScenario(payload_time=0.6))
    get = lambda rep, label: {b.label: b.measured for b in rep.branches}[label]
    # intercept scales linearly with the payload time; slope does not move
    assert get(rep2, "omega=0.65:intercept") == pytest.approx(
        3.0 * get(rep1, "omega=0.65:intercept"), rel=1e-9
    )
    assert get(rep2, "omega=0.65:slope") == pytest.approx(
        get(rep1, "omega=0.65:slope"), abs=1e-10
    )


def test_superposed_slice_branch_phases():
    scn = SliceScenario(frame_time=0.3, branch_mass=1.5)
    rep = run_superposed_slice(scn)
    phases = rep.details["branch_amplitude_phase"]
    for om in scn.omegas:
        expected = math.remainder(1.5 * math.cosh(om) * 0.3, 2.0 * math.pi)
        assert phases[f"omega={om:g}"] == pytest.approx(expected, abs=1e-12)


def test_slice_validation_errors():
    with pytest.raises(ValueError):
        SliceScenario(sigma=-1.0)
    with pytest.raises(ValueError):
        SliceScenario(omegas=(0.3, 0.3))


# ---------------------------------------------------------------------------
# superposition of boosts


def test_boost_superposition_default_peaks():
    rep = run_boost_superposition(BoostSuperpositionScenario())
    assert rep.passed
    by_label = {b.label: b for b in rep.branches}
    for om in (-0.35, 0.6):
        assert by_label[f"omega={om:g}:peak"].measured == pytest.approx(
            om, abs=1e-10
        )
        assert by_label[f"omega={om:g}:velocity"].measured == pytest.approx(
            math.tanh(om), abs=1e-10
        )


def test_boost_superposition_lattice_rapidities_exact():
    grid = RapidityGrid.default()
    oms = (64 * grid.step, -128 * grid.step)
    rep = run_boost_superposition(BoostSuperpositionScenario(omegas=oms, grid=grid))
    for check in rep.branches:
        if check.label.endswith("peak"):
            assert abs(check.measured - check.parameter) < 1e-12


def test_boost_superposition_grids_shape():
    rep = run_boost_superposition(BoostSuperpositionScenario())
    theta = rep.grids["theta"]
    assert len(rep.grids["density_total"]) == len(theta)
    assert set(rep.grids["density_branches"]) == {"omega=-0.35", "omega=0.6"}
    # total density is largest near the two branch rapidities
    total = np.asarray(rep.grids["density_total"])
    th = np.asarray(theta)
    top = th[np.argsort(total)[-40:]]
    assert np.any(np.abs(top + 0.35) < 0.2) and np.any(np.abs(top - 0.6) < 0.2)


# ---------------------------------------------------------------------------
# non-relativistic interference


def test_interference_amplitudes_match_contour_oracle():
    """The production route against the 2-D contour quadrature at a finer
    resolution than criterion 9 uses."""
    scn = InterferenceScenario()
    omegas = (scn.omega1, scn.omega2)
    oracles = _contour_oracle_amplitudes(scn, omegas, nt=3500, nx=1400)
    for om, oracle in zip(omegas, oracles):
        prod = interference_amplitude(scn, om)
        assert abs(prod - oracle) / abs(oracle) < 1e-6


def test_interference_report_components():
    scn = InterferenceScenario()
    rep = run_nonrel_interference(scn)
    a1 = interference_amplitude(scn, scn.omega1)
    a2 = interference_amplitude(scn, scn.omega2)
    assert rep.components["branch_one"] == pytest.approx(
        0.5 * abs(a1) ** 2, rel=1e-12
    )
    assert rep.components["branch_two"] == pytest.approx(
        0.5 * abs(a2) ** 2, rel=1e-12
    )
    assert rep.components["interference"] == pytest.approx(
        (a1 * a2.conjugate()).real, rel=1e-12
    )
    # the two postselection outcomes exhaust the no-postselection total
    assert rep.components["p_plus"] + rep.components["p_minus"] == pytest.approx(
        rep.components["total"], rel=1e-12
    )


def test_interference_signs_are_complementary():
    plus = run_nonrel_interference(InterferenceScenario(sign=+1))
    minus = run_nonrel_interference(InterferenceScenario(sign=-1))
    assert plus.value + minus.value == pytest.approx(1.0, abs=1e-12)
    assert plus.components["interference"] == pytest.approx(
        -minus.components["interference"], rel=1e-12
    )
    # at nearly opposite small rapidities the branches almost coincide, so
    # the symmetric outcome dominates
    assert plus.value > 0.99


def test_interference_equal_rapidity_factorizes():
    scn = InterferenceScenario(omega1=0.05, omega2=0.05)
    rep = run_nonrel_interference(scn)
    b1 = rep.components["branch_one"]
    assert rep.components["interference"] == pytest.approx(2.0 * b1, rel=1e-12)
    assert rep.components["p_minus"] == pytest.approx(0.0, abs=1e-12)
    assert rep.value == pytest.approx(1.0, abs=1e-12)


def test_interference_frame_overlap_warning():
    sharp = run_nonrel_interference(InterferenceScenario())
    assert sharp.components["frame_overlap"] == 0.0
    assert sharp.warnings == ()
    wide = run_nonrel_interference(InterferenceScenario(frame_width=0.05))
    assert wide.components["frame_overlap"] > 1e-3
    assert any("overlap" in w for w in wide.warnings)


def test_interference_validation_errors():
    with pytest.raises(ValueError):
        InterferenceScenario(omega1=0.2)
    with pytest.raises(ValueError):
        InterferenceScenario(sign=0)
    with pytest.raises(ValueError):
        InterferenceScenario(sigma_x=0.0)
    with pytest.raises(ValueError, match="singularity"):
        InterferenceScenario(tp=0.0)
    for width in (0.0, -0.05, math.inf, math.nan):
        with pytest.raises(ValueError, match="frame_width"):
            InterferenceScenario(frame_width=width)
