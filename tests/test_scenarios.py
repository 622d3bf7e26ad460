"""Tests for the end-to-end scenario runners."""

import cmath
import math
import warnings

import numpy as np
import pytest

from lorentzqrf.acceptance import _contour_oracle_amplitudes
from lorentzqrf.kinematics import boost_matrix, rapidity_of_velocity
from lorentzqrf.scenarios import (
    BoostSuperpositionScenario,
    BranchCheck,
    ContractionScenario,
    CoordinateScenario,
    DilationScenario,
    FitError,
    InterferenceScenario,
    PropagatorTableScenario,
    ScenarioReport,
    SliceScenario,
    WidthScenario,
    gaussian_fit,
    interference_amplitude,
    rapidity_peak_fit,
    run_boost_superposition,
    run_coordinate_transform,
    run_length_contraction,
    run_nonrel_interference,
    run_superposed_slice,
    run_time_dilation,
    run_width_contraction,
)
from lorentzqrf.states import (
    GaussianProfile,
    RapidityGrid,
    RapidityState,
    Slice,
    boost_state,
    from_spacetime_function,
    resample,
)


# ---------------------------------------------------------------------------
# report plumbing


def test_branch_check_pass_semantics():
    rel = BranchCheck("a", 1.0, 2.0, 2.0 + 1e-13, 1e-12, "exact-coordinate")
    assert rel.passed
    assert rel.deviation == abs((2.0 + 1e-13) - 2.0) / 2.0
    rel_bad = BranchCheck("a", 1.0, 2.0, 2.0 + 1e-11, 1e-12, "exact-coordinate")
    assert not rel_bad.passed
    assert rel_bad.deviation == abs((2.0 + 1e-11) - 2.0) / 2.0
    negative = BranchCheck("a", 1.0, -4.0, -3.0, 0.25, "exact-coordinate")
    # a deviation equal to its tolerance fails: every check's rule is strict
    assert negative.deviation == 0.25 and not negative.passed
    # zero prediction switches to an absolute comparison
    zero_ok = BranchCheck("a", 1.0, 0.0, 5e-13, 1e-12, "exact-coordinate")
    assert zero_ok.passed and zero_ok.deviation == 5e-13
    zero_bad = BranchCheck("a", 1.0, 0.0, -5e-12, 1e-12, "exact-coordinate")
    assert not zero_bad.passed and zero_bad.deviation == 5e-12
    assert type(zero_bad.deviation) is float and type(zero_bad.passed) is bool


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


def test_dilation_packet_mode_warns_on_poor_marker_fits():
    # at the defaults the boosted markers' densities along t fit a Gaussian
    # with an rms misfit of 4.9 % of the peak at omega = 0 and 7.5 % at ln 2
    rep = run_time_dilation(DilationScenario(mode="narrow-gaussian"))
    assert rep.passed
    assert rep.warnings == tuple(
        f"branch omega=0.693147: gaussian fit residual 0.0751 at event t={t}"
        for t in (0, 1)
    )


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
    events = dict(rep.chart["data"])["v=0.6 pair D"]
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
# estimators


def _gaussian(t, a, c, s):
    return a * np.exp(-((t - c) ** 2) / (2.0 * s * s))


@pytest.mark.parametrize("sigma, mass", [(1.0, 1.0), (0.4, 3.0), (2.5, 0.5)])
def test_rapidity_peak_fit_recovers_the_boost(sigma, mass):
    grid = RapidityGrid.default()
    rest = from_spacetime_function(Slice(0.0, GaussianProfile(0.0, sigma)), mass, grid)
    omegas = np.concatenate(
        [np.linspace(-2.0, 2.0, 9), np.random.default_rng(11).uniform(-2.0, 2.0, 8)]
    )
    for omega in omegas:
        assert abs(rapidity_peak_fit(boost_state(rest, -omega)) - omega) <= 1e-12


def test_gaussian_fit_recovers_noiseless_gaussians():
    rng = np.random.default_rng(29)
    for i in range(40):
        amp = rng.uniform(0.1, 10.0)
        sigma = rng.uniform(0.05, 5.0)
        center = 0.0 if i % 4 == 0 else rng.uniform(-3.0, 3.0)
        xs = np.linspace(center - 6.0 * sigma, center + 6.0 * sigma, rng.integers(41, 602))
        ys = _gaussian(xs, amp, center, sigma)
        fit = gaussian_fit(
            xs, ys, center + rng.uniform(-0.3, 0.3) * sigma, sigma * rng.uniform(0.7, 1.3)
        )
        assert abs(fit.amplitude - amp) <= 1e-12 * amp
        assert abs(fit.center - center) <= 1e-12 * max(abs(center), sigma)
        assert abs(fit.sigma - sigma) <= 1e-12 * sigma
        assert fit.residual <= 1e-14


def test_gaussian_fit_matches_curve_fit_on_width_contraction():
    from scipy.optimize import OptimizeWarning, curve_fit  # oracle

    rep = run_width_contraction(WidthScenario())
    assert len(rep.branches) == 3
    profiles = {label: (xs, ys) for label, xs, ys in rep.chart["data"]}
    for check in rep.branches:
        xs, ys = (np.array(values) for values in profiles[check.label])
        fit = gaussian_fit(xs, ys, 0.0, check.predicted)
        assert fit.sigma == check.measured
        mask = np.abs(xs) <= 5.0 * check.predicted
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            (amp, center, sigma), _ = curve_fit(
                _gaussian, xs[mask], ys[mask], p0=(ys[mask].max(), 0.0, check.predicted)
            )
        assert abs(fit.amplitude - amp) <= 1e-9 * amp
        assert abs(fit.center - center) <= 1e-9 * sigma
        assert abs(fit.sigma - sigma) <= 1e-9 * sigma


@pytest.mark.parametrize(
    "sigma, mass, omega2", [(0.05, 5.0, 1.2), (0.02, 5.0, 2.0), (0.005, 50.0, 2.0)]
)
def test_gaussian_fit_reaches_the_minimum_on_non_gaussian_scans(sigma, mass, omega2):
    # a packet's density along t is far from a Gaussian here (rms misfit up
    # to 12 % of the peak), where plain Gauss-Newton steps do not converge
    from scipy.optimize import OptimizeWarning, curve_fit  # oracle

    rep = run_time_dilation(
        DilationScenario(mode="narrow-gaussian", sigma=sigma, mass=mass, omega2=omega2)
    )
    scans = rep.chart["data"]
    assert len(scans) == 4
    for _, t, density in scans:
        ts, dens = np.array(t), np.array(density)
        center, width = ts[60], (ts[-1] - ts[0]) / 10.0
        fit = gaussian_fit(ts, dens, center, width)
        mask = np.abs(ts - center) <= 5.0 * width
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            reference, _ = curve_fit(
                _gaussian, ts[mask], dens[mask], p0=(dens[mask].max(), center, width)
            )
        # curve_fit stops early on such flat minima (its sigma is 2e-4 off
        # here), so the oracle is the sum of squares, never below ours
        ssq = lambda a, c, s: np.sum((_gaussian(ts[mask], a, c, s) - dens[mask]) ** 2)
        assert ssq(fit.amplitude, fit.center, fit.sigma) <= ssq(*reference) * (1.0 + 1e-12)


def test_fits_reject_non_peaked_input():
    xs = np.linspace(-5.0, 5.0, 201)
    gauss = np.exp(-0.5 * xs**2)
    for ys in (np.exp(xs), xs + 6.0, 1.0 - xs / 6.0, 1.0 + xs**2):
        with pytest.raises(FitError, match="no peak"):
            gaussian_fit(xs, ys, 0.0, 1.0)
    # nothing positive inside the window around the guess
    for ys in (-gauss, np.zeros_like(xs), np.where(np.abs(xs) > 3.0, 1.0, -gauss)):
        with pytest.raises(FitError, match="0 of them positive"):
            gaussian_fit(xs, ys, 0.0, 0.5)
    # monotone, convex, flat, and a slice peaked past the grid's edge
    grid = RapidityGrid.default()
    th = grid.thetas
    for log_mag in (th, -th, np.sinh(th / 4.0) ** 2, 0.0 * th, -np.sinh(th - 12.0) ** 2):
        with pytest.raises(FitError, match="no boosted-slice peak"):
            rapidity_peak_fit(RapidityState(grid, 1.0, np.exp(log_mag)))


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


# 0.1234567 and 0.1234568 are distinct branches that both print as omega=0.123457
@pytest.mark.parametrize(
    "make, name",
    [
        (lambda om: DilationScenario(omega1=om[0], omega2=om[1]), "omega1 and omega2"),
        (lambda om: WidthScenario(omegas=om), "omegas"),
        (lambda om: SliceScenario(omegas=om), "omegas"),
        (lambda om: BoostSuperpositionScenario(omegas=om), "omegas"),
    ],
    ids=["dilation", "width", "slice", "boosts"],
)
def test_branches_whose_labels_print_alike_are_rejected(make, name):
    with pytest.raises(ValueError) as info:
        make((0.1234567, 0.1234568))
    assert str(info.value) == (
        f"{name} must differ in 6 significant digits, which label their branches: "
        "(0.1234567, 0.1234568) print as ['omega=0.123457', 'omega=0.123457']"
    )
    make((0.123456, 0.123457))  # labels that differ are kept


@pytest.mark.parametrize("omega", [710.5, -710.5, 800.0])
@pytest.mark.parametrize(
    "make, key",
    [
        (lambda om: DilationScenario(omega1=om), "w1"),
        (lambda om: DilationScenario(omega2=om), "w2"),
        (lambda om: WidthScenario(omegas=(om, 0.1)), "omegas"),
        (lambda om: SliceScenario(omegas=(0.1, om)), "omegas"),
        (lambda om: BoostSuperpositionScenario(omegas=(om, 0.1)), "omegas"),
    ],
    ids=["dilation-w1", "dilation-w2", "width", "slice", "boosts"],
)
def test_rapidities_whose_cosh_overflows_are_rejected(make, key, omega):
    with pytest.raises(ValueError) as info:
        make(omega)
    assert str(info.value) == (
        f"|{key}| must be at most 710.4758600739439, where cosh is finite, got {omega!r}"
    )
    assert math.isfinite(math.cosh(710.4758600739439))
    make(710.4758600739439)  # the bound itself is kept


@pytest.mark.parametrize("name", ["payload_mass", "frame_mass", "branch_mass"])
def test_slice_masses_are_checked_by_name(name):
    with pytest.raises(ValueError) as info:
        SliceScenario(**{name: -1.0})
    assert str(info.value) == f"{name} must be positive, got -1.0"
    with pytest.raises(ValueError) as info:
        SliceScenario(**{name: math.nan})
    assert str(info.value) == f"{name} must be finite, got nan"


def test_contraction_velocities_that_print_alike_are_rejected():
    with pytest.raises(ValueError) as info:
        ContractionScenario(v_b=0.6, v_d=0.6000001)
    assert str(info.value) == (
        "vb and vd must differ in 6 significant digits, which label their branches: "
        "(0.6, 0.6000001) print as ['v=0.6', 'v=0.6']"
    )
    with pytest.raises(ValueError, match="branches must be distinct"):
        ContractionScenario(v_b=0.6, v_d=0.6)
    rep = run_length_contraction(ContractionScenario(v_b=0.6, v_d=0.600001))
    labels = [label for label, _ in rep.chart["data"]]
    assert len(set(labels)) == len(labels) == 4


@pytest.mark.parametrize(
    "run, labels",
    [
        (
            lambda: run_time_dilation(DilationScenario(omega1=0.5, omega2=-0.3)),
            ["omega=-0.3", "omega=0.5"],
        ),
        (
            lambda: run_time_dilation(
                DilationScenario(
                    mode="narrow-gaussian", omega1=0.5, omega2=-0.3, t1=-1.0, dt=0.5
                )
            ),
            [
                "omega=-0.3 event_t-0.5",
                "omega=-0.3 event_t-1",
                "omega=0.5 event_t-0.5",
                "omega=0.5 event_t-1",
            ],
        ),
        (
            lambda: run_length_contraction(ContractionScenario(v_b=0.8, v_d=0.6)),
            ["v=0.6 pair B", "v=0.6 pair D", "v=0.8 pair B", "v=0.8 pair D"],
        ),
        (
            lambda: run_width_contraction(WidthScenario(omegas=(0.5, 0.1))),
            ["omega=0.1", "omega=0.5"],
        ),
        (
            lambda: run_superposed_slice(SliceScenario(omegas=(0.65, 0.25))),
            ["omega=0.25", "omega=0.65"],
        ),
        (
            lambda: run_boost_superposition(BoostSuperpositionScenario(omegas=(0.6, -0.35))),
            ["total", "omega=-0.35", "omega=0.6"],
        ),
    ],
    ids=["dilation", "packet-dilation", "contraction", "width", "slice", "boosts"],
)
def test_branch_charts_list_their_entries_by_label(run, labels):
    """Whatever the input order, a per-branch chart sorts its entries by
    label as text (so event_t-0.5 before event_t-1); boosts put the total
    first."""
    assert [entry[0] for entry in run().chart["data"]] == labels


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
    theta = rep.chart["x"]
    densities = dict(rep.chart["data"])
    assert len(densities["total"]) == len(theta)
    assert set(densities) == {"total", "omega=-0.35", "omega=0.6"}
    # total density is largest near the two branch rapidities
    total = np.asarray(densities["total"])
    th = np.asarray(theta)
    top = th[np.argsort(total)[-40:]]
    assert np.any(np.abs(top + 0.35) < 0.2) and np.any(np.abs(top - 0.6) < 0.2)


@pytest.mark.parametrize(
    "omegas", [(-0.35, 0.6), (0.0, 30.0), (9.5,), (-9.8, 0.2)], ids=str
)
def test_boost_superposition_grids_keep_the_branch_windows(omegas):
    """The chart runs over the union of the branches' nonempty windows, the
    sites with |a| > 1e-16 max|a|; every site dropped is below that cut."""
    scn = BoostSuperpositionScenario(omegas=omegas)
    rep = run_boost_superposition(scn)
    grid = RapidityGrid.default()
    rest = from_spacetime_function(
        Slice(0.0, GaussianProfile(0.0, scn.sigma)), scn.mass, grid
    )
    branches = [np.abs(resample(boost_state(rest, -om)).amplitudes) for om in omegas]
    sites = [np.flatnonzero(a > 1e-16 * np.max(a)) for a in branches if np.any(a)]
    lo, hi = min(i[0] for i in sites), max(i[-1] for i in sites) + 1
    assert rep.chart["x"] == grid.thetas[lo:hi].tolist()
    assert {len(density) for _, density in rep.chart["data"]} == {hi - lo}
    for a in branches:
        dropped = np.concatenate([a[:lo], a[hi:]])
        assert np.all(dropped <= 1e-16 * np.max(a))
    off = [w for w in rep.warnings if "entirely off the grid" in w]
    note = "boosted support lies entirely off the grid; all amplitude dropped"
    assert off == ([f"branch omega=30: {note}"] if 30.0 in omegas else [])


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


def test_interference_small_amplitudes_match_contour_oracle():
    """Amplitudes far below the integrand's own size: here |amp| ~ 1.6e-9
    while the integrand's modulus integrates to ~ 5e-4."""
    scn = InterferenceScenario(
        x0=3, t0=1, sigma_x=0.05, sigma_t=0.75, mass=80,
        omega1=0.08, omega2=0.07, tp=-2, xp=0,
    )
    omegas = (scn.omega1, scn.omega2)
    for om, oracle in zip(omegas, _contour_oracle_amplitudes(scn, omegas)):
        prod = interference_amplitude(scn, om)
        assert abs(prod - oracle) / abs(oracle) < 1e-6


def test_interference_report_components():
    scn = InterferenceScenario()
    comp = run_nonrel_interference(scn).details["components"]
    a1 = interference_amplitude(scn, scn.omega1)
    a2 = interference_amplitude(scn, scn.omega2)
    assert comp["branch_one"] == pytest.approx(0.5 * abs(a1) ** 2, rel=1e-12)
    assert comp["branch_two"] == pytest.approx(0.5 * abs(a2) ** 2, rel=1e-12)
    assert comp["interference"] == pytest.approx(
        (a1 * a2.conjugate()).real, rel=1e-12
    )
    # the two postselection outcomes exhaust the no-postselection total
    assert comp["p_plus"] + comp["p_minus"] == pytest.approx(
        comp["total"], rel=1e-12
    )


def _quad_amplitude(scn, omega):
    """The probe's former route, kept as an oracle: the x integral in closed
    form with the kernel in its own form, split at tp, through adaptive quad
    for the real and imaginary parts at an absolute tolerance scaled to the
    integrand's modulus.  Returns the amplitude and that modulus' integral."""
    from scipy.integrate import quad

    m, sx, st = scn.mass, scn.sigma_x, scn.sigma_t
    tp, xp = scn.tp, scn.xp
    beta = 1.0 + omega * omega / 2.0

    def integrand(t):
        d = t - tp
        u = omega * t + scn.x0
        w = beta * t - scn.t0
        a = beta**2 / (4 * sx * sx) + omega**2 / (4 * st * st) - 1j * m / (2 * d)
        b = beta * u / (2 * sx * sx) + omega * w / (2 * st * st) - 1j * m * xp / d
        c = -u * u / (4 * sx * sx) - w * w / (4 * st * st) + 1j * m * xp * xp / (2 * d)
        return (
            cmath.sqrt(m / (1j * d))
            * cmath.sqrt(math.pi / a)
            * cmath.exp(b * b / (4 * a) + c)
        )

    lo, hi = scn.t0 - 14.0 * st, scn.t0 + 14.0 * st
    pieces = [(lo, tp), (tp, hi)] if lo < tp < hi else [(lo, hi)]
    total, modulus = 0.0 + 0.0j, 0.0
    for a_lim, b_lim in pieces:
        size = quad(lambda t: abs(integrand(t)), a_lim, b_lim, limit=400)[0]
        re = quad(lambda t: integrand(t).real, a_lim, b_lim, epsabs=1e-14 * size, limit=400)
        im = quad(lambda t: integrand(t).imag, a_lim, b_lim, epsabs=1e-14 * size, limit=400)
        total += re[0] + 1j * im[0]
        modulus += size
    return total, modulus


def _large_mass_limit(scn, omega):
    """sqrt(2 pi) times the t integral of the packet at x = xp, since the
    kernel tends to sqrt(2 pi) delta(x - xp) as m -> inf: the packet's
    exponent there is -a t^2 + b t + c."""
    beta = 1.0 + omega * omega / 2.0
    sx2, st2 = 4 * scn.sigma_x**2, 4 * scn.sigma_t**2
    ex, et = beta * scn.xp - scn.x0, omega * scn.xp + scn.t0
    a = omega**2 / sx2 + beta**2 / st2
    b = 2 * omega * ex / sx2 + 2 * beta * et / st2
    c = -(ex**2) / sx2 - et**2 / st2
    return math.sqrt(2 * math.pi) * math.sqrt(math.pi / a) * math.exp(b * b / (4 * a) + c)


def test_interference_matches_the_quad_route():
    rng = np.random.default_rng(1515)
    compared = 0
    while compared < 30:
        log_w = rng.uniform(math.log(0.05), math.log(2.0), size=2)
        try:
            scn = InterferenceScenario(
                x0=rng.uniform(-3, 3), t0=rng.uniform(-3, 3),
                sigma_x=math.exp(log_w[0]), sigma_t=math.exp(log_w[1]),
                mass=math.exp(rng.uniform(math.log(0.1), math.log(1000.0))),
                omega1=rng.uniform(-0.1, 0.1), omega2=rng.uniform(-0.1, 0.1),
                tp=rng.uniform(-5, 5), xp=rng.uniform(-5, 5),
            )
        except ValueError:
            continue
        for om in (scn.omega1, scn.omega2):
            oracle, modulus = _quad_amplitude(scn, om)
            if abs(oracle) >= 1e-6 * modulus:  # well conditioned
                assert abs(interference_amplitude(scn, om) - oracle) <= 1e-8 * abs(oracle)
                compared += 1


@pytest.mark.parametrize("mass", [1e9, 1e12, 1e300])
def test_interference_tends_to_the_large_mass_limit(mass):
    scn = InterferenceScenario(mass=mass)
    for om in (scn.omega1, scn.omega2):
        limit = _large_mass_limit(scn, om)
        err = abs(interference_amplitude(scn, om) - limit)
        assert err <= (1.0 / mass + 1e-13) * abs(limit)


def test_interference_at_mass_3000_is_quiet_and_near_its_limit():
    # the deviation from the limit is O(1/m): 0.6/m and 0.65/m here
    scn = InterferenceScenario(mass=3000)
    report = run_nonrel_interference(scn)
    assert report.warnings == ()
    comp = report.details["components"]
    for om, key in ((scn.omega1, "amp_one"), (scn.omega2, "amp_two")):
        amp = complex(comp[key + "_re"], comp[key + "_im"])
        assert abs(amp - _large_mass_limit(scn, om)) <= abs(_large_mass_limit(scn, om)) / scn.mass


def test_interference_signs_are_complementary():
    plus = run_nonrel_interference(InterferenceScenario(sign=+1)).details
    minus = run_nonrel_interference(InterferenceScenario(sign=-1)).details
    assert plus["value"] + minus["value"] == pytest.approx(1.0, abs=1e-12)
    assert plus["components"]["interference"] == pytest.approx(
        -minus["components"]["interference"], rel=1e-12
    )
    # at nearly opposite small rapidities the branches almost coincide, so
    # the symmetric outcome dominates
    assert plus["value"] > 0.99


def test_interference_equal_rapidity_factorizes():
    scn = InterferenceScenario(omega1=0.05, omega2=0.05)
    details = run_nonrel_interference(scn).details
    comp = details["components"]
    b1 = comp["branch_one"]
    assert comp["interference"] == pytest.approx(2.0 * b1, rel=1e-12)
    assert comp["p_minus"] == pytest.approx(0.0, abs=1e-12)
    assert details["value"] == pytest.approx(1.0, abs=1e-12)


def test_interference_frame_overlap_warning():
    sharp = run_nonrel_interference(InterferenceScenario())
    assert sharp.details["components"]["frame_overlap"] == 0.0
    assert sharp.warnings == ()
    wide = run_nonrel_interference(InterferenceScenario(frame_width=0.05))
    assert wide.details["components"]["frame_overlap"] > 1e-3
    assert any("overlap" in w for w in wide.warnings)


def test_interference_probe_at_the_packet_centre_time():
    # the cancelled integrand is smooth at tp = t0: the amplitude there is
    # finite and lies between its neighbours at tp - t0 = -+1e-8
    amps = [
        interference_amplitude(InterferenceScenario(tp=tp), 0.02)
        for tp in (-1e-8, 0.0, 1e-8)
    ]
    assert all(cmath.isfinite(a) for a in amps)
    for part in (lambda z: z.real, lambda z: z.imag):
        lo, mid, hi = map(part, amps)
        assert min(lo, hi) <= mid <= max(lo, hi)
    assert run_nonrel_interference(InterferenceScenario(tp=0.0)).passed


def test_interference_validation_errors():
    with pytest.raises(ValueError):
        InterferenceScenario(omega1=0.2)
    with pytest.raises(ValueError):
        InterferenceScenario(sign=0)
    with pytest.raises(ValueError):
        InterferenceScenario(sigma_x=0.0)
    for width in (0.0, -0.05, math.inf, math.nan):
        with pytest.raises(ValueError, match="frame_width"):
            InterferenceScenario(frame_width=width)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BoostSuperpositionScenario(sigma=0.0), "sigma must be positive"),
        (
            lambda: CoordinateScenario(amplitudes=((1.0, 0.0),)),
            "amplitudes need one (re, im) pair per velocity",
        ),
        (
            lambda: CoordinateScenario(events=(((0.0, 0.0), (1.0, 1.0)),)),
            "events needs one row per velocity, got 1 for 2 velocities",
        ),
        (
            lambda: CoordinateScenario(velocities=(0.6, -0.3, 0.1)),
            "events needs one row per velocity, got 2 for 3 velocities",
        ),
        (lambda: PropagatorTableScenario(step=0.0), "step must be positive and finite, got 0.0"),
    ],
    ids=[
        "boosts-sigma", "coordinate-amplitudes", "coordinate-events", "coordinate-velocities",
        "propagator-step",
    ],
)
def test_scenarios_reject_bad_values_naming_the_field(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
