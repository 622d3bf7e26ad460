"""End-to-end relativistic scenarios with quantitative extraction.

Each runner builds states, applies a frame change, measures the effect with
an explicit estimator (closed-form coordinates, Gaussian fits on |psi|^2 or
profile slices, rapidity-peak fits, or quadrature), and returns a report
pairing every measured number with its analytic prediction and tolerance.

Two extraction paths appear throughout and are labeled in the reports:
"exact-coordinate" entries come from closed-form 2x2 boost algebra and are
machine-exact; "wave-packet" entries come from discretized states and carry
fit/grid error.

Each scenario is a frozen dataclass whose `__post_init__` range-checks its
fields, and every documented `lorentzqrf run` key sets exactly one field.
A report carries everything its table and plot draw, in `details` and
`grids`.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np


def _quiet_curve_fit(*args, **kwargs):
    # scipy loads on first use, so scenarios that fit nothing never import it
    from scipy.optimize import OptimizeWarning, curve_fit

    # near-exact data makes the covariance estimate singular; the reports
    # carry explicit residuals instead
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", OptimizeWarning)
        return curve_fit(*args, **kwargs)

from . import coordinates as coords
from .kinematics import boost_point, check_mass, rapidity_of_velocity
from .frames import superposed_slice_state
from .measurement import ProbabilityReport, momentum_density
from .states import (
    MAX_TIMELIKE_MS,
    Gaussian2D,
    GaussianProfile,
    PropagatorQuery,
    RapidityGrid,
    RapidityState,
    Slice,
    boost_state,
    from_spacetime_function,
    propagator,
    resample,
    slice_profile,
    wavefunction_grid,
)

__all__ = [
    "FitError",
    "FitResult",
    "BranchCheck",
    "ScenarioReport",
    "gaussian_fit",
    "rapidity_peak_fit",
    "ridge_fit",
    "DilationScenario",
    "run_time_dilation",
    "ContractionScenario",
    "run_length_contraction",
    "WidthScenario",
    "run_width_contraction",
    "SliceScenario",
    "run_superposed_slice",
    "BoostSuperpositionScenario",
    "run_boost_superposition",
    "InterferenceScenario",
    "interference_amplitude",
    "run_nonrel_interference",
    "run_interference_checks",
    "CoordinateScenario",
    "run_coordinate_transform",
    "PropagatorTableScenario",
    "run_propagator_table",
]


class FitError(RuntimeError):
    """A least-squares extraction failed or left unacceptable residuals."""


@dataclass(frozen=True)
class FitResult:
    amplitude: float
    center: float
    sigma: float
    residual: float


@dataclass(frozen=True)
class BranchCheck:
    """One measured-vs-predicted number inside a scenario report."""

    label: str
    parameter: float
    predicted: float
    measured: float
    tolerance: float
    path: str

    @property
    def passed(self) -> bool:
        if self.predicted != 0.0:
            return abs(self.measured - self.predicted) <= self.tolerance * abs(
                self.predicted
            )
        return abs(self.measured) <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "parameter": self.parameter,
            "predicted": self.predicted,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "path": self.path,
            "pass": self.passed,
        }


def _named_checks(
    prefix: str, parameter: float, tolerance: float, path: str, **named: tuple
) -> list[BranchCheck]:
    """One check per name=(predicted, measured), labelled prefix:name, in order."""
    return [
        BranchCheck(f"{prefix}:{name}", parameter, predicted, measured, tolerance, path)
        for name, (predicted, measured) in named.items()
    ]


@dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    branches: tuple[BranchCheck, ...]
    warnings: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(b.passed for b in self.branches)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "branches": [b.to_dict() for b in self.branches],
            "warnings": list(self.warnings),
            "details": self.details,
            "grids": self.grids,
            "pass": self.passed,
        }


# ---------------------------------------------------------------------------
# estimators


def gaussian_fit(
    xs: np.ndarray,
    ys: np.ndarray,
    center_guess: float,
    sigma_guess: float,
) -> FitResult:
    """Weighted least-squares Gaussian fit of ys ~ A exp(-(x-c)^2 / 2 s^2).

    Points outside center_guess +- 5 sigma_guess are ignored.  Raises
    FitError when the optimizer fails or the windowed data are degenerate.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    mask = np.abs(xs - center_guess) <= 5.0 * sigma_guess
    x, y = xs[mask], ys[mask]
    if x.size < 8 or not np.any(y > 0.0):
        raise FitError(
            f"gaussian fit window around {center_guess} holds {x.size} usable points"
        )

    def model(t, a, c, s):
        return a * np.exp(-((t - c) ** 2) / (2.0 * s * s))

    try:
        popt, _ = _quiet_curve_fit(
            model, x, y, p0=(float(np.max(y)), center_guess, sigma_guess)
        )
    except RuntimeError as exc:
        raise FitError(f"gaussian fit did not converge: {exc}") from exc
    amp, center, sigma = float(popt[0]), float(popt[1]), abs(float(popt[2]))
    resid = float(np.sqrt(np.mean((model(x, *popt) - y) ** 2)) / max(np.max(y), 1e-300))
    if not (math.isfinite(center) and math.isfinite(sigma) and sigma > 0.0):
        raise FitError(f"gaussian fit returned degenerate parameters {popt}")
    return FitResult(amp, center, sigma, resid)


def rapidity_peak_fit(state: RapidityState, guess: float) -> float:
    """Peak rapidity of |a(theta)| for a boosted Gaussian-slice state.

    Fits log|a| against the exact profile shape c0 - k sinh^2(theta - peak)
    of a boosted Gaussian slice; exact up to rounding at any boost.
    """
    mag = np.abs(state.amplitudes)
    top = float(np.max(mag))
    if top <= 0.0:
        raise FitError("state has no amplitude to locate a peak in")
    keep = mag > top * 1e-3

    def model(t, c0, peak, k):
        return c0 - k * np.sinh(t - peak) ** 2

    try:
        popt, _ = _quiet_curve_fit(
            model,
            state.thetas[keep],
            np.log(mag[keep]),
            p0=(math.log(top), guess, 1.0),
        )
    except RuntimeError as exc:
        raise FitError(f"rapidity peak fit did not converge: {exc}") from exc
    return float(popt[1])


def ridge_fit(state: RapidityState, slope_guess: float, intercept_guess: float):
    """Spacetime support line t = intercept + slope*x of a tilted-slice state.

    The slope comes from the amplitude peak rapidity (tanh of it); the
    intercept from a weighted linear fit of the amplitude phase against
    (E, -p), which yields the rigid translation (tau, xi) of the support and
    hence the line offset tau - slope*xi.
    """
    peak = rapidity_peak_fit(state, math.atanh(slope_guess) if abs(slope_guess) < 1 else 0.0)
    slope = math.tanh(peak)
    mag2 = np.abs(state.amplitudes) ** 2
    e, p = state.energies, state.momenta
    xi_guess = 0.0
    tau_guess = intercept_guess
    resid = np.angle(
        state.amplitudes * np.exp(-1j * (tau_guess * e - xi_guess * p))
    )
    a = np.stack([e, -p], axis=1)
    sol, *_ = np.linalg.lstsq((a.T * mag2).T, resid * mag2, rcond=None)
    tau, xi = tau_guess + float(sol[0]), xi_guess + float(sol[1])
    return slope, tau - slope * xi


# ---------------------------------------------------------------------------
# superposed time dilation


@dataclass(frozen=True)
class DilationScenario:
    """Two events on one worldline, at t1 and t1 + dt, watched from a
    superposed boosted frame.

    The intervals hold to the fixed relative tolerance 1e-12 in
    "exact-event" mode and 1e-2 in "narrow-gaussian" mode.  Exact-event mode
    rejects a t1 so far from 0, for its dt, that rounding the boosted event
    times alone could exceed that tolerance.
    """

    t1: float = 0.0
    dt: float = 1.0
    x0: float = 0.0
    omega1: float = 0.0
    omega2: float = math.log(2.0)
    mode: str = "exact-event"
    sigma: float = 0.02
    mass: float = 50.0
    grid: RapidityGrid | None = None

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.t1 + self.dt > self.t1:  # dt below the float spacing at t1
            raise ValueError("t1 + dt must exceed t1 in floating point")
        if self.omega1 == self.omega2:
            raise ValueError("branch rapidities must differ")
        if self.mode not in ("exact-event", "narrow-gaussian"):
            raise ValueError(f"unknown dilation mode {self.mode!r}")
        if self.mode == "exact-event":
            # the boosted event times round at about one ulp of their size,
            # which must stay inside the check's tolerance on their difference
            for omega in self.omegas:
                ch, sh = math.cosh(abs(omega)), math.sinh(abs(omega))
                rounding = math.ulp(ch * (abs(self.t1) + self.dt) + sh * abs(self.x0))
                allowed = self.tolerance * ch * self.dt
                if rounding > allowed:
                    raise ValueError(
                        f"t1 too far from 0 for dt: in branch omega={omega:g} the "
                        f"boosted event times round at {rounding:.2g}, above "
                        f"the {allowed:.2g} the exact-event check allows"
                    )
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        check_mass(self.mass)

    @property
    def omegas(self) -> tuple[float, float]:
        return (self.omega1, self.omega2)

    @property
    def times(self) -> tuple[float, float]:
        """The two event times, t1 and t1 + dt."""
        return (self.t1, self.t1 + self.dt)

    @property
    def tolerance(self) -> float:
        return 1e-12 if self.mode == "exact-event" else 1e-2


def _dilation_packet_interval(
    scn: DilationScenario, omega: float, grid: RapidityGrid
) -> tuple[float, dict, list[str]]:
    """Fitted time separation of two boosted event markers in one branch,
    their scans, and the boosted markers' notes."""
    ch, sh = math.cosh(omega), math.sinh(omega)
    scan_width = max(2.0 * scn.mass * scn.sigma**2, scn.sigma) * (ch + abs(sh))
    if ch * scn.dt < 4.0 * scan_width:
        raise FitError(
            f"sigma {scn.sigma} too large to separate the two events in branch "
            f"omega={omega} (scan width {scan_width:.3g} vs interval "
            f"{ch * scn.dt:.3g})"
        )
    centers = []
    scans = {}
    notes = []
    for tj in scn.times:
        marker = from_spacetime_function(
            Gaussian2D(tj, scn.x0, scn.sigma, scn.sigma, energy=scn.mass),
            scn.mass,
            grid,
        )
        branch_state = boost_state(marker, -omega)
        notes.extend(branch_state.notes)
        t_pred = ch * tj + sh * scn.x0
        x_line = sh * tj + ch * scn.x0
        ts = np.linspace(t_pred - 5 * scan_width, t_pred + 5 * scan_width, 121)
        vals = np.abs(wavefunction_grid(branch_state, ts, [x_line])[:, 0]) ** 2
        fit = gaussian_fit(ts, vals, t_pred, scan_width)
        centers.append(fit.center)
        scans[f"event_t{tj:g}"] = {
            "t": ts.tolist(),
            "density": vals.tolist(),
            "fit_center": fit.center,
            "x_line": x_line,
        }
    return centers[1] - centers[0], scans, notes


def run_time_dilation(scn: DilationScenario) -> ScenarioReport:
    """Per-branch time interval between two fixed-position events.

    Exact path: closed-form coordinates of the boosted events.  Wave-packet
    path: narrow Gaussian markers at the events, boosted branchwise, peak
    positions extracted by Gaussian fits of |psi|^2 along the t scan through
    each boosted event.
    """
    checks = []
    details: dict = {"dt": scn.dt, "mode": scn.mode}
    grids: dict = {}
    warnings = []
    if scn.mode == "exact-event":
        for omega in scn.omegas:
            mapped = [boost_point(-omega, (tj, scn.x0)) for tj in scn.times]
            measured = mapped[1].t - mapped[0].t
            checks.append(
                BranchCheck(
                    label=f"omega={omega:g}",
                    parameter=omega,
                    predicted=math.cosh(omega) * scn.dt,
                    measured=measured,
                    tolerance=scn.tolerance,
                    path="exact-coordinate",
                )
            )
            grids[f"omega={omega:g}"] = {
                "events": [list(ev) for ev in mapped],
            }
    else:
        grid = scn.grid or RapidityGrid.default()
        for omega in scn.omegas:
            measured, scans, notes = _dilation_packet_interval(scn, omega, grid)
            checks.append(
                BranchCheck(
                    label=f"omega={omega:g}",
                    parameter=omega,
                    predicted=math.cosh(omega) * scn.dt,
                    measured=measured,
                    tolerance=scn.tolerance,
                    path="wave-packet",
                )
            )
            grids[f"omega={omega:g}"] = scans
            warnings.extend(f"branch omega={omega:g}: {note}" for note in notes)
        details["sigma"] = scn.sigma
        details["mass"] = scn.mass
    return ScenarioReport(
        scenario="time-dilation",
        branches=tuple(checks),
        warnings=tuple(warnings),
        details=details,
        grids=grids,
    )


# ---------------------------------------------------------------------------
# superposed length contraction


@dataclass(frozen=True)
class ContractionScenario:
    """Two event pairs marking a rod, watched from two velocity branches.

    The pair times must satisfy the simultaneity conditions
    dt_B = v_b dx and dt_D = v_d dx so that each pair is simultaneous in
    its own branch after the frame change.  Omitted times default to
    t_j = v x_j, which satisfies the condition exactly.  Lengths and time
    offsets hold to the fixed tolerance 1e-12.
    """

    tolerance = 1e-12

    x1: float = 0.0
    x2: float = 1.0
    v_b: float = 0.6
    v_d: float = 0.8
    t_b: tuple[float, float] | None = None
    t_d: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        for v in (self.v_b, self.v_d):
            if not (math.isfinite(v) and abs(v) < 1.0):
                raise ValueError(f"branch velocity must satisfy |v| < 1, got {v}")
        if self.x2 == self.x1:
            raise ValueError("rod ends must be distinct")
        dx = self.x2 - self.x1
        for name, v, pair in (("B", self.v_b, self.t_b), ("D", self.v_d, self.t_d)):
            if pair is None:
                continue
            dt = pair[1] - pair[0]
            if abs(dt - v * dx) > 1e-12 * max(1.0, abs(dt), abs(v * dx)):
                raise ValueError(
                    f"pair {name} violates its simultaneity condition: "
                    f"dt={dt} but v*dx={v * dx}"
                )

    def pair_times(self, name: str) -> tuple[float, float]:
        v, pair = ((self.v_b, self.t_b) if name == "B" else (self.v_d, self.t_d))
        if pair is not None:
            return pair
        return (v * self.x1, v * self.x2)


def run_length_contraction(scn: ContractionScenario) -> ScenarioReport:
    """Per-branch rod length from the branch's own simultaneous event pair."""
    dx = scn.x2 - scn.x1
    checks = []
    details: dict = {"dx": dx}
    grids: dict = {}
    for branch_name, v, own_pair in (("b", scn.v_b, "B"), ("d", scn.v_d, "D")):
        omega = rapidity_of_velocity(v)
        gamma = math.cosh(omega)
        branch_events = {}
        for pair_name in ("B", "D"):
            times = scn.pair_times(pair_name)
            mapped = [
                boost_point(omega, (t, x))
                for t, x in zip(times, (scn.x1, scn.x2))
            ]
            branch_events[pair_name] = [list(ev) for ev in mapped]
        own = branch_events[own_pair]
        dt_prime = own[1][0] - own[0][0]
        dx_prime = own[1][1] - own[0][1]
        checks += _named_checks(
            branch_name, v, scn.tolerance, "exact-coordinate",
            length=(dx / gamma, dx_prime), simultaneity=(0.0, dt_prime),
        )
        grids[f"v={v:g}"] = branch_events
        details[f"branch_{branch_name}"] = {
            "velocity": v,
            "gamma": gamma,
            "measures_pair": own_pair,
        }
    return ScenarioReport(
        scenario="length-contraction",
        branches=tuple(checks),
        details=details,
        grids=grids,
    )


# ---------------------------------------------------------------------------
# Gaussian width contraction


@dataclass(frozen=True)
class WidthScenario:
    """Equal-time Gaussian payload watched from superposed boost branches.

    The sigma/cosh(omega) width law is the sharp-localization limit
    (mass*sigma >> 1); the default payload mass keeps the subleading
    momentum-shell correction well inside the fixed 1% relative tolerance.
    """

    tolerance = 1e-2

    sigma: float = 1.0
    omegas: tuple[float, ...] = (0.0, math.log(2.0), math.atanh(0.8))
    mass: float = 5.0
    grid: RapidityGrid | None = None

    def __post_init__(self) -> None:
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if not self.omegas:
            raise ValueError("need at least one branch rapidity")
        if len(set(self.omegas)) != len(self.omegas):
            raise ValueError("branch rapidities must be distinct")
        check_mass(self.mass)


def run_width_contraction(scn: WidthScenario) -> ScenarioReport:
    """Fits the t=0 spatial width of each branch payload after the jump."""
    amp = 1.0 / math.sqrt(len(scn.omegas))
    jumped = superposed_slice_state(
        GaussianProfile(0.0, scn.sigma),
        [(om, amp) for om in scn.omegas],
        payload_mass=scn.mass,
        grid=scn.grid,
    )
    checks = []
    grids: dict = {}
    warnings = []
    for branch, (pay,) in zip(jumped.branches, jumped.payloads):
        omega = -branch.rapidity
        predicted = scn.sigma / math.cosh(omega)
        xs = np.linspace(-6.0 * predicted, 6.0 * predicted, 601)
        prof = np.abs(slice_profile(pay, 0.0, xs)) ** 2
        fit = gaussian_fit(xs, prof, 0.0, predicted)
        checks.append(
            BranchCheck(
                label=f"omega={omega:g}",
                parameter=omega,
                predicted=predicted,
                measured=fit.sigma,
                tolerance=scn.tolerance,
                path="wave-packet",
            )
        )
        grids[f"omega={omega:g}"] = {
            "x": xs.tolist(),
            "profile": prof.tolist(),
            "fit_sigma": fit.sigma,
        }
        if fit.residual > 0.05:
            warnings.append(
                f"branch omega={omega:g}: gaussian fit residual {fit.residual:.3g}"
            )
        warnings.extend(f"branch omega={omega:g}: {note}" for note in pay.notes)
    return ScenarioReport(
        scenario="width-contraction",
        branches=tuple(checks),
        warnings=tuple(warnings),
        details={
            "sigma": scn.sigma,
            "mass": scn.mass,
            "coordinate_factors": {
                f"omega={om:g}": 1.0 / math.cosh(om) for om in scn.omegas
            },
        },
        grids=grids,
    )


# ---------------------------------------------------------------------------
# superposed simultaneity slices


@dataclass(frozen=True)
class SliceScenario:
    """Equal-time slice payload jumped into a superposition of tilted slices.

    Slopes and intercepts hold to the fixed tolerance 1e-9.
    """

    tolerance = 1e-9

    sigma: float = 1.0
    payload_time: float = 0.4
    frame_time: float = 0.0
    omegas: tuple[float, ...] = (0.25, 0.65)
    payload_mass: float = 1.0
    frame_mass: float = 1.0
    branch_mass: float = 1.0
    grid: RapidityGrid | None = None

    def __post_init__(self) -> None:
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if len(set(self.omegas)) != len(self.omegas) or not self.omegas:
            raise ValueError("branch rapidities must be distinct and nonempty")


def run_superposed_slice(scn: SliceScenario) -> ScenarioReport:
    """Slope and intercept of each branch's tilted support line.

    Branch omega carries the payload on t = payload_time/cosh(omega)
    + tanh(omega) x; both numbers are extracted from the rapidity-space
    amplitudes (peak location and phase fit), not from wavefunction scans.
    Each ridge is tabulated in `grids` across its branch's support,
    |x| <= 4 sigma cosh(omega).
    """
    amp = 1.0 / math.sqrt(len(scn.omegas))
    state = superposed_slice_state(
        GaussianProfile(0.0, scn.sigma),
        [(om, amp) for om in scn.omegas],
        payload_time=scn.payload_time,
        frame_time=scn.frame_time,
        frame_mass=scn.frame_mass,
        branch_mass=scn.branch_mass,
        payload_mass=scn.payload_mass,
        grid=scn.grid,
    )
    checks = []
    grids: dict = {}
    warnings = []
    for branch, (pay,) in zip(state.branches, state.payloads):
        omega = -branch.rapidity
        slope_pred = math.tanh(omega)
        intercept_pred = scn.payload_time / math.cosh(omega)
        slope, intercept = ridge_fit(pay, slope_pred, intercept_pred)
        checks += _named_checks(
            f"omega={omega:g}", omega, scn.tolerance, "wave-packet",
            slope=(slope_pred, slope), intercept=(intercept_pred, intercept),
        )
        span = 4.0 * scn.sigma * math.cosh(omega)
        xs = np.linspace(-span, span, 41)
        grids[f"omega={omega:g}"] = {
            "x": xs.tolist(),
            "ridge_t": (intercept + slope * xs).tolist(),
        }
        warnings.extend(f"branch omega={omega:g}: {note}" for note in pay.notes)
    return ScenarioReport(
        scenario="superposed-slice",
        branches=tuple(checks),
        warnings=tuple(warnings),
        details={
            "sigma": scn.sigma,
            "payload_time": scn.payload_time,
            "branch_amplitude_phase": {
                f"omega={-b.rapidity:g}": cmath.phase(b.amplitude)
                for b in state.branches
            },
        },
        grids=grids,
    )


# ---------------------------------------------------------------------------
# superposition of boosts on one particle


@dataclass(frozen=True)
class BoostSuperpositionScenario:
    """One Gaussian packet pushed into a coherent superposition of boosts.

    The default packet is wide enough in space that its rapidity spread
    1/(sigma*mass) resolves the two branch humps in the momentum density.
    Peaks and velocities hold to the fixed tolerance 1e-9.
    """

    tolerance = 1e-9

    sigma: float = 2.5
    omegas: tuple[float, ...] = (-0.35, 0.6)
    mass: float = 1.0
    grid: RapidityGrid | None = None

    def __post_init__(self) -> None:
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if len(set(self.omegas)) != len(self.omegas) or not self.omegas:
            raise ValueError("branch rapidities must be distinct and nonempty")
        check_mass(self.mass)


def run_boost_superposition(scn: BoostSuperpositionScenario) -> ScenarioReport:
    """Rapidity-space peaks of each boosted component of the superposition."""
    grid = scn.grid or RapidityGrid.default()
    rest = from_spacetime_function(
        Slice(0.0, GaussianProfile(0.0, scn.sigma)), scn.mass, grid
    )
    amp = 1.0 / math.sqrt(len(scn.omegas))
    checks = []
    total = np.zeros(grid.count, dtype=complex)
    densities = {}
    warnings = []
    for omega in scn.omegas:
        comp = boost_state(rest, -omega)
        on_grid = resample(comp)  # the sum and densities share the grid's thetas
        total += amp * on_grid.amplitudes
        peak = rapidity_peak_fit(comp, omega)
        checks += _named_checks(
            f"omega={omega:g}", omega, scn.tolerance, "wave-packet",
            peak=(omega, peak), velocity=(math.tanh(omega), math.tanh(peak)),
        )
        densities[f"omega={omega:g}"] = momentum_density(on_grid).tolist()
        warnings.extend(f"branch omega={omega:g}: {note}" for note in on_grid.notes)
    return ScenarioReport(
        scenario="superposition-of-boosts",
        branches=tuple(checks),
        warnings=tuple(warnings),
        details={"sigma": scn.sigma, "mass": scn.mass},
        grids={
            "theta": grid.thetas.tolist(),
            "density_total": (np.abs(total) ** 2 / 2.0).tolist(),
            "density_branches": densities,
        },
    )


# ---------------------------------------------------------------------------
# non-relativistic interference probe


@dataclass(frozen=True)
class InterferenceScenario:
    """Gaussian packet in two slightly boosted branches, probed in spacetime.

    Works in the small-rapidity expansion of the boost matrix,
    Lambda ~ [[1 + w^2/2, -w], [-w, 1 + w^2/2]], with the free Schroedinger
    propagator as the probe kernel.  The probe sits at the event (tp, xp).
    """

    x0: float = 0.0
    t0: float = 0.0
    sigma_x: float = 1.0
    sigma_t: float = 1.0
    mass: float = 1.0
    omega1: float = 0.02
    omega2: float = -0.02
    tp: float = 5.0
    xp: float = 1.0
    sign: int = +1
    frame_width: float | None = None

    def __post_init__(self) -> None:
        for om in (self.omega1, self.omega2):
            if abs(om) > 0.1:
                raise ValueError(
                    f"|omega| <= 0.1 required for the expansion, got {om}"
                )
        if self.sign not in (+1, -1):
            raise ValueError("postselection sign must be +1 or -1")
        if self.sigma_x <= 0.0 or self.sigma_t <= 0.0:
            raise ValueError("packet widths must be positive")
        width = self.frame_width
        if width is not None and not (math.isfinite(width) and width > 0.0):
            raise ValueError(f"frame_width must be positive and finite, got {width!r}")
        check_mass(self.mass)
        if abs(self.tp - self.t0) < 1e-9:
            raise ValueError(
                "probe time coincides with the packet centre: propagator "
                "singularity at zero elapsed time"
            )


def interference_amplitude(scn: InterferenceScenario, omega: float) -> complex:
    """<branch packet | probe>: expanded-boost Gaussian against the kernel.

    The spatial integral is done in closed form (Gaussian times quadratic
    phase); the remaining time integral runs through the integrable kernel
    singularity at t = t', where the closed-form factors stay bounded.
    """
    m, sx, st = scn.mass, scn.sigma_x, scn.sigma_t
    tp, xp = scn.tp, scn.xp
    beta = 1.0 + omega * omega / 2.0

    def integrand(t: float) -> complex:
        d = t - tp
        u = omega * t + scn.x0
        w = beta * t - scn.t0
        a = beta * beta / (4 * sx * sx) + omega * omega / (4 * st * st) - 1j * m / (
            2 * d
        )
        b = beta * u / (2 * sx * sx) + omega * w / (2 * st * st) - 1j * m * xp / d
        c = -u * u / (4 * sx * sx) - w * w / (4 * st * st) + 1j * m * xp * xp / (2 * d)
        return (
            cmath.sqrt(m / (1j * d))
            * cmath.sqrt(math.pi / a)
            * cmath.exp(b * b / (4 * a) + c)
        )

    from scipy.integrate import quad

    half_width = 14.0 * st
    lo, hi = scn.t0 - half_width, scn.t0 + half_width
    pieces = [(lo, hi)]
    if lo < tp < hi:
        pieces = [(lo, tp), (tp, hi)]
    total = 0.0 + 0.0j
    for a_lim, b_lim in pieces:
        re = quad(lambda t: integrand(t).real, a_lim, b_lim, limit=400)[0]
        im = quad(lambda t: integrand(t).imag, a_lim, b_lim, limit=400)[0]
        total += re + 1j * im
    return total


def run_nonrel_interference(scn: InterferenceScenario) -> ProbabilityReport:
    """Postselected detection probability at the probe point.

    With normalized postselection states (|1> +- |2>)/sqrt(2) and orthogonal
    frame branches, p_+- = (b1 + b2)/2 +- Re[amp1 conj(amp2)], so that
    p_+ + p_- recovers the postselection-free total b1 + b2.  The reported
    value is the conditional probability p_sign / (p_+ + p_-); raw densities
    sit in the components.
    """
    amp1 = interference_amplitude(scn, scn.omega1)
    amp2 = interference_amplitude(scn, scn.omega2)
    b1, b2 = abs(amp1) ** 2, abs(amp2) ** 2
    cross = (amp1 * amp2.conjugate()).real
    p_plus = 0.5 * (b1 + b2) + cross
    p_minus = 0.5 * (b1 + b2) - cross
    total = b1 + b2
    warnings = []
    if scn.frame_width is not None:
        overlap = math.exp(
            -((scn.omega1 - scn.omega2) ** 2) / (8.0 * scn.frame_width**2)
        )
    else:
        overlap = 0.0 if scn.omega1 != scn.omega2 else 1.0
    if overlap >= 1e-3 and scn.omega1 != scn.omega2:
        warnings.append(
            f"frame branch overlap {overlap:.3g} >= 1e-3: postselection states "
            "are not orthogonal and the two-outcome split is approximate"
        )
    p_signed = p_plus if scn.sign > 0 else p_minus
    value = p_signed / total if total > 0.0 else 0.0
    return ProbabilityReport(
        value=min(max(value, 0.0), 1.0),
        components={
            "branch_one": 0.5 * b1,
            "branch_two": 0.5 * b2,
            "interference": float(scn.sign) * cross,
            "p_plus": p_plus,
            "p_minus": p_minus,
            "total": total,
            "amp_one_re": amp1.real,
            "amp_one_im": amp1.imag,
            "amp_two_re": amp2.real,
            "amp_two_im": amp2.imag,
            "frame_overlap": overlap,
        },
        warnings=tuple(warnings),
    )


def run_interference_checks(scn: InterferenceScenario) -> ScenarioReport:
    """The interference probe as a report: outcome completeness p_+ + p_- =
    total, and a frame-branch overlap small enough for the two-outcome split.
    """
    prob = run_nonrel_interference(scn)
    comp = prob.components
    checks = (
        BranchCheck(
            label="outcome-completeness",
            parameter=float(scn.sign),
            predicted=comp["total"],
            measured=comp["p_plus"] + comp["p_minus"],
            tolerance=1e-10,
            path="wave-packet",
        ),
        BranchCheck(
            label="frame-overlap-small",
            parameter=scn.omega1 - scn.omega2,
            predicted=0.0,
            measured=comp["frame_overlap"],
            tolerance=1e-3,
            path="exact-coordinate",
        ),
    )
    return ScenarioReport(
        scenario="nonrel-interference",
        branches=checks,
        warnings=prob.warnings,
        details={"value": prob.value, "components": dict(comp)},
    )


# ---------------------------------------------------------------------------
# quantum-controlled coordinate transformation


@dataclass(frozen=True)
class CoordinateScenario:
    """Branch-correlated events re-expressed relative to the sharp system.

    `amplitudes` holds one (re, im) pair per velocity branch, or None for
    unit amplitudes; `events` holds one row of (t, x) events per branch,
    at least two per row, since the check compares the first two.
    """

    owner: str = "A"
    target: str = "B"
    velocities: tuple[float, ...] = (0.6, -0.3)
    amplitudes: tuple[tuple[float, float], ...] | None = None
    events: tuple[tuple[tuple[float, float], ...], ...] = (
        ((0.0, 0.0), (2.0, 1.0)),
        ((0.0, 0.0), (2.0, 1.0)),
    )

    def __post_init__(self) -> None:
        short = [len(row) for row in self.events if len(row) < 2]
        if short:
            raise ValueError(
                f"events needs at least two events per branch row, got a row of {short[0]}"
            )

    def state(self) -> coords.JointCoordinateState:
        amps = self.amplitudes
        if amps is None:
            amps = ((1.0, 0.0),) * len(self.velocities)
        if len(amps) != len(self.velocities):
            raise ValueError("amplitudes need one (re, im) pair per velocity")
        lab = tuple(
            coords.VelocityBranch(v, complex(*a)) for v, a in zip(self.velocities, amps)
        )
        events = tuple(
            tuple(coords.EventCoordinate(t, x) for t, x in row) for row in self.events
        )
        return coords.JointCoordinateState(self.owner, lab, events)


def run_coordinate_transform(scn: CoordinateScenario) -> ScenarioReport:
    """Per-branch invariant interval of the first two events, before and
    after the controlled frame change (exact to roundoff)."""
    state = scn.state()
    moved = coords.transform_frame(state, scn.owner, scn.target)
    before = coords.distance_expectation(state, 0, 1)
    after = coords.distance_expectation(moved, 0, 1)
    checks = []
    for branch, b_int, a_int in zip(state.lab, before, after):
        checks.append(
            BranchCheck(
                label=f"v={branch.v:g}:interval",
                parameter=branch.v,
                predicted=b_int.value,
                measured=a_int.value,
                tolerance=1e-12,
                path="exact-coordinate",
            )
        )
    before_dict, after_dict = coords.state_to_dict(state), coords.state_to_dict(moved)
    return ScenarioReport(
        scenario="coordinate-transform",
        branches=tuple(checks),
        details={"before": before_dict, "after": after_dict},
        grids={"before": before_dict["events"], "after": after_dict["events"]},
    )


# ---------------------------------------------------------------------------
# two-point function table


@dataclass(frozen=True)
class PropagatorTableScenario:
    """W(dt, 0) and W(0, dx) at separations step, 2 step, ..., steps step.

    m*step*steps is held to the continuum propagator's cost bound
    `states.MAX_TIMELIKE_MS`, and steps to MAX_STEPS (about 40 s at both).
    """

    MAX_STEPS = 10_000

    mass: float = 1.0
    step: float = 0.25
    steps: int = 12

    def __post_init__(self) -> None:
        check_mass(self.mass)
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step must be positive and finite, got {self.step!r}")
        if not 1 <= self.steps <= self.MAX_STEPS:
            raise ValueError(f"steps must be in 1..{self.MAX_STEPS}, got {self.steps}")
        # a subnormal step**2 has lost bits, and 0 reads as lightlike
        if self.step * self.step < sys.float_info.min:
            raise ValueError(
                f"step must be at least {math.sqrt(sys.float_info.min):.4g}, where "
                f"step**2 is still a normal float, got {self.step!r}"
            )
        reach = self.step * self.steps
        if not (math.isfinite(reach * reach) and math.isfinite(self.mass * reach)):
            raise ValueError(
                f"step*steps*m overflows the propagator argument "
                f"(step={self.step!r}, steps={self.steps}, m={self.mass!r})"
            )
        if self.mass * reach > MAX_TIMELIKE_MS:
            raise ValueError(
                f"m*step*steps = {self.mass * reach!r} exceeds {MAX_TIMELIKE_MS:g}, "
                "beyond which the propagator's panel count grows too costly"
            )


def run_propagator_table(scn: PropagatorTableScenario) -> ScenarioReport:
    """The continuum two-point function along the time and space axes."""
    seps = [scn.step * k for k in range(1, scn.steps + 1)]
    tl = [propagator(PropagatorQuery(s, 0.0, scn.mass)) for s in seps]
    sl = [propagator(PropagatorQuery(0.0, s, scn.mass)) for s in seps]
    rows = [{"dt": s, "dx": 0.0, "re": w.real, "im": w.imag} for s, w in zip(seps, tl)]
    rows += [{"dt": 0.0, "dx": s, "re": w.real, "im": w.imag} for s, w in zip(seps, sl)]
    return ScenarioReport(
        scenario="propagator-table",
        branches=(),
        details={"mass": scn.mass},
        grids={
            "rows": rows,
            "timelike": {
                "dt": seps,
                "re": [w.real for w in tl],
                "im": [w.imag for w in tl],
            },
            "spacelike": {"dx": seps, "value": [w.real for w in sl]},
        },
    )
