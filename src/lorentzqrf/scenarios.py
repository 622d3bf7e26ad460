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
from dataclasses import dataclass, field

import numpy as np

from . import coordinates as coords
from .kinematics import boost_point, check_mass, rapidity_of_velocity
from .frames import check_branches, superposed_slice_state
from .measurement import momentum_density
from .states import (
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
    _gauss_panels,
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
        # bool(): np.float64 fields would otherwise give an np.bool_
        if self.predicted != 0.0:
            return bool(
                abs(self.measured - self.predicted) <= self.tolerance * abs(self.predicted)
            )
        return bool(abs(self.measured) <= self.tolerance)

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


# gaussian_fit stops after a step that moves A by at most _FIT_STEP_TOL of |A|
# and the centre and width by at most _FIT_STEP_TOL of sigma.  Steps above
# _FIT_WHOLE_STEP are halved until the sum of squares does not grow; smaller
# ones are taken whole, since that sum's rounding hides their gain.
_FIT_STEP_TOL = 1e-12
_FIT_WHOLE_STEP = 1e-6
_FIT_MAX_STEPS = 100
# Reports warn when a fit's rms residual exceeds this fraction of the peak.
_FIT_RESIDUAL_WARN = 0.05


def _gaussian_residual(x, y, params):
    """q = (x - c)/s, the model A exp(-q^2/2) and the residual model - y."""
    amp, center, sigma = params
    q = (x - center) / sigma
    model = amp * np.exp(-0.5 * q * q)
    return q, model, model - y


def gaussian_fit(
    xs: np.ndarray,
    ys: np.ndarray,
    center_guess: float,
    sigma_guess: float,
) -> FitResult:
    """Least-squares Gaussian fit of ys ~ A exp(-(x-c)^2 / 2 s^2).

    Points outside center_guess +- 5 sigma_guess are ignored.  The start is
    the y^2-weighted parabola through log y on the points with y > 0; it must
    be concave with its vertex inside the window.  Newton steps on the sum of
    squared residuals then converge to its minimum: each uses the exact
    Hessian where that is positive definite and the Gauss-Newton matrix
    J^T J elsewhere.  Raises FitError when the windowed data are degenerate,
    hold no peak, or the steps do not converge.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    mask = np.abs(xs - center_guess) <= 5.0 * sigma_guess
    x, y = xs[mask], ys[mask]
    pos = y > 0.0
    if x.size < 8 or not pos.any():
        raise FitError(
            f"gaussian fit window around {center_guess} holds {x.size} points, "
            f"{np.count_nonzero(pos)} of them positive; it needs 8, some positive"
        )
    top = float(np.max(y))
    z = (x[pos] - center_guess) / sigma_guess
    w = y[pos] / top
    (a0, a1, a2), *_ = np.linalg.lstsq(
        np.stack([w, w * z, w * z * z], axis=1), w * np.log(w), rcond=None
    )
    vertex = center_guess - sigma_guess * a1 / (2.0 * a2) if a2 < 0.0 else math.nan
    if not x.min() <= vertex <= x.max():
        raise FitError(
            f"gaussian fit window around {center_guess} holds no peak "
            f"(log-parabola curvature {a2:.3g})"
        )
    params = np.array(
        [top * math.exp(a0 - a1 * a1 / (4.0 * a2)), vertex, sigma_guess / math.sqrt(-2.0 * a2)]
    )
    q, model, resid = _gaussian_residual(x, y, params)
    for _ in range(_FIT_MAX_STEPS):
        # in the relative steps (dA/A, dc/s, ds/s) the model's gradient is
        # m (1, q, q^2) and its Hessian m [[0, q, q^2], [q, q^2 - 1, q^3 - 2q],
        # [q^2, q^3 - 2q, q^4 - 3q^2]]
        q2 = q * q
        powers = np.stack([np.ones_like(q), q, q2, q * q2, q2 * q2], axis=1)
        jac = model[:, None] * powers[:, :3]
        r0, r1, r2, r3, r4 = (resid * model) @ powers
        gauss_newton = jac.T @ jac
        hess = gauss_newton + np.array(
            [[0.0, r1, r2], [r1, r2 - r0, r3 - 2.0 * r1], [r2, r3 - 2.0 * r1, r4 - 3.0 * r2]]
        )
        try:
            if np.linalg.eigvalsh(hess)[0] <= 0.0:
                hess = gauss_newton
            step = -np.linalg.solve(hess, jac.T @ resid)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        scale = np.array([params[0], params[2], params[2]])
        if np.max(np.abs(step)) <= _FIT_STEP_TOL:
            amp, center, sigma = (float(v) for v in params + step * scale)
            q, model, resid = _gaussian_residual(x, y, (amp, center, sigma))
            rms = float(np.sqrt(np.mean(resid * resid)) / top)
            return FitResult(amp, center, abs(sigma), rms)
        ssq = resid @ resid
        while True:
            trial = params + step * scale
            q, model, resid = _gaussian_residual(x, y, trial)
            if resid @ resid <= ssq or np.max(np.abs(step)) <= _FIT_WHOLE_STEP:
                break
            step = 0.5 * step
        params = trial
    raise FitError(
        f"gaussian fit did not converge in {_FIT_MAX_STEPS} Newton steps "
        f"(A, c, s = {params[0]:.6g}, {params[1]:.6g}, {params[2]:.6g})"
    )


def rapidity_peak_fit(state: RapidityState) -> float:
    """Peak rapidity of |a(theta)| for a boosted Gaussian-slice state.

    Fits log|a| on the sites above 1e-3 of the peak against the exact profile
    shape c0 - k sinh^2(theta - peak) of a boosted Gaussian slice.  With
    u = theta - theta0 about the largest sample, that shape is
    alpha + beta cosh 2u + gamma sinh 2u, so one linear least squares finds
    the same minimum in closed form: peak = theta0 + atanh(-gamma/beta)/2,
    exact up to rounding at any boost.  Raises FitError unless beta < 0,
    |gamma/beta| < 1 and the peak lies among the fitted sites.
    """
    mag = np.abs(state.amplitudes)
    top = float(np.max(mag))
    if top <= 0.0:
        raise FitError("state has no amplitude to locate a peak in")
    keep = mag > top * 1e-3
    thetas = state.thetas[keep]
    theta0 = float(state.thetas[np.argmax(mag)])
    u2 = 2.0 * (thetas - theta0)
    (_, beta, gamma), *_ = np.linalg.lstsq(
        np.stack([np.ones_like(u2), np.cosh(u2), np.sinh(u2)], axis=1),
        np.log(mag[keep]),
        rcond=None,
    )
    peak = theta0 + 0.5 * math.atanh(-gamma / beta) if abs(gamma) < -beta else math.nan
    if not thetas[0] <= peak <= thetas[-1]:
        raise FitError(
            f"log|a| holds no boosted-slice peak (cosh 2u coefficient {beta:.3g}, "
            f"sinh 2u coefficient {gamma:.3g})"
        )
    return peak


def ridge_fit(state: RapidityState, intercept_guess: float):
    """Spacetime support line t = intercept + slope*x of a tilted-slice state.

    The slope comes from the amplitude peak rapidity (tanh of it); the
    intercept from a weighted linear fit of the amplitude phase against
    (E, -p), which yields the rigid translation (tau, xi) of the support and
    hence the line offset tau - slope*xi.
    """
    peak = rapidity_peak_fit(state)
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
        check_branches(list(self.omegas))
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
    scn: DilationScenario, omega: float
) -> tuple[float, dict, list[str], dict[float, float]]:
    """Fitted time separation of two boosted event markers in one branch,
    their scans, the boosted markers' notes and each event's fit residual."""
    grid = scn.grid or RapidityGrid.default()
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
    residuals = {}
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
        residuals[tj] = fit.residual
        scans[f"event_t{tj:g}"] = {
            "t": ts.tolist(),
            "density": vals.tolist(),
            "fit_center": fit.center,
            "x_line": x_line,
        }
    return centers[1] - centers[0], scans, notes, residuals


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
    for omega in scn.omegas:
        label = f"omega={omega:g}"
        if scn.mode == "exact-event":
            mapped = [boost_point(-omega, (tj, scn.x0)) for tj in scn.times]
            measured = mapped[1].t - mapped[0].t
            path = "exact-coordinate"
            grids[label] = {"events": [list(ev) for ev in mapped]}
        else:
            measured, grids[label], notes, residuals = _dilation_packet_interval(
                scn, omega
            )
            path = "wave-packet"
            warnings.extend(f"branch {label}: {note}" for note in notes)
            warnings.extend(
                f"branch {label}: gaussian fit residual {r:.3g} at event t={tj:g}"
                for tj, r in residuals.items()
                if r > _FIT_RESIDUAL_WARN
            )
        predicted = math.cosh(omega) * scn.dt
        checks.append(BranchCheck(label, omega, predicted, measured, scn.tolerance, path))
    if scn.mode != "exact-event":
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
        check_branches(list(self.omegas))
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
        label = f"omega={omega:g}"
        checks.append(
            BranchCheck(label, omega, predicted, fit.sigma, scn.tolerance, "wave-packet")
        )
        grids[label] = {
            "x": xs.tolist(),
            "profile": prof.tolist(),
            "fit_sigma": fit.sigma,
        }
        if fit.residual > _FIT_RESIDUAL_WARN:
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
        check_branches(list(self.omegas))


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
        slope, intercept = ridge_fit(pay, intercept_pred)
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
        check_branches(list(self.omegas))
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
        peak = rapidity_peak_fit(comp)
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


# Radians the probe's kernel may turn per panel (a seeded sweep met the
# rounding floor at 30, not at 50); past _MAX_PROBE_PANELS a side costs too much.
_PROBE_TURN = 20.0
_MAX_PROBE_PANELS = 1 << 16


def interference_amplitude(scn: InterferenceScenario, omega: float) -> complex:
    """<branch packet | probe>: expanded-boost Gaussian against the kernel.

    With -A x^2 + B0 x + C0 the packet's exponent at time t, d = t - tp,
    kappa = m/(2A) and r = 1/(1 + i d/kappa), the x integral in closed form is
        sqrt(2 pi r) exp(P - A dev^2 r),  P = B0^2/(4A) + C0,  dev = B0/(2A) - xp,
    which is sqrt(pi m/(m/2 + i A d)) exp((B0^2 d - 2i m xp B0 + 2i m A xp^2)
    / (4A d - 2i m) + C0) with the +-i m xp^2/(2d) terms cancelled: nothing is
    singular at t = tp, and as m -> inf it tends to sqrt(2 pi) packet(t, xp).

    The t integral over t0 +- 14 sigma_t is one `_gauss_panels` sum per side of
    tp, in u = sqrt|d| (dt = 2u du), or in t if tp is outside the window, on
    edges merged from steps of 2 sigma_t; |d| = d_hi 4^-k down to kappa/16, which
    grade towards r's branch point; and equal steps in theta = atan(|d|/kappa),
    where -A dev^2 r = -A dev^2 cos(theta) e^{-i theta} turns at rate A dev^2.
    """
    m, sx, st, tp = scn.mass, scn.sigma_x, scn.sigma_t, scn.tp
    beta = 1.0 + omega * omega / 2.0
    a = beta * beta / (4 * sx * sx) + omega * omega / (4 * st * st)
    kappa = min(m / (2 * a), sys.float_info.max)  # r = 1 to rounding beyond it

    def packet(t):
        u = omega * t + scn.x0
        w = beta * t - scn.t0
        b0 = beta * u / (2 * sx * sx) + omega * w / (2 * st * st)
        c0 = -u * u / (4 * sx * sx) - w * w / (4 * st * st)
        return b0 * b0 / (4 * a) + c0, b0 / (2 * a) - scn.xp

    def integrand(t, d):
        p, dev = packet(t)
        # r = cos(theta) e^{-i theta}, theta = atan2(d, kappa), in finite ratios
        h = np.hypot(kappa, d)
        r = (kappa / h) * (kappa / h - 1j * (d / h))
        return np.sqrt(2 * math.pi * r) * np.exp(p - a * dev * dev * r)

    lo, hi = scn.t0 - 14.0 * st, scn.t0 + 14.0 * st
    total = 0.0 + 0.0j
    for side in (-1.0, 1.0):
        d_lo, d_hi = sorted((side * (lo - tp), side * (hi - tp)))
        if d_hi <= 0.0:
            continue
        d_lo = max(d_lo, 0.0)
        rate = a * max(packet(tp + side * d)[1] ** 2 for d in (d_lo, d_hi))
        th_lo, th_hi = math.atan2(d_lo, kappa), math.atan2(d_hi, kappa)
        steps = math.ceil(rate * (th_hi - th_lo) / _PROBE_TURN)
        if steps > _MAX_PROBE_PANELS:
            raise ValueError(
                f"the probe's kernel turns {rate * (th_hi - th_lo):.3g} rad on one side "
                f"of tp, more than {_MAX_PROBE_PANELS} panels of {_PROBE_TURN:g} rad"
            )
        levels = math.log(2 * a * d_hi, 4) - math.log(m, 4)  # log4(d_hi / kappa)
        d = np.concatenate((
            kappa * np.tan(np.linspace(th_lo, th_hi, steps + 1)[1:-1]),
            d_hi * 0.25 ** np.arange(1.0, levels + 2.0),
        ))
        d = d[(d > d_lo) & (d < d_hi)]
        if d_lo == 0.0:  # in u = sqrt|d|, where dt = 2u du
            envelope = np.linspace(0.0, d_hi, math.ceil(d_hi / (2 * st)) + 1)
            edges = np.sqrt(np.unique(np.concatenate((d, envelope))))

            def f(u, side=side):
                return 2 * u * integrand(tp + side * u * u, side * u * u)
        else:  # tp outside the window: one plain panel range in t
            envelope = np.linspace(lo, hi, 15)
            edges = np.unique(np.concatenate((np.clip(tp + side * d, lo, hi), envelope)))

            def f(t):
                return integrand(t, t - tp)

        for i in range(0, len(edges) - 1, 4096):  # a few MB of nodes at a time
            total += _gauss_panels(f, edges[i : i + 4097])
    return total


def run_nonrel_interference(scn: InterferenceScenario) -> ScenarioReport:
    """Postselected detection probability at the probe point, checked for
    outcome completeness p_+ + p_- = total and for a frame-branch overlap
    small enough for the two-outcome split.

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
    if not sys.float_info.min <= total < math.inf:  # subnormal totals lost their digits
        raise ValueError(
            f"the probe's detection density is {total!r}: its amplitudes "
            "underflow or overflow, so no outcome probability is defined"
        )
    if scn.frame_width is not None:
        overlap = math.exp(
            -((scn.omega1 - scn.omega2) ** 2) / (8.0 * scn.frame_width**2)
        )
    else:
        overlap = 0.0 if scn.omega1 != scn.omega2 else 1.0
    warnings = []
    if overlap >= 1e-3 and scn.omega1 != scn.omega2:
        warnings.append(
            f"frame branch overlap {overlap:.3g} >= 1e-3: postselection states "
            "are not orthogonal and the two-outcome split is approximate"
        )
    p_signed = p_plus if scn.sign > 0 else p_minus
    value = p_signed / total
    checks = (
        BranchCheck(
            "outcome-completeness", float(scn.sign), total, p_plus + p_minus, 1e-10,
            "wave-packet",
        ),
        BranchCheck(
            "frame-overlap-small", scn.omega1 - scn.omega2, 0.0, overlap, 1e-3,
            "exact-coordinate",
        ),
    )
    return ScenarioReport(
        scenario="nonrel-interference",
        branches=checks,
        warnings=tuple(warnings),
        details={
            "value": min(max(value, 0.0), 1.0),
            "components": {
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
        },
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
        return coords.JointCoordinateState(self.owner, lab, self.events)


def run_coordinate_transform(scn: CoordinateScenario) -> ScenarioReport:
    """Per-branch invariant interval of the first two events, before and
    after the controlled frame change (`coords.transform_frame`, which
    rejects a target that is the owner; repeated velocities are rejected
    with the state)."""
    state = scn.state()
    moved = coords.transform_frame(state, scn.owner, scn.target)
    before = coords.distance_expectation(state, 0, 1)
    after = coords.distance_expectation(moved, 0, 1)
    checks = [
        BranchCheck(
            f"v={branch.v:g}:interval", branch.v, b_int.value, a_int.value, 1e-12,
            "exact-coordinate",
        )
        for branch, b_int, a_int in zip(state.lab, before, after)
    ]
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

    steps is held to MAX_STEPS (under a second at any m*step).
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
