"""The benchmark's four closed-loop workloads.

Each workload builds its inputs from the seed, then exposes a warm-up
operation list (run once during set-up) and the operation list of one pass.
An operation is a call into lorentzqrf plus a check of its output; the check
runs outside the timed region and reports to a `Gate`.

The library is reached only through module attributes (`states.slice_profile`
and so on), so that the traced run sees the same calls after `spans.install`
has replaced them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from lorentzqrf import acceptance, cli, coordinates as coords, frames, report, states
from spans import support_fraction

# the suite's own bounds for boosts (criterion 1) and for exact relations
LATTICE_BOUND = 1e-12
SPLINE_BOUND = 1e-4
EXACT_BOUND = 1e-12


class Gate:
    """Counts operations and failures, and keeps the worst margin per check.

    A margin is |measured - predicted| / allowed; above 1 the check fails.
    An observation is a margin against a bound the library is known to miss
    on some of these inputs: it is recorded and printed, and fails nothing.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.margins: dict[str, float] = {}
        self.observations: dict[str, float] = {}
        self._op_failed = False

    def begin(self) -> None:
        self.attempted += 1
        self._op_failed = False

    def end(self) -> None:
        if self._op_failed:
            self.failed += 1

    def fail(self, message: str) -> None:
        self._op_failed = True
        if len(self.failures) < 50:
            self.failures.append(message)

    def require(self, label: str, ok: bool) -> None:
        if not ok:
            self.fail(label)

    def margin(self, label: str, error: float, allowed: float) -> None:
        value = float(error) / allowed
        if not math.isfinite(value):
            self.fail(f"{label}: non-finite error {error!r}")
            return
        self.margins[label] = max(self.margins.get(label, 0.0), value)
        if value > 1.0:
            self.fail(f"{label}: {error:.3e} exceeds {allowed:g}")

    def observe(self, label: str, error: float, allowed: float) -> None:
        value = float(error) / allowed
        if not math.isfinite(value):
            self.fail(f"{label}: non-finite error {error!r}")
            return
        self.observations[label] = max(self.observations.get(label, 0.0), value)

    def finite(self, label: str, values) -> None:
        arr = np.asarray(values)
        if arr.dtype.kind == "c":
            arr = arr.view(float)
        if not np.all(np.isfinite(arr)):
            self.fail(f"{label}: non-finite output")

    @property
    def worst_margin(self) -> float:
        return max(self.margins.values(), default=0.0)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, Gate], None]


def _all_finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_all_finite(v) for v in obj)
    return True


def _relative_margin(measured: float, predicted: float, tolerance: float) -> float:
    """Margin of a scenario BranchCheck, by BranchCheck.passed's own rule."""
    if predicted != 0.0:
        return abs(measured - predicted) / (tolerance * abs(predicted))
    return abs(measured) / tolerance


# ---------------------------------------------------------------------------
# scenarios: the user path through cli.main


class ScenariosWorkload:
    """All 8 CLI scenarios at their defaults plus packet-mode time dilation.

    The inputs are the documented defaults, so the seed changes nothing.
    """

    name = "scenarios"

    def __init__(self, seed: int, tmpdir: str) -> None:
        self.tmpdir = tmpdir
        self.runs = [(name, []) for name in cli.SCENARIOS]
        self.runs.append(("time-dilation", ["--set", 'mode="narrow-gaussian"']))
        self.reference: dict[str, str] = {}
        self.sha256: dict[str, str] = {}

    @staticmethod
    def _label(name: str, extra: list[str]) -> str:
        return name + ("/narrow-gaussian" if extra else "")

    def _op(self, name: str, extra: list[str]) -> Op:
        label = self._label(name, extra)
        out = os.path.join(self.tmpdir, label.replace("/", "_"))
        argv = ["run", "--scenario", name, *extra, "--out", out, "--csv", "--plot", "svg"]

        def run():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                return cli.main(argv)

        def check(code, gate: Gate) -> None:
            gate.require(f"{label}: exit code {code}", code == 0)
            with open(os.path.join(out, "report.json"), "rb") as fh:
                stripped = report.strip_timestamp(fh.read())
            payload = json.loads(stripped)
            gate.require(f"{label}: non-finite report value", _all_finite(payload))
            gate.require(f"{label}: report pass flag", payload["pass"] is True)
            for branch in payload["branches"]:
                gate.margin(
                    f"scenarios.{label}",
                    _relative_margin(
                        branch["measured"], branch["predicted"], branch["tolerance"]
                    ),
                    1.0,
                )
            for artifact in ("table.csv", "plot.svg"):
                path = os.path.join(out, artifact)
                gate.require(
                    f"{label}: {artifact} missing",
                    os.path.isfile(path) and os.path.getsize(path) > 0,
                )
            first = self.reference.setdefault(label, stripped)
            gate.require(f"{label}: report bytes differ between passes", first == stripped)
            self.sha256[label] = hashlib.sha256(stripped.encode("ascii")).hexdigest()

        return Op(label, run, check)

    def warm_up(self) -> list[Op]:
        return self.pass_ops()

    def pass_ops(self) -> list[Op]:
        return [self._op(name, extra) for name, extra in self.runs]

    def describe(self) -> dict:
        return {
            "inputs": {"runs": [self._label(n, e) for n, e in self.runs]},
            "work_per_pass_computed": {"cli_runs": len(self.runs)},
            "report_sha256": dict(sorted(self.sha256.items())),
        }


# ---------------------------------------------------------------------------
# selftest: acceptance.run_all


# (criterion number, detail key, the suite's bound for it)
CRITERION_BOUNDS = [
    (1, "worst_lattice", 1e-12),
    (1, "worst_interpolated", 1e-4),
    (2, "rel_timelike", 1e-4),
    (2, "rel_spacelike", 1e-4),
    (3, "worst_exact", 1e-12),
    (3, "worst_packet", 1e-2),
    (4, "worst_length", 1e-12),
    (4, "worst_simultaneity", 1e-12),
    (5, "worst", 1e-2),
    (6, "norm_drift", 1e-12),
    (6, "round_trip", 1e-10),
    (6, "matrix_oracle", 1e-12),
    (7, "fidelity_defect", 1e-12),
    (7, "matrix_oracle", 1e-12),
    (7, "relational", 1e-12),
    (7, "factor_uniformity", 1e-12),
    (8, "worst_quadratic", 1e-12),
    (8, "worst_value", 1e-12),
    (9, "worst_component", 1e-4),
    (9, "completeness", 1e-10),
]


def _check_criterion(result, gate: Gate) -> None:
    gate.require(f"criterion {result.number}: failed", result.passed)
    gate.require(
        f"criterion {result.number}: non-finite detail", _all_finite(result.details)
    )
    for number, key, bound in CRITERION_BOUNDS:
        if number == result.number:
            gate.margin(f"acceptance.criterion_{number}.{key}", result.details[key], bound)
    if result.number == 10:
        gate.margin(
            "acceptance.criterion_10.residual",
            max(result.details["residuals"].values()),
            1e-8,
        )
        gate.margin(
            "acceptance.criterion_10.probability",
            max(result.details["max_probability"] - 1.0, 0.0),
            1e-10,
        )


class SelftestWorkload:
    """One acceptance.run_all() per pass: criteria 1-10 twice plus c11.

    The suite seeds itself, so the seed changes nothing.  Set-up warms only
    the criteria that take under 0.2 s: a full warm-up pass would double the
    run, and every `lorentzqrf selftest` invocation pays c9's and c10's cost
    afresh anyway.
    """

    name = "selftest"
    WARM_UP = (2, 3, 4, 6, 7)

    def __init__(self, seed: int, tmpdir: str) -> None:
        self.reference: str | None = None

    def warm_up(self) -> list[Op]:
        def op(n: int) -> Op:
            def check(result, gate: Gate) -> None:
                _check_criterion(result, gate)

            return Op(f"criterion_{n}", lambda: getattr(acceptance, f"criterion_{n}")(), check)

        return [op(n) for n in self.WARM_UP]

    def pass_ops(self) -> list[Op]:
        def check(results, gate: Gate) -> None:
            gate.require(f"run_all returned {len(results)} criteria", len(results) == 11)
            for result in results:
                _check_criterion(result, gate)
            text = report.canonical_json(acceptance.results_payload(results))
            if self.reference is None:
                self.reference = text
            gate.require("selftest payload differs between passes", text == self.reference)

        return [Op("run_all", lambda: acceptance.run_all(), check)]

    def describe(self) -> dict:
        return {
            "inputs": {"suite": "acceptance.run_all (self-seeded)"},
            "work_per_pass_computed": {"criterion_calls": 21},
            "arrays": {"c9_oracle_grid_bytes": 3000 * 1200 * 16},
        }


# ---------------------------------------------------------------------------
# synthesis: spectral kernels on seeded slice states


class SynthesisWorkload:
    """Slice Gaussians whose sigma*mass spans 0.05-5, so 10-55 % of sites are
    occupied.  A pass takes each state through a 72x72 patch, a 601-point
    slice profile, the 16-probe equation residual, 121 scalar wavefunctions
    and one 1x20001 line.
    """

    name = "synthesis"
    SIGMA_MASS = (0.05, 0.5, 5.0)
    PATCH = 72
    PROFILE_POINTS = 601
    PROBES = 16
    SCALAR_SIDE = 11
    LINE_POINTS = 20001
    LINE_SPOTS = 5
    # bounds from the suite: tests/test_states.py checks slice-profile
    # reconstruction at 1e-9 and gridded-vs-scalar synthesis at 1e-13 on
    # states of unit scale; here each is relative to the size of the values
    # compared, because the narrowest states have far larger amplitudes.
    PROFILE_BOUND = 1e-9
    SYNTHESIS_BOUND = 1e-13
    # criterion 10 holds the equation residual of scenario states to 1e-8.
    # The sigma*mass = 0.05 state reads ~1e-6 (1-2e-8 relative to
    # sum_j w_j E_j^2 |a_j|): its spectrum reaches energies where the fixed
    # 8th-order stencil is no longer that accurate.  The residual is held to
    # be finite and repeatable, and observed against c10's bound.
    RESIDUAL_BOUND = 1e-8

    def __init__(self, seed: int, tmpdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.grid = states.RapidityGrid.default()
        self.cases = []
        for sigma_mass in self.SIGMA_MASS:
            mass = float(rng.uniform(0.5, 2.0))
            sigma = sigma_mass * float(rng.uniform(0.9, 1.1)) / mass
            x0 = float(rng.uniform(-1.0, 1.0))
            t0 = float(rng.uniform(-0.5, 0.5))
            profile = states.GaussianProfile(x0, sigma)
            raw = states.from_spacetime_function(states.Slice(t0, profile), mass, self.grid)
            norm = states.kg_norm(raw)
            state = states.normalize(raw)
            ts = t0 + np.linspace(-2.0, 2.0, self.PATCH) * sigma
            xs = x0 + np.linspace(-4.0, 4.0, self.PATCH) * sigma
            prof_xs = x0 + np.linspace(-6.0, 6.0, self.PROFILE_POINTS) * sigma
            line_xs = x0 + np.linspace(-50.0, 50.0, self.LINE_POINTS) * sigma
            dens = state.weights * np.abs(state.amplitudes) ** 2
            e_mean = float(np.sum(dens * state.energies) / np.sum(dens))
            probes = [
                (float(t0 + dt), float(x0 + dx))
                for dt, dx in rng.uniform(-4.0, 4.0, size=(self.PROBES, 2)) / e_mean
            ]
            sub = np.linspace(0, self.PATCH - 1, self.SCALAR_SIDE).round().astype(int)
            self.cases.append(
                {
                    "state": state,
                    "expected_profile": profile(prof_xs) / norm,
                    "t0": t0,
                    "ts": ts,
                    "xs": xs,
                    "prof_xs": prof_xs,
                    "line_xs": line_xs,
                    "probes": probes,
                    "scalar_points": [(float(ts[i]), float(xs[j])) for i in sub for j in sub],
                    "sub": sub,
                    "spots": rng.integers(0, self.LINE_POINTS, size=self.LINE_SPOTS),
                    "sigma_mass": sigma_mass,
                    "support_fraction": support_fraction(state.amplitudes),
                }
            )
        self._patch: dict[int, np.ndarray] = {}
        self.residuals: dict[str, dict] = {}

    def _ops(self, i: int, with_line: bool) -> list[Op]:
        case = self.cases[i]
        state = case["state"]
        tag = f"sigma_mass={case['sigma_mass']:g}"

        def check_patch(values, gate: Gate) -> None:
            gate.finite(f"patch {tag}", values)
            self._patch[i] = values

        def check_profile(values, gate: Gate) -> None:
            gate.finite(f"profile {tag}", values)
            expected = case["expected_profile"]
            gate.margin(
                "synthesis.slice_profile",
                np.max(np.abs(values - expected)) / np.max(np.abs(expected)),
                self.PROFILE_BOUND,
            )

        def check_residual(value, gate: Gate) -> None:
            gate.finite(f"residual {tag}", value)
            relative = value / self._residual_scale(state)
            first = self.residuals.setdefault(tag, {"absolute": value, "relative": relative})
            gate.require(f"residual {tag} differs between passes", value == first["absolute"])
            gate.observe("synthesis.kg_equation_residual.relative", relative, self.RESIDUAL_BOUND)

        def check_scalar(values, gate: Gate) -> None:
            gate.finite(f"scalar {tag}", values)
            patch = self._patch[i]
            sub = case["sub"]
            gridded = patch[np.ix_(sub, sub)].reshape(-1)
            gate.margin(
                "synthesis.scalar_vs_grid",
                np.max(np.abs(np.asarray(values) - gridded)) / np.max(np.abs(patch)),
                self.SYNTHESIS_BOUND,
            )

        def check_line(values, gate: Gate) -> None:
            gate.finite(f"line {tag}", values)
            row = values[0]
            spots = case["spots"]
            scalar = np.array(
                [states.wavefunction(state, (case["t0"], case["line_xs"][k])) for k in spots]
            )
            gate.margin(
                "synthesis.line_vs_scalar",
                np.max(np.abs(row[spots] - scalar)) / np.max(np.abs(row)),
                self.SYNTHESIS_BOUND,
            )

        ops = [
            Op(
                f"wavefunction_grid {self.PATCH}x{self.PATCH} {tag}",
                lambda: states.wavefunction_grid(state, case["ts"], case["xs"]),
                check_patch,
            ),
            Op(
                f"slice_profile {self.PROFILE_POINTS} {tag}",
                lambda: states.slice_profile(state, case["t0"], case["prof_xs"]),
                check_profile,
            ),
            Op(
                f"kg_equation_residual {self.PROBES} {tag}",
                lambda: states.kg_equation_residual(state, case["probes"]),
                check_residual,
            ),
            Op(
                f"wavefunction x{len(case['scalar_points'])} {tag}",
                lambda: [states.wavefunction(state, pt) for pt in case["scalar_points"]],
                check_scalar,
            ),
        ]
        if with_line:
            ops.append(
                Op(
                    f"wavefunction_grid 1x{self.LINE_POINTS} {tag}",
                    lambda: states.wavefunction_grid(state, [case["t0"]], case["line_xs"]),
                    check_line,
                )
            )
        return ops

    @staticmethod
    def _residual_scale(state) -> float:
        """sum_j w_j E_j^2 |a_j|: the largest |d^2 psi / dt^2| can be."""
        return float(np.sum(state.weights * state.energies**2 * np.abs(state.amplitudes)))

    def warm_up(self) -> list[Op]:
        # every operation kind once; the line runs the same wavefunction_grid
        # code as the patch, so set-up does not repeat its 1.3 GB kernel
        return self._ops(0, with_line=False)

    def pass_ops(self) -> list[Op]:
        return [op for i in range(len(self.cases)) for op in self._ops(i, with_line=True)]

    def describe(self) -> dict:
        sites = self.grid.count
        patch = self.PATCH * self.PATCH
        scalar = self.SCALAR_SIDE**2
        return {
            "inputs": {
                "states": [
                    {
                        "sigma_mass": c["sigma_mass"],
                        "mass": c["state"].mass,
                        "support_fraction": c["support_fraction"],
                    }
                    for c in self.cases
                ],
                "support_fraction_mean": float(
                    np.mean([c["support_fraction"] for c in self.cases])
                ),
            },
            "residuals": dict(self.residuals),
            "work_per_pass_computed": {
                "synthesis_terms": len(self.cases)
                * sites
                * (patch + self.PROFILE_POINTS + scalar + self.LINE_POINTS),
                "residual_extended_terms": len(self.cases) * sites * self.PROBES * 10,
            },
            "arrays": {
                "patch_phase_matrices_bytes": 16 * sites * 2 * self.PATCH,
                "profile_kernel_bytes": 16 * sites * self.PROFILE_POINTS,
                "line_kernel_bytes": 16 * sites * self.LINE_POINTS,
                "state_amplitudes_bytes": 16 * sites,
            },
        }


# ---------------------------------------------------------------------------
# frames: frame changes, coordinate transforms and lattice twirls


class FramesWorkload:
    """Branched states with K in {2,4,8,16} branches at payload offsets
    t0 in {0,20,50}, half of each state's rapidities on the lattice; 1000
    criterion-8-style coordinate transforms; twirls on 4/8/16-site lattices.
    """

    name = "frames"
    BRANCHES = (2, 4, 8, 16)
    OFFSETS = (0.0, 20.0, 50.0)
    RAPIDITY = 1.5
    COORDINATE_INSTANCES = 1000
    LATTICES = (4, 8, 16)
    TWIRLS_PER_LATTICE = 3

    def __init__(self, seed: int, tmpdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.grid = states.RapidityGrid.default()
        self.branched = [
            self._branched_state(rng, k, t0) for k in self.BRANCHES for t0 in self.OFFSETS
        ]
        self.instances = [self._coordinate_instance(rng) for _ in range(self.COORDINATE_INSTANCES)]
        self.externals = [
            self._external(rng, size)
            for size in self.LATTICES
            for _ in range(self.TWIRLS_PER_LATTICE)
        ]

    def _rapidities(self, rng, k: int) -> list[tuple[float, bool]]:
        h = self.grid.step
        steps = int(self.RAPIDITY / h)
        lattice = rng.choice(np.arange(-steps, steps + 1), size=k // 2, replace=False)
        out = [(float(n) * h, True) for n in lattice]
        while len(out) < k:
            omega = float(rng.uniform(-self.RAPIDITY, self.RAPIDITY))
            frac = omega / h - math.floor(omega / h)
            if 0.1 < frac < 0.9 and all(abs(omega - o) > h for o, _ in out):
                out.append((omega, False))
        return out

    def _branched_state(self, rng, k: int, t0: float) -> dict:
        mass = float(rng.uniform(0.8, 2.0))
        raps = self._rapidities(rng, k)
        amps = rng.normal(size=k) + 1j * rng.normal(size=k)
        amps = amps / np.linalg.norm(amps)
        payloads = []
        for _ in range(k):
            packet = states.Gaussian2D(
                t0=t0,
                x0=float(rng.uniform(-1.0, 1.0)),
                sigma_t=float(rng.uniform(0.6, 1.2)),
                sigma_x=float(rng.uniform(0.6, 1.2)),
                energy=mass,
                momentum=mass * float(rng.uniform(-0.5, 0.5)),
            )
            payloads.append(
                (states.normalize(states.from_spacetime_function(packet, mass, self.grid)),)
            )
        state = frames.BranchedFrameState(
            frame="C",
            frame_mass=1.0,
            branch_system="A",
            branches=tuple(
                frames.SharpBranch(omega, complex(a), 1.0) for (omega, _), a in zip(raps, amps)
            ),
            payload_labels=("B",),
            payloads=tuple(payloads),
        )
        on_lattice = {omega: flag for omega, flag in raps}
        return {
            "state": state,
            "k": k,
            "t0": t0,
            "lattice": [on_lattice[b.rapidity] for b in state.branches],
            "norm": frames.total_norm(state),
        }

    @staticmethod
    def _coordinate_instance(rng):
        n_branch = int(rng.integers(1, 5))
        vs: list[float] = []
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

    @staticmethod
    def _external(rng, size: int):
        lattice = frames.CyclicLattice(size, 1.0)
        raw, seen = [], set()
        while len(raw) < 3:
            sites = (int(rng.integers(size)), int(rng.integers(size)))
            if sites not in seen:
                seen.add(sites)
                raw.append((complex(rng.normal(), rng.normal()), sites))
        return frames.SharpExternalState(lattice, ("A", "B"), tuple(raw))

    def _branched_op(self, case: dict) -> Op:
        state = case["state"]
        tag = f"K={case['k']} t0={case['t0']:g}"

        def run():
            jumped = frames.change_frame(state, "C", "A")
            back = frames.change_frame(jumped, "A", "C")
            return jumped, back, frames.total_norm(jumped), frames.branch_overlap_matrix(jumped)

        def check(result, gate: Gate) -> None:
            jumped, back, norm, overlap = result
            gate.finite(f"overlap {tag}", overlap)
            gate.margin(
                "frames.norm",
                abs(norm - case["norm"]) / case["norm"],
                SPLINE_BOUND if not all(case["lattice"]) else LATTICE_BOUND,
            )
            scale = float(np.max(np.abs(overlap)))
            gate.margin(
                "frames.overlap_hermitian",
                float(np.max(np.abs(overlap - overlap.conj().T))) / scale,
                EXACT_BOUND,
            )
            for b0, b1 in zip(state.branches, back.branches):
                gate.require(f"round trip rapidity {tag}", b1.rapidity == b0.rapidity)
            for flag, row0, row1 in zip(case["lattice"], state.payloads, back.payloads):
                p0, p1 = row0[0], row1[0]
                gate.finite(f"round trip {tag}", p1.amplitudes)
                base = states.kg_inner(p0, p0)
                dev = abs(states.kg_inner(p0, p1) - base) / abs(base)
                if flag:
                    gate.margin("frames.round_trip.lattice", dev, LATTICE_BOUND)
                else:
                    gate.margin(f"frames.round_trip.spline.t0={case['t0']:g}", dev, SPLINE_BOUND)

        return Op(f"change_frame round trip {tag}", run, check)

    def _coordinates_op(self) -> Op:
        def run():
            out = []
            for state in self.instances:
                moved = coords.transform_frame(state, "A", "B")
                out.append(
                    (
                        state,
                        moved,
                        coords.distance_expectation(state, 0, 1),
                        coords.distance_expectation(moved, 0, 1),
                    )
                )
            return out

        def check(results, gate: Gate) -> None:
            # criterion 8's measures and bounds
            worst_quad = worst_value = 0.0
            for state, moved, before, after in results:
                for row_b, row_a, b, a in zip(state.events, moved.events, before, after):
                    gate.require("causal tag changed", a.kind == b.kind)
                    sign_b = 1.0 if b.kind == "timelike" else -1.0
                    sign_a = 1.0 if a.kind == "timelike" else -1.0
                    scale = max(
                        ev.t * ev.t + ev.x * ev.x
                        for ev in (row_b[0], row_b[1], row_a[0], row_a[1])
                    )
                    worst_quad = max(
                        worst_quad,
                        abs(sign_a * a.value**2 - sign_b * b.value**2) / max(1.0, scale),
                    )
                    if b.value >= 1.0:
                        worst_value = max(worst_value, abs(a.value - b.value) / b.value)
            gate.margin("frames.coordinates.squared_interval", worst_quad, EXACT_BOUND)
            # the square-root readout misses 1e-12 on some seeds (1.6e-12 at
            # seed 503): near-lightlike pairs boosted by up to atanh(0.99)
            # lose that much to rounding.  Criterion 8 passes only on its own
            # instances, at 0.46 of the bound.
            gate.observe("frames.coordinates.value", worst_value, EXACT_BOUND)

        return Op(f"transform_frame x{len(self.instances)}", run, check)

    def _twirl_op(self, external) -> Op:
        size = external.lattice.size

        def run():
            twirled = frames.twirl_lattice(external)
            factor, relational = frames.jump_to_frame(twirled, "A")
            return factor, relational, frames.twirl_factor_fidelity(twirled, "A")

        def check(result, gate: Gate) -> None:
            factor, relational, fidelity = result
            gate.margin("frames.twirl.fidelity_defect", 1.0 - fidelity, EXACT_BOUND)
            gate.margin(
                "frames.twirl.factor_uniformity",
                float(np.max(np.abs(np.abs(factor) - 1.0 / math.sqrt(size)))),
                EXACT_BOUND,
            )
            # criterion 7's relational oracle: amplitude at site sB - sA
            expected = np.zeros(size, dtype=complex)
            for amp, (sa, sb) in external.branches:
                expected[(sb - sa) % size] += amp
            got = np.zeros(size, dtype=complex)
            for amp, (site,) in relational.branches:
                got[site] += amp
            k = int(np.argmax(np.abs(expected)))
            expected = expected / (expected[k] / abs(expected[k]))
            got = got / (got[k] / abs(got[k]))
            gate.margin(
                "frames.twirl.relational",
                float(
                    np.max(
                        np.abs(got / np.linalg.norm(got) - expected / np.linalg.norm(expected))
                    )
                ),
                EXACT_BOUND,
            )

        return Op(f"twirl L={size}", run, check)

    def warm_up(self) -> list[Op]:
        return self.pass_ops()

    def pass_ops(self) -> list[Op]:
        return (
            [self._branched_op(case) for case in self.branched]
            + [self._coordinates_op()]
            + [self._twirl_op(ext) for ext in self.externals]
        )

    def describe(self) -> dict:
        boosts = 2 * sum(c["k"] for c in self.branched)
        lattice = 2 * sum(sum(c["lattice"]) for c in self.branched)
        sites = self.grid.count
        return {
            "inputs": {
                "states": len(self.branched),
                "branches": list(self.BRANCHES),
                "offsets": list(self.OFFSETS),
                "lattice_share": lattice / boosts,
            },
            "work_per_pass_computed": {
                "boosts": boosts,
                "lattice_boosts": lattice,
                "overlap_kg_inner_calls": sum(c["k"] ** 2 for c in self.branched),
                "coordinate_instances": len(self.instances),
                "twirls": len(self.externals),
            },
            "arrays": {
                "payload_amplitudes_bytes": 16 * sites * sum(c["k"] for c in self.branched),
                "largest_twirl_tensor_bytes": 16 * max(self.LATTICES) ** 2,
            },
        }


WORKLOADS = {
    w.name: w
    for w in (ScenariosWorkload, SelftestWorkload, SynthesisWorkload, FramesWorkload)
}
