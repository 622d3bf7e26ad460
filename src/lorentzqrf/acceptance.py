"""Acceptance suite: the quantitative guarantees this library is held to.

Each criterion pits a production code path against an independent oracle
(closed-form coordinates, explicit shift/boost matrices, tabulated Bessel
function values, or an independently discretized quadrature) at a fixed
tolerance, using seeded randomness so every run is reproducible.  `run_all`
executes the whole suite twice and adds a byte-determinism criterion
comparing the two serialized payloads.

The suite needs numpy only: the propagator's Bessel-function oracles are
tabulated constants, pinned against scipy.special in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import coordinates as coords
from .frames import (
    BranchedFrameState,
    CyclicLattice,
    SharpBranch,
    SharpExternalState,
    change_frame,
    jump_to_frame,
    total_norm,
    twirl_factor_fidelity,
    twirl_lattice,
)
from .kinematics import SpacetimePoint
from .measurement import region_probability
from .report import canonical_json
from .scenarios import (
    ContractionScenario,
    DilationScenario,
    InterferenceScenario,
    WidthScenario,
    run_length_contraction,
    run_nonrel_interference,
    run_time_dilation,
    run_width_contraction,
)
from .states import (
    Gaussian2D,
    GaussianProfile,
    PropagatorQuery,
    RapidityGrid,
    Slice,
    _leggauss,
    boost_state,
    from_spacetime_function,
    kg_equation_residual,
    kg_inner,
    normalize,
    propagator,
    resample,
)

__all__ = ["CriterionResult", "run_all", "results_payload"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    summary: str
    details: dict = field(default_factory=dict)


def results_payload(results: list[CriterionResult]) -> dict:
    """Serializable form of a suite run."""
    return {
        "suite": "acceptance",
        "pass": all(r.passed for r in results),
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "pass": r.passed,
                "summary": r.summary,
                "details": r.details,
            }
            for r in results
        ],
    }


def _random_state(rng: np.random.Generator, mass: float, grid: RapidityGrid):
    return normalize(
        from_spacetime_function(
            Gaussian2D(
                t0=rng.uniform(-1.0, 1.0),
                x0=rng.uniform(-1.0, 1.0),
                sigma_t=rng.uniform(0.6, 1.2),
                sigma_x=rng.uniform(0.6, 1.2),
                energy=mass,
                momentum=mass * rng.uniform(-0.5, 0.5),
            ),
            mass,
            grid,
        )
    )


def criterion_1() -> CriterionResult:
    """Boost invariance of the conserved inner product."""
    rng = np.random.default_rng(101)
    grid = RapidityGrid.default()
    h = grid.step
    lattice_boosts = (h, -h, 8 * h, -8 * h, 64 * h, -64 * h)
    worst_lattice = 0.0
    worst_off_lattice = 0.0
    pairs = 0
    while pairs < 200:
        mass = rng.uniform(0.8, 2.0)
        f = _random_state(rng, mass, grid)
        g = _random_state(rng, mass, grid)
        base = kg_inner(f, g)
        if abs(base) < 1e-3:  # keep the relative comparison meaningful
            continue
        pairs += 1
        for alpha in lattice_boosts:
            moved = kg_inner(boost_state(f, alpha), boost_state(g, alpha))
            worst_lattice = max(worst_lattice, abs(moved - base) / abs(base))
        for alpha in rng.uniform(-2.0, 2.0, size=2):
            moved = kg_inner(boost_state(f, alpha), boost_state(g, alpha))
            worst_off_lattice = max(worst_off_lattice, abs(moved - base) / abs(base))
    passed = worst_lattice < 1e-12 and worst_off_lattice < 1e-4
    return CriterionResult(
        1,
        "inner-product boost invariance",
        passed,
        f"lattice dev {worst_lattice:.3e} (tol 1e-12), "
        f"off-lattice dev {worst_off_lattice:.3e} (tol 1e-4), 200 pairs",
        # perfbench's selftest workload reads the off-lattice leg under this key
        {"worst_lattice": worst_lattice, "worst_interpolated": worst_off_lattice},
    )


# J0(1), Y0(1) and K0(1) to 18 digits (DLMF 10.75; A&S Tables 9.1 and 9.8)
_J0_1 = 0.765197686557966551
_Y0_1 = 0.088256964215676958
_K0_1 = 0.421024438240708333


def criterion_2() -> CriterionResult:
    """Propagator closed forms against tabulated Bessel-function values:
    -(i pi/2) H0^(2)(1) with H0^(2)(1) = J0(1) - i Y0(1), and K0(1)."""
    w_time = propagator(PropagatorQuery(1.0, 0.0, 1.0))
    w_space = propagator(PropagatorQuery(0.0, 1.0, 1.0))
    oracle_time = -0.5j * math.pi * complex(_J0_1, -_Y0_1)
    oracle_space = complex(_K0_1)
    rel_time = abs(w_time - oracle_time) / abs(oracle_time)
    rel_space = abs(w_space - oracle_space) / abs(oracle_space)
    tail_positive = w_space.real > 0.4
    passed = rel_time < 1e-4 and rel_space < 1e-4 and tail_positive
    return CriterionResult(
        2,
        "propagator closed forms",
        passed,
        f"timelike dev {rel_time:.3e}, spacelike dev {rel_space:.3e} "
        f"(tol 1e-4), spacelike value {w_space.real:.5f} > 0.4",
        {
            "timelike": [w_time.real, w_time.imag],
            "spacelike": w_space.real,
            "rel_timelike": rel_time,
            "rel_spacelike": rel_space,
        },
    )


def criterion_3() -> CriterionResult:
    """Superposed time dilation, exact and wave-packet paths."""
    rng = np.random.default_rng(303)
    worst_exact = 0.0
    checked = 0
    while checked < 100:
        t1 = rng.uniform(-2.0, 2.0)
        dt = rng.uniform(0.2, 3.0)
        x0 = rng.uniform(-3.0, 3.0)
        om1, om2 = rng.uniform(-5.0, 5.0, size=2)
        if om1 == om2:
            continue
        rep = run_time_dilation(
            DilationScenario(t1=t1, dt=dt, x0=x0, omega1=om1, omega2=om2)
        )
        for check in rep.branches:
            worst_exact = max(worst_exact, check.deviation)
            checked += 1
    packet = run_time_dilation(
        DilationScenario(
            mode="narrow-gaussian",
            omega1=math.log(2.0),
            omega2=math.atanh(0.8),
            x0=0.3,
        )
    )
    worst_packet = max(c.deviation for c in packet.branches)
    passed = worst_exact < 1e-12 and worst_packet < 1e-2
    return CriterionResult(
        3,
        "superposed time dilation",
        passed,
        f"exact dev {worst_exact:.3e} over {checked} branch intervals "
        f"(tol 1e-12), wave-packet dev {worst_packet:.3e} (tol 1e-2)",
        {"worst_exact": worst_exact, "worst_packet": worst_packet},
    )


def criterion_4() -> CriterionResult:
    """Superposed length contraction with per-branch simultaneity."""
    rep = run_length_contraction(ContractionScenario(v_b=0.6, v_d=0.8))
    worst_len = 0.0
    worst_sim = 0.0
    for check in rep.branches:
        if check.label.endswith("length"):
            worst_len = max(worst_len, check.deviation)
        else:
            worst_sim = max(worst_sim, check.deviation)
    passed = worst_len < 1e-12 and worst_sim < 1e-12
    return CriterionResult(
        4,
        "superposed length contraction",
        passed,
        f"length dev {worst_len:.3e}, simultaneity residual {worst_sim:.3e} "
        "(tol 1e-12), v in {0.6, 0.8}",
        {"worst_length": worst_len, "worst_simultaneity": worst_sim},
    )


def criterion_5() -> CriterionResult:
    """Gaussian width contraction by wave-packet fit."""
    rep = run_width_contraction(WidthScenario())
    worst = max(c.deviation for c in rep.branches)
    passed = worst < 1e-2
    return CriterionResult(
        5,
        "gaussian width contraction",
        passed,
        f"fit dev {worst:.3e} (tol 1e-2) for omega in "
        "{0, ln 2, atanh 0.8} at sigma=1",
        {"worst": worst},
    )


def _shift_matrix(count: int, steps: int) -> np.ndarray:
    """Matrix form of a lattice boost a'(theta) = a(theta + steps*h)."""
    m = np.zeros((count, count))
    for i in range(count):
        m[i, (i + steps) % count] = 1.0
    return m


def criterion_6() -> CriterionResult:
    """Frame-change unitarity and round trip on an 8-site lattice."""
    rng = np.random.default_rng(606)
    grid = RapidityGrid(-2.0, 0.5, 8)
    h = grid.step
    base = from_spacetime_function(Gaussian2D(0.0, 0.0, 1.0, 1.0), 1.0, grid)

    def lattice_state():
        # support on interior sites 3-4 stays clear of the (half-weight)
        # grid ends under every branch shift used below
        a = np.zeros(8, dtype=complex)
        a[3:5] = rng.normal(size=2) + 1j * rng.normal(size=2)
        return normalize(base.with_amplitudes(a))

    steps = (-2, 1, 2)
    branches = tuple(
        SharpBranch(k * h, amp, 1.0)
        for k, amp in zip(steps, (0.6, 0.64j, -0.48))
    )
    payloads = tuple((lattice_state(), lattice_state()) for _ in steps)
    start = BranchedFrameState(
        frame="C",
        frame_mass=1.0,
        branch_system="A",
        branches=branches,
        payload_labels=("B", "D"),
        payloads=payloads,
    )
    norm0 = total_norm(start)
    jumped = change_frame(start, "C", "A")
    back = change_frame(jumped, "A", "C")
    drift = max(
        abs(total_norm(jumped) - norm0), abs(total_norm(back) - norm0)
    ) / norm0

    worst_round = 0.0
    for b0, row0, b1, row1 in zip(
        start.branches, start.payloads, back.branches, back.payloads
    ):
        worst_round = max(
            worst_round,
            abs(b1.rapidity - b0.rapidity),
            abs(b1.amplitude - b0.amplitude),
        )
        for p0, p1 in zip(row0, row1):
            dev = float(np.max(np.abs(p1.amplitudes - p0.amplitudes)))
            worst_round = max(worst_round, abs(p1.origin - p0.origin), dev)

    # brute-force matrix oracle: every branchwise boost in both jumps must
    # equal the explicit 8x8 shift matrix acting on the resampled amplitudes
    # (branches re-sort by rapidity, so match output rows by sign flip)
    worst_matrix = 0.0
    for state, out in ((start, jumped), (jumped, back)):
        rows_out = {
            round(b.rapidity / h): row for b, row in zip(out.branches, out.payloads)
        }
        for branch, row0 in zip(state.branches, state.payloads):
            k = round(branch.rapidity / h)
            oracle = _shift_matrix(8, -k)
            for p0, p1 in zip(row0, rows_out[-k]):
                moved = oracle @ resample(p0).amplitudes
                worst_matrix = max(
                    worst_matrix,
                    float(np.max(np.abs(resample(p1).amplitudes - moved))),
                )

    passed = drift < 1e-12 and worst_round == 0.0 and worst_matrix < 1e-12
    return CriterionResult(
        6,
        "frame-change unitarity and round trip",
        passed,
        f"norm drift {drift:.3e} (tol 1e-12), round-trip dev {worst_round:.3e} "
        f"(must be exact), shift-matrix oracle dev {worst_matrix:.3e}",
        {
            "norm_drift": drift,
            "round_trip": worst_round,
            "matrix_oracle": worst_matrix,
        },
    )


def criterion_7() -> CriterionResult:
    """Twirl factorization on cyclic lattices with a matrix oracle."""
    rng = np.random.default_rng(707)
    worst_fid = 0.0
    worst_matrix = 0.0
    worst_rel = 0.0
    worst_factor = 0.0
    for size in (4, 8, 16):
        lattice = CyclicLattice(size, 1.0)
        raw = []
        seen = set()
        while len(raw) < 3:
            sites = (int(rng.integers(size)), int(rng.integers(size)))
            if sites in seen:
                continue
            seen.add(sites)
            raw.append((complex(rng.normal(), rng.normal()), sites))
        external = SharpExternalState(lattice, ("A", "B"), tuple(raw))
        twirled = twirl_lattice(external)

        # matrix oracle: the twirl as an explicit sum of kron'd shift matrices
        vec = external.tensor().reshape(-1)
        acc = np.zeros_like(vec)
        for w in range(size):
            shift = _shift_matrix(size, -w)  # maps site s to site s + w
            acc = acc + np.kron(shift, shift) @ vec / math.sqrt(size)
        worst_matrix = max(
            worst_matrix,
            float(np.max(np.abs(acc.reshape(size, size) - twirled.tensor))),
        )

        fid = twirl_factor_fidelity(twirled, "A")
        worst_fid = max(worst_fid, 1.0 - fid)
        factor, relational = jump_to_frame(twirled, "A")
        worst_factor = max(
            worst_factor,
            float(np.max(np.abs(np.abs(factor) - 1.0 / math.sqrt(size)))),
        )

        # relational payload oracle: amplitude amp_b at relative site sB - sA
        expected = np.zeros(size, dtype=complex)
        for amp, (sa, sb) in external.branches:
            expected[(sb - sa) % size] += amp
        got = np.zeros(size, dtype=complex)
        for amp, (site,) in relational.branches:
            got[site] += amp
        k = int(np.argmax(np.abs(expected)))
        expected = expected / (expected[k] / abs(expected[k]))
        got = got / (got[k] / abs(got[k]))
        scale = np.linalg.norm(expected)
        worst_rel = max(
            worst_rel,
            float(
                np.max(np.abs(got / np.linalg.norm(got) - expected / scale))
            ),
        )
    passed = (
        worst_fid < 1e-12
        and worst_matrix < 1e-12
        and worst_rel < 1e-12
        and worst_factor < 1e-12
    )
    return CriterionResult(
        7,
        "twirl factorization",
        passed,
        f"fidelity defect {worst_fid:.3e} (tol 1e-12), kron-matrix dev "
        f"{worst_matrix:.3e}, relational dev {worst_rel:.3e}, "
        f"factor uniformity {worst_factor:.3e}, sizes 4/8/16",
        {
            "fidelity_defect": worst_fid,
            "matrix_oracle": worst_matrix,
            "relational": worst_rel,
            "factor_uniformity": worst_factor,
        },
    )


def criterion_8() -> CriterionResult:
    """Distance invariance over random coordinate instances.

    The squared interval (a smooth function of the event coordinates) is
    compared relative to the squared coordinate scale; the square-root
    readout, ill-conditioned at the light cone, is compared relatively in
    the well-conditioned region (value >= 1).  Both at 1e-12, with the
    causal tag required to be preserved exactly.
    """
    rng = np.random.default_rng(808)
    worst_quad = 0.0
    worst_value = 0.0
    kinds_kept = True
    for _ in range(1000):
        n_branch = int(rng.integers(1, 5))
        vs = []
        while len(vs) < n_branch:
            v = float(rng.uniform(-0.99, 0.99))
            if all(abs(v - u) > 1e-6 for u in vs):
                vs.append(v)
        n_events = int(rng.integers(2, 5))
        rows = tuple(
            tuple(
                coords.EventCoordinate(
                    float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10))
                )
                for _ in range(n_events)
            )
            for _ in range(n_branch)
        )
        state = coords.JointCoordinateState(
            "A", tuple(coords.VelocityBranch(v) for v in vs), rows
        )
        moved = coords.transform_frame(state, "A", "B")
        before = coords.distance_expectation(state, 0, 1)
        after = coords.distance_expectation(moved, 0, 1)
        for row_b, row_a, b, a in zip(state.events, moved.events, before, after):
            kinds_kept = kinds_kept and a.kind == b.kind
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
                worst_value = max(
                    worst_value, abs(a.value - b.value) / b.value
                )
    passed = kinds_kept and worst_quad < 1e-12 and worst_value < 1e-12
    return CriterionResult(
        8,
        "distance-operator invariance",
        passed,
        f"squared-interval dev {worst_quad:.3e}, conditioned value dev "
        f"{worst_value:.3e} (tol 1e-12), causal tags preserved: "
        f"{kinds_kept}, 1000 instances",
        {
            "worst_quadratic": worst_quad,
            "worst_value": worst_value,
            "kinds_preserved": kinds_kept,
        },
    )


def _contour_oracle_amplitudes(
    scn: InterferenceScenario, omegas: tuple[float, ...], eps: float = 1.0,
    nt: int = 3000, nx: int = 1200,
) -> list[complex]:
    """2-D tensor Gauss-Legendre quadrature on the contour t -> t - i*eps,
    one probe amplitude per boost rapidity in `omegas`.

    Independent of the production route (closed-form x integral + panel
    rule on the real t axis in u = sqrt|t - tp|): here both integrals are
    discretized, and the kernel singularity at t = tp is avoided by analytic
    continuation instead of being cancelled in closed form.

    Each node's integrand is the packet times the propagator kernel,
    sqrt(m / (i d)) exp(i m (x - xp)^2 / (2 d)) with d = t - tp, taken as one
    exponential: the square root rides on the t weights, and the exponent
    i m (x - xp)^2 / (2 d) - (beta x - omega t - x0)^2 / (4 sx^2)
    - (beta t - omega x - t0)^2 / (4 st^2) is summed in one buffer from
    vectors that depend on t alone or on x alone.  The packet's two squares
    stay squares of their own differences, never expanded into powers of x,
    so no algebra is shared with the production route's closed form.

    The x axis is walked in tiles of about 2^16 nodes, so memory stays at a
    few MB whatever nt and nx are, and nothing is kept between calls.  A tile
    holds one row per x node, so every elementwise step runs along the
    contiguous t axis, and its t sums tile @ wt fill one row per branch that
    takes a single @ xw, as in tw @ M @ xw.  Each x node's t sum is one dot
    product over all t nodes: the amplitudes came out the same bits for
    every tile width tried (2 to 100), on one or two OpenBLAS threads.
    """
    m, sx, st = scn.mass, scn.sigma_x, scn.sigma_t
    tn, tw = _leggauss(nt)
    xn, xw = _leggauss(nx)
    t_lo, t_hi = scn.t0 - 14.0 * st, scn.t0 + 14.0 * st
    x_lo, x_hi = scn.x0 - 18.0 * sx, scn.x0 + 18.0 * sx
    ts = 0.5 * (t_hi + t_lo) + 0.5 * (t_hi - t_lo) * tn - 1j * eps
    # a complex column spares every tile operation a real-to-complex cast
    xs = (0.5 * (x_hi + x_lo) + 0.5 * (x_hi - x_lo) * xn).astype(complex)[:, None]
    xw = 0.5 * (x_hi - x_lo) * xw
    d = ts - scn.tp
    wt = 0.5 * (t_hi - t_lo) * tw * np.sqrt(m / (1j * d))
    ka = (1j * m / 2) / d
    q = (xs - scn.xp) ** 2
    branches = []
    for omega in omegas:
        beta = 1.0 + omega * omega / 2.0
        branches.append(
            (omega * ts + scn.x0, beta * ts - scn.t0, beta * xs, omega * xs)
        )
    cx, ct = -0.25 / (sx * sx), 0.25 / (st * st)
    width = max(1, (1 << 16) // nt)
    phase, arg, square = (np.empty((width, nt), dtype=complex) for _ in range(3))
    rows = np.empty((len(omegas), nx), dtype=complex)
    for lo in range(0, nx, width):
        cols, n = slice(lo, lo + width), min(width, nx - lo)
        k, e, s = phase[:n], arg[:n], square[:n]
        np.multiply(q[cols], ka, out=k)
        for row, (r1, r2, bx, ox) in zip(rows, branches):
            np.subtract(bx[cols], r1, out=e)
            np.square(e, out=e)
            e *= cx
            np.subtract(r2, ox[cols], out=s)
            np.square(s, out=s)
            s *= ct
            e -= s
            e += k
            np.exp(e, out=e)
            row[cols] = e @ wt
    return [complex(row @ xw) for row in rows]


def criterion_9() -> CriterionResult:
    """Interference probe against the contour-quadrature oracle."""
    scn = InterferenceScenario()  # omega = +-0.02, probe (5, 1)
    comp = run_nonrel_interference(scn).details["components"]
    oracle_1, oracle_2 = _contour_oracle_amplitudes(scn, (scn.omega1, scn.omega2))
    oracle = {
        "branch_one": 0.5 * abs(oracle_1) ** 2,
        "branch_two": 0.5 * abs(oracle_2) ** 2,
        "interference": (oracle_1 * oracle_2.conjugate()).real,
    }
    worst = max(abs(comp[key] - val) / abs(val) for key, val in oracle.items())
    total = comp["total"]
    completeness = abs(comp["p_plus"] + comp["p_minus"] - total) / total
    passed = worst < 1e-4 and completeness < 1e-10
    return CriterionResult(
        9,
        "interference probe vs 2-D quadrature oracle",
        passed,
        f"component dev {worst:.3e} (tol 1e-4), outcome completeness "
        f"{completeness:.3e} (tol 1e-10)",
        {"worst_component": worst, "completeness": completeness},
    )


def criterion_10() -> CriterionResult:
    """Equation-of-motion residual and the probability bound."""
    grid = RapidityGrid.default()
    rng = np.random.default_rng(1010)

    scenario_states = []
    width_payload = from_spacetime_function(
        Slice(0.0, GaussianProfile(0.0, 1.0)), 5.0, grid
    )
    scenario_states.append(("width payload", normalize(width_payload), None))
    scenario_states.append(
        (
            "boosted width payload",
            normalize(boost_state(width_payload, -math.log(2.0))),
            None,
        )
    )
    marker = from_spacetime_function(
        Gaussian2D(1.0, 0.3, 0.02, 0.02, energy=50.0), 50.0, grid
    )
    marker_points = [
        SpacetimePoint(1.0 + float(du), 0.3 + float(dv))
        for du, dv in rng.uniform(-0.04, 0.04, size=(8, 2))
    ]
    scenario_states.append(("dilation marker", normalize(marker), marker_points))
    slice_payload = from_spacetime_function(
        Slice(0.4, GaussianProfile(0.0, 1.0)), 1.0, grid
    )
    scenario_states.append(
        ("slice payload", normalize(boost_state(slice_payload, -0.65)), None)
    )
    boost_component = from_spacetime_function(
        Slice(0.0, GaussianProfile(0.0, 2.5)), 1.0, grid
    )
    scenario_states.append(
        ("boost component", normalize(boost_state(boost_component, -0.6)), None)
    )

    residuals = {}
    for name, state, points in scenario_states:
        residuals[name] = kg_equation_residual(state, points)
    worst_residual = max(residuals.values())

    pool = [_random_state(rng, 1.0, grid) for _ in range(40)]
    worst_bound = 0.0
    for _ in range(1000):
        i, j = rng.integers(0, len(pool), size=2)
        rep = region_probability(pool[int(i)], pool[int(j)])
        raw = rep.components["overlap_re"] ** 2 + rep.components["overlap_im"] ** 2
        worst_bound = max(worst_bound, raw)
        if rep.value > 1.0:
            worst_bound = max(worst_bound, rep.value)
    passed = worst_residual < 1e-8 and worst_bound <= 1.0 + 1e-10
    return CriterionResult(
        10,
        "equation-of-motion residual and probability bound",
        passed,
        f"max residual {worst_residual:.3e} (tol 1e-8) over "
        f"{len(scenario_states)} states, max raw probability "
        f"{worst_bound:.12f} (bound 1 + 1e-10) over 1000 pairs",
        {"residuals": residuals, "max_probability": worst_bound},
    )


def _run_criteria() -> list[CriterionResult]:
    return [
        criterion_1(),
        criterion_2(),
        criterion_3(),
        criterion_4(),
        criterion_5(),
        criterion_6(),
        criterion_7(),
        criterion_8(),
        criterion_9(),
        criterion_10(),
    ]


def run_all() -> list[CriterionResult]:
    """Run criteria 1-10 twice; criterion 11 is byte-determinism of the two.

    Nothing time- or environment-dependent may enter the results: the
    serialized suite report must be byte-identical across runs (only the
    enclosing report's timestamp field may differ).
    """
    first = _run_criteria()
    second = _run_criteria()
    bytes_first = canonical_json(results_payload(first))
    bytes_second = canonical_json(results_payload(second))
    deterministic = bytes_first == bytes_second
    crit11 = CriterionResult(
        11,
        "report determinism",
        deterministic,
        f"two consecutive suite runs serialized to "
        f"{'identical' if deterministic else 'DIFFERENT'} bytes "
        f"({len(bytes_first)} bytes)",
        {"bytes": len(bytes_first)},
    )
    return first + [crit11]
