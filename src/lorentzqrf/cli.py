"""Configuration-driven command line for the scenario runners.

`lorentzqrf run --scenario <name> [--config file.json] [--set k=v]...
[--out dir] [--plot svg] [--csv]` executes one scenario and writes
deterministic artifacts: report.json (canonical form, timestamp excluded
from byte comparisons), an optional CSV table, and an optional SVG panel.
`lorentzqrf selftest` runs the full acceptance suite.

Exit codes: 0 all in-report checks pass; 2 a tolerance check or fit failed;
1 configuration error (unknown scenario, bad parameter, unreadable config,
unwritable output directory).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import coordinates as coords
from . import plots, report as reporting
from .scenarios import (
    BoostSuperpositionScenario,
    ContractionScenario,
    DilationScenario,
    FitError,
    InterferenceScenario,
    BranchCheck,
    ScenarioReport,
    SliceScenario,
    WidthScenario,
    run_boost_superposition,
    run_length_contraction,
    run_nonrel_interference,
    run_superposed_slice,
    run_time_dilation,
    run_width_contraction,
)
from .states import (
    GaussianProfile,
    PropagatorQuery,
    RapidityGrid,
    propagator,
    wavefunction_grid,
)
from .frames import superposed_slice_state

__all__ = ["main", "SCENARIOS"]

_CHECK_COLUMNS = [
    "label",
    "parameter",
    "predicted",
    "measured",
    "tolerance",
    "path",
    "pass",
]


def _check_rows(rep: ScenarioReport) -> list[dict]:
    return [b.to_dict() for b in rep.branches]


def _reject_unknown(cfg: dict, defaults: dict, scenario: str) -> None:
    unknown = sorted(set(cfg) - set(defaults))
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {', '.join(unknown)} for scenario {scenario}; "
            f"known: {', '.join(sorted(defaults))}"
        )


def _omegas(value) -> tuple[float, ...]:
    if isinstance(value, (int, float)):
        return (float(value),)
    return tuple(float(v) for v in value)


# ---------------------------------------------------------------------------
# scenario adapters


def _run_dilation(cfg: dict) -> ScenarioReport:
    scn = DilationScenario(
        t1=float(cfg["t1"]),
        t2=float(cfg["t1"]) + float(cfg["dt"]),
        x0=float(cfg["x0"]),
        omega1=float(cfg["w1"]),
        omega2=float(cfg["w2"]),
        mode=str(cfg["mode"]),
        sigma=float(cfg["sigma"]),
        mass=float(cfg["mass"]),
    )
    return run_time_dilation(scn)


def _plot_dilation(rep: dict, cfg: dict) -> str:
    if cfg["mode"] == "exact-event":
        groups = [
            (name, [tuple(ev) for ev in data["events"]])
            for name, data in sorted(rep["grids"].items())
        ]
        return plots.event_chart(
            groups, title="time dilation: boosted clock events"
        )
    series = []
    for name, scans in sorted(rep["grids"].items()):
        for ev_name, scan in sorted(scans.items()):
            series.append((f"{name} {ev_name}", scan["t"], scan["density"]))
    return plots.line_chart(
        series, title="time dilation: event markers", xlabel="t", ylabel="|psi|^2"
    )


def _run_contraction(cfg: dict) -> ScenarioReport:
    scn = ContractionScenario(
        x1=float(cfg["x1"]),
        x2=float(cfg["x2"]),
        v_b=float(cfg["vb"]),
        v_d=float(cfg["vd"]),
        t_b=None if cfg["tb"] is None else tuple(float(v) for v in cfg["tb"]),
        t_d=None if cfg["td"] is None else tuple(float(v) for v in cfg["td"]),
    )
    return run_length_contraction(scn)


def _plot_contraction(rep: dict, cfg: dict) -> str:
    groups = []
    for branch_name, pairs in sorted(rep["grids"].items()):
        for pair_name, events in sorted(pairs.items()):
            groups.append(
                (f"{branch_name} pair {pair_name}", [tuple(ev) for ev in events])
            )
    return plots.event_chart(groups, title="length contraction: rod end events")


def _run_width(cfg: dict) -> ScenarioReport:
    scn = WidthScenario(
        sigma=float(cfg["sigma"]),
        omegas=_omegas(cfg["omegas"]),
        mass=float(cfg["mass"]),
    )
    return run_width_contraction(scn)


def _plot_width(rep: dict, cfg: dict) -> str:
    series = [
        (name, data["x"], data["profile"])
        for name, data in sorted(rep["grids"].items())
    ]
    return plots.line_chart(
        series,
        title="width contraction: branch profiles at t=0",
        xlabel="x",
        ylabel="|profile|^2",
    )


def _run_slice(cfg: dict) -> ScenarioReport:
    scn = SliceScenario(
        sigma=float(cfg["sigma"]),
        payload_time=float(cfg["tb"]),
        frame_time=float(cfg["tc"]),
        omegas=_omegas(cfg["omegas"]),
        payload_mass=float(cfg["payload_mass"]),
        frame_mass=float(cfg["frame_mass"]),
        branch_mass=float(cfg["branch_mass"]),
    )
    return run_superposed_slice(scn)


def _plot_slice(rep: dict, cfg: dict) -> str:
    # rebuild the branch payloads to draw their spacetime supports in the
    # branch colors, with the fitted ridge lines overlaid
    omegas = _omegas(cfg["omegas"])
    amp = 1.0 / math.sqrt(len(omegas))
    state = superposed_slice_state(
        GaussianProfile(0.0, float(cfg["sigma"])),
        [(om, amp) for om in omegas],
        payload_time=float(cfg["tb"]),
        frame_time=float(cfg["tc"]),
        frame_mass=float(cfg["frame_mass"]),
        branch_mass=float(cfg["branch_mass"]),
        payload_mass=float(cfg["payload_mass"]),
    )
    span_x = max(
        4.0 * float(cfg["sigma"]) * math.cosh(om) for om in omegas
    )
    span_t = max(abs(float(cfg["tb"])) + 0.5 * span_x, 1.0)
    xs = np.linspace(-span_x, span_x, 72)
    ts = np.linspace(-0.2 * span_t, 1.2 * span_t, 72)
    layers = []
    for branch, (pay,) in zip(state.branches, state.payloads):
        z = np.abs(wavefunction_grid(pay, ts, xs)) ** 2
        layers.append((f"omega={-branch.rapidity:g}", z))
    ridges = [
        (name, data["x"], data["ridge_t"])
        for name, data in sorted(rep["grids"].items())
    ]
    return plots.support_heatmap(
        xs,
        ts,
        layers,
        ridges=ridges,
        title="superposed slices: branch supports and fitted ridges",
    )


def _run_boosts(cfg: dict) -> ScenarioReport:
    scn = BoostSuperpositionScenario(
        sigma=float(cfg["sigma"]),
        omegas=_omegas(cfg["omegas"]),
        mass=float(cfg["mass"]),
    )
    return run_boost_superposition(scn)


def _plot_boosts(rep: dict, cfg: dict) -> str:
    theta = rep["grids"]["theta"]
    series = [("total", theta, rep["grids"]["density_total"])]
    for name, dens in sorted(rep["grids"]["density_branches"].items()):
        series.append((name, theta, dens))
    return plots.line_chart(
        series,
        title="superposition of boosts: momentum density",
        xlabel="rapidity",
        ylabel="|a|^2/2",
    )


def _run_interference(cfg: dict) -> ScenarioReport:
    scn = InterferenceScenario(
        x0=float(cfg["x0"]),
        t0=float(cfg["t0"]),
        sigma_x=float(cfg["sx"]),
        sigma_t=float(cfg["st"]),
        mass=float(cfg["m"]),
        omega1=float(cfg["w1"]),
        omega2=float(cfg["w2"]),
        probe=(float(cfg["tp"]), float(cfg["xp"])),
        sign=int(cfg["sign"]),
        frame_width=None if cfg["frame_width"] is None else float(cfg["frame_width"]),
    )
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
        grids={},
    )


def _csv_interference(rep: dict, cfg: dict):
    rows = [
        {"component": name, "value": value}
        for name, value in sorted(rep["details"]["components"].items())
    ]
    rows.append({"component": "value", "value": rep["details"]["value"]})
    return rows, ["component", "value"]


def _plot_interference(rep: dict, cfg: dict) -> str:
    comp = rep["details"]["components"]
    pairs = [
        ("p+", comp["p_plus"]),
        ("p-", comp["p_minus"]),
        ("branch 1", comp["branch_one"]),
        ("branch 2", comp["branch_two"]),
        ("cross", comp["interference"]),
    ]
    return plots.bar_chart(
        pairs, title="interference probe components", ylabel="density"
    )


def _run_coordinates(cfg: dict) -> ScenarioReport:
    lab = tuple(
        coords.VelocityBranch(float(v), complex(a[0], a[1]))
        for v, a in zip(cfg["velocities"], cfg["amplitudes"])
    ) if cfg["amplitudes"] is not None else tuple(
        coords.VelocityBranch(float(v)) for v in cfg["velocities"]
    )
    events = tuple(
        tuple(coords.EventCoordinate(float(t), float(x)) for t, x in row)
        for row in cfg["events"]
    )
    state = coords.JointCoordinateState(str(cfg["owner"]), lab, events)
    moved = coords.transform_frame(state, str(cfg["owner"]), str(cfg["target"]))
    checks = []
    if state.n_events >= 2:
        before = coords.distance_expectation(state, 0, 1)
        after = coords.distance_expectation(moved, 0, 1)
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
    grids = {
        "before": coords.state_to_dict(state)["events"],
        "after": coords.state_to_dict(moved)["events"],
    }
    return ScenarioReport(
        scenario="coordinate-transform",
        branches=tuple(checks),
        details={
            "before": coords.state_to_dict(state),
            "after": coords.state_to_dict(moved),
        },
        grids=grids,
    )


def _plot_coordinates(rep: dict, cfg: dict) -> str:
    groups = []
    for stage in ("before", "after"):
        state = rep["details"][stage]
        for branch, row in zip(state["lab"], state["events"]):
            groups.append(
                (f"{stage} v={branch['v']:g}", [tuple(ev) for ev in row])
            )
    return plots.event_chart(groups, title="coordinate transform: branch events")


def _run_propagator_table(cfg: dict) -> ScenarioReport:
    mass = float(cfg["m"])
    step = float(cfg["step"])
    steps = int(cfg["steps"])
    for key, value in (("m", mass), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
    if step <= 0.0 or steps < 1:
        raise ValueError("step must be positive and steps >= 1")
    # the propagator squares the largest separation step*steps and scales
    # its square root by m
    reach = step * steps
    if not (math.isfinite(reach * reach) and math.isfinite(mass * reach)):
        raise ValueError(
            f"step*steps*m overflows the propagator argument "
            f"(step={step!r}, steps={steps}, m={mass!r})"
        )
    rows = []
    timelike = {"dt": [], "re": [], "im": []}
    spacelike = {"dx": [], "value": []}
    for k in range(1, steps + 1):
        dt = step * k
        w = propagator(PropagatorQuery(dt, 0.0, mass))
        rows.append({"dt": dt, "dx": 0.0, "re": w.real, "im": w.imag})
        timelike["dt"].append(dt)
        timelike["re"].append(w.real)
        timelike["im"].append(w.imag)
    for k in range(1, steps + 1):
        dx = step * k
        w = propagator(PropagatorQuery(0.0, dx, mass))
        rows.append({"dt": 0.0, "dx": dx, "re": w.real, "im": w.imag})
        spacelike["dx"].append(dx)
        spacelike["value"].append(w.real)
    return ScenarioReport(
        scenario="propagator-table",
        branches=(),
        details={"mass": mass},
        grids={"rows": rows, "timelike": timelike, "spacelike": spacelike},
    )


def _csv_propagator(rep: dict, cfg: dict):
    return rep["grids"]["rows"], ["dt", "dx", "re", "im"]


def _plot_propagator(rep: dict, cfg: dict) -> str:
    tl = rep["grids"]["timelike"]
    sl = rep["grids"]["spacelike"]
    series = [
        ("Re W(dt,0)", tl["dt"], tl["re"]),
        ("Im W(dt,0)", tl["dt"], tl["im"]),
        ("W(0,dx)", sl["dx"], sl["value"]),
    ]
    return plots.line_chart(
        series,
        title="two-point function along the axes",
        xlabel="separation",
        ylabel="W",
    )


def _default_csv(rep: dict, cfg: dict):
    return rep["branches"], _CHECK_COLUMNS


_LN2 = math.log(2.0)

SCENARIOS = {
    "time-dilation": {
        "defaults": {
            "dt": 1.0,
            "t1": 0.0,
            "x0": 0.0,
            "w1": 0.0,
            "w2": _LN2,
            "mode": "exact-event",
            "sigma": 0.02,
            "mass": 50.0,
        },
        "run": _run_dilation,
        "csv": _default_csv,
        "plot": _plot_dilation,
    },
    "length-contraction": {
        "defaults": {
            "x1": 0.0,
            "x2": 1.0,
            "vb": 0.6,
            "vd": 0.8,
            "tb": None,
            "td": None,
        },
        "run": _run_contraction,
        "csv": _default_csv,
        "plot": _plot_contraction,
    },
    "width-contraction": {
        "defaults": {
            "sigma": 1.0,
            "omegas": [0.0, _LN2, math.atanh(0.8)],
            "mass": 5.0,
        },
        "run": _run_width,
        "csv": _default_csv,
        "plot": _plot_width,
    },
    "superposed-slice": {
        "defaults": {
            "sigma": 1.0,
            "tb": 0.4,
            "tc": 0.0,
            "omegas": [0.25, 0.65],
            "payload_mass": 1.0,
            "frame_mass": 1.0,
            "branch_mass": 1.0,
        },
        "run": _run_slice,
        "csv": _default_csv,
        "plot": _plot_slice,
    },
    "superposition-of-boosts": {
        "defaults": {"sigma": 2.5, "omegas": [-0.35, 0.6], "mass": 1.0},
        "run": _run_boosts,
        "csv": _default_csv,
        "plot": _plot_boosts,
    },
    "nonrel-interference": {
        "defaults": {
            "x0": 0.0,
            "t0": 0.0,
            "sx": 1.0,
            "st": 1.0,
            "m": 1.0,
            "w1": 0.02,
            "w2": -0.02,
            "tp": 5.0,
            "xp": 1.0,
            "sign": 1,
            "frame_width": None,
        },
        "run": _run_interference,
        "csv": _csv_interference,
        "plot": _plot_interference,
    },
    "coordinate-transform": {
        "defaults": {
            "owner": "A",
            "target": "B",
            "velocities": [0.6, -0.3],
            "amplitudes": None,
            "events": [[[0.0, 0.0], [2.0, 1.0]], [[0.0, 0.0], [2.0, 1.0]]],
        },
        "run": _run_coordinates,
        "csv": _default_csv,
        "plot": _plot_coordinates,
    },
    "propagator-table": {
        "defaults": {"m": 1.0, "step": 0.25, "steps": 12},
        "run": _run_propagator_table,
        "csv": _csv_propagator,
        "plot": _plot_propagator,
    },
}


# ---------------------------------------------------------------------------
# command plumbing


def _parse_set(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        if not key:
            raise ValueError(f"--set expects a nonempty key, got {pair!r}")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _print_checks(rep: ScenarioReport, stream) -> None:
    for check in rep.branches:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"[{status}] {check.label}: measured={check.measured:.12g} "
            f"predicted={check.predicted:.12g} tol={check.tolerance:g} "
            f"({check.path})",
            file=stream,
        )
    for warning in rep.warnings:
        print(f"[warn] {warning}", file=stream)


def _cmd_run(args) -> int:
    if args.scenario not in SCENARIOS:
        print(
            f"error: unknown scenario {args.scenario!r}; choose from "
            f"{', '.join(sorted(SCENARIOS))}",
            file=sys.stderr,
        )
        return 1
    entry = SCENARIOS[args.scenario]
    try:
        cfg = dict(entry["defaults"])
        file_cfg = _load_config(args.config)
        overrides = _parse_set(args.set or [])
        _reject_unknown(file_cfg, entry["defaults"], args.scenario)
        _reject_unknown(overrides, entry["defaults"], args.scenario)
        cfg.update(file_cfg)
        cfg.update(overrides)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        rep = entry["run"](cfg)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FitError as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return 2

    try:
        reporting.ensure_directory(args.out)
        rep_dict = rep.to_dict()
        payload = reporting.build_report(rep_dict, config=cfg)
        reporting.write_report(payload, os.path.join(args.out, "report.json"))
        if args.csv:
            rows, columns = entry["csv"](rep_dict, cfg)
            reporting.write_csv(rows, columns, os.path.join(args.out, "table.csv"))
        if args.plot == "svg":
            svg = entry["plot"](rep_dict, cfg)
            with open(
                os.path.join(args.out, "plot.svg"), "w", encoding="utf-8"
            ) as fh:
                fh.write(svg)
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 1

    _print_checks(rep, sys.stdout)
    print(f"report: {os.path.join(args.out, 'report.json')}")
    return 0 if rep.passed else 2


def _cmd_selftest(args) -> int:
    from . import acceptance

    results = acceptance.run_all()
    payload = reporting.build_report(acceptance.results_payload(results))
    try:
        reporting.ensure_directory(args.out)
        reporting.write_report(
            payload, os.path.join(args.out, "selftest-report.json")
        )
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 1
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {res.number}: {res.name} — {res.summary}")
    print(f"report: {os.path.join(args.out, 'selftest-report.json')}")
    return 0 if all(res.passed for res in results) else 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lorentzqrf",
        description="relativistic wave-packet and reference-frame scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write artifacts")
    run_p.add_argument("--scenario", required=True, help="scenario name")
    run_p.add_argument("--config", help="JSON config file")
    run_p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (JSON-parsed value)",
    )
    run_p.add_argument("--out", default=".", help="output directory")
    run_p.add_argument("--plot", choices=["svg"], help="write plot.svg")
    run_p.add_argument("--csv", action="store_true", help="write table.csv")
    run_p.set_defaults(func=_cmd_run)

    self_p = sub.add_parser("selftest", help="run the acceptance suite")
    self_p.add_argument("--out", default=".", help="output directory")
    self_p.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
