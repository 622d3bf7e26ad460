"""Configuration-driven command line for the scenario runners.

`lorentzqrf run --scenario <name> [--config file.json] [--set k=v]...
[--out dir] [--plot svg] [--csv]` executes one scenario and writes
deterministic artifacts: report.json (canonical form, timestamp excluded
from byte comparisons), an optional CSV table, and an optional SVG panel.
`lorentzqrf selftest` runs the full acceptance suite.

`SCENARIOS` maps each scenario name to its dataclass in `scenarios`, the
name of its runner there, and the table read from the report alone.  The
plot is drawn from the report alone too, as `plots.draw` of the chart the
runner put in it; this module knows no chart.  Config keys, defaults and
range checks live in the dataclass alone: each field declares its key (see
`scenarios`).  This module only turns JSON values into values of each
field's annotated type, rejecting unknown keys, wrong types, non-integers
and non-finite numbers with the config key named.  An error the scenario
raises while it is built or run, and a report holding a non-finite number,
exit 1 with the keys given named, before any artifact is written.

Exit codes: 0 all in-report checks pass; 2 a tolerance check or fit failed;
1 configuration error (unknown scenario, bad parameter, unreadable config,
a value the scenario cannot run with, unwritable output directory).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from types import NoneType, UnionType
from typing import Callable, get_args, get_origin, get_type_hints

from . import plots, report as reporting, scenarios
from .scenarios import BranchCheck, FitError, ScenarioReport

__all__ = ["main", "SCENARIOS"]

# the keys of BranchCheck.to_dict, in order
_CHECK_COLUMNS = [f.name for f in fields(BranchCheck)] + ["pass"]


# ---------------------------------------------------------------------------
# config keys -> scenario fields


def _config(scenario: type, name: str, given: dict) -> tuple[dict, dict]:
    """The report's config, keyed like `given`, and the scenario's keyword
    arguments: the scenario's defaults overlaid by the values given, coerced
    to their fields' types.

    A field's key is its name unless its metadata names another, or None to
    keep it off the command line.
    """
    keys = {f.metadata.get("key", f.name): f.name for f in fields(scenario)}
    keys.pop(None, None)
    unknown = sorted(set(given) - set(keys))
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {', '.join(unknown)} for scenario {name}; "
            f"known: {', '.join(sorted(keys))}"
        )
    base = scenario()
    hints = get_type_hints(scenario)
    config = {key: getattr(base, f) for key, f in keys.items()}
    for key, value in given.items():
        config[key] = _coerce(key, value, hints[keys[key]])
    return config, {f: config[key] for key, f in keys.items()}


def _coerce(key: str, value, hint):
    """The JSON value of config `key` as a value of the annotated type `hint`.

    Numeric strings parse as numbers, and a single value where a list is
    expected counts as a one-element list.  Raises ValueError naming `key`.
    """
    if get_origin(hint) is UnionType:  # X | None
        if value is None:
            return None
        (hint,) = (arg for arg in get_args(hint) if arg is not NoneType)
    if get_origin(hint) is tuple:
        args = get_args(hint)
        if args[-1] is Ellipsis:
            items = value if isinstance(value, list) else [value]
            return tuple(_coerce(key, item, args[0]) for item in items)
        if not (isinstance(value, list) and len(value) == len(args)):
            raise ValueError(f"{key} needs a list of {len(args)} values, got {value!r}")
        return tuple(_coerce(key, item, arg) for item, arg in zip(value, args))
    if hint is str:
        if not isinstance(value, str):
            raise ValueError(f"{key} must be a string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    except ValueError:
        raise ValueError(f"{key} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{key} must be finite, got {value!r}")
    if hint is int:
        if not number.is_integer():
            raise ValueError(f"{key} must be an integer, got {value!r}")
        return int(number)
    return number


def _check_table(rep: dict):
    return rep["branches"], _CHECK_COLUMNS


@dataclass(frozen=True)
class _Entry:
    """One `lorentzqrf run` scenario.

    `runner` is looked up in `scenarios` per run, so later wrappers run too.
    `csv` reads the report's dict and nothing else; the plot is the report's
    chart, which `plots.draw` draws.
    """

    scenario: type
    runner: str
    csv: Callable[[dict], tuple[list[dict], list[str]]] = _check_table


# ---------------------------------------------------------------------------
# tables


def _interference_table(rep: dict):
    rows = [
        {"component": name, "value": value}
        for name, value in sorted(rep["details"]["components"].items())
    ]
    rows.append({"component": "value", "value": rep["details"]["value"]})
    return rows, ["component", "value"]


def _propagator_table(rep: dict):
    return rep["details"]["rows"], ["dt", "dx", "re", "im"]


SCENARIOS = {
    "time-dilation": _Entry(scenarios.DilationScenario, "run_time_dilation"),
    "length-contraction": _Entry(scenarios.ContractionScenario, "run_length_contraction"),
    "width-contraction": _Entry(scenarios.WidthScenario, "run_width_contraction"),
    "superposed-slice": _Entry(scenarios.SliceScenario, "run_superposed_slice"),
    "superposition-of-boosts": _Entry(
        scenarios.BoostSuperpositionScenario, "run_boost_superposition"
    ),
    "nonrel-interference": _Entry(
        scenarios.InterferenceScenario, "run_nonrel_interference", _interference_table
    ),
    "coordinate-transform": _Entry(scenarios.CoordinateScenario, "run_coordinate_transform"),
    "propagator-table": _Entry(
        scenarios.PropagatorTableScenario, "run_propagator_table", _propagator_table
    ),
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
            f"margin={check.margin:.3g} ({check.path})",
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
        given = _load_config(args.config)
        given.update(_parse_set(args.set or []))
        cfg, kwargs = _config(entry.scenario, args.scenario, given)
        try:
            scn = entry.scenario(**kwargs)
            rep = getattr(scenarios, entry.runner)(scn)
            rep_dict = rep.to_dict()
            # serializing rejects a non-finite number, and the table and plot an
            # overflowing one, before anything is written
            text = reporting.canonical_json(reporting.build_report(rep_dict, config=cfg))
            table = entry.csv(rep_dict) if args.csv else None
            svg = plots.draw(rep_dict["chart"]) if args.plot == "svg" else None
        except (ArithmeticError, ValueError) as exc:
            # the defaults are valid and run, so the keys given are the ones
            # to check; the scenario's own message names fields, not keys
            reason = str(exc) if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
            if given:
                reason += f" (given {', '.join(f'{key}={cfg[key]!r}' for key in given)})"
            raise ValueError(reason) from None
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FitError as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return 2

    try:
        reporting.ensure_directory(args.out)
        reporting.write_report(text, os.path.join(args.out, "report.json"))
        if table is not None:
            reporting.write_csv(*table, os.path.join(args.out, "table.csv"))
        if svg is not None:
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
    text = reporting.canonical_json(
        reporting.build_report(acceptance.results_payload(results))
    )
    try:
        reporting.ensure_directory(args.out)
        reporting.write_report(text, os.path.join(args.out, "selftest-report.json"))
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 1
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {res.number}: {res.name} — {res.summary}")
    print(f"report: {os.path.join(args.out, 'selftest-report.json')}")
    return 0 if all(res.passed for res in results) else 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; each parse_args call
    starts from a fresh namespace, so no value carries over between runs."""
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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
