"""Command-line, canonical-report, and SVG-rendering tests.

scipy.special appears only as an oracle for the propagator table values; no
run loads scipy.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from lorentzqrf import cli, plots, scenarios
from lorentzqrf import report as reporting


# ---------------------------------------------------------------------------
# canonical JSON


def test_canonical_json_sorts_and_formats():
    blob = reporting.canonical_json({"b": 1, "a": math.pi, "c": [True, None]})
    assert blob == '{"a":3.1415926535897931,"b":1,"c":[true,null]}'


def test_canonical_json_round_trips_17_digits():
    values = [math.pi, 1 / 3, 1e-300, 2.0**53 - 1.0, -math.e]
    blob = reporting.canonical_json(values)
    assert json.loads(blob) == values


def test_canonical_json_complex_and_numpy():
    blob = reporting.canonical_json(
        {"z": 1.5 - 2.0j, "arr": np.array([1.0, 2.0]), "n": np.int64(7)}
    )
    assert blob == '{"arr":[1,2],"n":7,"z":[1.5,-2]}'


def test_canonical_json_normalizes_negative_zero():
    assert reporting.canonical_json(-0.0) == "0"


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        reporting.canonical_json({"x": math.inf})
    with pytest.raises(ValueError):
        reporting.canonical_json(math.nan)


def test_strip_timestamp_removes_only_timestamp():
    payload = reporting.build_report({"x": 1.0}, config={"k": 2})
    assert reporting.TIMESTAMP_FIELD in payload
    text = reporting.canonical_json(payload)
    stripped = reporting.strip_timestamp(text)
    assert stripped == '{"config":{"k":2},"x":1}'


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@given(st.dictionaries(st.text(max_size=8), _json_values, max_size=6), st.text())
def test_canonical_json_and_strip_timestamp_properties(body, stamp):
    text = reporting.canonical_json(body)
    # 17 significant digits read back exactly (-0.0 reads back as 0)
    assert json.loads(text) == body
    assert reporting.canonical_json(json.loads(text)) == text
    stamped = reporting.canonical_json({**body, reporting.TIMESTAMP_FIELD: stamp})
    unstamped = {k: v for k, v in body.items() if k != reporting.TIMESTAMP_FIELD}
    assert reporting.strip_timestamp(stamped) == reporting.canonical_json(unstamped)
    assert reporting.strip_timestamp(stamped.encode("ascii")) == reporting.strip_timestamp(
        stamped
    )


# rows of exact floats take one format call; the reference joins the values
_edge_floats = st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
)
_row_floats = st.floats(allow_nan=False, allow_infinity=False) | _edge_floats
_row_items = _row_floats | _row_floats.map(np.float64) | st.integers() | st.booleans()


@given(st.lists(_row_floats, max_size=40) | st.lists(_row_items, max_size=40), st.booleans())
def test_canonical_json_rows_match_per_value_emission(row, as_tuple):
    row = tuple(row) if as_tuple else row
    expected = "[" + ",".join(reporting.canonical_json(v) for v in row) + "]"
    assert reporting.canonical_json(row) == expected


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_canonical_json_float_row_names_its_non_finite_value(bad):
    message = f"reports may not contain non-finite numbers, got {bad!r}"
    with pytest.raises(ValueError) as scalar:
        reporting.canonical_json(bad)
    with pytest.raises(ValueError) as row:
        reporting.canonical_json([0.5, -0.0, bad, math.nan, 2.0])
    assert str(row.value) == str(scalar.value) == message


@pytest.mark.parametrize("measured", [1.25 + 1e-15, 1.5])
def test_branch_check_from_numpy_floats_serializes_like_floats(measured):
    args = ("a:b", 0.5, 1.25, measured, 1e-12, "exact")
    plain = scenarios.BranchCheck(*args)
    numpy = scenarios.BranchCheck(
        *(np.float64(a) if isinstance(a, float) else a for a in args)
    )
    assert type(numpy.passed) is bool and numpy.passed == plain.passed
    assert reporting.canonical_json(numpy.to_dict()) == reporting.canonical_json(
        plain.to_dict()
    )
    columns = list(plain.to_dict())
    assert reporting.csv_lines([numpy.to_dict()], columns) == reporting.csv_lines(
        [plain.to_dict()], columns
    )
    # a bare numpy bool is a bool in both formats
    assert reporting.canonical_json([np.True_, np.False_]) == "[true,false]"
    assert reporting.csv_lines([{"p": np.False_}], ["p"])[1] == "false"


def test_csv_lines_quoting_and_types():
    lines = reporting.csv_lines(
        [{"a": 0.5, "b": 'say "hi"', "c": True}, {"a": 2, "b": "x,y", "c": False}],
        ["a", "b", "c"],
    )
    assert lines == ['a,b,c', '0.5,"say ""hi""",true', '2,"x,y",false']


# ---------------------------------------------------------------------------
# SVG rendering


def test_line_chart_is_deterministic_and_wellformed():
    series = [("one", [0.0, 1.0, 2.0], [0.0, 1.0, 0.5])]
    a = plots.line_chart(series, title="demo")
    b = plots.line_chart(series, title="demo")
    assert a == b
    assert a.startswith('<?xml version="1.0"')
    assert a.rstrip().endswith("</svg>")
    assert "demo" in a and "polyline" in a


def _per_point_line_chart(series, title="", xlabel="x", ylabel="y"):
    """`plots.line_chart` as one px/py and _fmt call per point, for reference."""
    xr = plots._finite_range([x for _, xs, _ in series for x in xs])
    yr = plots._finite_range([y for _, _, ys in series for y in ys])
    if xr is None or yr is None:
        return plots._blank(title, xlabel, ylabel)
    panel = plots._Panel(xr, yr, title, xlabel, ylabel)
    parts = panel.frame()
    for i, (label, xs, ys) in enumerate(series):
        points = " ".join(
            f"{plots._fmt(panel.px(float(x)))},{plots._fmt(panel.py(float(y)))}"
            for x, y in zip(xs, ys)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" '
            f'stroke="{plots.PALETTE[i % len(plots.PALETTE)]}" stroke-width="1.5"/>'
        )
    parts.extend(panel.legend([label for label, _, _ in series]))
    return plots._document(parts)


_chart_values = st.floats(-1e6, 1e6) | st.sampled_from(
    [-0.0, 1e-300, math.inf, -math.inf, math.nan]
)
_chart_series = st.tuples(
    st.text("abc", max_size=3),
    st.lists(_chart_values, min_size=1, max_size=12),
    st.lists(_chart_values, min_size=1, max_size=12),
)


@given(st.lists(_chart_series, max_size=4), st.booleans())
@example([("one", [0.5], [-2.0]), ("short", [0.0, 1.0, 2.0, 3.0], [1.0, -1.0])], False)
def test_line_chart_matches_per_point_reference(series, as_arrays):
    if as_arrays:
        series = [(label, np.array(xs), np.array(ys)) for label, xs, ys in series]
    assert plots.line_chart(series, title="t") == _per_point_line_chart(series, title="t")


@given(st.lists(_chart_values, max_size=12), st.floats(-1e6, 1e6), st.floats(1e-3, 1e6))
def test_panel_maps_arrays_with_the_bits_of_scalars(values, lo, width):
    panel = plots._Panel((lo, lo + width), (lo - width, lo), "", "", "")
    arr = np.array(values, dtype=float)
    assert panel.px(arr).tobytes() == np.array([panel.px(v) for v in values]).tobytes()
    assert panel.py(arr).tobytes() == np.array([panel.py(v) for v in values]).tobytes()


def test_empty_chart_renders_blank_panel_with_axes():
    a = plots.line_chart([], title="nothing here")
    assert "nothing here" in a
    assert '<rect' in a and '<line' in a  # frame and tick marks survive
    assert "polyline" not in a


def test_chart_rejects_a_range_whose_span_overflows():
    for draw in (
        lambda: plots.event_chart([("a", [(1e308, 0.0), (-1e308, 1.0)])]),
        lambda: plots.line_chart([("a", [0.0, 1.0], [1e308, -1e308])]),
        lambda: plots.line_chart([("a", [0.0, 1.0], [1.7e308, 1.7e308])]),
    ):
        with pytest.raises(ValueError, match=r"plot range \[.*e\+308\] is too wide"):
            draw()


def test_heatmap_resolution_cap():
    xs = np.linspace(0, 1, 3000)
    ts = np.linspace(0, 1, 3000)
    with pytest.raises(ValueError, match="resolution"):
        plots.support_heatmap(xs, ts, [("z", np.zeros((3000, 3000)))])


def test_heatmap_renders_layers_and_ridges():
    xs = np.linspace(-1, 1, 8)
    ts = np.linspace(0, 1, 6)
    z = np.exp(-(ts[:, None] ** 2) - xs[None, :] ** 2)
    svg = plots.support_heatmap(
        xs, ts, [("layer", z)], ridges=[("ridge", [-1.0, 1.0], [0.0, 1.0])]
    )
    assert svg.count("<rect") > 10  # density cells
    assert "stroke-dasharray" in svg  # ridge overlay


# ---------------------------------------------------------------------------
# CLI: run


def _read_report(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_run_default_time_dilation(tmp_path, capsys):
    code = cli.main(["run", "--scenario", "time-dilation", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out and "report:" in out
    payload = json.loads(_read_report(tmp_path / "report.json"))
    assert payload["scenario"] == "time-dilation"
    assert payload["config"]["w2"] == pytest.approx(math.log(2.0))
    assert reporting.TIMESTAMP_FIELD in payload


def test_run_spec_example_intervals(tmp_path):
    code = cli.main(
        [
            "run",
            "--scenario",
            "time-dilation",
            "--set",
            "dt=1",
            "--set",
            "w2=0.6931",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    payload = json.loads(_read_report(tmp_path / "report.json"))
    measured = sorted(b["measured"] for b in payload["branches"])
    assert measured[0] == pytest.approx(1.0, abs=1e-12)
    assert measured[1] == pytest.approx(1.25, abs=1e-4)


def test_run_unknown_scenario_is_config_error(tmp_path, capsys):
    code = cli.main(["run", "--scenario", "no-such", "--out", str(tmp_path)])
    assert code == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_run_unknown_key_is_config_error(tmp_path, capsys):
    code = cli.main(
        [
            "run",
            "--scenario",
            "time-dilation",
            "--set",
            "bogus=1",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "unknown parameter" in capsys.readouterr().err


def test_run_bad_parameter_is_config_error(tmp_path, capsys):
    code = cli.main(
        [
            "run",
            "--scenario",
            "width-contraction",
            "--set",
            "sigma=-1",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_run_config_file_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code = cli.main(
        [
            "run",
            "--scenario",
            "time-dilation",
            "--config",
            str(cfg),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "JSON object" in capsys.readouterr().err


def test_run_missing_config_file(tmp_path, capsys):
    code = cli.main(
        [
            "run",
            "--scenario",
            "time-dilation",
            "--config",
            str(tmp_path / "absent.json"),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1


def test_run_config_file_and_override_merge(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"dt": 2.0, "w2": 0.5}')
    code = cli.main(
        [
            "run",
            "--scenario",
            "time-dilation",
            "--config",
            str(cfg),
            "--set",
            "w2=1.0",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    payload = json.loads(_read_report(tmp_path / "report.json"))
    assert payload["config"]["dt"] == 2.0
    assert payload["config"]["w2"] == 1.0  # --set beats the file
    measured = sorted(b["measured"] for b in payload["branches"])
    assert measured[1] == pytest.approx(2.0 * math.cosh(1.0), rel=1e-12)


def test_run_fit_failure_exits_2(tmp_path, capsys):
    code = cli.main(
        [
            "run",
            "--scenario",
            "time-dilation",
            "--set",
            "mode=narrow-gaussian",
            "--set",
            "sigma=0.5",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 2
    assert "fit failure" in capsys.readouterr().err


def test_run_reports_are_byte_identical_modulo_timestamp(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = cli.main(
            [
                "run",
                "--scenario",
                "width-contraction",
                "--out",
                str(out),
                "--csv",
                "--plot",
                "svg",
            ]
        )
        assert code == 0
    r1 = reporting.strip_timestamp(_read_report(out1 / "report.json"))
    r2 = reporting.strip_timestamp(_read_report(out2 / "report.json"))
    assert r1 == r2
    assert _read_report(out1 / "table.csv") == _read_report(out2 / "table.csv")
    assert _read_report(out1 / "plot.svg") == _read_report(out2 / "plot.svg")


def test_run_propagator_table_csv_matches_closed_forms(tmp_path):
    from scipy.special import hankel2, k0  # oracle

    code = cli.main(
        [
            "run",
            "--scenario",
            "propagator-table",
            "--out",
            str(tmp_path),
            "--csv",
        ]
    )
    assert code == 0
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert lines[0] == "dt,dx,re,im"
    rows = {}
    for line in lines[1:]:
        dt, dx, re, im = line.split(",")
        rows[(float(dt), float(dx))] = complex(float(re), float(im))
    want_t = -0.5j * math.pi * complex(hankel2(0, 1.0))
    assert abs(rows[(1.0, 0.0)] - want_t) / abs(want_t) < 1e-6
    want_s = float(k0(1.0))
    assert abs(rows[(0.0, 1.0)] - want_s) / want_s < 1e-6


def test_run_propagator_table_at_tiny_mass_and_step(tmp_path):
    from scipy.special import hankel2, k0  # oracle

    code = cli.main(
        [
            "run", "--scenario", "propagator-table", "--set", "m=1e-200",
            "--set", "step=1e-100", "--out", str(tmp_path), "--csv",
        ]
    )
    assert code == 0
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 12
    for line in lines[1:]:
        dt, dx, re, im = map(float, line.split(","))
        z = 1e-200 * max(dt, dx)
        want = -0.5j * math.pi * complex(hankel2(0, z)) if dt else complex(k0(z))
        assert abs(complex(re, im) - want) <= 1e-10 * abs(want)


def test_run_propagator_table_at_huge_mass(tmp_path):
    # m*step*steps = 3e300: no cost cap, the spacelike rows underflow to 0
    code = cli.main(
        ["run", "--scenario", "propagator-table", "--set", "m=1e300",
         "--out", str(tmp_path), "--csv"]
    )
    assert code == 0
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 12
    for line in lines[1:]:
        dt, dx, re, im = map(float, line.split(","))
        assert all(map(math.isfinite, (re, im)))
        if dx:
            assert re == im == 0.0
        else:  # |W| ~ sqrt(pi / (2 m s)) ~ 1e-150
            assert 0.0 < abs(complex(re, im)) < 1e-149


@pytest.mark.parametrize(
    "setting, message",
    [
        ("step=1e308", "step*steps*m overflows the propagator argument"),
        ("step=nan", "step must be finite"),
        ("m=Infinity", "m must be finite"),
    ],
)
def test_run_propagator_table_rejects_unusable_numbers(tmp_path, capsys, setting, message):
    code = cli.main(
        ["run", "--scenario", "propagator-table", "--set", setting, "--out", str(tmp_path)]
    )
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "scenario, setting, message",
    [
        ("propagator-table", "steps=2.7", "steps must be an integer, got 2.7"),
        ("propagator-table", "steps=100000000", "steps must be in 1..10000"),
        (
            "propagator-table",
            "step=1e-200",
            "step must be at least 1.492e-154, where step**2 is still a normal "
            "float, got 1e-200 (given step=1e-200)",
        ),
        ("nonrel-interference", "sign=1.5", "sign must be an integer, got 1.5"),
        ("nonrel-interference", "frame_width=0", "frame_width must be positive"),
        ("width-contraction", "sigma=true", "sigma must be a number, got True"),
        ("width-contraction", 'omegas="abc"', "omegas must be a number, got 'abc'"),
        ("time-dilation", "x0=[1]", "x0 must be a number, got [1]"),
        ("time-dilation", "dt=NaN", "dt must be finite, got nan"),
        ("length-contraction", "tb=[0.6]", "tb needs a list of 2 values"),
        ("coordinate-transform", "owner=1", "owner must be a string, got 1"),
        ("time-dilation", "dt=-1", "dt must be positive (given dt=-1.0)"),
        (
            "time-dilation",
            "t1=1e20",
            "t1 + dt must exceed t1 in floating point (given t1=1e+20)",
        ),
        ("propagator-table", "m=-1", "mass must be positive, got -1.0 (given m=-1.0)"),
        ("nonrel-interference", "sx=0", "packet widths must be positive (given sx=0.0)"),
        # values the scenario accepts but cannot run with
        ("time-dilation", "w2=800", "OverflowError: math range error (given w2=800.0)"),
        (
            "width-contraction",
            "omegas=[800]",
            "OverflowError: math range error (given omegas=(800.0,))",
        ),
        (
            "superposed-slice",
            "omegas=[800]",
            "OverflowError: math range error (given omegas=(800.0,))",
        ),
        (
            "width-contraction",
            "sigma=1e300",
            "profile sigma must be at most 1.341e+154, where sigma**2 still fits a "
            "float, got 1e+300 (given sigma=1e+300)",
        ),
        (
            "time-dilation",
            "t1=123456.789 dt=0.1 w2=0.7",
            "t1 too far from 0 for dt: in branch omega=0 the boosted event times "
            "round at 1.5e-11, above the 1e-13 the exact-event check allows "
            "(given t1=123456.789, dt=0.1, w2=0.7)",
        ),
        (
            "superposed-slice",
            "payload_mass=-1",
            "mass must be positive, got -1.0 (given payload_mass=-1.0)",
        ),
        (
            "coordinate-transform",
            "events=[[[1e308,0],[-1e308,0]],[[0,0],[1,1]]]",
            "event separation (-inf, 0.0) overflows dt^2 - dx^2 (given events=",
        ),
        (
            # the events are finite, but the plot's axis span overflows
            "coordinate-transform",
            "velocities=[0.0,1e-9] events=[[[1e308,0],[1e308,1]],[[-1e308,0],[-1e308,1]]]",
            "plot range [-1e+308, 1e+308] is too wide to draw: its span overflows "
            "(given velocities=(0.0, 1e-09), events=",
        ),
        (
            "coordinate-transform",
            "events=[[[0,0]],[[0,0]]]",
            "events needs at least two events per branch row, got a row of 1",
        ),
        (
            "coordinate-transform",
            "target=A",
            "the frame change needs a lab other than 'A' (given target='A')",
        ),
        (
            "coordinate-transform",
            "velocities=[0.5,0.5]",
            "branches must be distinct, got [0.5, 0.5] (given velocities=(0.5, 0.5))",
        ),
    ],
)
def test_run_rejects_bad_values_naming_the_key(
    tmp_path, capsys, scenario, setting, message
):
    sets = [arg for pair in setting.split() for arg in ("--set", pair)]
    argv = ["run", "--scenario", scenario, *sets, "--out", str(tmp_path)]
    code = cli.main(argv + ["--csv", "--plot", "svg"])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    # a range check names the key instead of surfacing a bare OverflowError
    assert ("OverflowError" in err) == ("OverflowError" in message)
    # no artifact, not even report.json, is written
    assert list(tmp_path.iterdir()) == []


# every documented key of every scenario with its default, as `report.json`
# echoes it under "config"
DOCUMENTED_DEFAULTS = {
    "time-dilation": {
        "dt": 1.0, "t1": 0.0, "x0": 0.0, "w1": 0.0, "w2": math.log(2.0),
        "mode": "exact-event", "sigma": 0.02, "mass": 50.0,
    },
    "length-contraction": {
        "x1": 0.0, "x2": 1.0, "vb": 0.6, "vd": 0.8, "tb": None, "td": None,
    },
    "width-contraction": {
        "sigma": 1.0, "omegas": [0.0, math.log(2.0), math.atanh(0.8)], "mass": 5.0,
    },
    "superposed-slice": {
        "sigma": 1.0, "tb": 0.4, "tc": 0.0, "omegas": [0.25, 0.65],
        "payload_mass": 1.0, "frame_mass": 1.0, "branch_mass": 1.0,
    },
    "superposition-of-boosts": {"sigma": 2.5, "omegas": [-0.35, 0.6], "mass": 1.0},
    "nonrel-interference": {
        "x0": 0.0, "t0": 0.0, "sx": 1.0, "st": 1.0, "m": 1.0, "w1": 0.02,
        "w2": -0.02, "tp": 5.0, "xp": 1.0, "sign": 1, "frame_width": None,
    },
    "coordinate-transform": {
        "owner": "A", "target": "B", "velocities": [0.6, -0.3], "amplitudes": None,
        "events": [[[0.0, 0.0], [2.0, 1.0]], [[0.0, 0.0], [2.0, 1.0]]],
    },
    "propagator-table": {"m": 1.0, "step": 0.25, "steps": 12},
}

LIBRARY_RUNS = {
    "time-dilation": lambda: scenarios.run_time_dilation(
        scenarios.DilationScenario()
    ),
    "length-contraction": lambda: scenarios.run_length_contraction(
        scenarios.ContractionScenario()
    ),
    "width-contraction": lambda: scenarios.run_width_contraction(
        scenarios.WidthScenario()
    ),
    "superposed-slice": lambda: scenarios.run_superposed_slice(
        scenarios.SliceScenario()
    ),
    "superposition-of-boosts": lambda: scenarios.run_boost_superposition(
        scenarios.BoostSuperpositionScenario()
    ),
    "nonrel-interference": lambda: scenarios.run_nonrel_interference(
        scenarios.InterferenceScenario()
    ),
    "coordinate-transform": lambda: scenarios.run_coordinate_transform(
        scenarios.CoordinateScenario()
    ),
    "propagator-table": lambda: scenarios.run_propagator_table(
        scenarios.PropagatorTableScenario()
    ),
}


@pytest.mark.parametrize("name", sorted(DOCUMENTED_DEFAULTS))
def test_run_defaults_match_library_and_documented_keys(tmp_path, capsys, name):
    assert set(cli.SCENARIOS) == set(DOCUMENTED_DEFAULTS)
    code = cli.main(["run", "--scenario", name, "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads(
        reporting.strip_timestamp(_read_report(tmp_path / "report.json"))
    )
    assert payload.pop("config") == DOCUMENTED_DEFAULTS[name]
    assert reporting.canonical_json(payload) == reporting.canonical_json(
        LIBRARY_RUNS[name]().to_dict()
    )
    code = cli.main(
        ["run", "--scenario", name, "--set", "bogus=1", "--out", str(tmp_path)]
    )
    assert code == 1
    known = ", ".join(sorted(DOCUMENTED_DEFAULTS[name]))
    assert capsys.readouterr().err.rstrip().endswith(f"known: {known}")


def test_run_interference_scenario(tmp_path):
    code = cli.main(
        ["run", "--scenario", "nonrel-interference", "--out", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads(_read_report(tmp_path / "report.json"))
    comp = payload["details"]["components"]
    assert comp["p_plus"] + comp["p_minus"] == pytest.approx(
        comp["total"], rel=1e-12
    )
    assert 0.99 < payload["details"]["value"] <= 1.0


def test_run_interference_rejects_an_underflowing_probe(tmp_path, capsys):
    # with the packet 100 widths from the probe, at a mass where the kernel is
    # all but a delta at xp, every amplitude underflows to 0, and a
    # completeness check on 0 = 0 would pass
    out = tmp_path / "out"
    argv = ["run", "--scenario", "nonrel-interference"]
    argv += ["--set", "m=1e300", "--set", "x0=100"]
    assert cli.main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "detection density is 0.0" in err
    assert err.rstrip().endswith("(given m=1e+300, x0=100.0)")
    assert not out.exists()


def test_no_run_loads_scipy(tmp_path):
    # in a fresh interpreter where any scipy import raises, every default
    # scenario, the wave-packet time dilation and the criteria that fit or
    # use Bessel oracles all run and pass
    out = str(tmp_path)
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from lorentzqrf import acceptance, cli\n"
        "runs = [['--scenario', name] for name in cli.SCENARIOS]\n"
        "runs.append(['--scenario', 'time-dilation', '--set', 'mode=\"narrow-gaussian\"'])\n"
        f"codes = [cli.main(['run', *argv, '--out', {out!r}]) for argv in runs]\n"
        "crit = [c().passed for c in (acceptance.criterion_2, acceptance.criterion_3,"
        " acceptance.criterion_5)]\n"
        "print(json.dumps([len(runs), codes, crit]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=300,
    )
    assert json.loads(run.stdout.splitlines()[-1]) == [9, [0] * 9, [True] * 3]


def test_run_coordinate_transform_scenario(tmp_path):
    code = cli.main(
        ["run", "--scenario", "coordinate-transform", "--out", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads(_read_report(tmp_path / "report.json"))
    for check in payload["branches"]:
        assert check["measured"] == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert check["pass"] is True


def test_run_slice_scenario_with_plot(tmp_path):
    code = cli.main(
        [
            "run",
            "--scenario",
            "superposed-slice",
            "--out",
            str(tmp_path),
            "--plot",
            "svg",
        ]
    )
    assert code == 0
    svg = (tmp_path / "plot.svg").read_text()
    payload = json.loads(_read_report(tmp_path / "report.json"))
    # one fitted ridge per branch
    assert svg.startswith("<?xml")
    assert svg.count("<polyline") == len(payload["grids"]) == 2


# the default of every scenario, and the wave-packet path of time dilation
ARTIFACT_RUNS = [(name, []) for name in sorted(DOCUMENTED_DEFAULTS)] + [
    ("time-dilation", ["--set", "mode=narrow-gaussian"])
]


@pytest.mark.parametrize("name, extra", ARTIFACT_RUNS)
def test_tables_and_plots_come_from_the_report_alone(tmp_path, name, extra):
    argv = ["run", "--scenario", name, *extra, "--out", str(tmp_path)]
    assert cli.main(argv + ["--csv", "--plot", "svg"]) == 0
    rep = json.loads(_read_report(tmp_path / "report.json"))
    entry = cli.SCENARIOS[name]
    assert entry.plot(rep) == (tmp_path / "plot.svg").read_text()
    rows, columns = entry.csv(rep)
    table = "\n".join(reporting.csv_lines(rows, columns)) + "\n"
    assert table == (tmp_path / "table.csv").read_text()


def _per_value_json(obj):
    """`canonical_json` with one scalar call per value, for reference."""
    if isinstance(obj, dict):
        items = (f"{json.dumps(k)}:{_per_value_json(v)}" for k, v in sorted(obj.items()))
        return "{" + ",".join(items) + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_per_value_json(v) for v in obj) + "]"
    return reporting.canonical_json(obj)


@pytest.mark.parametrize("name", ["superposition-of-boosts", "width-contraction"])
def test_bulk_rows_and_polylines_match_per_value_emitters(monkeypatch, name):
    rep = LIBRARY_RUNS[name]().to_dict()
    assert reporting.canonical_json(rep) == _per_value_json(rep)
    svg = cli.SCENARIOS[name].plot(rep)
    monkeypatch.setattr(plots, "line_chart", _per_point_line_chart)
    assert svg == cli.SCENARIOS[name].plot(rep)


def test_run_boosts_scalar_omega_coerced(tmp_path):
    code = cli.main(
        [
            "run",
            "--scenario",
            "superposition-of-boosts",
            "--set",
            "omegas=0.5",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    payload = json.loads(_read_report(tmp_path / "report.json"))
    assert len(payload["branches"]) == 2  # peak + velocity checks of one branch


@pytest.mark.parametrize(
    "scenario, setting, code, warning",
    [
        (
            "superposition-of-boosts",
            "omegas=[-8.7,0.6]",
            0,
            "branch omega=-8.7: boosted support within 5% of the grid boundary",
        ),
        (
            "nonrel-interference",
            "frame_width=0.05",
            2,
            "frame branch overlap 0.923 >= 1e-3",
        ),
    ],
)
def test_run_forwards_state_notes_as_warnings(
    tmp_path, capsys, scenario, setting, code, warning
):
    argv = ["run", "--scenario", scenario, "--set", setting, "--out", str(tmp_path)]
    assert cli.main(argv) == code
    payload = json.loads(_read_report(tmp_path / "report.json"))
    assert any(w.startswith(warning) for w in payload["warnings"])
    assert f"[warn] {warning}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "scenario, setting",
    [
        # the omega = 8.9 branch carries the payload's support past the grid
        # edge, where only an exact boost keeps its intercept check passing
        ("superposed-slice", "omegas=[0.25,8.9]"),
        ("time-dilation", "mode=narrow-gaussian"),
        ("superposition-of-boosts", "omegas=[-0.35,0.6]"),
        ("width-contraction", "sigma=1"),
    ],
)
def test_boosted_reports_carry_no_warnings(tmp_path, capsys, scenario, setting):
    """Off-lattice boosts are exact: no interpolation or truncation notes.

    The narrow-gaussian markers at omega = ln 2 fit a Gaussian only to a 7.5 %
    rms misfit, which the report warns about (one line per event)."""
    argv = ["run", "--scenario", scenario, "--set", setting, "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    payload = json.loads(_read_report(tmp_path / "report.json"))
    fits = [w for w in payload["warnings"] if ": gaussian fit residual " in w]
    assert len(fits) == (2 if scenario == "time-dilation" else 0)
    assert [w for w in payload["warnings"] if w not in fits] == []
    assert capsys.readouterr().out.count("[warn]") == len(fits)


# ---------------------------------------------------------------------------
# CLI: selftest


def test_selftest_runs_are_byte_identical_modulo_timestamp(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = cli.main(["selftest", "--out", str(out)])
        assert code == 0
    printed = capsys.readouterr().out
    assert printed.count("[PASS]") == 22  # 11 criteria x 2 invocations
    b1 = _read_report(out1 / "selftest-report.json")
    b2 = _read_report(out2 / "selftest-report.json")
    assert reporting.strip_timestamp(b1) == reporting.strip_timestamp(b2)
    payload = json.loads(b1)
    assert payload["pass"] is True
    assert [c["number"] for c in payload["criteria"]] == list(range(1, 12))


def test_reports_do_not_depend_on_blas_threads(tmp_path):
    # every default scenario, the wave-packet time dilation and the selftest
    # serialize the same bytes (timestamp aside) at one and two OpenBLAS
    # threads, and so does one wavefunction value summed over a 12129-site
    # window; the two interpreters run side by side
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from lorentzqrf import cli, states\n"
        "runs = [['run', '--scenario', name] for name in cli.SCENARIOS]\n"
        "runs.append(['run', '--scenario', 'time-dilation', '--set', 'mode=\"narrow-gaussian\"'])\n"
        "runs.append(['selftest'])\n"
        "for i, argv in enumerate(runs):\n"
        "    assert cli.main([*argv, '--out', f'{sys.argv[1]}/{i}']) == 0\n"
        "prep = states.Gaussian2D(sigma_t=0.02, sigma_x=0.02, energy=1.0)\n"
        "grid = states.RapidityGrid.symmetric(10.0, 20001)\n"
        "psi = states.wavefunction(states.from_spacetime_function(prep, 1.0, grid), (0.3, 0.7))\n"
        "Path(sys.argv[1], 'point.txt').write_text(f'{psi.real.hex()} {psi.imag.hex()}')\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    procs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        procs.append(subprocess.Popen(
            [sys.executable, "-c", code, str(tmp_path / threads)], env=env,
            stdout=subprocess.DEVNULL,
        ))
    assert [proc.wait(timeout=300) for proc in procs] == [0, 0]
    reports = sorted(p.relative_to(tmp_path / "1") for p in (tmp_path / "1").glob("*/*.json"))
    assert len(reports) == 10
    for rel in reports:
        one, two = (_read_report(tmp_path / threads / rel) for threads in ("1", "2"))
        assert reporting.strip_timestamp(one) == reporting.strip_timestamp(two), rel
    points = [(tmp_path / threads / "point.txt").read_text() for threads in ("1", "2")]
    assert points[0] == points[1]
