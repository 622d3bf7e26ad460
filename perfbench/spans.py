"""Outside-in layer tracing for the traced benchmark run.

`install` replaces the public lorentzqrf functions named in `TARGETS` with
wrappers at every module attribute that holds them (`states.boost_state`,
`frames.boost_state`, `scenarios.boost_state`, the package namespace, ...),
so calls between library modules are traced as well as the benchmark's own
calls.  Only the traced process calls `install`; the untraced run executes
the library unchanged.

Spans live in memory as (name, start, end, parent, pass id, self time) and
are written out once, when the run ends.  A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import tracemalloc
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# a boost counts as a lattice boost, as the benchmark sees it, when
# alpha / step is within this of an integer
LATTICE_SNAP = 1e-9

# relative amplitude above which a rapidity site counts as occupied
SUPPORT_CUT = 1e-16

SPAN_STATS = ("calls", "self_s", "total_s")
# per-pass sums recorded by the wrappers, and per-run maxima
COUNTERS = ("states.synthesis.terms", "states.synthesis.bytes", "report.canonical_json.bytes")
PEAKS = ("states.wavefunction_grid.peak_mb",)


def support_fraction(amplitudes: np.ndarray) -> float:
    """Share of rapidity sites whose amplitude exceeds SUPPORT_CUT * peak."""
    mag = np.abs(amplitudes)
    peak = float(mag.max()) if mag.size else 0.0
    return float(np.mean(mag > SUPPORT_CUT * peak)) if peak > 0.0 else 0.0


class Tracer:
    """In-memory span and counter store for one traced process."""

    def __init__(self) -> None:
        self.active = False
        self.pass_id = -1
        self.spans: list[list] = []
        self._open: list[int] = []
        self._child_time: list[float] = []
        self.counters: dict[tuple[int, str], float] = {}
        self.peaks: dict[str, float] = {}
        self._seen_states: dict[int, tuple[object, float]] = {}

    # -- passes ---------------------------------------------------------

    def start_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self._seen_states = {}
        self.active = True

    def end_pass(self) -> None:
        self.active = False
        fractions = [f for _, f in self._seen_states.values()]
        if fractions:
            self.add("states.support_fraction.sum", sum(fractions))
            self.add("states.support_fraction.n", len(fractions))
        self._seen_states = {}

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording library calls."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    # -- spans and counters ---------------------------------------------

    def open(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.pass_id, 0.0])
        self._open.append(len(self.spans) - 1)
        self._child_time.append(0.0)

    def close(self) -> None:
        end = perf_counter()
        index = self._open.pop()
        child = self._child_time.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        span[5] = duration - child
        if self._child_time:
            self._child_time[-1] += duration

    def add(self, key: str, value: float) -> None:
        slot = (self.pass_id, key)
        self.counters[slot] = self.counters.get(slot, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, 0.0), value)

    def note_state(self, state) -> None:
        """Record the support fraction of each distinct state a kernel sees."""
        if id(state) not in self._seen_states:
            # keep the state alive so its id is not reused within the pass
            self._seen_states[id(state)] = (state, support_fraction(state.amplitudes))

    # -- aggregation ----------------------------------------------------

    def span_table(self, pass_ids: list[int]) -> dict[str, dict[str, list[float]]]:
        """name -> stat -> one value per pass (calls, self_s, total_s)."""
        index = {p: i for i, p in enumerate(pass_ids)}
        table: dict[str, dict[str, list[float]]] = {}
        for name, start, end, _parent, pass_id, self_s in self.spans:
            if pass_id not in index:
                continue
            row = table.setdefault(
                name, {stat: [0.0] * len(pass_ids) for stat in SPAN_STATS}
            )
            i = index[pass_id]
            row["calls"][i] += 1
            row["self_s"][i] += self_s
            row["total_s"][i] += end - start
        return table

    def covered_s(self, pass_id: int) -> float:
        """Time covered by top-level spans of one pass."""
        return sum(
            end - start
            for _name, start, end, parent, pid, _self in self.spans
            if pid == pass_id and parent == -1
        )

    def counter(self, key: str, pass_ids: list[int]) -> list[float]:
        return [self.counters.get((p, key), 0.0) for p in pass_ids]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "pass", "self_s"],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


# ---------------------------------------------------------------------------
# wrappers


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _boost_span(args, kwargs) -> str:
    state, alpha = _arg(args, kwargs, 0, "state"), _arg(args, kwargs, 1, "alpha")
    k = alpha / state.grid.step
    kind = "lattice" if abs(k - round(k)) <= LATTICE_SNAP else "spline"
    return f"states.boost_state.{kind}"


def _synthesis_work(tracer: Tracer, sites: int, points: int, phase_entries: int):
    """Computed work of a dense spectral sum: terms and phase-matrix bytes."""
    tracer.add("states.synthesis.terms", sites * points)
    tracer.add("states.synthesis.bytes", 16 * phase_entries)


def _after_wavefunction(tracer, args, kwargs, result) -> None:
    state = _arg(args, kwargs, 0, "state")
    tracer.note_state(state)
    sites = state.grid.count
    _synthesis_work(tracer, sites, 1, sites)


def _after_wavefunction_grid(tracer, args, kwargs, result) -> None:
    state = _arg(args, kwargs, 0, "state")
    tracer.note_state(state)
    nt = np.size(_arg(args, kwargs, 1, "ts"))
    nx = np.size(_arg(args, kwargs, 2, "xs"))
    sites = state.grid.count
    _synthesis_work(tracer, sites, nt * nx, sites * (nt + nx))


def _after_slice_profile(tracer, args, kwargs, result) -> None:
    state = _arg(args, kwargs, 0, "state")
    tracer.note_state(state)
    nx = np.size(_arg(args, kwargs, 2, "xs"))
    sites = state.grid.count
    _synthesis_work(tracer, sites, nx, sites * nx)


def _after_residual(tracer, args, kwargs, result) -> None:
    tracer.note_state(_arg(args, kwargs, 0, "state"))


def _after_canonical_json(tracer, args, kwargs, result) -> None:
    tracer.add("report.canonical_json.bytes", len(result))


# (module, function, span name or None for the default "<module>.<function>",
#  options)
TARGETS = [
    ("states", "slice_profile", None, {"after": _after_slice_profile}),
    ("states", "wavefunction", None, {"after": _after_wavefunction}),
    (
        "states",
        "wavefunction_grid",
        None,
        {"after": _after_wavefunction_grid, "peak_mb": True},
    ),
    ("states", "kg_equation_residual", None, {"after": _after_residual}),
    ("states", "boost_state", None, {"span": _boost_span}),
    ("frames", "change_frame", None, {}),
    ("frames", "superposed_slice_state", None, {}),
    ("frames", "branch_overlap_matrix", None, {}),
    ("frames", "twirl_lattice", None, {}),
    ("coordinates", "transform_frame", None, {}),
    ("coordinates", "distance_expectation", None, {}),
    ("measurement", "region_probability", None, {}),
    *[("acceptance", f"criterion_{n}", None, {}) for n in range(1, 11)],
    *[
        ("scenarios", f"run_{name}", None, {})
        for name in (
            "time_dilation",
            "length_contraction",
            "width_contraction",
            "superposed_slice",
            "boost_superposition",
            "nonrel_interference",
        )
    ],
    ("scenarios", "gaussian_fit", "scenarios.fit", {}),
    ("scenarios", "rapidity_peak_fit", "scenarios.fit", {}),
    ("scenarios", "ridge_fit", "scenarios.fit", {}),
    ("scenarios", "interference_amplitude", None, {}),
    ("report", "canonical_json", None, {"after": _after_canonical_json}),
    *[
        ("plots", fn, "plots", {})
        for fn in ("line_chart", "event_chart", "support_heatmap", "bar_chart")
    ],
    ("cli", "main", None, {}),
]


def _wrap(tracer: Tracer, fn, name: str, options: dict):
    span_of = options.get("span")
    after = options.get("after")
    peak_key = f"{name}.peak_mb" if options.get("peak_mb") else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.open(span_of(args, kwargs) if span_of else name)
        started_malloc = False
        try:
            if peak_key and not tracemalloc.is_tracing():
                tracemalloc.start()
                started_malloc = True
            result = fn(*args, **kwargs)
            if started_malloc:
                tracer.peak(peak_key, tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            if started_malloc:
                tracemalloc.stop()
            tracer.close()
        if after:
            after(tracer, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> int:
    """Wrap every target at every lorentzqrf module attribute bound to it.

    Returns the number of attributes replaced.
    """
    modules = [
        m
        for key, m in list(sys.modules.items())
        if m is not None and (key == "lorentzqrf" or key.startswith("lorentzqrf."))
    ]
    replaced = 0
    for module_name, fn_name, span_name, options in TARGETS:
        home = sys.modules[f"lorentzqrf.{module_name}"]
        fn = getattr(home, fn_name)
        wrapper = _wrap(tracer, fn, span_name or f"{module_name}.{fn_name}", options)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    replaced += 1
    return replaced


# ---------------------------------------------------------------------------
# per-layer metrics


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(
    tracer: Tracer,
    pass_ids: list[int],
    names: list[str],
    extra: dict[str, float],
) -> dict[str, float]:
    """Value of every named per-layer metric, as a median over traced passes.

    Names ending in calls/self_s/total_s come from spans; counters recorded
    per pass give their per-pass median; `extra` supplies the run-level
    values.  A span or counter a workload never reaches reads 0.
    """
    table = tracer.span_table(pass_ids)
    values: dict[str, float] = {}
    for full in names:
        prefix, _, stat = full.rpartition(".")
        if full in extra:
            values[full] = float(extra[full])
        elif stat in SPAN_STATS:
            row = table.get(prefix)
            values[full] = _median(row[stat]) if row else 0.0
        elif full in PEAKS:
            values[full] = tracer.peaks.get(full, 0.0)
        elif full in COUNTERS:
            values[full] = _median(tracer.counter(full, pass_ids))
        elif full == "states.support_fraction":
            n = sum(tracer.counter(full + ".n", pass_ids))
            total = sum(tracer.counter(full + ".sum", pass_ids))
            values[full] = total / n if n else 0.0
        elif full == "states.boost_state.lattice_share":
            lattice = table.get("states.boost_state.lattice", {}).get("calls", [])
            spline = table.get("states.boost_state.spline", {}).get("calls", [])
            boosts = sum(lattice) + sum(spline)
            values[full] = sum(lattice) / boosts if boosts else 0.0
        else:
            raise KeyError(f"no per-layer metric named {full}")
        if not math.isfinite(values[full]):
            raise ValueError(f"per-layer metric {full} is not finite")
    return values
