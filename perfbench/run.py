"""Run one lorentzqrf benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout whose `src/lorentzqrf` holds the
library; nothing needs installing.  The workloads are defined in
`workloads.py`, the metric names and units in `BENCHMARK.json` at the
checkout root.

One run, in one process with one client (a closed loop) and one BLAS
thread:

1. set-up: imports, inputs from the seed and a warm-up, timed once while
   `reference.py`'s kernel is sampled every 0.1 s; `setup_s` is the set-up
   time scaled to a machine on which that kernel takes 6 ms;
2. passes over the workload's operation list until S seconds have gone,
   each operation's output checked outside the timed region.  Meanwhile
   `reference.py`'s kernel is sampled every 0.25 s, and `pass_norm` is the
   mean pass time over the mean reference time.

With `--trace 1` the run measures untraced passes for S/2 seconds, then
wraps the library's public functions (`spans.py`) and measures traced
passes for S/2 seconds.  It ends with five fresh-interpreter runs of
`lorentzqrf.cli run --scenario length-contraction` under `-X importtime`
(the cold start), and prints the per-layer metrics instead.

Everything the run writes stays under `.perfbench_out/` in the checkout:
a details file per run (machine facts, samples, margins, work counts,
report hashes) and, when traced, the spans.  The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# `setup_s` is reported in seconds at this reference kernel time
SETUP_REFERENCE_S = 0.006
SETUP_SAMPLE_EVERY_S = 0.1
COLD_STARTS = 5
COLD_START_ARGS = ["-m", "lorentzqrf.cli", "run", "--scenario", "length-contraction"]
CHILD_TIMEOUT_S = 150


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one pass per phase, one cold start when traced",
    )
    return parser.parse_args(argv)


def _single_blas_thread() -> None:
    """Run BLAS and OpenMP on one thread, here and in every child process.

    On a shared 2-vCPU machine a two-thread GEMM waits for whichever core is
    busier; with one thread the spread of 10-pass medians of `scenarios`
    fell from 16 % to 6.5 % at the same speed.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _median(values):
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# operations and passes


def _run_op(op, gate, tracer=None, clock=None) -> float:
    """Time one operation, then check its output with tracing paused.

    Reference samples that `clock` took during the operation are not
    counted in its time.
    """
    gate.begin()
    start = perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a raising operation counts as failed
        end = perf_counter()
        gate.fail(f"{op.name}: {type(exc).__name__}: {exc}")
    else:
        end = perf_counter()
        with tracer.paused() if tracer else nullcontext():
            try:
                op.check(result, gate)
            except Exception as exc:  # a check that cannot run is a failure
                gate.fail(f"{op.name} check: {type(exc).__name__}: {exc}")
    gate.end()
    return end - start - (clock.busy_s(start, end) if clock else 0.0)


def _set_up(name: str, seed: int, tmpdir: str, clock):
    """Set up once; returns the set-up time without the clock's samples."""
    with clock:
        start = perf_counter()
        import workloads  # lorentzqrf and scipy load here, inside the timed set-up

        gate = workloads.Gate()
        workload = workloads.WORKLOADS[name](seed, tmpdir)
        for op in workload.warm_up():
            _run_op(op, gate)
        end = perf_counter()
    return end - start - clock.busy_s(start, end), workload, gate


def _measure(workload, gate, seconds: float, max_passes, clock=None, tracer=None):
    """Pass times for `seconds` of wall time (at least one pass)."""
    times: list[float] = []
    deadline = perf_counter() + seconds
    with clock or nullcontext():
        while True:
            if tracer:
                tracer.start_pass(len(times))
            times.append(
                sum(_run_op(op, gate, tracer, clock) for op in workload.pass_ops())
            )
            if tracer:
                tracer.end_pass()
            if perf_counter() >= deadline or (max_passes and len(times) >= max_passes):
                return times


def _tail(times: list[float]) -> dict | None:
    """Highest percentile of pass time with at least ten samples beyond it.

    Given only from 20 passes on, where that percentile is at least the median.
    """
    if len(times) < 20:
        return None
    ordered = sorted(times)
    return {
        "value": ordered[-11],
        "percentile": 100.0 * (len(ordered) - 10) / len(ordered),
        "samples": len(ordered),
    }


# ---------------------------------------------------------------------------
# child processes


def _child(cmd: list[str], gate, label: str):
    """Run one child to completion; returns (seconds, stderr)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    gate.begin()
    start = perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        gate.fail(f"{label}: timed out")
        gate.end()
        return perf_counter() - start, ""
    elapsed = perf_counter() - start
    gate.require(f"{label}: exit code {proc.returncode}", proc.returncode == 0)
    gate.end()
    return elapsed, proc.stderr


def _import_times(stderr: str) -> tuple[float, float]:
    """Total and scipy self time, in seconds, from `-X importtime` output."""
    total = scipy = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:") :].split("|")
        try:
            self_us = int(fields[0])
        except ValueError:  # the header line
            continue
        name = fields[2].strip()
        total += self_us
        if name == "scipy" or name.startswith("scipy."):
            scipy += self_us
    return total / 1e6, scipy / 1e6


def _cold_starts(count: int, gate, tmpdir: str):
    """Wall time, total import time and scipy import time of each cold start."""
    times, imports, scipy = [], [], []
    for i in range(count):
        out = os.path.join(tmpdir, f"cold-{i}")
        elapsed, err = _child(
            [sys.executable, "-X", "importtime", *COLD_START_ARGS, "--out", out],
            gate,
            "cold start",
        )
        total, sci = _import_times(err)
        times.append(elapsed)
        imports.append(total)
        scipy.append(sci)
    return times, imports, scipy


# ---------------------------------------------------------------------------
# reporting


def _machine() -> dict:
    import numpy as np
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }
    try:
        facts["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        facts["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            facts["cpu_model"] = next(
                (
                    line.split(":", 1)[1].strip()
                    for line in fh
                    if line.startswith("model name")
                ),
                "unknown",
            )
    except OSError:
        facts["cpu_model"] = "unknown"
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level"), encoding="ascii") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type"), encoding="ascii") as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size"), encoding="ascii") as fh:
                size = fh.read().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = size
    except OSError:
        pass
    facts["caches"] = caches
    return facts


def _emit(spec_metrics: list[dict], values: dict[str, float], gate, details: dict) -> None:
    metrics = {}
    for entry in spec_metrics:
        name = entry["name"]
        if name not in values:
            raise KeyError(f"benchmark defines metric {name} but the run has no value")
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        print(f"  {name} = {values[name]!r} {entry['unit']}")
    details["metrics"] = {name: entry["value"] for name, entry in metrics.items()}
    details["fail_ratio"] = gate.failed / gate.attempted
    details["worst_margin"] = gate.worst_margin
    details["failures"] = gate.failures
    details["margins"] = dict(sorted(gate.margins.items()))
    details["observations"] = dict(sorted(gate.observations.items()))
    print(f"  fail_ratio = {details['fail_ratio']!r} 1 ({gate.failed}/{gate.attempted})")
    print(f"  worst_margin = {gate.worst_margin!r} 1")
    if "pass_s" in details:
        print(f"  pass_s = {details['pass_s']!r} s (median)")
    tail = details.get("pass_tail_s")
    if tail:
        print(
            f"  pass_tail_s = {tail['value']!r} s (p{tail['percentile']:.0f}, "
            f"{tail['samples']} passes)"
        )
    for label, ratio in sorted(gate.observations.items()):
        print(f"  observed {label} = {ratio!r} of its bound" + (" (over)" if ratio > 1 else ""))
    for message in gate.failures:
        print(f"  FAILED: {message}")
    path = os.path.join(
        OUT, f"{details['workload']}-seed{details['seed']}-trace{details['trace']}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)
    print(f"  details: {os.path.relpath(path, ROOT)}")
    print(
        json.dumps(
            {
                "correct": gate.failed == 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": metrics,
            }
        )
    )


def _run(args, spec: dict, tmpdir: str) -> int:
    # numpy loads here, before the set-up clock starts: the clock needs it
    from reference import RESIDENT_BYTES, ReferenceClock

    setup_clock = ReferenceClock(SETUP_SAMPLE_EVERY_S)
    setup_s, workload, gate = _set_up(args.workload, args.seed, tmpdir, setup_clock)
    max_passes = 1 if args.smoke else None
    cold_count = 1 if args.smoke else COLD_STARTS
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "machine": _machine(),
    }

    if not args.trace:
        clock = ReferenceClock()
        times = _measure(workload, gate, args.seconds, max_passes, clock)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        peak_rss_mb = (peak_rss - RESIDENT_BYTES) / 1e6
        values = {
            # normalised like pass_norm, and expressed in seconds
            "setup_s": setup_s * SETUP_REFERENCE_S / setup_clock.mean_s(),
            # means, not medians: the machine flips between a fast and a slow
            # state, and a mean weighs each by the time spent in it, as the
            # evenly timed reference samples do
            "pass_norm": statistics.fmean(times) / clock.mean_s(),
            "peak_rss_mb": peak_rss_mb,
        }
        details["pass_s"] = _median(times)
        details["samples"] = {
            "pass_s": times,
            "setup_s": setup_s,
            "setup_reference_s": setup_clock.samples,
            "reference_s": clock.samples,
        }
        details["pass_tail_s"] = _tail(times)
        details.update(workload.describe())
        print(f"{args.workload}: {len(times)} passes, seed {args.seed}")
        _emit(spec["end_to_end"], values, gate, details)
        return 0

    import spans

    half = args.seconds / 2.0
    untraced = _measure(workload, gate, half, max_passes)
    tracer = spans.Tracer()
    wrapped = spans.install(tracer)
    traced = _measure(workload, gate, half, max_passes, tracer=tracer)
    cold, imports, scipy_imports = _cold_starts(cold_count, gate, tmpdir)
    pass_ids = list(range(len(traced)))
    coverage = [tracer.covered_s(p) / t for p, t in zip(pass_ids, traced)]
    extra = {
        "trace.pass_s": _median(traced),
        "trace.overhead_s": _median(traced) - _median(untraced),
        "trace.coverage": _median(coverage),
        "cli.cold.start_s": _median(cold),
        "cli.cold.import_s": _median(imports),
        "cli.cold.scipy_import_s": _median(scipy_imports),
    }
    names = [entry["name"] for entry in spec["per_layer"]]
    values = spans.layer_metrics(tracer, pass_ids, names, extra)
    spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json")
    tracer.write(spans_path)
    details["samples"] = {
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "coverage": coverage,
        "cold_start_s": cold,
    }
    details["wrapped_attributes"] = wrapped
    details["spans_file"] = os.path.relpath(spans_path, ROOT)
    details["span_count"] = len(tracer.spans)
    details.update(workload.describe())
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced passes")
    _emit(spec["per_layer"], values, gate, details)
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "lorentzqrf")):
        print(f"perfbench: no library sources at {SRC}/lorentzqrf", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    _single_blas_thread()
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=OUT)
    try:
        return _run(args, spec, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
