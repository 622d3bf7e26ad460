"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once (one pass per phase), untraced
and traced, and checks that each run's last line is a
well-formed result that names every metric of its group with its unit and
reports no failed operation (fail_ratio 0).  It also checks that the
benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.  Exits 1 if any
check fails.  Takes about three minutes, most of it two selftest passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _problems(stdout: str, expected: list[dict]) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return [f"last line is not JSON: {lines[-1][:120]!r}"]
    if set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result)}"]
    problems = []
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted {result['attempted']!r}")
    if result["failed"] != 0:
        problems.append(f"fail_ratio {result['failed']}/{result['attempted']} is not 0")
    metrics = result["metrics"]
    names = [entry["name"] for entry in expected]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        problems.append(f"metrics missing {missing}, unexpected {extra}")
    for entry in expected:
        got = metrics.get(entry["name"])
        if got is None:
            continue
        if set(got) != {"value", "unit"} or got["unit"] != entry["unit"]:
            problems.append(f"{entry['name']}: {got!r} lacks unit {entry['unit']}")
        elif not (isinstance(got["value"], (int, float)) and math.isfinite(got["value"])):
            problems.append(f"{entry['name']}: value {got['value']!r} is not a finite number")
    return problems


def _bare_directory_refuses() -> list[str]:
    """The benchmark must fail, printing no result, without the library."""
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__")
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "frames", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("exit code 0 without the library")
    if proc.stdout.strip():
        problems.append(f"printed {proc.stdout.strip()[:120]!r} without the library")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failed = False
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload["name"], "--seed", "1", "--seconds", "1", "--trace",
                 str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            problems = _problems(proc.stdout, spec[group])
            if proc.returncode != 0:
                problems.insert(0, f"exit code {proc.returncode}: {proc.stderr[-400:]}")
            status = "ok" if not problems else "FAIL"
            print(f"[{status}] {workload['name']} trace={trace}")
            for problem in problems:
                print(f"    {problem}")
            failed = failed or bool(problems)
    problems = _bare_directory_refuses()
    print(f"[{'ok' if not problems else 'FAIL'}] refuses to run without the library")
    for problem in problems:
        print(f"    {problem}")
    failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
