"""Canonical, byte-deterministic serialization of scenario reports.

All floats are written with 17 significant digits (round-trip exact for
IEEE doubles), keys are sorted, separators fixed, and complex numbers stored
as two-element [re, im] arrays, so identical inputs always give identical
bytes.  A row of finite Python floats is written by one "%.17g" format call
over the whole row, with the same bytes as formatting each value on its own;
every other row is written value by value.  A report may carry a top-level
"timestamp" field; it is the single field excluded from byte comparisons, and
`strip_timestamp` removes it.
"""

from __future__ import annotations

import datetime
import json
import math
import os

import numpy as np

__all__ = [
    "TIMESTAMP_FIELD",
    "canonical_json",
    "build_report",
    "write_report",
    "strip_timestamp",
    "csv_lines",
    "write_csv",
    "ensure_directory",
]

TIMESTAMP_FIELD = "timestamp"


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"reports may not contain non-finite numbers, got {value!r}")
    if value == 0.0:  # normalize -0.0
        value = 0.0
    text = format(value, ".17g")
    return text


def _emit(obj) -> str:
    if obj is None or isinstance(obj, (bool, np.bool_)):
        return json.dumps(None if obj is None else bool(obj))
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return f"[{_format_float(z.real)},{_format_float(z.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
        items = ",".join(
            f"{json.dumps(k, ensure_ascii=True)}:{_emit(v)}"
            for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        if all(type(v) is float for v in obj) and all(map(math.isfinite, obj)):
            # a finite float row in one format call; v + 0.0 turns -0.0 into 0
            return "[" + ",".join(["%.17g"] * len(obj)) % tuple([v + 0.0 for v in obj]) + "]"
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def canonical_json(obj) -> str:
    """Deterministic JSON text for a report object (no trailing newline)."""
    return _emit(obj)


def build_report(body: dict, config: dict | None = None) -> dict:
    """Top-level report payload: body plus config echo and a timestamp."""
    payload = dict(body)
    if config is not None:
        payload["config"] = config
    payload[TIMESTAMP_FIELD] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return payload


def write_report(text: str, path: str) -> None:
    """Write a report's `canonical_json` text, newline-terminated."""
    with open(path, "wb") as fh:
        fh.write((text + "\n").encode("ascii"))


def strip_timestamp(text: str | bytes) -> str:
    """Canonical text of a report with the timestamp field removed."""
    if isinstance(text, bytes):
        text = text.decode("ascii")
    payload = json.loads(text)
    if isinstance(payload, dict):
        payload.pop(TIMESTAMP_FIELD, None)
    return canonical_json(payload)


def csv_lines(rows: list[dict], columns: list[str]) -> list[str]:
    """Deterministic CSV lines (header + one line per row dict)."""

    def cell(value) -> str:
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (float, np.floating)):
            return _format_float(float(value))
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        text = str(value)
        if any(ch in text for ch in ",\"\n"):
            text = '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(cell(row.get(col, "")) for col in columns))
    return lines


def write_csv(rows: list[dict], columns: list[str], path: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(csv_lines(rows, columns)) + "\n")


def ensure_directory(path: str) -> None:
    os.makedirs(path, exist_ok=True)
