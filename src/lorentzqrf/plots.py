"""Deterministic SVG 1.1 rendering of scenario data.

Everything is emitted by hand with fixed element ordering and coordinates
rounded to 3 decimals, so a given input always produces identical bytes.
Branches are color-coded from a fixed palette; correlated data (events,
supports, ridges belonging to one branch) share the branch color.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PALETTE",
    "MAX_CELLS",
    "draw",
    "line_chart",
    "event_chart",
    "support_heatmap",
    "bar_chart",
]

PALETTE = ("#1b6ca8", "#d1495b", "#2e933c", "#8a4fff", "#e0a458", "#3b3b58")
MAX_CELLS = 2048 * 2048

_WIDTH, _HEIGHT = 640.0, 420.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 34.0, 44.0


def _fmt(value: float) -> str:
    text = f"{value:.3f}"
    return "0.000" if text == "-0.000" else text


def _finite_range(values) -> tuple[float, float] | None:
    arr = np.asarray(values, dtype=float).ravel()
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return None
    lo, hi = float(np.min(arr)), float(np.max(arr))
    pad = max(abs(lo), 1.0) * 0.1 if lo == hi else (hi - lo) * 0.05
    if not math.isfinite((hi + pad) - (lo - pad)):
        raise ValueError(f"plot range [{lo!r}, {hi!r}] is too wide to draw: its span overflows")
    return lo - pad, hi + pad


class _Panel:
    """Axis frame mapping data coordinates onto the fixed pixel canvas."""

    def __init__(self, x_range, y_range, title, xlabel, ylabel):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.left, self.right = _MARGIN_L, _WIDTH - _MARGIN_R
        self.top, self.bottom = _MARGIN_T, _HEIGHT - _MARGIN_B
        self.title, self.xlabel, self.ylabel = title, xlabel, ylabel

    def px(self, x: float) -> float:
        return self.left + (x - self.x0) / (self.x1 - self.x0) * (
            self.right - self.left
        )

    def py(self, y: float) -> float:
        return self.bottom - (y - self.y0) / (self.y1 - self.y0) * (
            self.bottom - self.top
        )

    def _ticks(self, lo: float, hi: float) -> list[float]:
        span = hi - lo
        step = 10.0 ** math.floor(math.log10(span / 4.0))
        for mult in (1.0, 2.0, 5.0, 10.0):
            if span / (step * mult) <= 6.0:
                step *= mult
                break
        first = math.ceil(lo / step) * step
        ticks = []
        value = first
        while value <= hi + 1e-12 * span:
            ticks.append(0.0 if abs(value) < 1e-12 * span else value)
            value += step
        return ticks

    def frame(self) -> list[str]:
        parts = [
            f'<rect x="{_fmt(self.left)}" y="{_fmt(self.top)}" '
            f'width="{_fmt(self.right - self.left)}" '
            f'height="{_fmt(self.bottom - self.top)}" '
            'fill="none" stroke="#222222" stroke-width="1"/>'
        ]
        for tx in self._ticks(self.x0, self.x1):
            px = self.px(tx)
            parts.append(
                f'<line x1="{_fmt(px)}" y1="{_fmt(self.bottom)}" '
                f'x2="{_fmt(px)}" y2="{_fmt(self.bottom + 5)}" '
                'stroke="#222222" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{_fmt(px)}" y="{_fmt(self.bottom + 18)}" '
                'font-family="monospace" font-size="11" text-anchor="middle" '
                f'fill="#222222">{tx:.4g}</text>'
            )
        for ty in self._ticks(self.y0, self.y1):
            py = self.py(ty)
            parts.append(
                f'<line x1="{_fmt(self.left - 5)}" y1="{_fmt(py)}" '
                f'x2="{_fmt(self.left)}" y2="{_fmt(py)}" '
                'stroke="#222222" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{_fmt(self.left - 8)}" y="{_fmt(py + 4)}" '
                'font-family="monospace" font-size="11" text-anchor="end" '
                f'fill="#222222">{ty:.4g}</text>'
            )
        parts.append(
            f'<text x="{_fmt((self.left + self.right) / 2)}" y="20" '
            'font-family="monospace" font-size="14" text-anchor="middle" '
            f'fill="#222222">{self.title}</text>'
        )
        parts.append(
            f'<text x="{_fmt((self.left + self.right) / 2)}" '
            f'y="{_fmt(_HEIGHT - 8)}" font-family="monospace" font-size="12" '
            f'text-anchor="middle" fill="#222222">{self.xlabel}</text>'
        )
        parts.append(
            f'<text x="16" y="{_fmt((self.top + self.bottom) / 2)}" '
            'font-family="monospace" font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 16 {_fmt((self.top + self.bottom) / 2)})" '
            f'fill="#222222">{self.ylabel}</text>'
        )
        return parts

    def legend(self, labels: list[str]) -> list[str]:
        parts = []
        for i, label in enumerate(labels):
            color = PALETTE[i % len(PALETTE)]
            y = self.top + 14.0 + 16.0 * i
            parts.append(
                f'<rect x="{_fmt(self.right - 150)}" y="{_fmt(y - 9)}" '
                f'width="10" height="10" fill="{color}"/>'
            )
            parts.append(
                f'<text x="{_fmt(self.right - 136)}" y="{_fmt(y)}" '
                'font-family="monospace" font-size="11" '
                f'fill="#222222">{label}</text>'
            )
        return parts


def _document(parts: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" '
        f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">\n'
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>\n'
    )
    return head + "\n".join(parts) + "\n</svg>\n"


def _blank(title: str, xlabel: str, ylabel: str) -> str:
    panel = _Panel((0.0, 1.0), (0.0, 1.0), title, xlabel, ylabel)
    return _document(panel.frame())


def _polyline_points(panel: _Panel, xs, ys) -> str:
    """Pixel text "x,y x,y ..." of zip(xs, ys), as `_fmt(px(x)),_fmt(py(y))` gives it.

    px/py map whole arrays in the scalar operation order, so every pixel keeps
    its bits, and one "%.3f" call formats them all.  The arrays live only in
    this call, so a chart peaks no higher than formatting point by point.
    """
    n = min(len(xs), len(ys))
    pixels = np.empty(2 * n)
    pixels[0::2] = panel.px(np.asarray(xs, float)[:n])
    pixels[1::2] = panel.py(np.asarray(ys, float)[:n])
    return ("%.3f,%.3f " * n % tuple(pixels.tolist()))[:-1].replace("-0.000", "0.000")


def line_chart(
    series: list[tuple[str, list, list]],
    title: str = "",
    xlabel: str = "x",
    ylabel: str = "y",
) -> str:
    """Polyline chart; one fixed palette color per (label, xs, ys) series."""
    xr = _finite_range(
        np.concatenate([np.empty(0), *(np.asarray(xs, float) for _, xs, _ in series)])
    )
    yr = _finite_range(
        np.concatenate([np.empty(0), *(np.asarray(ys, float) for _, _, ys in series)])
    )
    if xr is None or yr is None:
        return _blank(title, xlabel, ylabel)
    panel = _Panel(xr, yr, title, xlabel, ylabel)
    parts = panel.frame()
    for i, (_, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = _polyline_points(panel, xs, ys)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
    parts.extend(panel.legend([label for label, _, _ in series]))
    return _document(parts)


def event_chart(
    groups: list[tuple[str, list[tuple[float, float]]]],
    title: str = "",
    xlabel: str = "x",
    ylabel: str = "t",
) -> str:
    """Spacetime event markers, one color per group, joined by a thin line.

    Events are (t, x) pairs; they are drawn on x-horizontal, t-vertical axes.
    """
    xr = _finite_range([ev[1] for _, evs in groups for ev in evs])
    tr = _finite_range([ev[0] for _, evs in groups for ev in evs])
    if xr is None or tr is None:
        return _blank(title, xlabel, ylabel)
    panel = _Panel(xr, tr, title, xlabel, ylabel)
    parts = panel.frame()
    for i, (label, events) in enumerate(groups):
        color = PALETTE[i % len(PALETTE)]
        if len(events) > 1:
            xs, ts = [ev[1] for ev in events], [ev[0] for ev in events]
            parts.append(
                f'<polyline points="{_polyline_points(panel, xs, ts)}" fill="none" '
                f'stroke="{color}" stroke-width="1" stroke-dasharray="4 3"/>'
            )
        for ev in events:
            parts.append(
                f'<circle cx="{_fmt(panel.px(ev[1]))}" cy="{_fmt(panel.py(ev[0]))}" '
                f'r="4" fill="{color}"/>'
            )
    parts.extend(panel.legend([label for label, _ in groups]))
    return _document(parts)


def _cell_axis(v: np.ndarray, name: str) -> tuple[tuple[float, float], float]:
    """Panel range and half cell width of a heatmap axis: its (min, max) and
    half its first step's size, so a descending axis draws as its ascending
    mirror, or for one value the range `_finite_range` gives a constant
    series, which the one cell fills."""
    if v.size > 1:
        return (float(np.min(v)), float(np.max(v))), 0.5 * abs(v[1] - v[0])
    span = _finite_range(v)
    if span is None:
        raise ValueError(f"heatmap axis {name} holds no finite value")
    return span, 0.5 * (span[1] - span[0])


def support_heatmap(
    xs,
    ts,
    layers: list[tuple[str, np.ndarray]],
    ridges: list[tuple[str, list, list]] = (),
    title: str = "",
    xlabel: str = "x",
    ylabel: str = "t",
) -> str:
    """Branch supports as color-coded density layers plus ridge overlays.

    Each layer is a (len(ts), len(xs)) array rendered as cells whose opacity
    scales with the value over the joint maximum; layers share the panel so
    correlated branches appear in their branch color.  Cells below the 3-
    decimal opacity resolution are skipped.  Raises when the cell budget
    exceeds the resolution cap.
    """
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    cells = len(xs) * len(ts) * max(len(layers), 1)
    if cells > MAX_CELLS:
        raise ValueError(f"heatmap resolution {cells} exceeds cap {MAX_CELLS}")
    if xs.size == 0 or ts.size == 0 or not layers:
        return _blank(title, xlabel, ylabel)
    top = max(float(np.max(z)) for _, z in layers)
    if top <= 0.0:
        return _blank(title, xlabel, ylabel)
    (x_range, half_w), (t_range, half_t) = _cell_axis(xs, "xs"), _cell_axis(ts, "ts")
    panel = _Panel(x_range, t_range, title, xlabel, ylabel)
    parts = panel.frame()
    cell_w = abs(panel.px(xs[0] + 2 * half_w) - panel.px(xs[0]))
    cell_h = abs(panel.py(ts[0]) - panel.py(ts[0] + 2 * half_t))
    for i, (label, z) in enumerate(layers):
        color = PALETTE[i % len(PALETTE)]
        z = np.asarray(z, dtype=float)
        if z.shape != (len(ts), len(xs)):
            raise ValueError(
                f"layer {label!r} has shape {z.shape}, expected {(len(ts), len(xs))}"
            )
        for j in range(len(ts)):
            for k in range(len(xs)):
                opacity = z[j, k] / top
                if opacity < 5e-4:
                    continue
                parts.append(
                    f'<rect x="{_fmt(panel.px(xs[k] - half_w))}" '
                    f'y="{_fmt(panel.py(ts[j] + half_t))}" '
                    f'width="{_fmt(cell_w)}" height="{_fmt(cell_h)}" '
                    f'fill="{color}" fill-opacity="{_fmt(opacity)}"/>'
                )
    for i, (label, rx, rt) in enumerate(ridges):
        color = PALETTE[i % len(PALETTE)]
        parts.append(
            f'<polyline points="{_polyline_points(panel, rx, rt)}" fill="none" '
            f'stroke="{color}" stroke-width="1.5" stroke-dasharray="6 3"/>'
        )
    parts.extend(panel.legend([label for label, _ in layers]))
    return _document(parts)


def bar_chart(
    pairs: list[tuple[str, float]],
    title: str = "",
    ylabel: str = "value",
    xlabel: str = "",
) -> str:
    """Labeled vertical bars (used for probability components)."""
    if not pairs:
        return _blank(title, xlabel, ylabel)
    values = [v for _, v in pairs]
    yr = _finite_range(values + [0.0])
    panel = _Panel((0.0, float(len(pairs))), yr, title, xlabel, ylabel)
    parts = panel.frame()
    for i, (label, value) in enumerate(pairs):
        color = PALETTE[i % len(PALETTE)]
        x_lo = panel.px(i + 0.15)
        x_hi = panel.px(i + 0.85)
        y_val = panel.py(float(value))
        y_zero = panel.py(0.0)
        top_px = min(y_val, y_zero)
        parts.append(
            f'<rect x="{_fmt(x_lo)}" y="{_fmt(top_px)}" '
            f'width="{_fmt(x_hi - x_lo)}" height="{_fmt(abs(y_zero - y_val))}" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt((x_lo + x_hi) / 2)}" y="{_fmt(panel.bottom + 18)}" '
            'font-family="monospace" font-size="10" text-anchor="middle" '
            f'fill="#222222">{label}</text>'
        )
    return _document(parts)


def draw(chart: dict) -> str:
    """The SVG of a report's chart {"kind", "title", "xlabel", "ylabel", "data"}.

    Each entry of "data" is what its renderer takes: a "line" series
    [label, x, y], or [label, y] where the chart holds one "x" that every
    series shares; an "events" group [label, [(t, x), ...]]; a "bars" bar
    [label, value].
    """
    data = chart["data"]
    if "x" in chart:
        data = [(label, chart["x"], ys) for label, ys in data]
    render = {"line": line_chart, "events": event_chart, "bars": bar_chart}.get(chart["kind"])
    if render is None:
        raise ValueError(f"unknown chart kind {chart['kind']!r}")
    return render(data, title=chart["title"], xlabel=chart["xlabel"], ylabel=chart["ylabel"])
