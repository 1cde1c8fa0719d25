"""Minimal static SVG 1.1 line charts, no plotting dependencies.

Just enough for the experiment panels: polyline series with optional
markers, a linear x axis and a linear or log10 y axis with sensible
ticks, vertical reference lines, and a legend.  Output is deterministic:
fixed float formatting, fixed palette, no timestamps.  Any finite input renders.
"""

from __future__ import annotations

import math
import sys
from itertools import groupby

__all__ = ["Chart"]

PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
]

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 34, 46
_MAX = sys.float_info.max


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


def _stroke(color, width, dash=None) -> str:
    dash = f' stroke-dasharray="{dash}"' if dash else ""
    return f'stroke="{color}" stroke-width="{width}"{dash}'


def _line(x1, y1, x2, y2, *stroke) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {_stroke(*stroke)}/>'


def _text(x, y, size, body, anchor=None, transform=None) -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (
        f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
        f'font-size="{size}"{transform}>{body}</text>'
    )


def _circles(points, color: str) -> list:
    return [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="{color}"/>' for x, y in points]


def _nice_linear_ticks(lo: float, hi: float, target: int = 5):
    span = hi - lo
    if span <= 0:
        return [lo]
    if span == math.inf:  # wider than the largest float: tick the halved range
        return [2.0 * t for t in _nice_linear_ticks(0.5 * lo, 0.5 * hi, target)]
    # A subnormal span / target can round to 0, and 10.0**-324 is 0.
    raw = max(span / target, math.ulp(0.0))
    mag = 10.0 ** max(math.floor(math.log10(raw)), -323)
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= target + 1:
            break
    ticks, t = [], math.ceil(lo / step) * step
    limit = min(hi + 1e-9 * span, _MAX)
    while t <= limit:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t, last = t + step, t
        if t == last:  # the step is below the spacing of floats at t
            break
    return ticks


def _decade_ticks(lo: float, hi: float, max_ticks: int = 12):
    lo_e = max(math.floor(math.log10(lo)), -323)  # 10.0**-324 rounds to 0
    hi_e = math.ceil(math.log10(hi))
    stride = max(1, math.ceil((hi_e - lo_e + 1) / max_ticks))
    return [10.0**e for e in range(lo_e, min(hi_e, 308) + 1, stride)]  # 10.0**309 overflows


class _Axis:
    """One axis's range and its map to pixels: ``start + (u - flip)·length`` at
    the position ``u`` (0 at lo, 1 at hi); a y axis flips with a negative length."""

    def __init__(self, log: bool, start: int, length: int, flip: float = 0.0):
        self.log = log
        self.lo = math.inf
        self.hi = -math.inf
        self._start, self._length, self._flip = start, length, flip

    def admitted(self, values) -> list:
        """Whether each value can be drawn: finite, and positive on a log axis."""
        if self.log:
            return [math.isfinite(v) and v > 0.0 for v in values]
        return [math.isfinite(v) for v in values]

    def include(self, runs):
        """Widen the range to the values of each run of admitted values."""
        for values in runs:
            self.lo = min(self.lo, min(values))
            self.hi = max(self.hi, max(values))

    def finish(self):
        if self.lo > self.hi:  # no admissible data at all
            self.lo, self.hi = (0.1, 10.0) if self.log else (0.0, 1.0)
        # pixels() maps scale(v) with the offset and span fixed here.  Two
        # distinct values one ulp apart can share a log10, so the test for a
        # zero span compares the scaled values.
        scale = math.log10 if self.log else float
        if scale is float and self.hi - self.lo == math.inf:  # the span overflows: map halves
            scale = (0.5).__mul__
        if scale(self.hi) == scale(self.lo):
            if self.log:
                # lo / 10 can underflow to 0, which has no log10.
                self.lo, self.hi = max(self.lo / 10.0, math.ulp(0.0)), min(self.hi * 10.0, _MAX)
            else:
                pad = 0.5 * max(1.0, abs(self.lo))
                self.lo, self.hi = max(self.lo - pad, -_MAX), min(self.hi + pad, _MAX)
        self._origin = scale(self.lo)
        self._span = scale(self.hi) - self._origin
        self._scale = None if scale is float else scale

    def pixels(self, values) -> list:
        """Pixel coordinates of admitted values on the finished axis."""
        origin, span, scale = self._origin, self._span, self._scale
        start, length, flip = self._start, self._length, self._flip
        if scale is None:
            return [start + ((v - origin) / span - flip) * length for v in values]
        return [start + ((scale(v) - origin) / span - flip) * length for v in values]

    def ticks(self):
        return _decade_ticks(self.lo, self.hi) if self.log else _nice_linear_ticks(self.lo, self.hi)


class Chart:
    """A single-panel line chart rendered to an SVG string."""

    def __init__(self, title, xlabel, ylabel, ylog=False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.xaxis = _Axis(False, MARGIN_L, WIDTH - MARGIN_L - MARGIN_R)
        self.yaxis = _Axis(ylog, MARGIN_T, -(HEIGHT - MARGIN_T - MARGIN_B), flip=1.0)
        self._series = []
        self._vlines = []

    def add_series(self, label, xs, ys, marker=False, dashed=False, scatter=False):
        pts = list(zip(map(float, xs), map(float, ys)))
        xs, ys = [x for x, _ in pts], [y for _, y in pts]
        # Runs of consecutive points whose coordinates both lie on their axes.
        ok = [a and b for a, b in zip(self.xaxis.admitted(xs), self.yaxis.admitted(ys))]
        runs, i = [], 0
        for keep, group in groupby(ok):
            j = i + len(list(group))
            if keep:
                runs.append((xs[i:j], ys[i:j]))
            i = j
        self.xaxis.include([run_x for run_x, _ in runs])
        self.yaxis.include([run_y for _, run_y in runs])
        self._series.append((str(label), runs, marker or scatter, dashed, scatter))

    def add_vline(self, x, label=None):
        x = float(x)
        if self.xaxis.admitted([x])[0]:
            self.xaxis.include([[x]])
            self._vlines.append((x, label))

    def render(self) -> str:
        xaxis, yaxis = self.xaxis, self.yaxis
        xaxis.finish()
        yaxis.finish()
        x0, x1, y0, y1 = MARGIN_L, WIDTH - MARGIN_R, MARGIN_T, HEIGHT - MARGIN_B
        mid_x, mid_y = f"{(x0 + x1) / 2:.1f}", f"{(y0 + y1) / 2:.1f}"
        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            _text(mid_x, 20, 14, self.title, "middle"),
        ]
        # Grid and ticks.
        xticks = xaxis.ticks()
        for t, px in zip(xticks, map(_fmt, xaxis.pixels(xticks))):
            out.append(_line(px, y0, px, y1, "#dddddd", 1))
            out.append(_text(px, y1 + 16, 11, _tick_label(t), "middle"))
        yticks = yaxis.ticks()
        for t, py in zip(yticks, yaxis.pixels(yticks)):
            out.append(_line(x0, _fmt(py), x1, _fmt(py), "#dddddd", 1))
            out.append(_text(x0 - 6, _fmt(py + 4), 11, _tick_label(t), "end"))
        # Frame and axis labels.
        out.append(
            f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
            f'fill="none" {_stroke("#333333", 1)}/>'
        )
        out.append(_text(mid_x, HEIGHT - 10, 12, self.xlabel, "middle"))
        out.append(_text(16, mid_y, 12, self.ylabel, "middle", f"rotate(-90 16 {mid_y})"))
        # Reference lines.
        for (_, label), px in zip(self._vlines, xaxis.pixels([x for x, _ in self._vlines])):
            out.append(_line(_fmt(px), y0, _fmt(px), y1, "#444444", 1, "2,3"))
            if label:
                out.append(_text(_fmt(px + 3), y0 + 12, 11, label))
        # Series, then their legend.
        legend = []
        lx, ly = x0 + 10, y0 + 10
        for idx, (label, runs, marker, dashed, scatter) in enumerate(self._series):
            color = PALETTE[idx % len(PALETTE)]
            dash = "6,4" if dashed else None
            segments = [list(zip(xaxis.pixels(xs), yaxis.pixels(ys))) for xs, ys in runs]
            if not scatter:
                for seg in segments:
                    if len(seg) == 1:
                        out += _circles(seg, color)
                    else:
                        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in seg)
                        out.append(f'<polyline points="{path}" fill="none" {_stroke(color, 1.5, dash)}/>')
            if marker:
                for seg in segments:
                    out += _circles(seg, color)
            legend.append(_line(lx, ly + 18 * idx + 4, lx + 22, ly + 18 * idx + 4, color, 2, dash))
            legend.append(_text(lx + 28, ly + 18 * idx + 8, 11, label))
        out.extend(legend)
        out.append("</svg>")
        return "\n".join(out) + "\n"
