"""Minimal static SVG 1.1 line charts, no plotting dependencies.

Just enough for the experiment panels: polyline series with optional
markers, a linear x axis and a linear or log10 y axis with sensible
ticks, vertical reference lines, and a legend.  Output is deterministic:
fixed float formatting, fixed palette, no timestamps.
"""

from __future__ import annotations

import math

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


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


def _nice_linear_ticks(lo: float, hi: float, target: int = 5):
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= target + 1:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _decade_ticks(lo: float, hi: float, max_ticks: int = 12):
    lo_e = max(math.floor(math.log10(lo)), -323)  # 10.0**-324 rounds to 0
    hi_e = math.ceil(math.log10(hi))
    stride = max(1, math.ceil((hi_e - lo_e + 1) / max_ticks))
    return [10.0**e for e in range(lo_e, hi_e + 1, stride)]


class _Axis:
    def __init__(self, log: bool):
        self.log = log
        self.lo = math.inf
        self.hi = -math.inf

    def admitted(self, values) -> list:
        """Whether each value can be drawn: finite, and positive on a log axis."""
        if self.log:
            return [math.isfinite(v) and v > 0.0 for v in values]
        return [math.isfinite(v) for v in values]

    def include(self, values):
        """Widen the range to admitted values."""
        if values:
            self.lo = min(self.lo, min(values))
            self.hi = max(self.hi, max(values))

    def finish(self):
        if self.lo > self.hi:  # no admissible data at all
            self.lo, self.hi = (0.1, 10.0) if self.log else (0.0, 1.0)
        # units() maps scale(v) with the offset and span fixed here.  Two
        # distinct values one ulp apart can share a log10, so the test for a
        # zero span compares the scaled values.
        scale = math.log10 if self.log else float
        if scale(self.hi) == scale(self.lo):
            if self.log:
                # lo / 10 can underflow to 0, which has no log10.
                self.lo, self.hi = max(self.lo / 10.0, math.ulp(0.0)), self.hi * 10.0
            else:
                pad = 0.5 * max(1.0, abs(self.lo))
                self.lo, self.hi = self.lo - pad, self.hi + pad
        self._origin = scale(self.lo)
        self._span = scale(self.hi) - self._origin

    def units(self, values) -> list:
        """Positions of admitted values on the finished axis: 0 at lo, 1 at hi."""
        origin, span = self._origin, self._span
        if self.log:
            return [(math.log10(v) - origin) / span for v in values]
        return [(v - origin) / span for v in values]

    def ticks(self):
        return _decade_ticks(self.lo, self.hi) if self.log else _nice_linear_ticks(self.lo, self.hi)


class Chart:
    """A single-panel line chart rendered to an SVG string."""

    def __init__(self, title, xlabel, ylabel, ylog=False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.xaxis = _Axis(False)
        self.yaxis = _Axis(ylog)
        self._series = []
        self._vlines = []

    def add_series(self, label, xs, ys, marker=False, dashed=False, scatter=False):
        pts = [(float(x), float(y)) for x, y in zip(xs, ys)]
        # ok[i]: both coordinates of point i lie on their axes.
        ok = [a and b for a, b in zip(self.xaxis.admitted([x for x, _ in pts]),
                                      self.yaxis.admitted([y for _, y in pts]))]
        self.xaxis.include([x for (x, _), keep in zip(pts, ok) if keep])
        self.yaxis.include([y for (_, y), keep in zip(pts, ok) if keep])
        self._series.append((str(label), pts, ok, marker or scatter, dashed, scatter))

    def add_vline(self, x, label=None):
        x = float(x)
        ok = self.xaxis.admitted([x])[0]
        if ok:
            self.xaxis.include([x])
        self._vlines.append((x, label, ok))

    # Rendering ------------------------------------------------------------
    def _xs(self, values) -> list:
        plot_w = WIDTH - MARGIN_L - MARGIN_R
        return [MARGIN_L + u * plot_w for u in self.xaxis.units(values)]

    def _ys(self, values) -> list:
        plot_h = HEIGHT - MARGIN_T - MARGIN_B
        return [MARGIN_T + (1.0 - u) * plot_h for u in self.yaxis.units(values)]

    def render(self) -> str:
        self.xaxis.finish()
        self.yaxis.finish()
        x0, x1 = MARGIN_L, WIDTH - MARGIN_R
        y0, y1 = MARGIN_T, HEIGHT - MARGIN_B
        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{(x0 + x1) / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{self.title}</text>',
        ]
        # Grid and ticks.
        xticks = self.xaxis.ticks()
        for t, px in zip(xticks, self._xs(xticks)):
            out.append(
                f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y1}" '
                'stroke="#dddddd" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{_fmt(px)}" y="{y1 + 16}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{_tick_label(t)}</text>'
            )
        yticks = self.yaxis.ticks()
        for t, py in zip(yticks, self._ys(yticks)):
            out.append(
                f'<line x1="{x0}" y1="{_fmt(py)}" x2="{x1}" y2="{_fmt(py)}" '
                'stroke="#dddddd" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{x0 - 6}" y="{_fmt(py + 4)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{_tick_label(t)}</text>'
            )
        # Frame and axis labels.
        out.append(
            f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
            'fill="none" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{self.xlabel}</text>'
        )
        out.append(
            f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">{self.ylabel}</text>'
        )
        # Reference lines.
        for x, label, ok in self._vlines:
            if not ok:
                continue
            px = self._xs([x])[0]
            out.append(
                f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y1}" '
                'stroke="#444444" stroke-width="1" stroke-dasharray="2,3"/>'
            )
            if label:
                out.append(
                    f'<text x="{_fmt(px + 3)}" y="{y0 + 12}" font-family="sans-serif" '
                    f'font-size="11">{label}</text>'
                )
        # Series.
        for idx, (label, pts, ok, marker, dashed, scatter) in enumerate(self._series):
            color = PALETTE[idx % len(PALETTE)]
            kept = [p for p, keep in zip(pts, ok) if keep]
            coords = iter(zip(self._xs([x for x, _ in kept]), self._ys([y for _, y in kept])))
            segments, current = [], []
            for keep in ok:
                if keep:
                    current.append(next(coords))
                elif current:
                    segments.append(current)
                    current = []
            if current:
                segments.append(current)
            dash = ' stroke-dasharray="6,4"' if dashed else ""
            if not scatter:
                for seg in segments:
                    if len(seg) == 1:
                        x, y = seg[0]
                        out.append(
                            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" fill="{color}"/>'
                        )
                        continue
                    path = " ".join(f"{x:.2f},{y:.2f}" for x, y in seg)
                    out.append(
                        f'<polyline points="{path}" fill="none" stroke="{color}" '
                        f'stroke-width="1.5"{dash}/>'
                    )
            if marker:
                for seg in segments:
                    out.extend(
                        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="{color}"/>'
                        for x, y in seg
                    )
        # Legend.
        lx, ly = x0 + 10, y0 + 10
        for idx, (label, _, _, _, dashed, _) in enumerate(self._series):
            color = PALETTE[idx % len(PALETTE)]
            dash = ' stroke-dasharray="6,4"' if dashed else ""
            out.append(
                f'<line x1="{lx}" y1="{ly + 18 * idx + 4}" x2="{lx + 22}" '
                f'y2="{ly + 18 * idx + 4}" stroke="{color}" stroke-width="2"{dash}/>'
            )
            out.append(
                f'<text x="{lx + 28}" y="{ly + 18 * idx + 8}" font-family="sans-serif" '
                f'font-size="11">{label}</text>'
            )
        out.append("</svg>")
        return "\n".join(out) + "\n"
