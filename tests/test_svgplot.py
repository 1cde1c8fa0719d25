"""Unit tests for the dependency-free SVG charts."""

import hashlib
import math
import os
import subprocess
import sys

import pytest

import illposed

from illposed.svgplot import PALETTE, Chart


def make_chart():
    c = Chart("Error history", "k", "relative error")
    c.add_series("lsqr", [1, 2, 3, 4], [1.0, 0.5, 0.25, 0.125], marker=True)
    c.add_series("tsvd", [1, 2, 3, 4], [0.9, 0.45, 0.3, 0.2], dashed=True)
    c.add_vline(3, label="k*")
    return c


def test_render_structure():
    svg = make_chart().render()
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" version="1.1"')
    assert svg.rstrip().endswith("</svg>")
    assert 'width="640" height="440"' in svg
    assert ">Error history<" in svg
    assert ">relative error<" in svg
    assert svg.count("<polyline") == 2
    # First two palette colors, in insertion order.
    assert svg.index(PALETTE[0]) < svg.index(PALETTE[1])
    assert PALETTE[0] == "#1f77b4"
    # Markers on the first series: one circle per point.
    assert svg.count(f'r="2.5" fill="{PALETTE[0]}"') == 4
    # Dashed second series and dashed reference line.
    assert 'stroke-dasharray="6,4"' in svg
    assert 'stroke-dasharray="2,3"' in svg
    assert ">k*<" in svg
    # Legend entries.
    assert ">lsqr<" in svg and ">tsvd<" in svg


def test_render_is_deterministic():
    assert make_chart().render() == make_chart().render()


def test_scatter_series_has_no_polyline():
    c = Chart("t", "x", "y")
    c.add_series("pts", [1, 2, 3], [3.0, 1.0, 2.0], scatter=True)
    svg = c.render()
    assert "<polyline" not in svg
    assert svg.count('r="2.5"') == 3


def test_nan_splits_polyline_segments():
    c = Chart("t", "x", "y")
    c.add_series("s", [1, 2, 3, 4, 5], [1.0, 2.0, math.nan, 3.0, 4.0])
    svg = c.render()
    assert svg.count("<polyline") == 2


def test_log_axis_skips_nonpositive_and_uses_decades():
    c = Chart("t", "k", "err", ylog=True)
    c.add_series("s", [1, 2, 3, 4], [1.0, 0.0, 1e-2, 1e-4])
    svg = c.render()
    # The zero sample is inadmissible on a log axis: the line splits.
    assert svg.count("<polyline") == 1
    assert svg.count('r="2.5"') == 1  # the lone first point renders as a dot
    assert ">1e-04<" in svg
    # Decade labels only, no interpolated linear ticks.
    assert ">0.5<" not in svg


@pytest.mark.parametrize(
    "ys",
    [
        # log10(1e-323) floors to -324, and 10.0**-324 == 0 has no logarithm.
        [1e-323, 1e-156],
        # A zero span is widened by a decade, and 5e-324 / 10 underflows to 0.
        [5e-324, 5e-324],
    ],
    ids=["1e-323", "5e-324"],
)
def test_log_axis_down_to_the_smallest_subnormal(ys):
    c = Chart("t", "k", "v", ylog=True)
    c.add_series("s", [1, 2], ys)
    svg = c.render()
    assert svg.count("<polyline") == 1
    assert ">1e-323<" in svg


def test_single_point_series_renders_marker():
    c = Chart("t", "x", "y")
    c.add_series("s", [2], [5.0])
    svg = c.render()
    assert "<polyline" not in svg
    assert svg.count('r="2.5"') == 1


def test_empty_chart_still_renders():
    svg = Chart("empty", "x", "y").render()
    assert svg.startswith("<svg")
    assert "</svg>" in svg


def test_vline_outside_data_extends_axis():
    c = Chart("t", "x", "y")
    c.add_series("s", [1, 2], [1.0, 2.0])
    c.add_vline(10)
    svg = c.render()
    assert ">10<" in svg  # axis now reaches the reference line


def test_palette_cycles():
    c = Chart("t", "x", "y")
    for i in range(len(PALETTE) + 1):
        c.add_series(f"s{i}", [1, 2], [1.0 + i, 2.0 + i])
    svg = c.render()
    # Series len(PALETTE) reuses the first color: polylines + legend lines.
    assert svg.count(f'stroke="{PALETTE[0]}"') == 4


def test_log_axis_of_values_one_ulp_apart_is_widened():
    # Two distinct values with the same log10: the span of the log axis is
    # zero although lo != hi, so it is widened by a decade on each side.
    lo, hi = 0.3346060094765285, 0.3346060094765286
    assert lo != hi and math.log10(lo) == math.log10(hi)
    c = Chart("t", "k", "value (log)", ylog=True)
    c.add_series("s", [1, 2], [lo, hi], marker=True)
    svg = c.render()
    assert svg.count("<polyline") == 1
    assert ">0.01<" in svg and ">1<" in svg


# Golden bytes ----------------------------------------------------------------
# The output depends only on Python's float formatting, so these digests
# hold on any host; a changed digest means changed panel bytes.


def styles_chart():
    c = Chart("Styles", "k", "value")
    c.add_series("line", [1, 2, 3, 4, 5], [0.5, 1.5, 1.25, 2.0, 1.75], marker=True)
    c.add_series("dashes", [1, 2, 3, 4, 5], [0.25, 0.5, 1.0, 1.5, 2.5], dashed=True)
    c.add_series("scatter", [1.5, 2.5, 3.5], [2.25, 0.75, 1.0], scatter=True)
    c.add_vline(2.5, label="mid")
    return c


def log_gaps_chart():
    # A NaN gap, a zero and a negative value on a log axis, with lone points
    # left between them; a vline at NaN (dropped) and one outside the data.
    c = Chart("Gaps", "k", "error (log)", ylog=True)
    c.add_series("nan", [1, 2, 3, 4, 5, 6], [1.0, 0.3, math.nan, 0.02, 0.01, 0.004], marker=True)
    c.add_series("zero", [1, 2, 3, 4, 5], [0.5, 0.0, 0.05, -1.0, 0.002], dashed=True)
    c.add_vline(math.nan, label="never")
    c.add_vline(9, label="outside")
    return c


def subnormal_chart():
    c = Chart("Subnormal", "k", "value (log)", ylog=True)
    c.add_series("tiny", [1, 2, 3], [1e-323, 1e-310, 1e-156], marker=True)
    c.add_series("smallest", [1, 2], [5e-324, 5e-324])
    return c


def smallest_chart():
    c = Chart("Smallest", "k", "value (log)", ylog=True)
    c.add_series("5e-324", [1, 2], [5e-324, 5e-324], marker=True)
    return c


def palette_chart():
    c = Chart("Palette", "x", "y")
    for i in range(len(PALETTE) + 2):
        c.add_series(f"s{i}", [0, 1, 2], [i, i + 0.5, i * 0.25], dashed=i % 2 == 1)
    return c


@pytest.mark.parametrize(
    "build, digest",
    [
        (styles_chart, "c0d559f8c479bfc47b0d1944a433b34252b954e806d8a349a9d8367de8b3bf5a"),
        (log_gaps_chart, "1a46a8e87e1efe6b8446ba4397a63f6bc64e163252bfc8b1d2fa80fcd6c63363"),
        (subnormal_chart, "ef8b28e75057c21a790e2df53983d6ba58784db3447598a3a5baeccc2736d1a7"),
        (smallest_chart, "d05a34dbb4360c0b183accfb78eb856a36cc35f6e2130ae686e6f9baeeb8ece8"),
        (palette_chart, "50afe3b09ef7ad0ff0b549cdcbca1a835321715e8325148618541a1534cfd2c8"),
    ],
    ids=["styles", "log-gaps", "subnormal", "smallest", "palette"],
)
def test_render_bytes_are_pinned(build, digest):
    assert hashlib.sha256(build().render().encode("ascii")).hexdigest() == digest


# Any finite input ------------------------------------------------------------


@pytest.mark.parametrize(
    "ys",
    [
        # At 1e16 the floats are 2 apart: the tick step 0.5 cannot advance.
        "[1e16, 1e16 + 2]",
        # The tick limit hi + 1e-9 * span overflows to inf.
        "[1.79e308, 1.7976931348623157e308]",
    ],
    ids=["step-below-spacing", "limit-overflows"],
)
def test_linear_ticks_end(ys):
    # Run in a child process: the failure mode is a loop that never returns.
    code = (
        "from illposed.svgplot import Chart\n"
        "c = Chart('t', 'x', 'y')\n"
        f"c.add_series('s', [1, 2], {ys})\n"
        "svg = c.render()\n"
        "print(svg.count('<polyline'), 'nan' in svg or 'inf' in svg)\n"
    )
    src = os.path.dirname(os.path.dirname(illposed.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "False"]


@pytest.mark.parametrize(
    "ylog, xs, ys",
    [
        (True, [1, 2], [1e307, 1.7e308]),  # a decade tick would be 10.0**309
        (True, [1, 2], [1e308, 1e308]),  # the zero-span widening reaches 1e309
        (False, [1, 2], [-1e308, 1e308]),  # hi - lo overflows
        (False, [-1.7e308, 1.7e308], [1.0, 2.0]),  # the same on the x axis
        (False, [1, 2], [1.7e308, 1.7e308]),  # the zero-span padding overflows
        (False, [1, 2], [0.0, 5e-324]),  # span / 5 rounds to 0
        (False, [1, 2], [0.0, 2e-323]),  # the tick magnitude rounds to 0
    ],
    ids=[
        "log-decade-309",
        "log-only-1e308",
        "linear-span-overflows",
        "linear-x-span-overflows",
        "linear-pad-overflows",
        "linear-span-5e-324",
        "linear-span-2e-323",
    ],
)
def test_any_finite_input_renders(ylog, xs, ys):
    c = Chart("t", "x", "y", ylog=ylog)
    c.add_series("s", xs, ys, marker=True)
    svg = c.render()
    assert svg.count('r="2.5"') == len(xs)
    # Every coordinate and tick label is a finite number.
    assert "nan" not in svg and "inf" not in svg
    assert svg.count("<line") >= 2  # at least one tick on each axis
