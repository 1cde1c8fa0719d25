"""Unit tests for the dependency-free SVG charts."""

import math

import pytest

from illposed.svgplot import PALETTE, Chart


def make_chart(**kw):
    c = Chart("Error history", "k", "relative error", **kw)
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


def test_log_axis_down_to_the_smallest_subnormal():
    # log10(1e-323) floors to -324, and 10.0**-324 == 0 has no logarithm.
    c = Chart("t", "k", "v", ylog=True)
    c.add_series("s", [1, 2], [1e-323, 1e-156])
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


def test_custom_size_and_viewbox():
    svg = make_chart(width=320, height=200).render()
    assert 'width="320" height="200"' in svg
    assert 'viewBox="0 0 320 200"' in svg


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
