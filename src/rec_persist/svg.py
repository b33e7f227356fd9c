"""Tiny self-contained SVG chart writer: scatter points and lines, linear or
log axes.  Deliberately minimal; no plotting dependency.

A point whose y is None (a missing value), or whose x or y is not finite,
is left out of its line and of the axis ranges; so is a point at or below
zero on log axes, and a series with no point left is not drawn.  One
routine, _axis, pads, scales and ticks both axes, which take any finite
value: a span past the float range is scaled by a quarter.  Linear ticks
are whole multiples of one step, so every tick lies within the data's
range (to 1e-9 of a step) and no two share a %g label.  Each element kind
has one writer, _text, _line or _dot, and callers format the coordinates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from html import escape
from typing import Sequence

from .errors import ParameterError

__all__ = ["Series", "render_chart"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class Series:
    label: str
    xs: Sequence[float]
    ys: Sequence[float | None]  # None marks a missing value
    color: str = PALETTE[0]
    marker: bool = False  # draw circles at points; otherwise a polyline


def _finite_points(s: Series, log: bool):
    pts = []
    for x, y in zip(s.xs, s.ys):
        # None is a missing value; math.isfinite(None) would raise
        if y is None or not (math.isfinite(x) and math.isfinite(y)):
            continue
        if log and (x <= 0 or y <= 0):
            continue
        pts.append((float(x), float(y)))
    return pts


def _linear_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Whole multiples k*step in [lo, hi]: step is 1, 2 or 5 times a power of
    ten near (hi-lo)/target, never finer than %g's six significant digits.
    A range that holds no multiple, a single value, or a range so narrow
    that its power of ten is subnormal or 0, gets the tick [lo]."""
    raw = (hi - lo) / target
    if math.isinf(raw):  # hi - lo passed the float range; its fifth does not
        raw = hi / target - lo / target
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 0.0
    # a subnormal power of ten is inexact, and may lie below raw / 10
    if mag < sys.float_info.min:
        return [lo]
    step = next(m * mag for m in (1.0, 2.0, 5.0, 10.0) if raw <= m * mag)
    step = max(step, 10.0 ** (math.floor(math.log10(max(abs(lo), abs(hi)))) - 5))
    # the tolerance is in steps, so a tiny step admits no extra ticks
    last = math.floor(hi / step + 1e-9)
    return [k * step for k in range(math.ceil(lo / step), last + 1)] or [lo]


def _log_ticks(lo: float, hi: float) -> list[float]:
    """1, 2 and 5 times each power of ten in [lo, hi], with a slack of 1e-7
    of either end; the top end stays finite, so no decade past the float
    range is visited.  Past 12 ticks only powers of ten stay, every
    step-th decade's, at most 12; a range with no tick gets [lo, hi]."""
    bottom, top = lo * 0.9999999, min(hi * 1.0000001, sys.float_info.max)
    decades = range(math.floor(math.log10(lo)), math.floor(math.log10(top)) + 1)
    ticks = [t for k in decades for t in (10.0**k, 2.0 * 10.0**k, 5.0 * 10.0**k)
             if bottom <= t <= top]
    if len(ticks) > 12:
        step = math.ceil(len(decades) / 12)
        ticks = [10.0**k for k in decades[::step] if bottom <= 10.0**k <= top]
    return ticks or sorted({lo, hi})  # one tick if lo = hi


def _axis(values: list[float], log: bool, start: float, length: float):
    """(to_px, ticks) of one axis: to_px maps a value to the pixel at start
    plus its padded fraction of length (negative for y, which grows upward),
    and ticks are where the axis labels sit."""
    scale = math.log10 if log else float
    lo, hi = min(values), max(values)
    # a padded span past the float range is taken again on a quarter of
    # every value, which is exact for all but subnormal values
    for h in (1.0, 0.25):
        a, b = scale(lo) * h, scale(hi) * h
        # 5% padding each side; a single value v gets 5% of max(|v|, 1)
        pad = ((b - a) if b > a else max(abs(a), 1.0)) * 0.05
        a, b = a - pad, b + pad
        if b - a < math.inf:
            break

    def to_px(v: float) -> float:
        return start + (scale(v) * h - a) / (b - a) * length

    return to_px, (_log_ticks if log else _linear_ticks)(lo, hi)


def _fmt(v: float) -> str:
    return "%g" % v


def _text(x, y, body: str, size: int, anchor: str = "", extra: str = "") -> str:
    """Sans-serif text at (x, y), as the caller formats them; extra holds any
    further attributes, and the body is escaped."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{escape(body, quote=False)}</text>')


def _line(x1, y1, x2, y2, stroke: str = "#dddddd", width: float = 1) -> str:
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _dot(cx, cy, color: str) -> str:
    return f'<circle cx="{cx}" cy="{cy}" r="2.6" fill="{color}"/>'


def render_chart(
    series: Sequence[Series],
    title: str,
    x_label: str,
    y_label: str,
    log: bool = False,
) -> str:
    """Render the series to an SVG document string (pure function).

    Points with a None or non-finite coordinate are dropped; log puts both
    axes on a log scale and also drops points with x <= 0 or y <= 0.
    """
    if not series:
        raise ParameterError("at least one series is required")
    width, height = 800, 560
    left, right, top, bottom = 72, 24, 48, 56
    plot_w = width - left - right
    plot_h = height - top - bottom

    drawable = [(s, _finite_points(s, log)) for s in series]
    drawable = [(s, pts) for s, pts in drawable if pts]
    xs = [x for _, pts in drawable for x, _ in pts] or [1.0]
    ys = [y for _, pts in drawable for _, y in pts] or [1.0]

    px, x_ticks = _axis(xs, log, left, plot_w)
    py, y_ticks = _axis(ys, log, top + plot_h, -plot_h)

    mid_y = f"{top + plot_h / 2:.1f}"
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        _text(f"{width / 2:.1f}", 24, title, 15, "middle", ' font-weight="bold"'),
    ]
    for t in x_ticks:
        x = f"{px(t):.2f}"
        out += [_line(x, top, x, top + plot_h),
                _text(x, top + plot_h + 18, _fmt(t), 11, "middle")]
    for t in y_ticks:
        y = py(t)
        out += [_line(left, f"{y:.2f}", left + plot_w, f"{y:.2f}"),
                _text(left - 6, f"{y + 4:.2f}", _fmt(t), 11, "end")]
    out += [
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
        _text(f"{left + plot_w / 2:.1f}", height - 14, x_label, 12, "middle"),
        _text(18, mid_y, y_label, 12, "middle",
              f' transform="rotate(-90 18 {mid_y})"'),
    ]

    for s, pts in drawable:
        if s.marker:
            out += [_dot(f"{px(x):.2f}", f"{py(y):.2f}", s.color) for x, y in pts]
        else:
            coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
            out.append(f'<polyline points="{coords}" fill="none" '
                       f'stroke="{s.color}" stroke-width="1.6"/>')

    lx = left + plot_w - 190
    for i, (s, _) in enumerate(drawable):
        ly = top + 14 + 16 * i
        out.append(_dot(lx + 10, ly - 4, s.color) if s.marker
                   else _line(lx, ly - 4, lx + 20, ly - 4, s.color, 1.6))
        out.append(_text(lx + 26, ly, s.label, 11))

    out.append("</svg>")
    return "\n".join(out) + "\n"
