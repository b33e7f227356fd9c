"""Tiny self-contained SVG chart writer: scatter points and lines, linear or
log axes.  Deliberately minimal; no plotting dependency.

A point whose y is None (a missing value), or whose x or y is not finite,
is left out of its line and of the axis ranges; so is a point at or below
zero on log axes, and a series with no point left is not drawn.  One
routine, _axis, pads, scales and ticks both axes.  Linear ticks are whole
multiples of one step, so every tick lies within the data's range (to
1e-9 of a step) and no two share a %g label.
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
    ticks = []
    k = math.floor(math.log10(lo))
    while 10.0**k <= hi * 1.0000001:
        for mult in (1.0, 2.0, 5.0):
            t = mult * 10.0**k
            if lo * 0.9999999 <= t <= hi * 1.0000001:
                ticks.append(t)
        k += 1
    return ticks or [lo, hi]


def _axis(values: list[float], log: bool, start: float, length: float):
    """(to_px, ticks) of one axis: to_px maps a value to the pixel at start
    plus its padded fraction of length (negative for y, which grows upward),
    and ticks are where the axis labels sit."""
    scale = math.log10 if log else float
    lo, hi = min(values), max(values)
    a, b = scale(lo), scale(hi)
    # 5% padding each side; a single value v gets 5% of max(|v|, 1)
    pad = ((b - a) if b > a else max(abs(a), 1.0)) * 0.05
    a, b = a - pad, b + pad

    def to_px(v: float) -> float:
        return start + (scale(v) - a) / (b - a) * length

    return to_px, (_log_ticks if log else _linear_ticks)(lo, hi)


def _fmt(v: float) -> str:
    return "%g" % v


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

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    out.append(
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" font-weight="bold">'
        f"{escape(title, quote=False)}</text>"
    )
    for t in x_ticks:
        x = px(t)
        out.append(
            f'<line x1="{x:.2f}" y1="{top}" x2="{x:.2f}" y2="{top + plot_h}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{top + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in y_ticks:
        y = py(t)
        out.append(
            f'<line x1="{left}" y1="{y:.2f}" x2="{left + plot_w}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{left - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    out.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 14}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f"{escape(x_label, quote=False)}</text>"
    )
    out.append(
        f'<text x="18" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.1f})">'
        f"{escape(y_label, quote=False)}</text>"
    )

    for s, pts in drawable:
        if s.marker:
            for x, y in pts:
                out.append(
                    f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.6" '
                    f'fill="{s.color}"/>'
                )
        else:
            coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{s.color}" '
                f'stroke-width="1.6"/>'
            )

    legend_y = top + 14
    for s, _ in drawable:
        lx = left + plot_w - 190
        if s.marker:
            out.append(
                f'<circle cx="{lx + 10}" cy="{legend_y - 4}" r="2.6" '
                f'fill="{s.color}"/>'
            )
        else:
            out.append(
                f'<line x1="{lx}" y1="{legend_y - 4}" x2="{lx + 20}" '
                f'y2="{legend_y - 4}" stroke="{s.color}" stroke-width="1.6"/>'
            )
        out.append(
            f'<text x="{lx + 26}" y="{legend_y}" font-family="sans-serif" '
            f'font-size="11">{escape(s.label, quote=False)}</text>'
        )
        legend_y += 16

    out.append("</svg>")
    return "\n".join(out) + "\n"
