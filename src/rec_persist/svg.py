"""Tiny self-contained SVG chart writer: scatter points and lines, linear or
log axes.  Deliberately minimal; no plotting dependency."""

from __future__ import annotations

import math
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
    ys: Sequence[float]
    color: str = PALETTE[0]
    marker: bool = False  # draw circles at points; otherwise a polyline


def _finite_points(s: Series, log: bool):
    pts = []
    for x, y in zip(s.xs, s.ys):
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        if log and (x <= 0 or y <= 0):
            continue
        pts.append((float(x), float(y)))
    return pts


def _linear_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(t)
        t += step
    return ticks


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

    log puts both axes on a log scale and drops points with x <= 0 or
    y <= 0.
    """
    if not series:
        raise ParameterError("at least one series is required")
    width, height = 800, 560
    left, right, top, bottom = 72, 24, 48, 56
    plot_w = width - left - right
    plot_h = height - top - bottom

    drawable = [(s, _finite_points(s, log)) for s in series]
    drawable = [(s, pts) for s, pts in drawable if pts]
    xs = [x for _, pts in drawable for x, _ in pts]
    ys = [y for _, pts in drawable for _, y in pts]
    if not xs:
        xs = ys = [1.0]

    scale = math.log10 if log else float
    ticks = _log_ticks if log else _linear_ticks
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)

    def _span(lo, hi, f):
        a, b = f(lo), f(hi)
        if b - a <= 0:
            pad = max(abs(a), 1.0) * 0.05
            return a - pad, b + pad
        pad = (b - a) * 0.05
        return a - pad, b + pad

    fx_lo, fx_hi = _span(x_lo, x_hi, scale)
    fy_lo, fy_hi = _span(y_lo, y_hi, scale)

    def px(x: float) -> float:
        return left + (scale(x) - fx_lo) / (fx_hi - fx_lo) * plot_w

    def py(y: float) -> float:
        return top + plot_h - (scale(y) - fy_lo) / (fy_hi - fy_lo) * plot_h

    x_ticks = ticks(x_lo, x_hi)
    y_ticks = ticks(y_lo, y_hi)

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
