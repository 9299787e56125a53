"""Hand-emitted static SVG charts for experiment reports.

Plots are a viewing convenience; the JSON report is the source of
truth.  Output is deterministic text with no timestamps or external
dependencies.  Titles, arm names and group labels are escaped, so any
text the config accepts leaves the file well-formed XML.
"""

from __future__ import annotations

from html import escape
from typing import Mapping, Sequence

_PALETTE = ("#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4", "#8c613c")

_W, _H = 640, 360
_ML, _MR, _MT, _MB = 60, 20, 30, 50


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<text x="{_W / 2}" y="18" text-anchor="middle" font-size="14">{escape(title)}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#999"/>',
    ]


def _y_ticks(lo: float, hi: float) -> list[str]:
    parts = []
    for i in range(5):
        frac = i / 4
        value = lo + (hi - lo) * frac
        y = _H - _MB - (_H - _MT - _MB) * frac
        parts.append(
            f'<text x="{_ML - 6}" y="{y + 4}" text-anchor="end">{value:.3g}</text>'
        )
        parts.append(
            f'<line x1="{_ML}" y1="{y}" x2="{_W - _MR}" y2="{y}" '
            f'stroke="#eee"/>'
        )
    return parts


def _legend(names: Sequence[str]) -> list[str]:
    parts = []
    x = _ML
    for i, name in enumerate(names):
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(
            f'<rect x="{x}" y="{_H - 18}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(f'<text x="{x + 14}" y="{_H - 9}">{escape(name)}</text>')
        x += 14 + 8 * len(name) + 20
    return parts


def grouped_bar_chart(
    title: str, groups: Sequence[str], series: Mapping[str, Sequence[float]]
) -> str:
    """Bars grouped by ``groups``, one colored bar per series entry."""
    names = list(series)
    parts = _header(title) + _y_ticks(0.0, 1.0) + _legend(names)
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB
    group_w = plot_w / max(1, len(groups))
    bar_w = group_w * 0.8 / max(1, len(names))
    for gi, group in enumerate(groups):
        gx = _ML + gi * group_w
        parts.append(
            f'<text x="{gx + group_w / 2}" y="{_H - _MB + 16}" '
            f'text-anchor="middle">{escape(group)}</text>'
        )
        for si, name in enumerate(names):
            v = min(max(series[name][gi], 0.0), 1.0)
            h = plot_h * v
            x = gx + group_w * 0.1 + si * bar_w
            color = _PALETTE[si % len(_PALETTE)]
            parts.append(
                f'<rect x="{x:.2f}" y="{_H - _MB - h:.2f}" width="{bar_w:.2f}" '
                f'height="{h:.2f}" fill="{color}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line_chart(title: str, series: Mapping[str, Sequence[float]]) -> str:
    """One polyline per series over its sample index."""
    names = [n for n in series if len(series[n]) > 0]
    hi = max((max(series[n]) for n in names), default=1.0)
    lo = min((min(series[n]) for n in names), default=0.0)
    if hi <= lo:
        hi = lo + 1.0
    parts = _header(title) + _y_ticks(lo, hi) + _legend(names)
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB
    for si, name in enumerate(names):
        values = series[name]
        n = len(values)
        points = []
        for i, v in enumerate(values):
            x = _ML + (plot_w * i / max(1, n - 1))
            y = _H - _MB - plot_h * (v - lo) / (hi - lo)
            points.append(f"{x:.2f},{y:.2f}")
        color = _PALETTE[si % len(_PALETTE)]
        parts.append(
            f'<polyline points="{" ".join(points)}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
