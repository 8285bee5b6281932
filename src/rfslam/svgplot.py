"""Minimal dependency-free SVG line charts for run reports."""

from __future__ import annotations

import math

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#000000")

_W, _H = 720, 420
_ML, _MR, _MT, _MB = 70, 20, 40, 55


def _ticks(lo: float, hi: float):
    """About six round-numbered ticks covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def line_chart(series, title: str, xlabel: str, ylabel: str) -> str:
    """Render labeled (xs, ys) series to an SVG document string."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    x_lo, x_hi = (min(xs_all), max(xs_all)) if xs_all else (0.0, 1.0)
    y_lo, y_hi = (min(ys_all), max(ys_all)) if ys_all else (0.0, 1.0)
    if y_lo > 0:
        y_lo = 0.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w if x_hi > x_lo else _ML

    def sy(y):
        return _MT + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(f'<line x1="{x:.2f}" y1="{_MT}" x2="{x:.2f}" '
                     f'y2="{_H - _MB}" stroke="#dddddd"/>')
        parts.append(f'<text x="{x:.2f}" y="{_H - _MB + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(f'<line x1="{_ML}" y1="{y:.2f}" x2="{_W - _MR}" '
                     f'y2="{y:.2f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{t:g}</text>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" '
                 f'height="{plot_h}" fill="none" stroke="#333333"/>')
    for idx, (label, xs, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys)
                       if math.isfinite(y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="2"/>')
        ly = _MT + 16 + 16 * idx
        parts.append(f'<line x1="{_W - _MR - 150}" y1="{ly - 4}" '
                     f'x2="{_W - _MR - 120}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{_W - _MR - 112}" y="{ly}" '
                     f'font-family="sans-serif" font-size="12">{label}</text>')
    parts.append(f'<text x="{_W / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_H / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 16 {_H / 2:.1f})">{ylabel}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def save_chart(path, series, title, xlabel, ylabel) -> None:
    with open(path, "w") as fh:
        fh.write(line_chart(series, title, xlabel, ylabel))
