"""Tiny SVG line charts for sweep output, in Python floats: no dependency.

Deterministic text output: same data in, byte-identical file out.
"""

from __future__ import annotations

import math
from itertools import chain

from .errors import NumericsError

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 64, 16, 20, 44


def _ticks(lo: float, hi: float) -> list[float]:
    """About five round-valued ticks covering [lo, hi]."""
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 0.0
    if mag == 0:        # hi <= lo, or a range of a few subnormal ulps whose step underflows
        return [lo]
    step = min((s for s in (1.0, 2.0, 2.5, 5.0, 10.0)), key=lambda s: abs(s * mag - raw)) * mag
    out = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:       # a step below half the float spacing at t
            break
        t += step
    return out or [lo]


def line_chart(
    xs,
    ys,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render one series, two lists of floats, as an SVG document string.  A
    coordinate that is not finite (the scaled data range overflows) raises NumericsError."""
    if len(xs) != len(ys) or not len(xs):
        raise ValueError("xs and ys must be equal-length and non-empty")

    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    # px and py map values to coordinates; the ints enter as floats, so the loops run on float arithmetic
    def px(values):
        left, width, span = float(_ML), float(pw), x1 - x0
        return [left + width * (x - x0) / span for x in values]

    def py(values):
        top, height, span = float(_MT), float(ph), y1 - y0
        return [top + height * (y1 - y) / span for y in values]

    # an overflow gives inf or nan, and so does a value that is not finite; the
    # ticks lie inside the data range, so finite data coordinates keep theirs finite
    xp, yp = px(xs), py(ys)
    if not (all(map(math.isfinite, xp)) and all(map(math.isfinite, yp))):
        raise NumericsError("a chart coordinate is not finite")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="Helvetica,Arial,sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    ticks = _ticks(x0, x1)
    for t, x in zip(ticks, px(ticks)):
        parts.append(f'<line x1="{x:.1f}" y1="{_MT + ph}" x2="{x:.1f}" y2="{_MT + ph + 4}" stroke="#333"/>')
        parts.append(f'<text x="{x:.1f}" y="{_MT + ph + 18}" text-anchor="middle">{t:.6g}</text>')
    ticks = _ticks(y0, y1)
    for t, y in zip(ticks, py(ticks)):
        parts.append(f'<line x1="{_ML - 4}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end">{t:.6g}</text>')
    pts = " ".join(["%.2f,%.2f"] * len(xp)) % tuple(chain.from_iterable(zip(xp, yp)))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>')
    if title:
        parts.append(f'<text x="{_W / 2:.0f}" y="14" text-anchor="middle" font-weight="bold">{title}</text>')
    if x_label:
        parts.append(f'<text x="{_ML + pw / 2:.0f}" y="{_H - 8}" text-anchor="middle">{x_label}</text>')
    if y_label:
        parts.append(
            f'<text x="14" y="{_MT + ph / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 14 {_MT + ph / 2:.0f})">{y_label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_chart(path, svg: str) -> None:
    """Write the text of a chart that line_chart rendered."""
    with open(path, "w", newline="\n") as fh:
        fh.write(svg)
