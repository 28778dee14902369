"""Minimal self-contained SVG line charts.

Presentation only: nothing here feeds back into any computation.  The
output is deterministic (no timestamps, no randomized ids, "\n" line
endings on every platform), so repeated runs produce identical files.
The polyline points are converted one CHUNK at a time by
floatfmt.format_points, byte for byte what per-point ``%.2f`` gives.
"""

from __future__ import annotations

import numpy as np

from .floatfmt import format_points
from .numerics import chunks

WIDTH, HEIGHT = 720, 480
MARGIN_LEFT, MARGIN_RIGHT = 72, 24
MARGIN_TOP, MARGIN_BOTTOM = 36, 56
N_TICKS = 5


def emit_plot(xs, ys, *, xlabel: str, ylabel: str, title: str, path: str) -> None:
    """Write one polyline chart of ys against xs to path as SVG."""
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if not xs.size or xs.size != ys.size:
        raise ValueError("plot needs two equal-length non-empty columns")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("plot data must be finite")
    parts = _render(xs, ys, xlabel, ylabel, title)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for part in parts:
            handle.write(part)


def _render(xs, ys, xlabel, ylabel, title):
    """The SVG text in pieces; the polyline points come one CHUNK at a time."""
    x_lo, x_hi = _padded_range(float(xs.min()), float(xs.max()))
    y_lo, y_hi = _padded_range(float(ys.min()), float(ys.max()))
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x):
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>',
    ]
    frame = (
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.append(frame)

    for i in range(N_TICKS):
        frac = i / (N_TICKS - 1)
        x_val = x_lo + frac * (x_hi - x_lo)
        y_val = y_lo + frac * (y_hi - y_lo)
        x_pix, y_pix = px(x_val), py(y_val)
        parts.append(
            f'<line x1="{x_pix:.2f}" y1="{MARGIN_TOP + plot_h}" x2="{x_pix:.2f}" '
            f'y2="{MARGIN_TOP + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x_pix:.2f}" y="{MARGIN_TOP + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x_val:.6g}</text>'
        )
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{y_pix:.2f}" x2="{MARGIN_LEFT}" '
            f'y2="{y_pix:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y_pix + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{y_val:.6g}</text>'
        )

    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.0f}" y="{HEIGHT - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2:.0f})">{_escape(ylabel)}</text>'
    )
    parts.append('<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="')
    yield "\n".join(parts)
    # px and py run elementwise on arrays with the same float64 operations.
    for block in chunks(len(xs)):
        xy = np.column_stack([px(xs[block]), py(ys[block])])
        yield (" " if block.start else "") + format_points(xy)
    yield '"/>\n</svg>\n'


def _padded_range(lo: float, hi: float) -> tuple[float, float]:
    if lo == hi:
        pad = 0.5 if lo == 0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
