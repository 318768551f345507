"""Self-contained SVG polar plot of a surface-tension table (2D).

No plotting dependency: the figure is the sigma(theta) curve, a shaded
error band, the unit circle for reference, and the coordinate axes.
Deterministic float formatting keeps repeated runs byte-identical.
"""

from __future__ import annotations

import numpy as np

from .surface import SigmaTable

__all__ = ["polar_svg"]

_SIZE = 560
_MARGIN = 40


def _fmt(x: float) -> str:
    return f"{x:.4f}".rstrip("0").rstrip(".")


def _path(points) -> str:
    cmds = [f"{'M' if i == 0 else 'L'} {_fmt(x)} {_fmt(y)}" for i, (x, y) in enumerate(points)]
    return " ".join(cmds) + " Z"


def polar_svg(table: SigmaTable) -> str:
    """Render the table as a polar curve with error band; returns SVG text."""
    sig = np.array([r.sigma for r in table.entries])
    err = np.array([r.err for r in table.entries])

    rmax = float((sig + err).max())
    scale = (_SIZE / 2 - _MARGIN) / max(rmax, 1.0)
    cx = cy = _SIZE / 2

    def to_xy(radii):
        return [
            (cx + scale * r * np.cos(t), cy - scale * r * np.sin(t))
            for r, t in zip(radii, table.angles)
        ]

    curve = _path(to_xy(sig))
    band_outer = to_xy(sig + err)
    band_inner = to_xy(np.maximum(sig - err, 0.0))
    band = _path(band_outer) + " " + _path(band_inner)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{cy}" x2="{_SIZE - _MARGIN}" y2="{cy}" stroke="#cccccc"/>',
        f'<line x1="{cx}" y1="{_MARGIN}" x2="{cx}" y2="{_SIZE - _MARGIN}" stroke="#cccccc"/>',
        f'<circle cx="{cx}" cy="{cy}" r="{_fmt(scale)}" fill="none" stroke="#999999" '
        'stroke-dasharray="4 3"/>',
        f'<path d="{band}" fill="#9ecae1" fill-opacity="0.5" fill-rule="evenodd" stroke="none"/>',
        f'<path d="{curve}" fill="none" stroke="#08519c" stroke-width="1.5"/>',
        f'<text x="{_SIZE - _MARGIN + 4}" y="{cy + 4}" font-size="12" fill="#555555">0</text>',
        f'<text x="{cx - 8}" y="{_MARGIN - 6}" font-size="12" fill="#555555">&#960;/2</text>',
        f'<text x="{_MARGIN}" y="{_SIZE - 10}" font-size="12" fill="#555555">'
        f"unit circle dashed; max radius {_fmt(rmax)}</text>",
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
