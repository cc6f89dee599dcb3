"""Plain-SVG sketches of dual complexes (display only).

Dual cells are drawn in t: points as dots, segments as lines, higher cells
as outlines.  Three-dimensional complexes are projected isometrically.
Graph vertex positions, when supplied, are overlaid with their edges.
"""

from __future__ import annotations

import math

from .complexes import Decomposition

_SCALE = 120
_PAD = 40


def _project(p):
    if len(p) == 1:
        return (float(p[0]), 0.0)
    if len(p) == 2:
        return (float(p[0]), float(p[1]))
    x, y, z = (float(c) for c in p[:3])
    return (x + 0.4 * y, z + 0.25 * y)


def _fmt(x):
    return f"{x:.2f}"


def dual_complex_svg(dec: Decomposition, positions=None, edges=None) -> str:
    """SVG text for the dual complex; optional vertex positions/edges overlay."""
    pts = []
    shapes = []
    for pid in sorted(dec.dual_cells):
        poly = dec.dual(pid)
        verts = [_project(v) for v in poly.vertices]
        pts.extend(verts)
        if len(verts) == 1:
            shapes.append(("point", verts))
        elif len(verts) == 2:
            shapes.append(("line", verts))
        else:
            centroid = (
                sum(v[0] for v in verts) / len(verts),
                sum(v[1] for v in verts) / len(verts),
            )
            ordered = sorted(
                verts, key=lambda v: math.atan2(v[1] - centroid[1], v[0] - centroid[0])
            )
            shapes.append(("poly", ordered))
    overlay_pts = []
    overlay_lines = []
    if positions:
        for v, p in positions.items():
            overlay_pts.append((v, _project(p)))
        for a, b in edges or ():
            overlay_lines.append((_project(positions[a]), _project(positions[b])))
        pts.extend(p for _, p in overlay_pts)
    if not pts:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>"
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, y0 = min(xs), min(ys)

    def tx(p):
        return (
            _PAD + _SCALE * (p[0] - x0),
            _PAD + _SCALE * (max(ys) - p[1]),
        )

    w = 2 * _PAD + _SCALE * (max(xs) - x0)
    h = 2 * _PAD + _SCALE * (max(ys) - y0)
    out = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{_fmt(w)}' height='{_fmt(h)}'>"
    ]
    for kind, verts in shapes:
        tverts = [tx(v) for v in verts]
        if kind == "point":
            x, y = tverts[0]
            out.append(f"<circle cx='{_fmt(x)}' cy='{_fmt(y)}' r='3' fill='#444'/>")
        elif kind == "line":
            (x1, y1), (x2, y2) = tverts
            out.append(
                f"<line x1='{_fmt(x1)}' y1='{_fmt(y1)}' x2='{_fmt(x2)}' y2='{_fmt(y2)}'"
                " stroke='#888' stroke-width='1'/>"
            )
        else:
            path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in tverts)
            out.append(
                f"<polygon points='{path}' fill='none' stroke='#bbb' stroke-width='1'/>"
            )
    for (x1, y1), (x2, y2) in [(tx(a), tx(b)) for a, b in overlay_lines]:
        out.append(
            f"<line x1='{_fmt(x1)}' y1='{_fmt(y1)}' x2='{_fmt(x2)}' y2='{_fmt(y2)}'"
            " stroke='#c33' stroke-width='2'/>"
        )
    for label, p in overlay_pts:
        x, y = tx(p)
        out.append(f"<circle cx='{_fmt(x)}' cy='{_fmt(y)}' r='4' fill='#c33'/>")
        out.append(
            f"<text x='{_fmt(x + 6)}' y='{_fmt(y - 6)}' font-size='12'>{label}</text>"
        )
    out.append("</svg>")
    return "\n".join(out)
