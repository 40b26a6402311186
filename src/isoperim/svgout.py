"""Static SVG output: shape boundaries (lines plus circular arcs),
nested family overlays, and level-set contours.

Paths are emitted in math coordinates inside a group that flips the y
axis; numbers are formatted to 9 significant digits.
"""

import numpy as np

from .family import MinimizerShape
from .geometry import ConvexPolygon, RoundedBody

MAX_CONTOUR_POINTS = 1500   # crossings drawn per level set; longer sets are thinned


def _f(x) -> str:
    return f"{float(x):.9g}"


def _rounded_boundary_path(body: RoundedBody) -> str:
    """Boundary of core + r disk: edges offset outward, arcs at vertices."""
    core, r = body.core, body.radius
    arc = f"A {_f(r)} {_f(r)} 0 0 1"
    if core.kind == "empty" or core.kind == "point" and r <= 0.0:
        return ""
    if core.kind == "point":   # a full circle as two arcs
        ((x, y),) = core.points.tolist()
        return f"M %.9g %.9g {arc} %.9g %.9g {arc} %.9g %.9g Z" % (x + r, y, x - r, y, x + r, y)
    # a segment is a degenerate 2-gon traversed forward and back; edge i
    # runs from a[i] to b[i] and is offset along its outward normal (CCW),
    # for the 2-gon on both sides.  Edges of no length are skipped.
    a = np.asarray(core.points[:2] if core.kind == "segment" else core.points, dtype=float)
    b = np.concatenate([a[1:], a[:1]])
    e = b - a
    ln = np.sqrt(np.vecdot(e, e))   # the bits of np.linalg.norm of each row
    keep = ~(ln <= 0.0)
    off = r * (e[keep, ::-1] / ln[keep, None] * [1.0, -1.0])
    # each edge's offset, joined to the next by an arc around their vertex;
    # one row per edge: its start and end point
    join = arc if r > 0.0 else "L"
    ends = np.concatenate([a[keep] + off, b[keep] + off], axis=1).ravel().tolist()
    fmt = "M %.9g %.9g L %.9g %.9g" + f" {join} %.9g %.9g L %.9g %.9g" * (len(ends) // 4 - 1)
    if r > 0.0:   # closing arc back to the start point
        fmt += f" {join} %.9g %.9g"
        ends += ends[:2]
    return fmt % tuple(ends) + " Z"


def _polygon_path(vertices) -> str:
    return ("M %.9g %.9g" + " L %.9g %.9g" * (len(vertices) - 1) + " Z") % tuple(
        vertices.ravel().tolist())


def _document(domain: ConvexPolygon, body: str) -> str:
    lo, hi = domain.lo, domain.hi
    pad = 0.05 * float(np.max(hi - lo))
    x, y = lo - pad
    w, h = (hi - lo) + 2 * pad
    stroke = _f(0.004 * max(w, h))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_f(x)} {_f(-y - h)} {_f(w)} {_f(h)}">\n'
        f'<g transform="scale(1,-1)" fill="none" stroke-width="{stroke}">\n'
        f'{body}\n</g>\n</svg>\n')


def shape_svg(domain: ConvexPolygon, shape: MinimizerShape) -> str:
    body = (f'<path d="{_polygon_path(domain.vertices)}" stroke="#888"/>\n'
            f'<path d="{_rounded_boundary_path(shape.body)}" stroke="#c02" />')
    return _document(domain, body)


def family_svg(domain: ConvexPolygon, shapes) -> str:
    rows = [f'<path d="{_polygon_path(domain.vertices)}" stroke="#888"/>']
    for shape in shapes:
        rows.append(f'<path d="{_rounded_boundary_path(shape.body)}" stroke="#c02" '
                    f'stroke-opacity="0.6"/>')
    return _document(domain, "\n".join(rows))


def contours_svg(domain: ConvexPolygon, contour_sets) -> str:
    """Level sets as point clouds of marching-squares crossings."""
    r = _f(0.002 * float(np.max(domain.hi - domain.lo)))
    rows = [f'<path d="{_polygon_path(domain.vertices)}" stroke="#888"/>']
    for pts in contour_sets:
        pts = np.asarray(pts).reshape(-1, 2)
        if len(pts) > MAX_CONTOUR_POINTS:
            pts = pts[:: len(pts) // MAX_CONTOUR_POINTS + 1]
        dots = f'<circle cx="%.9g" cy="%.9g" r="{r}"/>' * len(pts) % tuple(pts.ravel().tolist())
        rows.append(f'<g fill="#c02" stroke="none">{dots}</g>')
    return _document(domain, "\n".join(rows))
