"""Static SVG output: shape boundaries (lines plus circular arcs),
nested family overlays, and level-set contours.

Paths are emitted in math coordinates inside a group that flips the y
axis; numbers are formatted to 9 significant digits.
"""

import numpy as np

from .family import MinimizerShape
from .geometry import ConvexPolygon, RoundedBody


def _f(x) -> str:
    return f"{float(x):.9g}"


def _rounded_boundary_path(body: RoundedBody) -> str:
    """Boundary of core + r disk: edges offset outward, arcs at vertices."""
    core = body.core
    r = body.radius
    if core.kind == "empty":
        return ""
    if core.kind == "point":
        c = core.points[0]
        if r <= 0.0:
            return ""
        # full circle as two arcs
        p0 = (c[0] + r, c[1])
        p1 = (c[0] - r, c[1])
        return (f"M {_f(p0[0])} {_f(p0[1])} "
                f"A {_f(r)} {_f(r)} 0 0 1 {_f(p1[0])} {_f(p1[1])} "
                f"A {_f(r)} {_f(r)} 0 0 1 {_f(p0[0])} {_f(p0[1])} Z")
    pts = core.points
    # a segment is a degenerate 2-gon traversed forward and back
    loop = [pts[0], pts[1]] if core.kind == "segment" else list(pts)
    n = len(loop)
    # outward normal of edge i (CCW); for the 2-gon both sides are used
    cmds = []
    for i in range(n):
        a = np.asarray(loop[i], dtype=float)
        b = np.asarray(loop[(i + 1) % n], dtype=float)
        e = b - a
        ln = np.linalg.norm(e)
        if ln <= 0.0:
            continue
        nx, ny = e[1] / ln, -e[0] / ln
        pa = (a[0] + r * nx, a[1] + r * ny)
        pb = (b[0] + r * nx, b[1] + r * ny)
        if not cmds:
            cmds.append(f"M {_f(pa[0])} {_f(pa[1])}")
        else:
            # arc around vertex a from the previous edge offset to this one
            cmds.append(f"A {_f(r)} {_f(r)} 0 0 1 {_f(pa[0])} {_f(pa[1])}"
                        if r > 0.0 else f"L {_f(pa[0])} {_f(pa[1])}")
        cmds.append(f"L {_f(pb[0])} {_f(pb[1])}")
    # closing arc back to the start point
    if r > 0.0:
        first = cmds[0].split()[1:]
        cmds.append(f"A {_f(r)} {_f(r)} 0 0 1 {first[0]} {first[1]}")
    cmds.append("Z")
    return " ".join(cmds)


def _polygon_path(vertices) -> str:
    parts = [f"M {_f(vertices[0, 0])} {_f(vertices[0, 1])}"]
    parts += [f"L {_f(p[0])} {_f(p[1])}" for p in vertices[1:]]
    parts.append("Z")
    return " ".join(parts)


def _document(domain: ConvexPolygon, body: str, pad_frac=0.05) -> str:
    lo = domain.vertices.min(axis=0)
    hi = domain.vertices.max(axis=0)
    pad = pad_frac * float(np.max(hi - lo))
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


def contours_svg(domain: ConvexPolygon, contour_sets, max_points=1500) -> str:
    """Level sets as point clouds of marching-squares crossings."""
    lo = domain.vertices.min(axis=0)
    hi = domain.vertices.max(axis=0)
    rad = 0.002 * float(np.max(hi - lo))
    rows = [f'<path d="{_polygon_path(domain.vertices)}" stroke="#888"/>']
    for pts in contour_sets:
        pts = np.asarray(pts).reshape(-1, 2)
        if len(pts) > max_points:
            pts = pts[:: len(pts) // max_points + 1]
        dots = "".join(f'<circle cx="{_f(p[0])}" cy="{_f(p[1])}" r="{_f(rad)}"/>'
                       for p in pts)
        rows.append(f'<g fill="#c02" stroke="none">{dots}</g>')
    return _document(domain, "\n".join(rows))
