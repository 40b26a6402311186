"""Exact 2D convex geometry.

Validated convex polygons, inner parallel bodies (erosion by half-plane
offsetting), largest inscribed balls, morphological opening, and the
Steiner area/perimeter formulas for a convex core dilated by a disk.

All functions are pure; the returned objects are treated as immutable.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateError, NonConvexError, RadiusTooLargeError

EPS_GEOM = 1e-9       # length tolerance, relative to the domain scale
EPS_AREA = 1e-12      # area tolerance, relative to scale**2
DELTA_COLLAPSE = 1e-9
CHUNK_ENTRIES = 1 << 16   # points x vertices per block of the per-point kernels


@dataclass(frozen=True, eq=False)
class ConvexPolygon:
    """Strictly convex polygon with CCW vertices.

    Build through :func:`validate_polygon`; the derived fields (edge
    normals, offsets, scale) are filled there.  ``normals[i]`` is the
    outward unit normal of edge ``vertices[i] -> vertices[i+1]`` and the
    interior is ``{x : normals[i] . x <= offsets[i] for all i}``.
    """

    vertices: np.ndarray            # (n, 2) float64, CCW
    normals: np.ndarray             # (n, 2) outward unit normals
    offsets: np.ndarray             # (n,)
    scale: float                    # bounding-box diagonal
    reversed_input: bool = False    # CW input was silently reoriented

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def contains_point(self, points, tol=None):
        """Closed membership test, vectorized over (..., 2) points."""
        if tol is None:
            tol = EPS_GEOM * self.scale
        pts = np.asarray(points, dtype=float)
        viol = pts @ self.normals.T - self.offsets
        return np.max(viol, axis=-1) <= tol


@dataclass(frozen=True, eq=False)
class ErodedBody:
    """Inner parallel body of a convex polygon at some erosion radius.

    ``kind`` is one of "polygon", "segment", "point", "empty"; ``points``
    holds the polygon vertices, the two segment endpoints, the single
    point, or an empty (0, 2) array.  ``radius`` records the erosion
    radius that produced the body and ``scale`` the source polygon scale
    (used for closed-membership tolerances downstream).
    """

    kind: str
    points: np.ndarray
    radius: float
    scale: float = 1.0

    def measures(self):
        """(area, perimeter) of the body itself (a segment counts twice)."""
        if self.kind == "polygon":
            return _shoelace(self.points), _edge_length_sum(self.points)
        if self.kind == "segment":
            return 0.0, 2.0 * float(np.linalg.norm(self.points[1] - self.points[0]))
        return 0.0, 0.0

    def distance(self, points):
        """Euclidean distance from (..., 2) points to the body (0 inside)."""
        pts = np.asarray(points, dtype=float)
        if self.kind == "empty":
            d = np.full(pts.shape[:-1], np.inf)
        elif self.kind == "point":
            d = np.linalg.norm(pts - self.points[0], axis=-1)
        elif self.kind == "segment":
            d = _point_segment_distance(pts, self.points[0], self.points[1])
        else:
            flat, v = pts.reshape(-1, 2), self.points
            e = np.roll(v, -1, axis=0) - v
            lens = np.maximum(np.linalg.norm(e, axis=1), 1e-300)
            normals = np.stack([e[:, 1], -e[:, 0]], axis=1) / lens[:, None]
            offsets = np.sum(normals * v, axis=1)
            step = max(1, CHUNK_ENTRIES // len(v))
            d = np.empty(len(flat))
            for s in range(0, len(flat), step):
                d[s:s + step] = _polygon_distance(flat[s:s + step], v[:, 0], v[:, 1],
                                                  normals, offsets)
            d = d.reshape(pts.shape[:-1])
        return d if d.ndim else float(d)


@dataclass(frozen=True, eq=False)
class LargestBallSet:
    """Inradius, set of incenter positions and the measures derived from it.

    ``centers`` is a point or a segment; ``hull_measure`` is the area of
    the union of all largest inscribed balls (pi r^2 + 2 r L where L is
    the length of the center segment).
    """

    inradius: float
    centers: ErodedBody
    midpoint: np.ndarray
    center_length: float
    ball_measure: float
    hull_measure: float


@dataclass(frozen=True, eq=False)
class RoundedBody:
    """Minkowski sum of an eroded core with a disk of the given radius."""

    core: ErodedBody
    radius: float


# ---------------------------------------------------------------------------
# scalar helpers


def _shoelace(vertices) -> float:
    # about the first vertex, so that far-off coordinates do not cancel in
    # the products; the closing term then vanishes
    x = vertices[:, 0] - vertices[0, 0]
    y = vertices[:, 1] - vertices[0, 1]
    return 0.5 * float(np.dot(x[:-1], y[1:]) - np.dot(y[:-1], x[1:]))


def _edge_length_sum(vertices) -> float:
    return float(np.sum(np.linalg.norm(np.roll(vertices, -1, axis=0) - vertices, axis=1)))


def _point_segment_distance(pts, a, b):
    ab = b - a
    denom = max(float(ab @ ab), 1e-300)
    t = np.clip((pts - a) @ ab / denom, 0.0, 1.0)
    proj = a + t[..., None] * ab
    return np.linalg.norm(pts - proj, axis=-1)


def _polygon_distance(pts, vx, vy, normals, offsets):
    """Distance kernel of points (m, 2) to convex CCW polygons, 0 inside.

    Vertex coordinates vx, vy are (k,) for one polygon or (m, k) for one
    polygon per point; the interior is normals . x <= offsets, with
    offsets (k,) or (m, k) alike.
    """
    px, py = pts[:, 0:1], pts[:, 1:2]
    inside = np.max(pts @ normals.T - offsets, axis=1) <= 0.0
    ex = np.roll(vx, -1, axis=-1) - vx
    ey = np.roll(vy, -1, axis=-1) - vy
    t = np.clip(((px - vx) * ex + (py - vy) * ey)
                / np.maximum(ex * ex + ey * ey, 1e-300), 0.0, 1.0)
    dx = px - (vx + t * ex)
    dy = py - (vy + t * ey)
    return np.where(inside, 0.0, np.sqrt(np.min(dx * dx + dy * dy, axis=1)))


def clip_halfplane(vertices, normal, offset):
    """Clip a convex CCW polygon to the half-plane {x : normal . x <= offset}.

    Returns a (k, 2) array; k may be 0 when nothing survives.
    """
    s = vertices @ np.asarray(normal, dtype=float) - offset
    out = []
    n = len(vertices)
    for i in range(n):
        j = (i + 1) % n
        if s[i] <= 0.0:
            out.append(vertices[i])
        if (s[i] < 0.0 < s[j]) or (s[j] < 0.0 < s[i]):
            t = s[i] / (s[i] - s[j])
            out.append(vertices[i] + t * (vertices[j] - vertices[i]))
    return np.array(out, dtype=float).reshape(-1, 2)


# ---------------------------------------------------------------------------
# validation and plain measures


def validate_polygon(vertices) -> ConvexPolygon:
    """Validate a vertex list and return a normalized CCW ConvexPolygon.

    Rejects non-finite coordinates, duplicate vertices, collinear runs and
    non-convex chains.  CW input is reversed (recorded on the result).
    """
    arr = np.asarray(vertices, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DegenerateError("vertices must be an (n, 2) array of points")
    if len(arr) < 3:
        raise DegenerateError("need at least 3 vertices")
    if not np.all(np.isfinite(arr)):
        raise DegenerateError("non-finite vertex coordinates")

    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    scale = float(np.linalg.norm(hi - lo))
    if scale <= 0.0:
        raise DegenerateError("all vertices coincide")

    gaps = np.linalg.norm(np.roll(arr, -1, axis=0) - arr, axis=1)
    if np.any(gaps <= EPS_GEOM * scale):
        raise DegenerateError("duplicate consecutive vertices")

    reversed_input = False
    e = np.roll(arr, -1, axis=0) - arr
    cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    thresh = EPS_GEOM * scale * scale
    if np.all(cross < -thresh):
        arr = arr[::-1].copy()
        reversed_input = True
        e = np.roll(arr, -1, axis=0) - arr
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    if not np.all(cross > thresh):
        raise NonConvexError("vertex chain is not strictly convex")

    area = _shoelace(arr)
    if area <= 0.0:
        raise DegenerateError("polygon has non-positive area")

    lens = np.linalg.norm(e, axis=1)
    normals = np.stack([e[:, 1], -e[:, 0]], axis=1) / lens[:, None]
    # average the two endpoint projections for a stable offset
    offsets = 0.5 * (np.sum(normals * arr, axis=1)
                     + np.sum(normals * np.roll(arr, -1, axis=0), axis=1))
    return ConvexPolygon(vertices=arr, normals=normals, offsets=offsets,
                         scale=scale, reversed_input=reversed_input)


def polygon_measures(polygon: ConvexPolygon):
    """(area, perimeter) by the shoelace formula and edge-length sum."""
    return _shoelace(polygon.vertices), _edge_length_sum(polygon.vertices)


# ---------------------------------------------------------------------------
# erosion event structure
#
# Offsetting every edge line inward by r keeps each eroded vertex on a fixed
# affine path V(r) = Z + r*S until some edge length shrinks to zero.  The
# radii at which edges vanish split [0, r*] into intervals with a constant
# combinatorial structure (the straight skeleton of the polygon); inside
# each interval the core area is quadratic in r and the core perimeter
# affine, so the opening area A(r) + r P(r) + pi r^2 is a quadratic too.
# One pass computes everything needed for erosion at any radius, the
# inradius, and the set of incenter positions.


class EventInterval(NamedTuple):
    """Radii [r_lo, r_hi] over which the eroded core keeps its combinatorics.

    ``edges`` indexes the polygon edges still active, in CCW order, and
    ``normals`` / ``offsets`` are their lines.  Core vertex i lies between
    edges[i] and edges[i+1] and moves on ``Z[i] + r * S[i]``.
    """

    r_lo: float
    r_hi: float
    edges: np.ndarray
    Z: np.ndarray
    S: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray


class ErosionStructure:
    """Straight skeleton of a convex polygon: all its inner parallel bodies.

    ``intervals`` are the K event intervals in order, ``breaks`` their K + 1
    end radii from 0 to the inradius ``r_star``, and ``center_points`` the
    incenter set (one point, or the two ends of a segment).

    The build is event driven.  The active edges form a doubly linked list
    and each keeps its length ``len0 + r * dlen`` and the radius at which
    that length reaches zero, in (n,) arrays that every step scans for the
    next event, so that the tie, length and parallel-edge rules see all
    active edges as a full re-derivation would.  When edges vanish, only
    the vertex that joins their surviving neighbours and the two edges
    meeting there are recomputed, with the same formulas; every interval
    is a snapshot of the active rows of the vertex array, and the Steiner
    coefficients of all intervals come from one vectorised pass.
    """

    def __init__(self, polygon: ConvexPolygon):
        self.polygon = polygon
        self.scale = polygon.scale
        self._build()

    def _build(self):
        poly = self.polygon
        # vertices are solved about the vertex mean c, with the edge offsets
        # taken from the centred vertices as validate_polygon does: far from
        # the origin the offsets' rounding, amplified where lines meet at a
        # small angle, would otherwise move the vertices
        c = poly.vertices.mean(axis=0)
        N, P = poly.normals, poly.vertices - c
        D = 0.5 * (np.sum(N * P, axis=1) + np.sum(N * np.roll(P, -1, axis=0), axis=1))
        n = len(D)
        tie = 1e-11 * self.scale
        eps_len = 1e-12 * self.scale

        # vertex e joins edge e to edge nxt[e]; edge e runs from vertex
        # prv[e] to vertex e along the tangent (-ny, nx).  Rows of ZS hold
        # (Z, S) per vertex; dead edges keep an infinite length and vanish
        # radius.
        nxt = [*range(1, n), 0]
        prv = [n - 1, *range(n - 1)]
        alive = np.ones(n, dtype=bool)
        count = n
        ZS = np.empty((n, 4))
        len0, dlen, vanish = np.empty(n), np.empty(n), np.empty(n)
        nl, dl, zs = N.tolist(), D.tolist(), [None] * n

        def set_vertex(a):
            b = nxt[a]
            (ax, ay), (bx, by) = nl[a], nl[b]
            det = ax * by - ay * bx
            if det <= 1e-14:
                return False
            zs[a] = ZS[a] = ((dl[a] * by - ay * dl[b]) / det,
                             (ax * dl[b] - dl[a] * bx) / det,
                             (-by + ay) / det, (-ax + bx) / det)
            return True

        def set_edge(e):
            tx, ty = -nl[e][1], nl[e][0]
            zx, zy, sx, sy = zs[e]
            px, py, qx, qy = zs[prv[e]]
            len0[e] = l0 = (zx - px) * tx + (zy - py) * ty
            dlen[e] = dl0 = (sx - qx) * tx + (sy - qy) * ty
            vanish[e] = -l0 / dl0 if dl0 < -1e-300 else np.inf

        def drop(ks):
            """Remove edges ks at once; False when a new vertex is degenerate."""
            nonlocal count
            heads = []
            for k in ks:
                p, q = prv[k], nxt[k]
                nxt[p], prv[q] = q, p
                heads.append(p)
                alive[k] = False
                len0[k], dlen[k], vanish[k] = np.inf, 0.0, np.inf
            count -= len(ks)
            if count < 3:
                return True
            heads = [p for p in dict.fromkeys(heads) if alive[p]]
            if not all(set_vertex(p) for p in heads):
                return False
            for e in dict.fromkeys(e for p in heads for e in (p, nxt[p])):
                set_edge(e)
            return True

        # adjacent edges (anti)parallel: the core is degenerate from the start
        degenerate = not all(set_vertex(a) for a in range(n))
        if not degenerate:
            for e in range(n):
                set_edge(e)
        r_cur = 0.0
        snaps = []
        while not degenerate and count >= 3:
            cur_len = len0 + r_cur * dlen
            if cur_len.min() <= eps_len:
                # redundant constraints
                degenerate = not drop((cur_len <= eps_len).nonzero()[0].tolist())
                continue
            r_next = float(vanish.min())
            if r_next == np.inf or r_next <= r_cur + tie:
                hit = (vanish <= r_cur + tie).nonzero()[0]
                if not hit.size:
                    break
                degenerate = not drop(hit.tolist())
                continue
            idx = alive.nonzero()[0]
            snaps.append((r_cur, r_next, idx, ZS.take(idx, axis=0)))
            degenerate = not drop((vanish <= r_next + tie).nonzero()[0].tolist())
            r_cur = r_next

        if not snaps:
            raise DegenerateError("polygon admits no interior offset structure")
        self.r_star = r_cur
        self.breaks = np.array([s[0] for s in snaps] + [r_cur])
        sizes = np.array([len(s[2]) for s in snaps])
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        ends = starts + sizes
        edges = np.concatenate([s[2] for s in snaps])
        ZSc = np.concatenate([s[3] for s in snaps])
        Zc, Sc, Nc, Dc = ZSc[:, :2] + c, ZSc[:, 2:], N[edges], poly.offsets[edges]
        self.intervals = [
            EventInterval(lo, hi, edges[a:b], Zc[a:b], Sc[a:b], Nc[a:b], Dc[a:b])
            for lo, hi, a, b in zip(self.breaks[:-1].tolist(), self.breaks[1:].tolist(),
                                    starts.tolist(), ends.tolist())]

        # Steiner coefficients of every interval in one pass, in t = r - r_lo:
        # the shoelace of the core vertices V = V_lo + t S expands into
        # area = a0 + a1 t + a2 t^2, and the perimeter is the sum of the edge
        # lengths p0 + p1 t.  Expanding about the interval start (not r = 0)
        # and the vertex mean keeps far-off points from cancelling.
        succ = np.arange(1, len(edges) + 1)
        succ[ends - 1] = starts
        pred = np.arange(-1, len(edges) - 1)
        pred[starts] = ends - 1
        r_lo = self.breaks[:-1]
        V0 = ZSc[:, :2] + np.repeat(r_lo, sizes)[:, None] * Sc
        (vx, vy), (sx, sy) = V0.T, Sc.T
        tx, ty = -Nc[:, 1], Nc[:, 0]

        def total(x):
            return np.add.reduceat(x, starts)

        self._area_poly = 0.5 * np.stack([
            total(vx * vy[succ] - vy * vx[succ]),
            total(vx * sy[succ] - vy * sx[succ] + (sx * vy[succ] - sy * vx[succ])),
            total(sx * sy[succ] - sy * sx[succ])], axis=1)
        self._perim_poly = np.stack([
            total((vx - vx[pred]) * tx + (vy - vy[pred]) * ty),
            total((sx - sx[pred]) * tx + (sy - sy[pred]) * ty)], axis=1)
        (a0, a1, a2), (p0, p1) = self._area_poly.T, self._perim_poly.T
        # opening area A + r P + pi r^2 = c0 + c1 t + c2 t^2 per interval, and
        # the running minimum of its values at the interval ends: the tie rule
        # can leave rounding-sized steps at the breaks, which this keeps
        # monotone
        self._opening_poly = np.stack([
            a0 + r_lo * (p0 + np.pi * r_lo),
            a1 + p0 + r_lo * (p1 + 2.0 * np.pi),
            a2 + p1 + np.pi], axis=1)
        c0, c1, c2 = self._opening_poly.T
        t_end = np.diff(self.breaks)
        self._opening_at_ends = np.minimum.accumulate(c0 + t_end * (c1 + t_end * c2))

        # limit of the vertex paths at r*: the set of incenter positions
        last = self.intervals[-1]
        pts = last.Z + self.r_star * last.S
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        i, j = np.unravel_index(np.argmax(d2), d2.shape)
        if np.sqrt(d2[i, j]) <= EPS_GEOM * self.scale:
            self.center_points = pts.mean(axis=0)[None, :]
        else:
            self.center_points = np.stack([pts[i], pts[j]])

    # -- queries ------------------------------------------------------------

    def interval_index(self, r):
        idx = np.searchsorted(self.breaks, r, side="right") - 1
        return np.clip(idx, 0, len(self.intervals) - 1)

    def _blocks(self, idx):
        """(interval, point indices) blocks of at most CHUNK_ENTRIES entries."""
        order = np.argsort(idx, kind="stable")
        ks, first = np.unique(idx[order], return_index=True)
        for k, lo, hi in zip(ks, first, [*first[1:], len(order)]):
            iv = self.intervals[k]
            step = max(1, CHUNK_ENTRIES // len(iv.Z))
            for s in range(lo, hi, step):
                yield iv, order[s:min(s + step, hi)]

    def core_measures(self, r):
        """(area, perimeter) of the eroded core, vectorized over r in [0, r*]."""
        r = np.asarray(r, dtype=float)
        idx = self.interval_index(r)
        t = r - self.breaks[idx]
        a = self._area_poly[idx]
        p = self._perim_poly[idx]
        area = a[..., 0] + t * (a[..., 1] + t * a[..., 2])
        perim = p[..., 0] + t * p[..., 1]
        return area, perim

    def area_of_opening(self, r):
        """Area of (eroded core) + r * disk, by the Steiner formula."""
        r = np.asarray(r, dtype=float)
        area, perim = self.core_measures(r)
        return area + r * perim + np.pi * r * r

    def perimeter_of_opening(self, r):
        r = np.asarray(r, dtype=float)
        _, perim = self.core_measures(r)
        return perim + 2.0 * np.pi * r

    def radius_for_area(self, area):
        """Radius r in [0, r*] whose opening has the given area; vectorized.

        The opening area decreases strictly from |Omega| at r = 0 to |H| at
        r*.  One searchsorted over its values at the interval ends finds
        the first interval that reaches the area; there the quadratic
        c2 t^2 + c1 t + c0 = area in t = r - r_lo (c1, c2 <= 0) is solved by
        the root formula without cancellation, t = 2 c / (sqrt(disc) - c1)
        with c = c0 - area, and r clipped to the interval.
        """
        v = np.asarray(area, dtype=float)
        k = np.searchsorted(-self._opening_at_ends, -v, side="left")
        k = np.minimum(k, len(self.intervals) - 1)
        poly = self._opening_poly
        c0, c1, c2 = poly[k, 0], poly[k, 1], poly[k, 2]
        c = np.maximum(c0 - v, 0.0)        # an area above the interval's start: t = 0
        sq = np.sqrt(np.maximum(c1 * c1 - 4.0 * c2 * c, 0.0))
        t = 2.0 * c / np.maximum(sq - c1, 1e-300)
        return np.clip(self.breaks[k] + t, self.breaks[k], self.breaks[k + 1])

    def core_vertices(self, r: float) -> np.ndarray:
        iv = self.intervals[int(self.interval_index(r))]
        return iv.Z + r * iv.S

    def distance_to_core(self, points, r):
        """Distance from points (m, 2) to the eroded core at per-point radii r.

        Points are grouped by event interval and evaluated in blocks of at
        most CHUNK_ENTRIES point-vertex pairs, so temporaries stay bounded
        whatever the number of points.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.broadcast_to(np.asarray(r, dtype=float), (pts.shape[0],))
        out = np.empty(pts.shape[0])
        for iv, sel in self._blocks(self.interval_index(r)):
            rr = r[sel, None]
            out[sel] = _polygon_distance(pts[sel], iv.Z[:, 0] + rr * iv.S[:, 0],
                                         iv.Z[:, 1] + rr * iv.S[:, 1],
                                         iv.normals, iv.offsets - rr)
        return out

    def exit_radius(self, points):
        """Largest r with each point of the domain in the opening at r.

        First the event interval of each point is bracketed by bisecting
        over the break indices with exact membership tests
        dist(x, core(b)) <= b, at most ceil(log2 K) of them.  Inside the
        bracket [r_lo, r_hi], x lies in the disk of radius r about core
        vertex i exactly for r between the roots of

            (|S_i|^2 - 1) r^2 - 2 r (x - Z_i).S_i + |x - Z_i|^2 = 0,

        whose discriminant factors as |S_i|^2 s_a s_b, with s_a, s_b >= 0 the
        distances from x to the two edge lines meeting at the vertex.  Any
        radius in the bracket at which x lies in such a disk keeps x in the
        opening, and x leaves the opening through the arc of one vertex, so
        the exit radius is the largest such radius (r_lo if there is none).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo = np.zeros(len(pts), dtype=np.intp)       # member at breaks[lo]
        hi = np.full(len(pts), len(self.intervals))  # not member at breaks[hi]
        act = np.flatnonzero(hi - lo > 1)
        while act.size:
            mid = (lo[act] + hi[act]) // 2
            rb = self.breaks[mid]
            ok = self.distance_to_core(pts[act], rb) <= rb
            lo[act[ok]] = mid[ok]
            hi[act[~ok]] = mid[~ok]
            act = act[hi[act] - lo[act] > 1]
        out = np.empty(len(pts))
        for iv, sel in self._blocks(lo):
            out[sel] = self._exit_block(pts[sel], iv)
        return out

    @staticmethod
    def _exit_block(pts, iv):
        s = np.maximum(iv.offsets[None, :] - pts @ iv.normals.T, 0.0)
        speed2 = np.sum(iv.S * iv.S, axis=1)
        wx = pts[:, 0:1] - iv.Z[:, 0]
        wy = pts[:, 1:2] - iv.Z[:, 1]
        b = wx * iv.S[:, 0] + wy * iv.S[:, 1]
        c = wx * wx + wy * wy
        q = b + np.sqrt(speed2 * s * np.roll(s, -1, axis=1))
        a = speed2 - 1.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r_out = np.where(a > 0.0, q / a, np.inf)
            r_in = np.where(q > 0.0, c / q, np.where(c > 0.0, np.inf, 0.0))
        hit = (r_in <= iv.r_hi) & (r_out >= iv.r_lo)
        best = np.max(np.where(hit, np.minimum(r_out, iv.r_hi), iv.r_lo), axis=1)
        return np.maximum(best, iv.r_lo)

    def core_body(self, r: float) -> ErodedBody:
        """Eroded core at radius r with the degeneracy collapse policy applied."""
        scale = self.scale
        if r < 0.0:
            raise ValueError("erosion radius must be nonnegative")
        if r > self.r_star * (1.0 + DELTA_COLLAPSE) + EPS_GEOM * scale:
            return ErodedBody("empty", np.empty((0, 2)), r, scale)
        if r == 0.0:
            return ErodedBody("polygon", self.polygon.vertices, 0.0, scale)
        rr = min(r, self.r_star)
        pts = self.core_vertices(rr)
        area = _shoelace(pts)
        if area >= EPS_AREA * scale * scale:
            keep = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1) > EPS_GEOM * scale
            cleaned = pts[keep] if keep.sum() >= 3 else pts
            return ErodedBody("polygon", cleaned, r, scale)
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        i, j = np.unravel_index(np.argmax(d2), d2.shape)
        if np.sqrt(d2[i, j]) < EPS_GEOM * scale:
            return ErodedBody("point", pts.mean(axis=0)[None, :], r, scale)
        return ErodedBody("segment", np.stack([pts[i], pts[j]]), r, scale)


# ---------------------------------------------------------------------------
# public operations built on the structure


def erode(polygon: ConvexPolygon, r: float, structure: ErosionStructure | None = None) -> ErodedBody:
    """Inner parallel body: intersection of the inward-offset half-planes.

    Monotone in r; collapses to a segment, point, or the empty body when the
    offset planes no longer bound a full-dimensional polygon.
    """
    if r < 0.0:
        raise ValueError("erosion radius must be nonnegative")
    struct = structure or ErosionStructure(polygon)
    return struct.core_body(float(r))


def largest_balls(polygon: ConvexPolygon, structure: ErosionStructure | None = None) -> LargestBallSet:
    """Inradius and incenter set of the polygon.

    Both are read off the erosion structure: the inradius r* is the radius
    at which the core collapses and the incenter set (a point or a
    segment) is the limit of the vertex paths there.  They are certified
    in O(n) as the optimum of the linear program  max r  s.t.
    n_i . x + r <= d_i  by LP duality at the structure's incenter c (the
    midpoint of the set): c is feasible, n_i . c + r* <= d_i + tol for
    every edge, and the unit normals of the constraints tight within tol
    leave no angular gap wider than pi, so 0 lies in their convex hull
    and no feasible (x, r) has r > r* + tol.  A failed certificate raises
    DegenerateError.
    """
    struct = structure or ErosionStructure(polygon)
    r_star = struct.r_star
    pts = struct.center_points
    midpoint = pts.mean(axis=0)
    # 1e-7, not EPS_GEOM: in slivers and at near-parallel edges the vertex
    # paths meet at small angles and blur the incenter beyond EPS_GEOM
    tol = 1e-7 * polygon.scale
    slack = polygon.offsets - polygon.normals @ midpoint - r_star
    if np.min(slack) < -tol:
        raise DegenerateError("inradius certificate failed: incenter violates an edge")
    tight = polygon.normals[slack <= tol]
    ang = np.sort(np.arctan2(tight[:, 1], tight[:, 0]))
    if len(ang) < 2 or np.max(np.diff(ang, append=ang[0] + 2.0 * np.pi)) > np.pi + 1e-7:
        raise DegenerateError("inradius certificate failed: tight edges leave a gap")

    if len(pts) == 1:
        centers = ErodedBody("point", pts, r_star, polygon.scale)
        length = 0.0
    else:
        centers = ErodedBody("segment", pts, r_star, polygon.scale)
        length = float(np.linalg.norm(pts[1] - pts[0]))
    ball = np.pi * r_star * r_star
    return LargestBallSet(inradius=r_star, centers=centers, midpoint=midpoint,
                          center_length=length, ball_measure=ball,
                          hull_measure=ball + 2.0 * r_star * length)


def opening(polygon: ConvexPolygon, r: float, structure: ErosionStructure | None = None) -> RoundedBody:
    """Morphological opening: erosion by r followed by dilation by r.

    Equals the union of all disks of radius r contained in the polygon; at
    r = 0 it is the polygon itself, at r = r* the union of all largest
    inscribed balls.
    """
    if r < 0.0:
        raise ValueError("opening radius must be nonnegative")
    struct = structure or ErosionStructure(polygon)
    tol = struct.r_star * DELTA_COLLAPSE + EPS_GEOM * polygon.scale
    if r > struct.r_star + tol:
        raise RadiusTooLargeError(
            f"radius {r} exceeds inradius {struct.r_star}")
    rr = min(float(r), struct.r_star)
    return RoundedBody(core=struct.core_body(rr), radius=rr)


def rounded_measures(body: RoundedBody):
    """(area, perimeter) of core + r * disk by the Steiner formula.

    area = A(core) + r P(core) + pi r^2 and perimeter = P(core) + 2 pi r,
    where a segment of length L has A = 0, P = 2L and a point has A = P = 0.
    """
    if body.core.kind == "empty":
        return 0.0, 0.0
    a, p = body.core.measures()
    r = body.radius
    return a + r * p + np.pi * r * r, p + 2.0 * np.pi * r


def contains(body: RoundedBody, points, tol: float | None = None):
    """Closed membership in core + r * disk; vectorized over (..., 2) points."""
    if tol is None:
        tol = EPS_GEOM * body.core.scale
    d = body.core.distance(points)
    return d <= body.radius + tol
