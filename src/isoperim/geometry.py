"""Exact 2D convex geometry.

Validated convex polygons, inner parallel bodies (erosion by half-plane
offsetting), largest inscribed balls, morphological opening, and the
Steiner area/perimeter formulas for a convex core dilated by a disk.

All functions are pure; the returned objects are treated as immutable.
"""

import heapq
import math
import operator
from collections.abc import Sequence
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
        """Closed membership test, vectorized over (..., 2) points.

        A point is a member when no edge line has it more than tol
        outside, so near a vertex of interior angle theta the test reaches
        up to tol / sin(theta / 2) from the polygon.  Points go in blocks
        of at most CHUNK_ENTRIES point-edge pairs, and a point's result
        does not depend on its block.
        """
        if tol is None:
            tol = EPS_GEOM * self.scale
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, 2)
        out = np.empty(len(flat), dtype=bool)
        step = max(1, CHUNK_ENTRIES // len(self.offsets))
        for s in range(0, len(flat), step):
            blk = flat[s:s + step]
            out[s:s + step] = _excess(blk[:, 0:1], blk[:, 1:2], self.normals, self.offsets) <= tol
        return out.reshape(pts.shape[:-1])[()]


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


def _excess(px, py, normals, offsets):
    """max_i (normals[i] . x - offsets[i]) of points (m, 1) px, py.

    Elementwise, not a matmul, so that a point's bits do not depend on its
    block; offsets are (k,) or (m, k).
    """
    e = px * normals[:, 0]
    e += py * normals[:, 1]
    e -= offsets
    return e.max(axis=1)


def _polygon_distance(pts, vx, vy, normals, offsets):
    """Distance kernel of points (m, 2) to convex CCW polygons, 0 inside.

    Vertex coordinates vx, vy are (k,) for one polygon or (m, k) for one
    polygon per point; the interior is normals . x <= offsets, with
    offsets (k,) or (m, k) alike.
    """
    px, py = pts[:, 0:1], pts[:, 1:2]
    inside = _excess(px, py, normals, offsets) <= 0.0
    ex = np.roll(vx, -1, axis=-1) - vx
    ey = np.roll(vy, -1, axis=-1) - vy
    t = np.clip(((px - vx) * ex + (py - vy) * ey)
                / np.maximum(ex * ex + ey * ey, 1e-300), 0.0, 1.0)
    dx = px - (vx + t * ex)
    dy = py - (vy + t * ey)
    return np.where(inside, 0.0, np.sqrt(np.min(dx * dx + dy * dy, axis=1)))


def _measures(pts, counts):
    """(areas, perimeters, starts) of CCW polygons stored back to back, with
    counts[j] > 0 vertices each.

    Each shoelace is taken about its polygon's first vertex, so that
    far-off coordinates do not cancel; the closing term then vanishes.
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    nxt = np.arange(1, ends[-1] + 1)
    nxt[ends - 1] = starts
    rel = pts - np.repeat(pts[starts], counts, axis=0)
    cross = rel[:, 0] * rel[nxt, 1] - rel[:, 1] * rel[nxt, 0]
    edge = pts[nxt] - pts
    length = np.sqrt(edge[:, 0] * edge[:, 0] + edge[:, 1] * edge[:, 1])
    return 0.5 * np.add.reduceat(cross, starts), np.add.reduceat(length, starts), starts


def convex_hulls(points, counts):
    """(vertices, hull_counts): the convex hulls of point sets stored back to back.

    ``points`` (m, 2) holds the sets back to back, counts[s] points each.
    ``vertices`` indexes ``points``: each hull's vertices in CCW order
    from its leftmost-then-lowest point, back to back, hull_counts[s] of
    them.  Points on a hull edge are not vertices, so a set with no area
    gives at most two.

    A segmented quickhull (Eddy 1977; Barber, Dobkin & Huhdanpaa 1996):
    each set starts as the two directed edges between its leftmost-then-
    lowest and rightmost-then-highest points.  Each round splits every
    edge that has points outside it at the farthest of them (of tied
    ones, the farthest along the edge) and keeps, grouped by edge, only
    the points outside one of the two new edges.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    counts = np.asarray(counts, dtype=np.intp)
    sets = np.flatnonzero(counts)
    if not len(sets):
        return np.empty(0, np.intp), np.zeros(len(counts), np.intp)
    x, y = pts[:, 0], pts[:, 1]
    at = (np.cumsum(counts) - counts)[sets]
    own = np.repeat(np.arange(len(sets)), counts[sets])
    pos = np.arange(len(x))

    def extreme(fn, pad):   # leftmost-then-lowest (min) or rightmost-then-highest (max)
        on = x == fn.reduceat(x, at)[own]
        on &= y == fn.reduceat(np.where(on, y, pad), at)[own]
        return np.minimum.reduceat(np.where(on, pos, len(x)), at)

    a, b = extreme(np.minimum, np.inf), extreme(np.maximum, -np.inf)
    # edges a -> b (lower chain) and b -> a (upper chain) per set, only the first if a == b
    live = np.stack([np.ones(len(a), bool), a != b], 1).ravel()
    ea, eb = np.stack([a, b], 1).ravel()[live], np.stack([b, a], 1).ravel()[live]
    es = np.repeat(sets, 2)[live]
    ax, ay = x[a][own], y[a][own]
    d = (x - ax) * (y[b][own] - ay) - (y - ay) * (x[b][own] - ax)   # > 0: below a -> b
    pe = (np.cumsum(live) - 1)[2 * own + (d < 0.0)]
    pi, pd, px, py = pos, np.abs(d), x, y
    while True:
        # the points outside an edge, grouped by edge: index, edge, distance, coordinates
        keep = np.flatnonzero(pd > 0.0)
        if not len(keep):
            return ea, np.bincount(es, minlength=len(counts))
        order = keep[np.argsort(pe[keep], kind="stable")]
        pi, pe, pd, px, py = pi[order], pe[order], pd[order], px[order], py[order]
        head = pe != np.concatenate([[-1], pe[:-1]])
        brk, grp = np.flatnonzero(head), np.cumsum(head) - 1
        e = pe[brk]   # the open edge of each group, and its ends:
        ax, ay, bx, by = x[ea[e]], y[ea[e]], x[eb[e]], y[eb[e]]
        hit = np.flatnonzero(pd == np.maximum.reduceat(pd, brk)[grp])
        if len(hit) > len(brk):   # ties: the one farthest along the edge, then the first
            g = grp[hit]
            along = (px[hit] - ax[g]) * (bx - ax)[g] + (py[hit] - ay[g]) * (by - ay)[g]
            hit = hit[np.lexsort((-along, g))]
            hit = hit[np.diff(grp[hit], prepend=-1) > 0]
        c = pi[hit]
        cx, cy = x[c], y[c]
        # edge e splits into a -> c and c -> b, at positions new[e] and new[e] + 1
        split = np.zeros(len(ea), np.intp)
        split[e] = 1
        new = np.arange(len(ea)) + np.cumsum(split) - split
        ea, eb, es = (np.repeat(v, 1 + split) for v in (ea, eb, es))
        ea[new[e] + 1], eb[new[e]] = c, c
        d1 = (px - ax[grp]) * (cy - ay)[grp] - (py - ay[grp]) * (cx - ax)[grp]
        d2 = (px - cx[grp]) * (by - cy)[grp] - (py - cy[grp]) * (bx - cx)[grp]
        side = d1 <= 0.0
        pe, pd = new[pe] + side, np.where(side, d2, d1)


# ---------------------------------------------------------------------------
# validation and plain measures


def validate_polygon(vertices) -> ConvexPolygon:
    """Validate a vertex list and return a normalized CCW ConvexPolygon.

    Rejects non-numeric or ragged input, non-finite coordinates, duplicate
    vertices, collinear runs and non-convex chains: each turn must have a
    sine above EPS_GEOM, whatever the edge lengths.  CW input is reversed
    (recorded on the result).
    """
    try:
        arr = np.asarray(vertices, dtype=float)
    except (TypeError, ValueError):
        raise DegenerateError("vertices must be an (n, 2) array of numbers") from None
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

    # sine of the turn at each vertex: an absolute threshold on the cross
    # products would reject every smooth polygon of a few thousand vertices
    e = np.roll(arr, -1, axis=0) - arr
    e1 = np.roll(e, -1, axis=0)
    sine = (e[:, 0] * e1[:, 1] - e[:, 1] * e1[:, 0]) / (gaps * np.roll(gaps, -1))
    reversed_input = bool(np.all(sine < -EPS_GEOM))
    if reversed_input:
        arr = arr[::-1].copy()
        e = np.roll(arr, -1, axis=0) - arr
    elif not np.all(sine > EPS_GEOM):
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
# The build visits each event once, with two heaps instead of scans, and
# keeps each skeleton vertex once with the intervals it lives in.  The
# event loop tracks only this topology; the Steiner sums are formed after
# it from the life of each edge's vertex pair (_steiner_sums).


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


class EventIntervals(Sequence):
    """The K event intervals as a read-only sequence, each built when asked for.

    Rows are the skeleton vertices, each stored once and sorted by edge;
    a row belongs to interval k when ``born <= k < dies``, so interval k
    is one mask over the rows.
    """

    def __init__(self, breaks, edges, Z, S, normals, offsets, born, dies):
        self._breaks = breaks.tolist()
        self._rows = edges, Z, S, normals, offsets
        self._born, self._dies = born, dies

    def __len__(self):
        return len(self._breaks) - 1

    def __getitem__(self, k):
        k = operator.index(k)
        K = len(self._breaks) - 1
        if k < 0:
            k += K
        if not 0 <= k < K:
            raise IndexError("event interval index out of range")
        sel = ((self._born <= k) & (self._dies > k)).nonzero()[0]
        edges, Z, S, normals, offsets = self._rows
        return EventInterval(self._breaks[k], self._breaks[k + 1], edges.take(sel),
                             Z.take(sel, axis=0), S.take(sel, axis=0),
                             normals.take(sel, axis=0), offsets.take(sel))


def _length_bound(len0, dlen, eps_len):
    """A radius below the first r with len0 + r*dlen <= eps_len in floats.

    For dlen < 0 the rounded length is nonincreasing in r, so the rule
    holds from some radius on.  The quotient below misses it by a few
    rounding errors, relative to itself and to eps_len / |dlen|; the
    bound stays below by 1e-15 (about 9 units in the last place) of both.
    It is inf or NaN when the quotient overflows: no finite radius then
    reaches eps_len.
    """
    q = (len0 - eps_len) / -dlen
    return q - 1e-15 * (abs(q) + eps_len / -dlen)


def _farthest_pair(pts):
    """(i, j, d) of the first farthest pair of pts in row-major order.

    Rows are scanned in blocks of at most CHUNK_ENTRIES pairs, so the
    squared distances never take more than one block's memory.
    """
    m = len(pts)
    step = max(1, CHUNK_ENTRIES // m)
    x, y = pts[:, 0], pts[:, 1]
    best, i, j = -1.0, 0, 0
    for s in range(0, m, step):
        dx = x[s:s + step, None] - x
        dy = y[s:s + step, None] - y
        d2 = dx * dx + dy * dy
        k = int(np.argmax(d2))
        if d2.flat[k] > best:
            best = float(d2.flat[k])
            i, j = divmod(k, m)
            i += s
    return i, j, math.sqrt(best)


def _vertex_paths(N, D, a, b):
    """Paths Z + r S of the vertices joining edge lines a and b, as (4, m).

    Rows are Zx, Zy, Sx, Sy, where N[a] . x = D[a] - r and N[b] . x = D[b] - r
    meet.  ErosionStructure._build solves one vertex at a time by the same
    expressions, so the bits agree.
    """
    (ax, ay), (bx, by), da, db = N[a].T, N[b].T, D[a], D[b]
    det = ax * by - ay * bx
    return np.array([da * by - ay * db, ax * db - da * bx, ay - by, bx - ax]) / det


def _steiner_sums(breaks, edges, paths, born, dies, pairs, tangents):
    """Core area and perimeter per interval from the lives of the edge pairs.

    Skeleton vertex i starts on edge ``edges[i]`` and moves on ``paths[:, i]``
    = (Z, S) about the vertex mean; ``born`` and ``dies`` are the intervals
    in which it appears and goes.  Edge e between the vertices (p, v) of
    ``pairs`` adds the shoelace term p x v and its length (v - p) . t_e to
    the sums while both live, from interval max(born) to min(dies).  Its
    terms are evaluated at the start radius of the interval in which it
    appears and of the one in which it goes, binned per interval, and the
    running sums are carried from one interval start to the next by the
    exact shift of the quadratic and the affine sum.  Nothing is expanded
    about r = 0, where near-antiparallel edges (|S| about 1e8) would
    cancel.  Returns (K, 5): twice the area a0, a1, a2 and the perimeter
    p0, p1 in t = r - r_lo.
    """
    K = len(breaks) - 1
    lo, hi = born[pairs].max(axis=1), dies[pairs].min(axis=1)

    def binned(sel, k):
        """The five terms of the pairs sel at r_lo[k], summed per interval k."""
        p, v = pairs[sel].T
        (px, py, psx, psy), (vx, vy, vsx, vsy) = paths[:, p], paths[:, v]
        tx, ty = tangents[edges[v]].T
        k = k[sel]
        r = breaks[k]
        ax, ay, bx, by = px + r * psx, py + r * psy, vx + r * vsx, vy + r * vsy
        return np.array([np.bincount(k, w, K) for w in (
            ax * by - ay * bx,
            ax * vsy - ay * vsx + (psx * by - psy * bx),
            psx * vsy - psy * vsx,
            (bx - ax) * tx + (by - ay) * ty,
            (vsx - psx) * tx + (vsy - psy) * ty)])

    # births less deaths per interval, each term at the interval's start;
    # a pair alive at r* goes after the last interval
    live = lo < hi
    da0, da1, da2, dp0, dp1 = binned(live, lo) - binned(live & (hi < K), hi)

    # carry: the sums about r_k are those about r_{k-1} moved by
    # d = r_k - r_{k-1}, plus the interval's own change
    def before(x):
        return np.concatenate([[0.0], x[:-1]])

    r_lo = breaks[:-1]
    d = r_lo - before(r_lo)
    a2, p1 = np.cumsum(da2), np.cumsum(dp1)
    a2_, p1_ = before(a2), before(p1)
    a1 = np.cumsum(da1 + 2.0 * a2_ * d)
    a0 = np.cumsum(da0 + (before(a1) + a2_ * d) * d)
    p0 = np.cumsum(dp0 + p1_ * d)
    return np.stack([a0, a1, a2, p0, p1], axis=1)


class ErosionStructure:
    """Straight skeleton of a convex polygon: all its inner parallel bodies.

    ``intervals`` are the K event intervals in order, built on demand,
    ``breaks`` their K + 1 end radii from 0 to the inradius ``r_star``,
    and ``center_points`` the incenter set (one point, or the two ends of
    a segment).

    The build is event driven and does O(log n) work per dropped edge.
    The active edges form a doubly linked list; each keeps its length
    ``len0 + r * dlen`` and sits in two heaps with lazy deletion, one
    keyed by the radius at which its length reaches zero and one by a
    lower bound of the radius at which it reaches ``eps_len``.  Each
    step applies the length rule, then the tie rule, then takes the next
    event, with the exact predicates a full re-derivation would use: the
    length rule tests the edges whose bound has passed (and every edge
    when it is set), and drops are applied in ascending edge order.
    When edges vanish, only the vertex that joins their surviving
    neighbours and the two edges meeting there are recomputed.  Each
    skeleton vertex is stored once (at most 2n rows), with the intervals
    in which it is born and dies, and each edge records the vertex pair
    at its ends whenever it is set.  The loop tracks only this topology.
    After it, the Steiner sums come from the pair lives in O(n + K): each
    pair's terms are taken at the start radius of the interval in which
    it appears and of the one in which it goes, binned per interval,
    and carried from interval to interval by the exact shift to each
    start radius.
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
        inf, length_bound = math.inf, _length_bound
        push, pop = heapq.heappush, heapq.heappop

        # vertex a joins edge a to edge nxt[a]; edge e runs from vertex
        # prv[e] to vertex e along the tangent (-ny, nx).  Each skeleton
        # vertex is one row: ends holds its two edges, and dies the interval
        # in which it goes (n, more than any interval index, while it
        # lives); marks[k] is the row count when interval k starts, which
        # gives the interval a row appears in.  cur[a] is the (Z, S) of
        # vertex a and row[a] its row.  pairs holds the rows (prv[e], e) of
        # edge e each time it is set: the Steiner sums come from their
        # lives after the loop.  A heap entry (key, e, ver) is stale once
        # edge e changed version, which it also does when it dies.
        T = N[:, ::-1] * [-1.0, 1.0]
        nl, dl, tl = N.tolist(), D.tolist(), T.tolist()
        nxt = [*range(1, n), 0]
        prv = [n - 1, *range(n - 1)]
        alive, ver = [True] * n, [0] * n
        len0, dlen = [0.0] * n, [0.0] * n
        cur, row, dies = [None] * n, [0] * n, []
        ends, pairs = [], []
        vanish_heap, length_heap = [], []
        pending = set()        # edges whose length bound has been passed
        breaks, marks, r_cur, count = [], [], 0.0, n

        def set_vertex(a):
            b = nxt[a]
            (ax, ay), (bx, by) = nl[a], nl[b]
            det = ax * by - ay * bx
            if det <= 1e-14:
                return False
            if cur[a] is not None:
                dies[row[a]] = len(breaks)
            row[a] = len(dies)
            cur[a] = ((dl[a] * by - ay * dl[b]) / det, (ax * dl[b] - dl[a] * bx) / det,
                      (ay - by) / det, (bx - ax) / det)
            dies.append(n)
            ends.extend((a, b))
            return True

        def set_edge(e):
            tx, ty = tl[e]
            p = prv[e]
            px, py, qx, qy = cur[p]
            zx, zy, sx, sy = cur[e]
            len0[e] = l0 = (zx - px) * tx + (zy - py) * ty
            dlen[e] = dl0 = (sx - qx) * tx + (sy - qy) * ty
            pairs.extend((row[p], row[e]))
            ver[e] = v = ver[e] + 1
            pending.discard(e)
            if dl0 < -1e-300 and -l0 / dl0 < inf:
                push(vanish_heap, (-l0 / dl0, e, v))
            if l0 + r_cur * dl0 <= eps_len:
                pending.add(e)
            elif dl0 < 0.0:
                key = length_bound(l0, dl0, eps_len)
                if key < inf:
                    push(length_heap, (key, e, v))

        def pop_through(heap, r):
            """Live edges whose key in heap is at most r, popped."""
            out = []
            while heap and heap[0][0] <= r:
                _, e, v = pop(heap)
                if ver[e] == v:
                    out.append(e)
            return out

        def drop(ks):
            """Remove edges ks at once; False when a new vertex is degenerate."""
            nonlocal count
            heads = []
            for k in ks:
                p, q = prv[k], nxt[k]
                nxt[p], prv[q] = q, p
                heads.append(p)
                alive[k] = False
                ver[k] += 1
                pending.discard(k)
                dies[row[k]] = len(breaks)
            count -= len(ks)
            if count < 3:
                return True
            if len(heads) == 1:
                # one edge vanishes: its surviving neighbours meet at p
                p = heads[0]
                if not set_vertex(p):
                    return False
                set_edge(p)
                set_edge(nxt[p])
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
        while not degenerate and count >= 3:
            while length_heap and length_heap[0][0] <= r_cur:
                _, e, v = pop(length_heap)
                if ver[e] == v:
                    pending.add(e)
            hit = pending and sorted(e for e in pending if len0[e] + r_cur * dlen[e] <= eps_len)
            if hit:
                # redundant constraints
                degenerate = not drop(hit)
                continue
            while vanish_heap and ver[vanish_heap[0][1]] != vanish_heap[0][2]:
                pop(vanish_heap)
            if not vanish_heap:
                break
            r_next = vanish_heap[0][0]
            if r_next <= r_cur + tie:
                degenerate = not drop(sorted(pop_through(vanish_heap, r_cur + tie)))
                continue
            breaks.append(r_cur)
            marks.append(len(dies))
            r_cur = r_next
            degenerate = not drop(sorted(pop_through(vanish_heap, r_next + tie)))

        if not breaks:
            raise DegenerateError("polygon admits no interior offset structure")
        self.r_star = r_cur
        self.breaks = np.array(breaks + [r_cur])
        K = len(breaks)

        # every row's path, by the expressions of set_vertex, and the
        # intervals in which it appears and goes (K if it lives at r*, so
        # that breaks[dies] is the radius at which it goes)
        ends = np.array(ends, dtype=np.intp).reshape(-1, 2)
        paths = _vertex_paths(N, D, ends[:, 0], ends[:, 1])
        born = np.searchsorted(marks, np.arange(len(dies)), side="right")
        dies = np.minimum(dies, K)
        # Steiner coefficients per interval in t = r - r_lo: area = a0 + a1 t
        # + a2 t^2 and perimeter p0 + p1 t.  Expanding about the interval
        # start (not r = 0) and the vertex mean keeps far-off points from
        # cancelling.
        pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        coefs = _steiner_sums(self.breaks, ends[:, 0], paths, born, dies, pairs, T)

        # every vertex that lives in some interval, sorted by edge: within
        # an interval the rows then come in CCW order from the lowest edge
        keep = np.flatnonzero(born < dies)
        keep = keep[np.argsort(ends[keep, 0], kind="stable")]
        edges = ends[keep, 0]
        Z = np.ascontiguousarray(paths[:2, keep].T) + c
        S = np.ascontiguousarray(paths[2:, keep].T)
        born, dies = born[keep], dies[keep]
        # the rows as exit_radius reads them: edge, next edge, Z, S, born, dies
        self._vertices = edges, ends[keep, 1], Z, S, born, dies
        self.intervals = EventIntervals(self.breaks, edges, Z, S, N[edges], poly.offsets[edges],
                                        born, dies)

        r_lo = self.breaks[:-1]
        self._area_poly = 0.5 * coefs[:, :3]
        self._perim_poly = coefs[:, 3:]
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
        i, j, d = _farthest_pair(pts)
        if d <= EPS_GEOM * self.scale:
            self.center_points = pts.mean(axis=0)[None, :]
        else:
            self.center_points = np.stack([pts[i], pts[j]])

    # -- queries ------------------------------------------------------------

    def interval_index(self, r):
        idx = np.searchsorted(self.breaks, r, side="right") - 1
        return np.clip(idx, 0, len(self.intervals) - 1)

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

        At r = 0 the core is the domain polygon, as in core_body(0); other
        points are grouped by event interval and evaluated in blocks of at
        most CHUNK_ENTRIES point-vertex pairs, so temporaries stay bounded.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.broadcast_to(np.asarray(r, dtype=float), (pts.shape[0],))
        out = np.empty(pts.shape[0])
        at0 = r == 0.0
        if np.any(at0):
            out[at0] = self.core_body(0.0).distance(pts[at0])
        idx = np.where(at0, -1, self.interval_index(r))
        order = np.argsort(idx, kind="stable")[np.count_nonzero(at0):]
        ks, first = np.unique(idx[order], return_index=True)
        for k, lo, hi in zip(ks, first, [*first[1:], len(order)]):
            iv = self.intervals[k]
            step = max(1, CHUNK_ENTRIES // len(iv.Z))
            for s in range(lo, hi, step):
                sel = order[s:min(s + step, hi)]
                rr = r[sel, None]
                out[sel] = _polygon_distance(pts[sel], iv.Z[:, 0] + rr * iv.S[:, 0],
                                             iv.Z[:, 1] + rr * iv.S[:, 1],
                                             iv.normals, iv.offsets - rr)
        return out

    def exit_radius(self, points):
        """Largest r with each point of the domain in the opening at r.

        One pass over the skeleton vertices, each with the radii
        [r_lo, r_hi] it lives over.  Point x lies in the disk of radius r
        about vertex Z + r S exactly for r between the roots of

            (|S|^2 - 1) r^2 - 2 r (x - Z).S + |x - Z|^2 = 0,

        whose discriminant factors as |S|^2 s_a s_b, with s_a, s_b >= 0 the
        distances from x to the vertex's two edge lines.  A vertex alive at
        r lies in core(r), so each radius of [r_lo, r_hi] between the roots
        keeps x in the opening; and x leaves the opening through the arc of
        a vertex alive there.  The exit radius is the largest such radius
        over all vertices (0 if there is none).  Points go in blocks of at
        most CHUNK_ENTRIES point-vertex pairs.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        edges, next_edges, Z, S, born, dies = self._vertices
        N, D = self.polygon.normals, self.polygon.offsets
        (nax, nay), (nbx, nby) = N[edges].T, N[next_edges].T
        da, db = D[edges], D[next_edges]
        r_lo = self.breaks[born]
        r_hi = self.breaks[dies]
        speed2 = np.sum(S * S, axis=1)
        a = speed2 - 1.0
        out = np.empty(len(pts))
        step = max(1, CHUNK_ENTRIES // len(Z))
        for s in range(0, len(pts), step):
            # elementwise, not a matmul: the bits then do not depend on the block
            px, py = pts[s:s + step, 0:1], pts[s:s + step, 1:2]
            s_a = np.maximum(da - (px * nax + py * nay), 0.0)
            s_b = np.maximum(db - (px * nbx + py * nby), 0.0)
            wx = px - Z[:, 0]
            wy = py - Z[:, 1]
            b = wx * S[:, 0] + wy * S[:, 1]
            c = wx * wx + wy * wy
            q = b + np.sqrt(speed2 * s_a * s_b)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                r_out = np.where(a > 0.0, q / a, np.inf)
                r_in = np.where(q > 0.0, c / q, np.where(c > 0.0, np.inf, 0.0))
            hit = (r_in <= r_hi) & (r_out >= r_lo)
            out[s:s + step] = np.max(np.where(hit, np.minimum(r_out, r_hi), 0.0), axis=1)
        return out

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
        i, j, d = _farthest_pair(pts)
        if d < EPS_GEOM * scale:
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
