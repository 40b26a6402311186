"""Exact 2D convex geometry.

Validated convex polygons, their erosion event structure (every inner
parallel body, and by the Steiner formula the area of every opening),
largest inscribed balls and convex hulls.

All functions are pure and the returned objects are treated as
immutable, with one exception: an ErosionStructure forms its Steiner
polynomials on their first read (a concurrent first read at worst forms
them twice).
"""

import heapq
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateError, NonConvexError

EPS_GEOM = 1e-9       # length tolerance, relative to the domain scale
EPS_AREA = 1e-12      # area tolerance, relative to scale**2
DELTA_COLLAPSE = 1e-9
CHUNK_ENTRIES = 1 << 14   # points x vertices per block of the per-point kernels
ROW_CHUNK = 64            # skeleton vertices per pass of exit_radius


@dataclass(frozen=True, eq=False)
class ConvexPolygon:
    """Strictly convex polygon with CCW vertices.

    Build through :func:`validate_polygon`; the derived fields (edge
    normals, offsets and lengths, scale, area and bounding box) are
    filled there, and every layer reads them from here.  ``normals[i]``
    is the outward unit normal of edge ``vertices[i] -> vertices[i+1]``,
    ``lengths[i]`` its length, and the interior is
    ``{x : normals[i] . x <= offsets[i] for all i}``.
    """

    vertices: np.ndarray            # (n, 2) float64, CCW
    normals: np.ndarray             # (n, 2) outward unit normals
    offsets: np.ndarray             # (n,)
    lengths: np.ndarray             # (n,) edge lengths
    scale: float                    # bounding-box diagonal
    area: float                     # shoelace area, > 0
    lo: np.ndarray                  # (2,) bounding-box corners
    hi: np.ndarray
    reversed_input: bool = False    # CW input was silently reoriented

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

    def contains_lattice(self, xs, ys):
        """contains_point at every (xs[i], ys[j]), as a (len(ys), len(xs)) mask.

        xs must be nondecreasing.  Along a row, edge i's rounded excess
        fl(fl(fl(x nx_i) + fl(y ny_i)) - d_i) is monotone in x, because
        every rounding step is monotone: nondecreasing for nx_i >= 0
        (constant for nx_i = 0) and nonincreasing for nx_i < 0.  So the
        edge's test <= tol holds on a prefix of the row (nx_i >= 0) or on
        a suffix (nx_i < 0), and the row's members are the intersection of
        these.  Each (row, edge) boundary is found by a bisection over the
        columns that evaluates contains_point's expression and default
        tolerance, so the mask is bitwise contains_point's at O(rows edges
        log cols) cost.  Rows go in blocks of at most CHUNK_ENTRIES pairs.
        """
        tol = EPS_GEOM * self.scale
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        m = len(xs)
        nx, ny = self.normals.T
        suffix = nx < 0.0
        start, end = np.empty(len(ys), np.intp), np.empty(len(ys), np.intp)
        step = max(1, CHUNK_ENTRIES // len(nx))
        for s in range(0, len(ys), step):
            cy = ys[s:s + step, None] * ny
            # the first column at which the edge's test passes (suffix
            # edges) or fails (the others), found bit by bit
            pos = np.zeros(cy.shape, np.intp)
            bit = (1 << m.bit_length()) >> 1
            while bit:
                cand = pos + bit
                e = xs.take(np.minimum(cand, m) - 1) * nx
                e += cy
                e -= self.offsets
                pos += bit * ((cand <= m) & ((e > tol) == suffix))
                bit >>= 1
            start[s:s + step] = np.max(pos, axis=1, where=suffix, initial=0)
            end[s:s + step] = np.min(pos, axis=1, where=~suffix, initial=m)
        cols = np.arange(m)
        return (cols >= start[:, None]) & (cols < end[:, None])


@dataclass(frozen=True, eq=False)
class ErodedBody:
    """Inner parallel body of a convex polygon at some erosion radius.

    ``kind`` is one of "polygon", "segment", "point", "empty"; ``points``
    holds the polygon vertices, the two segment endpoints, the single
    point, or an empty (0, 2) array.
    """

    kind: str
    points: np.ndarray


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
    gives at most two; of equal points, only the first can be a vertex.

    Two phases in one pass.  First a segmented quickhull (Eddy 1977;
    Barber, Dobkin & Huhdanpaa 1996): each set starts as the two directed
    edges between its leftmost-then-lowest and rightmost-then-highest
    points.  Each round splits every edge that has points outside it at
    the farthest of them (of tied ones, the farthest along the edge, then
    the first), found by one ``np.maximum.at`` over edge ids, and keeps,
    in input order, only the points outside one of the two new edges.
    Once a round keeps more than half of the points it split, they are
    mostly in convex position (as on the report's level sets), and
    monotone chains (Andrew 1979) finish every edge at once, in passes
    over one compacted sequence of every edge's points: see
    ``_hull_chains``, which may hand them back for another round.  Points
    in general position (the sweep's random competitors) keep
    quickhulling until none is left.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    counts = np.asarray(counts, dtype=np.intp)
    sets = np.flatnonzero(counts)
    if not len(sets):
        return np.empty(0, np.intp), np.zeros(len(counts), np.intp)
    x, y = pts[:, 0], pts[:, 1]
    at = (np.cumsum(counts) - counts)[sets]
    own = np.repeat(np.arange(len(sets)), counts[sets])

    def extreme(fn, pad):   # leftmost-then-lowest (min) or rightmost-then-highest (max)
        on = x == fn.reduceat(x, at)[own]
        on &= y == fn.reduceat(np.where(on, y, pad), at)[own]
        first = on.nonzero()[0]
        return first[np.searchsorted(first, at)]

    def gather(v, index, out):   # v[index] into out
        return v.take(index, out=out, mode="clip")

    a, b = extreme(np.minimum, np.inf), extreme(np.maximum, -np.inf)
    # edges a -> b (lower chain) and b -> a (upper chain) per set, only the first if a == b
    live = np.stack([np.ones(len(a), bool), a != b], 1).ravel()
    ea, eb = np.stack([a, b], 1).ravel()[live], np.stack([b, a], 1).ravel()[live]
    es = np.repeat(sets, 2)[live]
    g = x[a][own]
    d = x - g
    d *= gather(y[b] - y[a], own, g)
    t = np.subtract(y, gather(y[a], own, g), out=g)
    t *= (x[b] - x[a])[own]
    d -= t   # > 0: below a -> b
    del g, t
    pe = (np.cumsum(live) - 1)[2 * own + (d < 0.0)]
    del own
    pd, pi, split = np.abs(d, out=d), None, False
    while True:
        # the points outside an edge, in input order: index, edge, distance
        out = pd > 0.0
        n = np.count_nonzero(out)
        if not n:
            return ea, np.bincount(es, minlength=len(counts))
        pe = pe[out]
        pi = out.nonzero()[0] if pi is None else pi[out]
        if split and 2 * n > len(pd):   # mostly in convex position
            del out, pd
            hulls, rest = _hull_chains(x, y, ea, eb, es, pi, pe, len(counts))
            if hulls is not None:
                return hulls
            pi, pe, pd = rest   # the chains stalled: split their points first
            split = False
            continue
        split = True
        pd = pd[out]
        del out
        best = np.zeros(len(ea))
        np.maximum.at(best, pe, pd)
        hit = (pd == best[pe]).nonzero()[0]
        e = best.nonzero()[0]   # the edges with points outside, and their ends:
        ax, ay, bx, by = x[ea], y[ea], x[eb], y[eb]
        if len(hit) > len(e):   # ties: the one farthest along the edge, then the first
            g = pe[hit]
            along = (x[pi[hit]] - ax[g]) * (bx - ax)[g] + (y[pi[hit]] - ay[g]) * (by - ay)[g]
            hit = hit[np.lexsort((-along, g))]
            hit = hit[np.diff(pe[hit], prepend=-1) > 0]
        c = np.zeros(len(ea), np.intp)
        c[pe[hit]] = pi[hit]
        cx, cy = x[c], y[c]
        # edge e splits into a -> c and c -> b, at positions new[e] and new[e] + 1
        grow = 1 + (best > 0.0)
        new = np.cumsum(grow) - grow
        ea, eb, es = np.repeat(np.stack([ea, eb, es]), grow, axis=1)
        ea[new[e] + 1], eb[new[e]] = c[e], c[e]
        # d1 = (px - ax) (cy - ay) - (py - ay) (cx - ax) > 0 outside a -> c and
        # d2 likewise outside c -> b, formed in place; pd is spent, a buffer
        px, py = x[pi], y[pi]
        d1 = px - gather(ax, pe, pd)
        d1 *= gather(cy - ay, pe, pd)
        d2 = py - gather(ay, pe, pd)
        d2 *= gather(cx - ax, pe, pd)
        d1 -= d2
        np.subtract(px, gather(cx, pe, pd), out=d2)
        d2 *= gather(by - cy, pe, pd)
        np.subtract(py, gather(cy, pe, px), out=py)
        py *= gather(bx - cx, pe, pd)
        d2 -= py
        del px, py
        side = d1 <= 0.0
        pe = new[pe]
        pe += side
        np.copyto(d1, d2, where=side)
        pd = d1
        del d2, side


def _hull_chains(x, y, ea, eb, es, pi, pe, nsets):
    """Finish ``convex_hulls`` from its open edges ea -> eb (of set es, in
    CCW order) and the points pi outside edge pe, in input order.

    Each edge's points lie between its ends along its chain.  They are
    sorted by x then y (both reversed on the upper chain), of equal points
    only the first is kept (two copies would drop each other), and the
    edges are laid out as one sequence: each edge's start, its points, its
    end.  Each pass (``_chain_pass``) tests every point against its
    neighbours in the sequence, the edges' ends fixed, and the sequence is
    compacted to what the pass keeps, until a pass drops nothing.  A point
    whose neighbours did not change keeps its turn, so after the first
    pass only the neighbours of dropped points can drop; the report's
    level sets take about four passes.  Returns ((vertices, counts),
    None), or (None, (pi, pe, pd)) once a pass from the eighth on drops
    some but under 1/64 of the points left (as when a convex run ends at
    a farther split point: each pass drops its last point): the points
    left, in input order, their edges and distances outside them, for
    quickhull.
    """
    sign = np.where((x[ea] < x[eb]) | ((x[ea] == x[eb]) & (y[ea] < y[eb])), 1.0, -1.0)
    key = x[pi]
    key *= sign[pe]
    # by edge, then x (ties in any order), then each run of equal x by y and input order
    order = np.argsort(key)
    narrow = np.min_scalar_type(len(ea))   # a radix sort for up to 65536 edges
    order = order[np.argsort(pe[order].astype(narrow), kind="stable")]
    key = key[order]
    tie = pe[order]
    tie = (tie[1:] == tie[:-1]) & (key[1:] == key[:-1])
    if tie.any():
        run = np.cumsum(np.concatenate([[True], ~tie]))
        t = np.concatenate([tie, [False]]) | np.concatenate([[False], tie])
        t = t.nonzero()[0]
        o = order[t]
        order[t] = o[np.lexsort((o, sign[pe[o]] * y[pi[o]], run[t]))]
    del key, tie
    pi, pe = pi[order], pe[order]
    del order
    # of equal points, the first
    first = np.ones(len(pi), bool)
    px, py = x[pi], y[pi]
    first[1:] = (pe[1:] != pe[:-1]) | (px[1:] != px[:-1]) | (py[1:] != py[:-1])
    del px, py
    pi, pe = pi[first], pe[first]
    del first
    # one sequence of positions: each edge's start (edge id -1), its points
    # (their edge id), its end (-2)
    k, m = len(ea), len(pi)
    head = 2 * np.arange(k) + np.searchsorted(pe, np.arange(k))
    tail = np.append(head[1:], 2 * k + m) - 1
    at = np.arange(m) + 2 * pe + 1
    ids = np.empty(2 * k + m, np.intp)
    ids[head], ids[at], ids[tail] = ea, pi, eb
    edge = np.full(2 * k + m, -1, np.intp)
    edge[at], edge[tail] = pe, -2
    del pi, pe, head, tail, at
    X, Y = x[ids], y[ids]
    passes = 0
    while True:
        keep = _chain_pass(X, Y, edge)
        passes += 1
        dropped = len(keep) - np.count_nonzero(keep)
        if not dropped:
            break
        keep = keep.nonzero()[0]
        X, Y, ids, edge = X.take(keep), Y.take(keep), ids.take(keep), edge.take(keep)
        m -= dropped
        if passes >= 8 and 64 * dropped < m:
            pi, pe = ids[edge >= 0], edge[edge >= 0]
            order = np.argsort(pi)
            pi, pe = pi[order], pe[order]
            a, b = ea[pe], eb[pe]
            return None, (pi, pe, (x[pi] - x[a]) * (y[b] - y[a]) - (y[pi] - y[a]) * (x[b] - x[a]))
    counts = np.bincount(es, minlength=nsets) + np.bincount(es[edge[edge >= 0]], minlength=nsets)
    return (ids[edge != -2], counts), None


def _chain_pass(X, Y, edge):
    """The positions to keep: the fixed ones (edge < 0) and the points that
    turn left between their neighbours."""
    d = X[1:-1] - X[:-2]
    d *= Y[2:] - Y[:-2]
    t = Y[1:-1] - Y[:-2]
    t *= X[2:] - X[:-2]
    d -= t
    keep = edge < 0
    keep[1:-1] |= d > 0.0
    return keep


# ---------------------------------------------------------------------------
# validation and plain measures


def validate_polygon(vertices) -> ConvexPolygon:
    """Validate a vertex list and return a normalized CCW ConvexPolygon.

    Rejects non-numeric or ragged input (strings and booleans included,
    which numpy would convert), non-finite coordinates, a span whose
    square overflows, duplicate vertices, collinear runs and non-convex
    chains: each turn must have a sine above EPS_GEOM, whatever the edge
    lengths.  CW input is reversed (recorded on the result).
    """
    try:
        arr = np.asarray(vertices)
        if arr.dtype.kind not in "iuf":
            raise TypeError
    except (TypeError, ValueError):
        raise DegenerateError("vertices must be an (n, 2) array of numbers") from None
    arr = arr.astype(float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DegenerateError("vertices must be an (n, 2) array of points")
    if len(arr) < 3:
        raise DegenerateError("need at least 3 vertices")
    if not np.all(np.isfinite(arr)):
        raise DegenerateError("non-finite vertex coordinates")

    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    with np.errstate(over="ignore"):
        span = hi - lo
        scale = float(np.linalg.norm(span))
    if not math.isfinite(scale * scale):
        raise DegenerateError(f"coordinate span {span.tolist()} overflows when squared")
    if scale <= 0.0:
        raise DegenerateError("all vertices coincide")

    e = np.roll(arr, -1, axis=0) - arr
    lens = np.linalg.norm(e, axis=1)
    if np.any(lens <= EPS_GEOM * scale):
        raise DegenerateError("duplicate consecutive vertices")

    # sine of the turn at each vertex: an absolute threshold on the cross
    # products would reject every smooth polygon of a few thousand vertices
    e1 = np.roll(e, -1, axis=0)
    sine = (e[:, 0] * e1[:, 1] - e[:, 1] * e1[:, 0]) / (lens * np.roll(lens, -1))
    reversed_input = bool(np.all(sine < -EPS_GEOM))
    if reversed_input:
        arr = arr[::-1].copy()
        e = np.roll(arr, -1, axis=0) - arr
        lens = np.linalg.norm(e, axis=1)
    elif not np.all(sine > EPS_GEOM):
        raise NonConvexError("vertex chain is not strictly convex")

    area = _shoelace(arr)
    if area <= 0.0:
        raise DegenerateError("polygon has non-positive area")

    normals = np.stack([e[:, 1], -e[:, 0]], axis=1) / lens[:, None]
    # average the two endpoint projections for a stable offset
    offsets = 0.5 * (np.sum(normals * arr, axis=1)
                     + np.sum(normals * np.roll(arr, -1, axis=0), axis=1))
    return ConvexPolygon(vertices=arr, normals=normals, offsets=offsets, lengths=lens,
                         scale=scale, area=area, lo=lo, hi=hi,
                         reversed_input=reversed_input)


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
# event loop tracks only this topology; the Steiner sums are formed from
# the life of each edge's vertex pair (_steiner_sums) when a query first
# reads them.


class EventInterval(NamedTuple):
    """Radii [r_lo, r_hi] over which the eroded core keeps its combinatorics.

    ``edges`` indexes the polygon edges still active, in CCW order (their
    lines are the polygon's ``normals`` and ``offsets`` at ``edges``).
    Core vertex i lies between edges[i] and edges[i+1] and moves on
    ``Z[i] + r * S[i]``.
    """

    r_lo: float
    r_hi: float
    edges: np.ndarray
    Z: np.ndarray
    S: np.ndarray


class EventIntervals(Sequence):
    """The K event intervals as a read-only sequence, each built when asked for.

    Rows are the skeleton vertices, each stored once and sorted by edge;
    a row belongs to interval k when ``born <= k < dies``, so interval k
    is one mask over the rows.
    """

    def __init__(self, breaks, edges, Z, S, born, dies):
        self._breaks = breaks.tolist()
        self._rows = edges, Z, S
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
        edges, Z, S = self._rows
        return EventInterval(self._breaks[k], self._breaks[k + 1], edges.take(sel),
                             Z.take(sel, axis=0), S.take(sel, axis=0))


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


def _collapsed(pts, scale) -> ErodedBody:
    """The point or segment that core vertices pts of no area collapse to: a
    point when their farthest pair is at most EPS_GEOM * scale apart."""
    i, j, d = _farthest_pair(pts)
    if d <= EPS_GEOM * scale:
        return ErodedBody("point", pts.mean(axis=0)[None, :])
    return ErodedBody("segment", np.stack([pts[i], pts[j]]))


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
    lo = np.maximum(born[pairs[:, 0]], born[pairs[:, 1]])
    hi = np.minimum(dies[pairs[:, 0]], dies[pairs[:, 1]])

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


def _first_events(N, D, T, tie, eps_len):
    """The first n vertices and edges of the event loop, set at once by its
    expressions: ((n, 4) vertex paths Z, S, len0, dlen, the vanish and
    length heaps, the pending edges).
    """
    (ax, ay), (bx, by), db = N.T, np.concatenate([N[1:], N[:1]]).T, np.append(D[1:], D[0])
    det = ax * by - ay * bx
    if (det <= 1e-14).any():   # adjacent edges (anti)parallel: degenerate from the start
        raise DegenerateError("polygon admits no interior offset structure")
    zt = np.array([D * by - ay * db, ax * db - D * bx, ay - by, bx - ax])
    zt /= det
    (tx, ty), (wx, wy, vx, vy) = T.T, zt - np.concatenate([zt[:, -1:], zt[:, :-1]], axis=1)
    l0, dl0 = wx * tx + wy * ty, vx * tx + vy * ty
    key = np.empty(len(D))   # filled, so that a bound of one value holds for every edge
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vk, key[:] = -l0 / dl0, _length_bound(l0, dl0, eps_len)
    has_v = (dl0 < -1e-300) & (vk < math.inf)
    pend = l0 + 0.0 * dl0 <= eps_len   # the length rule at r = 0
    has_l = (dl0 < 0.0) & (key < math.inf) & ~(pend | has_v & (vk <= key + tie))
    vanish_heap = [(k, e, 1) for k, e in zip(vk[has_v].tolist(), has_v.nonzero()[0].tolist())]
    length_heap = [(k, e, 1) for k, e in zip(key[has_l].tolist(), has_l.nonzero()[0].tolist())]
    heapq.heapify(vanish_heap)
    heapq.heapify(length_heap)
    pending = set(pend.nonzero()[0].tolist())
    return zt.T, l0.tolist(), dl0.tolist(), vanish_heap, length_heap, pending


def _skeleton_events(N, D, T, tie, eps_len):
    """The event loop of ErosionStructure: (r*, breaks, marks, dies, ends, zs, pairs).

    Edge lines N . x = D with tangents T, about the vertex mean; see the
    class docstring for the rules.  The loop has a function of its own,
    with little code before it, because under tracemalloc an allocation
    costs more the deeper into its code object it happens.
    """
    # vertex a joins edge a to edge nxt[a]; edge e runs from vertex
    # prv[e] to vertex e along the tangent (-ny, nx).  Each skeleton
    # vertex is one row: ends holds its two edges, and dies the interval
    # in which it goes (n, more than any interval index, while it
    # lives); marks[k] is the row count when interval k starts, which
    # gives the interval a row appears in.  cur[a] is the (Z, S) of
    # vertex a, row[a] its row and zs every row's (Z, S), back to back.
    # pairs holds the rows (prv[e], e) of edge e each time it is set:
    # the Steiner sums come from their lives after the loop.  A heap
    # entry (key, e, ver) is stale once edge e changed version, which
    # it also does when it dies; pending holds the edges whose length
    # bound has passed.
    z, len0, dlen, vanish_heap, length_heap, pending = _first_events(N, D, T, tie, eps_len)
    n, inf, push, pop = len(D), math.inf, heapq.heappush, heapq.heappop
    nl, dl, tl = N.tolist(), D.tolist(), T.tolist()
    nxt, prv = [*range(1, n), 0], [n - 1, *range(n - 1)]
    alive, ver, row, dies = [True] * n, [1] * n, [*range(n)], [n] * n
    cur, zs = z.tolist(), z.ravel().tolist()
    ends, pairs, breaks, marks = [0] * (2 * n), [0] * (2 * n), [], []
    ends[::2], ends[1::2], pairs[::2], pairs[1::2] = row, nxt, prv, row
    r_cur, count = 0.0, n

    while True:   # the length rule, the tie rule or the next event drops edges ks
        while length_heap and length_heap[0][0] <= r_cur:
            _, e, v = pop(length_heap)
            if ver[e] == v:
                pending.add(e)
        ks = pending and sorted(e for e in pending if len0[e] + r_cur * dlen[e] <= eps_len)
        if not ks:   # no redundant constraint: the tie rule, or the next event
            while vanish_heap and ver[vanish_heap[0][1]] != vanish_heap[0][2]:
                pop(vanish_heap)
            if not vanish_heap:
                break
            r_next = vanish_heap[0][0]
            if r_next > r_cur + tie:
                breaks.append(r_cur)
                marks.append(len(dies))
                r_cur = r_next
            ks = [pop(vanish_heap)[1]]   # the top entry, live once the stale ones are gone
            while vanish_heap and vanish_heap[0][0] <= r_cur + tie:
                _, e, v = pop(vanish_heap)
                if ver[e] == v:
                    ks.append(e)
            ks.sort()
        # remove the edges ks at once and join their surviving neighbours
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
            break
        if len(ks) > 1:
            heads = [p for p in dict.fromkeys(heads) if alive[p]]
            reset = dict.fromkeys(e for p in heads for e in (p, nxt[p]))
        else:   # one edge: its neighbours p, q meet at vertex p
            reset = p, q
        for a in heads:   # the vertex that joins edge a to its new next edge
            b = nxt[a]
            (ax, ay), (bx, by) = nl[a], nl[b]
            det = ax * by - ay * bx
            if det <= 1e-14:
                break
            dies[row[a]] = len(breaks)
            row[a] = len(dies)
            cur[a] = z = ((dl[a] * by - ay * dl[b]) / det, (ax * dl[b] - dl[a] * bx) / det,
                          (ay - by) / det, (bx - ax) / det)
            zs.extend(z)
            dies.append(n)
            ends.extend((a, b))
        else:
            for e in reset:
                tx, ty = tl[e]
                p = prv[e]
                px, py, qx, qy = cur[p]
                zx, zy, sx, sy = cur[e]
                len0[e] = l0 = (zx - px) * tx + (zy - py) * ty
                dlen[e] = dl0 = (sx - qx) * tx + (sy - qy) * ty
                pairs.extend((row[p], row[e]))
                ver[e] = v = ver[e] + 1
                pending.discard(e)
                vk = -l0 / dl0 if dl0 < -1e-300 else inf
                if vk < inf:
                    push(vanish_heap, (vk, e, v))
                if l0 + r_cur * dl0 <= eps_len:
                    pending.add(e)
                elif dl0 < 0.0:
                    key = _length_bound(l0, dl0, eps_len)
                    if key < inf and not vk <= key + tie:
                        push(length_heap, (key, e, v))
            continue
        break   # a new vertex is degenerate

    return r_cur, breaks, marks, dies, ends, zs, pairs


# the per-interval Steiner polynomials, which ErosionStructure forms on first read
_STEINER_ARRAYS = ("_area_poly", "_perim_poly", "_opening_poly", "_opening_at_ends")


class ErosionStructure:
    """Straight skeleton of a convex polygon: all its inner parallel bodies.

    ``intervals`` are the K event intervals in order, built on demand,
    ``breaks`` their K + 1 end radii from 0 to the inradius ``r_star``,
    and ``center_points`` the incenter set (one point, or the two ends of
    a segment).  These and the skeleton vertices are set by the build.
    The Steiner polynomials of the core and opening measures are formed
    on their first read (``__getattr__``), so a structure that only
    serves disk and stadium minimizers never forms them.

    The build is event driven and does O(log n) work per dropped edge.
    The active edges form a doubly linked list; each keeps its length
    ``len0 + r * dlen`` and sits in two heaps with lazy deletion, one
    keyed by the radius at which its length reaches zero and one by a
    lower bound of the radius at which it reaches ``eps_len``.  Each
    step applies the length rule, then the tie rule, then takes the next
    event, with the exact predicates a full re-derivation would use: the
    length rule tests the edges whose bound has passed (and every edge
    when it is set), and drops are applied in ascending edge order.  An
    edge that vanishes within a tie of its bound gets no length entry:
    the radius only moves at an event, and the event that passes the
    bound drops the edge (a bound passed when the edge is set would only
    make it pending, and the length test fails there until the tie rule
    drops it).  The first n vertices and edges are set as arrays, by the
    expressions that set later ones.  When edges vanish, only the vertex
    that joins their surviving neighbours and the two edges meeting
    there are recomputed.  Most events drop one edge, the top live entry
    of the vanish heap, and set one vertex and its two edges without
    the deduplication that tied drops need.  Each skeleton vertex is
    stored once (at most 2n rows), with the intervals in which it is
    born and dies, and each edge records the vertex pair at its ends
    whenever it is set.  The loop tracks only this topology.  The
    Steiner sums come from the pair lives in O(n + K): each pair's terms
    are taken at the start radius of the interval in which it appears
    and of the one in which it goes, binned per interval, and carried
    from interval to interval by the exact shift to each start radius.
    """

    def __init__(self, polygon: ConvexPolygon):
        self.polygon = polygon
        self._build()

    def _build(self):
        poly = self.polygon
        # vertices are solved about the vertex mean c, with the edge offsets
        # taken from the centred vertices as validate_polygon does: far from
        # the origin the offsets' rounding, amplified where lines meet at a
        # small angle, would otherwise move the vertices
        c = poly.vertices.mean(axis=0)
        N, P = poly.normals, poly.vertices - c
        D = 0.5 * ((N * P).sum(axis=1) + (N * np.concatenate([P[1:], P[:1]])).sum(axis=1))
        tie = 1e-11 * poly.scale
        eps_len = 1e-12 * poly.scale
        T = N[:, ::-1] * [-1.0, 1.0]
        r_cur, breaks, marks, dies, ends, zs, pairs = _skeleton_events(N, D, T, tie, eps_len)

        if not breaks:
            raise DegenerateError("polygon admits no interior offset structure")
        self.r_star = r_cur
        self.breaks = np.array(breaks + [r_cur])
        K = len(breaks)

        # every row's path as (4, rows): Zx, Zy, Sx, Sy, and the intervals
        # in which it appears and goes (K if it lives at r*, so that
        # breaks[dies] is the radius at which it goes)
        ends = np.array(ends, dtype=np.intp).reshape(-1, 2)
        paths = np.fromiter(zs, float, len(zs)).reshape(-1, 4).T
        born = np.searchsorted(marks, np.arange(len(dies)), side="right")
        dies = np.minimum(dies, K)
        # what the Steiner polynomials are formed from, on their first read
        pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        self._steiner_input = ends[:, 0], paths, born, dies, pairs, T

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
        self.intervals = EventIntervals(self.breaks, edges, Z, S, born, dies)

        # limit of the vertex paths at r*: the set of incenter positions
        last = self.intervals[-1]
        self.center_points = _collapsed(last.Z + self.r_star * last.S, poly.scale).points

    def __getattr__(self, name):
        """The Steiner polynomials, formed on their first read.

        Steiner coefficients per interval in t = r - r_lo: area = a0 + a1 t
        + a2 t^2 and perimeter p0 + p1 t.  Expanding about the interval
        start (not r = 0) and the vertex mean keeps far-off points from
        cancelling.  All four arrays are set together, before the build's
        input to them is let go, so a concurrent first read at worst forms
        the same arrays twice.
        """
        state = self.__dict__.get("_steiner_input")
        if state is None or name not in _STEINER_ARRAYS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        coefs = _steiner_sums(self.breaks, *state)
        r_lo = self.breaks[:-1]
        area_poly, perim_poly = 0.5 * coefs[:, :3], coefs[:, 3:]
        (a0, a1, a2), (p0, p1) = area_poly.T, perim_poly.T
        # opening area A + r P + pi r^2 = c0 + c1 t + c2 t^2 per interval, and
        # the running minimum of its values at the interval ends: the tie rule
        # can leave rounding-sized steps at the breaks, which this keeps
        # monotone
        opening_poly = np.stack([
            a0 + r_lo * (p0 + np.pi * r_lo),
            a1 + p0 + r_lo * (p1 + 2.0 * np.pi),
            a2 + p1 + np.pi], axis=1)
        c0, c1, c2 = opening_poly.T
        t_end = np.diff(self.breaks)
        opening_at_ends = np.minimum.accumulate(c0 + t_end * (c1 + t_end * c2))
        self.__dict__.update(zip(_STEINER_ARRAYS, (area_poly, perim_poly, opening_poly,
                                                  opening_at_ends)))
        self.__dict__.pop("_steiner_input", None)
        return self.__dict__[name]

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

    def distance_to_core(self, points, r):
        """Distance from points (m, 2) to the eroded core at per-point radii r.

        At r = 0 the core is the domain polygon, as in core_body(0), bounded
        by the lines through its own vertices; other points are grouped by
        event interval.  Points go in blocks of at most CHUNK_ENTRIES
        point-vertex pairs, so temporaries stay bounded.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.broadcast_to(np.asarray(r, dtype=float), (pts.shape[0],))
        out = np.empty(pts.shape[0])
        poly = self.polygon
        idx = np.where(r == 0.0, -1, self.interval_index(r))
        order = np.argsort(idx, kind="stable")
        ks, first = np.unique(idx[order], return_index=True)
        for k, lo, hi in zip(ks, first, [*first[1:], len(order)]):
            if k < 0:
                Z, N = poly.vertices, poly.normals
                S, D = np.zeros_like(Z), np.sum(N * Z, axis=1)
            else:
                _, _, edges, Z, S = self.intervals[k]
                N, D = poly.normals.take(edges, axis=0), poly.offsets.take(edges)
            step = max(1, CHUNK_ENTRIES // len(Z))
            for s in range(lo, hi, step):
                sel = order[s:min(s + step, hi)]
                rr = r[sel, None]
                out[sel] = _polygon_distance(pts[sel], Z[:, 0] + rr * S[:, 0],
                                             Z[:, 1] + rr * S[:, 1], N, D - rr)
        return out

    def exit_radius(self, points):
        """Largest r with each point of the domain in the opening at r.

        Each skeleton vertex lives over the radii [r_lo, r_hi].  Point x
        lies in the disk of radius r about vertex Z + r S exactly for r
        between the roots of

            (|S|^2 - 1) r^2 - 2 r (x - Z).S + |x - Z|^2 = 0,

        whose discriminant factors as |S|^2 s_a s_b, with s_a, s_b >= 0 the
        distances from x to the vertex's two edge lines.  A vertex alive at
        r lies in core(r), so each radius of [r_lo, r_hi] between the roots
        keeps x in the opening; and x leaves the opening through the arc of
        a vertex alive there.  The exit radius is the largest such radius
        over all vertices (0 if there is none).

        The vertices are visited in chunks of ROW_CHUNK, by descending
        death radius r_hi, and after each chunk a point retires once its
        running maximum reaches the largest r_hi of the next chunk.  This
        is exact: a vertex adds at most min(r_out, r_hi) <= r_hi, so every
        vertex a retired point skips would add no more than its maximum.
        Each value is the same elementwise expression for any chunk or
        block, and a maximum does not depend on the order it is taken in.
        Points go in blocks of at most CHUNK_ENTRIES point-vertex pairs:
        the kernel holds about a dozen arrays of a block's size at once,
        and blocks this small keep them in cache.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        edges, next_edges, Z, S, born, dies = self._vertices
        N, D = self.polygon.normals, self.polygon.offsets
        speed2 = np.sum(S * S, axis=1)
        r_hi = self.breaks[dies]
        # the vertices by descending death radius, one column each
        order = np.argsort(-r_hi, kind="stable")
        rows = np.stack([*N[edges].T, *N[next_edges].T, D[edges], D[next_edges], *Z.T, *S.T,
                         speed2, speed2 - 1.0, self.breaks[born], r_hi]).take(order, axis=1)
        out, best = np.empty(len(pts)), np.empty(len(pts))
        live, px, py = np.arange(len(pts)), pts[:, 0:1], pts[:, 1:2]   # the points left
        for lo in range(0, len(order), ROW_CHUNK):
            nax, nay, nbx, nby, da, db, zx, zy, sx, sy, speed2, a, r_lo, r_hi = \
                rows[:, lo:lo + ROW_CHUNK]
            step = max(1, CHUNK_ENTRIES // len(r_hi))
            for s in range(0, len(best), step):
                # elementwise, not a matmul: the bits then do not depend on the block
                x, y = px[s:s + step], py[s:s + step]
                s_a = np.maximum(da - (x * nax + y * nay), 0.0)
                s_b = np.maximum(db - (x * nbx + y * nby), 0.0)
                wx = x - zx
                wy = y - zy
                b = wx * sx + wy * sy
                c = wx * wx + wy * wy
                q = b + np.sqrt(speed2 * s_a * s_b)
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    r_out = np.where(a > 0.0, q / a, np.inf)
                    r_in = np.where(q > 0.0, c / q, np.where(c > 0.0, np.inf, 0.0))
                hit = (r_in <= r_hi) & (r_out >= r_lo)
                m = np.max(np.where(hit, np.minimum(r_out, r_hi), 0.0), axis=1)
                best[s:s + step] = m if lo == 0 else np.maximum(best[s:s + step], m)
            out[live] = best
            if lo + ROW_CHUNK < len(order):
                keep = (best < rows[-1, lo + ROW_CHUNK]).nonzero()[0]
                live, px, py, best = live[keep], px[keep], py[keep], best[keep]
        return out

    def core_body(self, r: float) -> ErodedBody:
        """Eroded core at radius r with the degeneracy collapse policy applied."""
        scale = self.polygon.scale
        if r < 0.0:
            raise ValueError("erosion radius must be nonnegative")
        if r > self.r_star * (1.0 + DELTA_COLLAPSE) + EPS_GEOM * scale:
            return ErodedBody("empty", np.empty((0, 2)))
        if r == 0.0:
            return ErodedBody("polygon", self.polygon.vertices)
        rr = min(r, self.r_star)
        iv = self.intervals[int(self.interval_index(rr))]
        pts = iv.Z + rr * iv.S
        area = _shoelace(pts)
        if area >= EPS_AREA * scale * scale:
            keep = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1) > EPS_GEOM * scale
            cleaned = pts[keep] if keep.sum() >= 3 else pts
            return ErodedBody("polygon", cleaned)
        return _collapsed(pts, scale)


# ---------------------------------------------------------------------------
# largest inscribed balls


def largest_balls(structure: ErosionStructure) -> LargestBallSet:
    """Inradius and incenter set of the structure's polygon.

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
    polygon, r_star, pts = structure.polygon, structure.r_star, structure.center_points
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

    centers = ErodedBody("point" if len(pts) == 1 else "segment", pts)
    length = float(np.linalg.norm(pts[-1] - pts[0]))
    ball = np.pi * r_star * r_star
    return LargestBallSet(inradius=r_star, centers=centers, midpoint=midpoint,
                          center_length=length, ball_measure=ball,
                          hull_measure=ball + 2.0 * r_star * length)
