"""Reference implementations, kept as test oracles.

Each one solves the same problem as the library by an independent,
slower route: the erosion structure by re-deriving every vertex from
scratch after each event, by scanning all edges at every event, and by
the sequential build that sets its first vertices one at a time;
the r <-> v inversion, the rank and the half-plane competitor's cut
offset by bisection, the inradius by a linear program, marching
squares by one full-grid pass per threshold, the Crofton transition
counts by shifting a padded copy of the grid, membership in and the
Steiner measures of a core + disk body from the core's own points, a
swap's counts and perimeter by reading its stencil one swap at a time,
the annealing chain by pricing every proposal that way, copying the best
state at each improvement and reading its boundary lists and swap
validity from the grid bytes, the competitor sweep one
competitor at a time, each hull by Qhull and by a quickhull that sorts
its points by edge every round, each half-plane cut by a root per
normal and a clip loop, the grid file writer by one ``repr`` per
cell, the SVG paths by one vertex at a time, and the CSV and graymap
writers by one f-string per number or cell.
"""

import heapq
import math
from types import SimpleNamespace

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from isoperim import geometry as geo
from isoperim import oracle as orc
from isoperim import svgout
from isoperim.errors import DegenerateError, SamplerInfeasibleError
from isoperim.oracle import AREA_TOL_REL, Competitor

RADIUS_ITERS = 80     # bisection depth for the r <-> v inversion
RANK_ITERS = 60       # bisection depth for entry radii (machine precision)
HALFPLANE_ITERS = 80  # bisection cap for the half-plane cut offset


def rederived_intervals(polygon):
    """Event intervals by full re-derivation of the active vertices per event.

    Returns (intervals, r_star); each interval is a dict with r_lo, r_hi,
    the active edges and the vertex paths Z + r S (Z_rel: Z less the
    polygon's vertex mean).  An empty list means
    the polygon admits no interior offset structure.
    """
    c = polygon.vertices.mean(axis=0)      # vertices are solved about c
    n_all, P = polygon.normals, polygon.vertices - c
    d_all = 0.5 * (np.sum(n_all * P, axis=1) + np.sum(n_all * np.roll(P, -1, axis=0), axis=1))
    tie = 1e-11 * polygon.scale
    eps_len = 1e-12 * polygon.scale
    active = list(range(len(d_all)))
    r_cur = 0.0
    intervals = []
    while len(active) >= 3:
        idx = np.array(active)
        N, D = n_all[idx], d_all[idx]
        Nn, Dn = np.roll(N, -1, axis=0), np.roll(D, -1)
        det = N[:, 0] * Nn[:, 1] - N[:, 1] * Nn[:, 0]
        if np.any(det <= 1e-14):
            break
        Z = np.stack([(D * Nn[:, 1] - N[:, 1] * Dn) / det,
                      (N[:, 0] * Dn - D * Nn[:, 0]) / det], axis=1)
        S = np.stack([(-Nn[:, 1] + N[:, 1]) / det,
                      (-N[:, 0] + Nn[:, 0]) / det], axis=1)
        tang = np.stack([-N[:, 1], N[:, 0]], axis=1)
        len0 = np.sum((Z - np.roll(Z, 1, axis=0)) * tang, axis=1)
        dlen = np.sum((S - np.roll(S, 1, axis=0)) * tang, axis=1)
        if np.any(len0 + r_cur * dlen <= eps_len):
            for k in np.nonzero(len0 + r_cur * dlen <= eps_len)[0][::-1]:
                del active[k]
            continue
        with np.errstate(divide="ignore"):
            vanish = np.where(dlen < -1e-300, -len0 / dlen, np.inf)
        r_next = float(np.min(vanish))
        if not np.isfinite(r_next) or r_next <= r_cur + tie:
            hit = vanish <= r_cur + tie
            if not np.any(hit):
                break
            for k in np.nonzero(hit)[0][::-1]:
                del active[k]
            continue
        intervals.append({"r_lo": r_cur, "r_hi": r_next, "edges": idx, "Z": Z + c,
                          "Z_rel": Z, "S": S})
        for k in np.nonzero(vanish <= r_next + tie)[0][::-1]:
            del active[k]
        r_cur = r_next
    return intervals, r_cur


def scan_structure(polygon):
    """The erosion structure by a full scan of all edges at every event.

    The event rules are those of ``ErosionStructure``; every step scans
    the (n,) length and vanish-radius arrays, every interval is a
    snapshot of the active vertex rows, and the Steiner coefficients come
    from one vectorised pass over all snapshots.  Returns a namespace
    with the list ``intervals``, ``breaks``, ``r_star``, ``center_points``
    and the per-interval ``_area_poly`` / ``_perim_poly``; raises
    DegenerateError like the library.
    """
    poly = polygon
    # vertices are solved about the vertex mean c, with the edge offsets
    # taken from the centred vertices as validate_polygon does: far from
    # the origin the offsets' rounding, amplified where lines meet at a
    # small angle, would otherwise move the vertices
    c = poly.vertices.mean(axis=0)
    N, P = poly.normals, poly.vertices - c
    D = 0.5 * (np.sum(N * P, axis=1) + np.sum(N * np.roll(P, -1, axis=0), axis=1))
    n = len(D)
    tie = 1e-11 * poly.scale
    eps_len = 1e-12 * poly.scale

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
    out = SimpleNamespace(r_star=r_cur)
    out.breaks = np.array([s[0] for s in snaps] + [r_cur])
    sizes = np.array([len(s[2]) for s in snaps])
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    ends = starts + sizes
    edges = np.concatenate([s[2] for s in snaps])
    ZSc = np.concatenate([s[3] for s in snaps])
    Zc, Sc, Nc = ZSc[:, :2] + c, ZSc[:, 2:], N[edges]
    out.intervals = [
        geo.EventInterval(lo, hi, edges[a:b], Zc[a:b], Sc[a:b])
        for lo, hi, a, b in zip(out.breaks[:-1].tolist(), out.breaks[1:].tolist(),
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
    r_lo = out.breaks[:-1]
    V0 = ZSc[:, :2] + np.repeat(r_lo, sizes)[:, None] * Sc
    (vx, vy), (sx, sy) = V0.T, Sc.T
    tx, ty = -Nc[:, 1], Nc[:, 0]

    def total(x):
        return np.add.reduceat(x, starts)

    out._area_poly = 0.5 * np.stack([
        total(vx * vy[succ] - vy * vx[succ]),
        total(vx * sy[succ] - vy * sx[succ] + (sx * vy[succ] - sy * vx[succ])),
        total(sx * sy[succ] - sy * sx[succ])], axis=1)
    out._perim_poly = np.stack([
        total((vx - vx[pred]) * tx + (vy - vy[pred]) * ty),
        total((sx - sx[pred]) * tx + (sy - sy[pred]) * ty)], axis=1)

    # limit of the vertex paths at r*: the set of incenter positions
    last = out.intervals[-1]
    pts = last.Z + out.r_star * last.S
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    i, j = np.unravel_index(np.argmax(d2), d2.shape)
    if np.sqrt(d2[i, j]) <= geo.EPS_GEOM * poly.scale:
        out.center_points = pts.mean(axis=0)[None, :]
    else:
        out.center_points = np.stack([pts[i], pts[j]])
    return out


def sequential_structure(polygon):
    """The erosion structure built one vertex and one edge at a time.

    The event rules of ``ErosionStructure``, with ``set_vertex`` and
    ``set_edge`` called for every vertex and edge from the first n on, a
    length-heap entry for every shrinking edge, and rows, ``zs`` and
    ``pairs`` recorded in the library's order.  Returns an
    ``ErosionStructure`` whose arrays the library's build must reproduce
    bit for bit; raises DegenerateError like the library.
    """
    s = object.__new__(geo.ErosionStructure)
    s.polygon = polygon
    poly = s.polygon
    # vertices are solved about the vertex mean c, with the edge offsets
    # taken from the centred vertices as validate_polygon does: far from
    # the origin the offsets' rounding, amplified where lines meet at a
    # small angle, would otherwise move the vertices
    c = poly.vertices.mean(axis=0)
    N, P = poly.normals, poly.vertices - c
    D = 0.5 * (np.sum(N * P, axis=1) + np.sum(N * np.roll(P, -1, axis=0), axis=1))
    n = len(D)
    tie = 1e-11 * poly.scale
    eps_len = 1e-12 * poly.scale
    inf, length_bound = math.inf, geo._length_bound
    push, pop = heapq.heappush, heapq.heappop

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
    # it also does when it dies.
    T = N[:, ::-1] * [-1.0, 1.0]
    nl, dl, tl = N.tolist(), D.tolist(), T.tolist()
    nxt = [*range(1, n), 0]
    prv = [n - 1, *range(n - 1)]
    alive, ver = [True] * n, [0] * n
    len0, dlen = [0.0] * n, [0.0] * n
    cur, row, dies = [None] * n, [0] * n, []
    ends, pairs, zs = [], [], []
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
        cur[a] = z = ((dl[a] * by - ay * dl[b]) / det, (ax * dl[b] - dl[a] * bx) / det,
                      (ay - by) / det, (bx - ax) / det)
        zs.extend(z)
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
    s.r_star = r_cur
    s.breaks = np.array(breaks + [r_cur])
    K = len(breaks)

    # every row's path as (4, rows): Zx, Zy, Sx, Sy, and the intervals
    # in which it appears and goes (K if it lives at r*, so that
    # breaks[dies] is the radius at which it goes)
    ends = np.array(ends, dtype=np.intp).reshape(-1, 2)
    paths = np.fromiter(zs, float, len(zs)).reshape(-1, 4).T
    born = np.searchsorted(marks, np.arange(len(dies)), side="right")
    dies = np.minimum(dies, K)
    # Steiner coefficients per interval in t = r - r_lo: area = a0 + a1 t
    # + a2 t^2 and perimeter p0 + p1 t.  Expanding about the interval
    # start (not r = 0) and the vertex mean keeps far-off points from
    # cancelling.
    pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    coefs = geo._steiner_sums(s.breaks, ends[:, 0], paths, born, dies, pairs, T)

    # every vertex that lives in some interval, sorted by edge: within
    # an interval the rows then come in CCW order from the lowest edge
    keep = np.flatnonzero(born < dies)
    keep = keep[np.argsort(ends[keep, 0], kind="stable")]
    edges = ends[keep, 0]
    Z = np.ascontiguousarray(paths[:2, keep].T) + c
    S = np.ascontiguousarray(paths[2:, keep].T)
    born, dies = born[keep], dies[keep]
    # the rows as exit_radius reads them: edge, next edge, Z, S, born, dies
    s._vertices = edges, ends[keep, 1], Z, S, born, dies
    s.intervals = geo.EventIntervals(s.breaks, edges, Z, S, born, dies)

    r_lo = s.breaks[:-1]
    s._area_poly = 0.5 * coefs[:, :3]
    s._perim_poly = coefs[:, 3:]
    (a0, a1, a2), (p0, p1) = s._area_poly.T, s._perim_poly.T
    # opening area A + r P + pi r^2 = c0 + c1 t + c2 t^2 per interval, and
    # the running minimum of its values at the interval ends: the tie rule
    # can leave rounding-sized steps at the breaks, which this keeps
    # monotone
    s._opening_poly = np.stack([
        a0 + r_lo * (p0 + np.pi * r_lo),
        a1 + p0 + r_lo * (p1 + 2.0 * np.pi),
        a2 + p1 + np.pi], axis=1)
    c0, c1, c2 = s._opening_poly.T
    t_end = np.diff(s.breaks)
    s._opening_at_ends = np.minimum.accumulate(c0 + t_end * (c1 + t_end * c2))

    # limit of the vertex paths at r*: the set of incenter positions
    last = s.intervals[-1]
    pts = last.Z + s.r_star * last.S
    i, j, d = geo._farthest_pair(pts)
    if d <= geo.EPS_GEOM * poly.scale:
        s.center_points = pts.mean(axis=0)[None, :]
    else:
        s.center_points = np.stack([pts[i], pts[j]])
    return s


def core_measures(polygon, interval, r):
    """(area, perimeter) of an interval's core at radius r, and their sizes.

    The area is the shoelace of the vertices Z + r S about the polygon's
    vertex mean and the perimeter the sum of the edge lengths along the
    edge tangents; each size sums the absolute terms behind the value,
    which bounds its rounding.
    """
    Zc, S = interval["Z_rel"], interval["S"]
    V = Zc + r * S
    W = np.roll(V, -1, axis=0)
    cross = V[:, 0] * W[:, 1] - V[:, 1] * W[:, 0]
    reach = np.linalg.norm(Zc, axis=1) + r * np.linalg.norm(S, axis=1)
    normals = polygon.normals[interval["edges"]]
    tang = np.stack([-normals[:, 1], normals[:, 0]], axis=1)
    lens = np.sum((V - np.roll(V, 1, axis=0)) * tang, axis=1)
    return (0.5 * float(np.sum(cross)), float(np.sum(lens)),
            float(np.sum(reach * np.roll(reach, -1))), float(np.sum(2.0 * reach)))


def bisect_radius_for_volume(family, v):
    """Opening radius of area v by bisection on the decreasing area map."""
    v = np.clip(np.atleast_1d(np.asarray(v, dtype=float)),
                family.balls.hull_measure, family.v_max)
    lo = np.zeros_like(v)
    hi = np.full_like(v, family.structure.r_star)
    for _ in range(RADIUS_ITERS):
        mid = 0.5 * (lo + hi)
        big = family.structure.area_of_opening(mid) >= v
        lo = np.where(big, mid, lo)
        hi = np.where(big, hi, mid)
    r = 0.5 * (lo + hi)
    return np.where(v >= family.v_max * (1.0 - 1e-14), 0.0, r)


def bisect_exit_radius(structure, points):
    """Largest r with dist(x, core(r)) <= r, by bisection over [0, r*]."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lo = np.zeros(len(pts))
    hi = np.full(len(pts), structure.r_star)
    for _ in range(RANK_ITERS):
        mid = 0.5 * (lo + hi)
        ok = structure.distance_to_core(pts, mid) <= mid
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    return 0.5 * (lo + hi)


def dense_exit_radius(structure, points):
    """``ErosionStructure.exit_radius`` by one pass over every skeleton vertex.

    Every point meets every vertex, in blocks of at most CHUNK_ENTRIES
    point-vertex pairs, with the library's elementwise expressions.
    """
    self = structure
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
    step = max(1, geo.CHUNK_ENTRIES // len(Z))
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


def bisect_rank(family, points):
    """Rank of points of the domain outside the ball hull H, by bisection.

    Other points get NaN; their ranks are closed-form in family.rank.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.full(len(pts), np.nan)
    inside = family.structure.distance_to_core(pts, 0.0) <= family._eps
    rnd = inside & (body_distance(family.balls.centers, pts) > family.balls.inradius)
    if np.any(rnd):
        r = bisect_exit_radius(family.structure, pts[rnd])
        out[rnd] = np.minimum(family.structure.area_of_opening(r), family.v_max)
    return out


def vertex_lines(v):
    """(normals, offsets) of the lines through consecutive CCW vertices v: the
    outward unit normal of each edge, and its offset at the edge's start."""
    e = np.roll(v, -1, axis=0) - v
    lens = np.maximum(np.linalg.norm(e, axis=1), 1e-300)
    normals = np.stack([e[:, 1], -e[:, 0]], axis=1) / lens[:, None]
    return normals, np.sum(normals * v, axis=1)


def body_distance(body, points):
    """Distance from (..., 2) points to an ErodedBody, 0 inside, from its
    points alone: a polygon is bounded by the lines through its own
    vertices.  Points go in blocks of 4096.
    """
    pts = np.asarray(points, dtype=float)
    v = body.points
    if body.kind == "empty":
        return np.full(pts.shape[:-1], np.inf)
    if body.kind == "point":
        return np.linalg.norm(pts - v[0], axis=-1)
    if body.kind == "segment":
        ab = v[1] - v[0]
        t = np.clip((pts - v[0]) @ ab / max(float(ab @ ab), 1e-300), 0.0, 1.0)
        return np.linalg.norm(pts - (v[0] + t[..., None] * ab), axis=-1)
    normals, offsets = vertex_lines(v)
    flat = pts.reshape(-1, 2)
    d = [geo._polygon_distance(flat[s:s + 4096], v[:, 0], v[:, 1], normals, offsets)
         for s in range(0, len(flat), 4096)]
    return np.concatenate([np.empty(0), *d]).reshape(pts.shape[:-1])


def rounded_contains(body, points, tol):
    """Closed membership of points in the RoundedBody core + r disk, within tol."""
    return body_distance(body.core, points) <= body.radius + tol


def rounded_measures(body):
    """(area, perimeter) of the RoundedBody core + r disk by the Steiner formula.

    area = A(core) + r P(core) + pi r^2 and perimeter = P(core) + 2 pi r,
    from the core's points: a segment of length L has A = 0, P = 2L and a
    point has A = P = 0.
    """
    core, r = body.core, body.radius
    if core.kind == "empty":
        return 0.0, 0.0
    a = p = 0.0
    if core.kind == "polygon":
        a, p = geo._shoelace(core.points), polygon_perimeter(core.points)
    elif core.kind == "segment":
        p = 2.0 * float(np.linalg.norm(core.points[1] - core.points[0]))
    return a + r * p + np.pi * r * r, p + 2.0 * np.pi * r


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


def _chain(p, t, first, last, step):
    """Projections and tangential coordinates from vertex first to last, by step."""
    idx = (first + step * np.arange((step * (last - first)) % len(p) + 1)) % len(p)
    return p[idx], t[idx]


def _tied(p, i):
    """(first, last) in CCW order of extreme vertex i and a neighbour tied with it."""
    n = len(p)
    if p[i - 1] == p[i]:
        return (i - 1) % n, i
    if p[(i + 1) % n] == p[i]:
        return i, (i + 1) % n
    return i, i


def halfplane_cut(vertices, normal, v):
    """(cut, c): the part of a convex CCW polygon with normal . x <= c, of area v.

    The closed form of ``oracle._halfplane_cuts`` for one normal, with
    ``np.interp`` along each boundary chain and one clip: the chord is
    linear between the sorted vertex projections, the prefix areas are
    exact there by the trapezoid rule, and one root gives c.
    """
    p = vertices @ normal
    t = vertices @ np.array([-normal[1], normal[0]])
    lo_first, lo_last = _tied(p, int(np.argmin(p)))
    hi_first, hi_last = _tied(p, int(np.argmax(p)))
    pa, ta = _chain(p, t, lo_last, hi_first, 1)     # right of the normal, CCW
    pb, tb = _chain(p, t, lo_first, hi_last, -1)    # left of it, against CCW
    brk = np.sort(p)
    chord = np.interp(brk, pb, tb) - np.interp(brk, pa, ta)
    width = np.diff(brk)
    area = np.concatenate([[0.0], np.cumsum(0.5 * (chord[:-1] + chord[1:]) * width)])
    k = min(int(np.searchsorted(area, v, side="right")) - 1,
            int(np.flatnonzero(width > 0.0)[-1]))
    d = v - area[k]
    slope = (chord[k + 1] - chord[k]) / width[k]
    root = chord[k] + np.sqrt(max(chord[k] * chord[k] + 2.0 * slope * d, 0.0))
    s = min(2.0 * d / root, width[k]) if root > 0.0 else 0.0
    c = float(brk[k] + s)
    return clip_halfplane(vertices, normal, c), c


def bisect_halfplane_cut(vertices, normal, v, area_tol):
    """(cut, lo, hi): the polygon clipped at normal . x <= c with area within
    area_tol of v, c bisected between the extreme vertex projections.

    [lo, hi] brackets the exact offset: the cut at lo is smaller than v
    and the cut at hi larger.
    """
    proj = vertices @ normal
    lo, hi = float(proj.min()), float(proj.max())
    for _ in range(HALFPLANE_ITERS):
        c = 0.5 * (lo + hi)
        cut = clip_halfplane(vertices, normal, c)
        area = geo._shoelace(cut) if len(cut) >= 3 else 0.0
        if abs(area - v) <= area_tol:
            break
        if area < v:
            lo = c
        else:
            hi = c
    return clip_halfplane(vertices, normal, 0.5 * (lo + hi)), lo, hi


def bisect_halfplane_competitor(rng, family, v):
    """The half-plane sampler with a bisected offset: (cut, theta).

    Draws theta as ``oracle`` does and bisects to half the sampler's area
    tolerance.
    """
    theta = rng.uniform(0.0, 2.0 * np.pi)
    normal = np.array([np.cos(theta), np.sin(theta)])
    cut, _, _ = bisect_halfplane_cut(family.domain.vertices, normal, v,
                                     0.5 * AREA_TOL_REL * family.v_max)
    return cut, float(theta)


def polygon_perimeter(vertices) -> float:
    """Sum of the edge lengths of a closed polygon."""
    return float(np.sum(np.linalg.norm(np.roll(vertices, -1, axis=0) - vertices, axis=1)))


def _polygon_competitor(vertices, provenance):
    return Competitor(kind="polygon", area=geo._shoelace(vertices),
                      perimeter=polygon_perimeter(vertices),
                      vertices=vertices, provenance=provenance)


def _hull_competitor(rng, retry, fan, v, k):
    """Hull of k uniform points, k doubled until it reaches area v, then shrunk
    to v; the first hull draws from rng, every later one from retry."""
    tries = 0
    while k <= orc.HULL_K_MAX:
        gen = retry if tries else rng
        pts = fan.place(gen.random(k), gen.random(k), gen.random(k))
        verts = pts[ConvexHull(pts).vertices]
        area = geo._shoelace(verts)
        if area >= v:
            centroid = verts.mean(axis=0)
            verts = centroid + np.sqrt(v / area) * (verts - centroid)
            return _polygon_competitor(verts, {"sampler": "hull", "k": k,
                                               "tries": tries})
        k *= 2
        tries += 1
    raise SamplerInfeasibleError(
        f"hull of {k // 2} points never reached area {v}")


def _halfplane_competitor(rng, family, v):
    theta = rng.uniform(0.0, 2.0 * np.pi)
    cut, _ = halfplane_cut(family.domain.vertices,
                           np.array([np.cos(theta), np.sin(theta)]), v)
    if len(cut) < 3:
        raise SamplerInfeasibleError("half-plane cut collapsed")
    return _polygon_competitor(cut, {"sampler": "halfplane", "theta": float(theta)})


def _disk_competitor(rng, family, v):
    radius = float(np.sqrt(v / np.pi))
    if radius > family.balls.inradius * (1.0 + 1e-12):
        raise SamplerInfeasibleError("disk larger than the largest inscribed ball")
    feasible = family.structure.core_body(radius)
    if feasible.kind == "empty":
        raise SamplerInfeasibleError("no feasible disk center")
    if feasible.kind == "point":
        center = feasible.points[0]
    elif feasible.kind == "segment":
        center = feasible.points[0] + rng.random() * (feasible.points[1]
                                                      - feasible.points[0])
    else:
        center = orc._Fan(feasible.points).place(rng.random(1), rng.random(1),
                                                 rng.random(1))[0]
    return Competitor(kind="disk", area=v, perimeter=2.0 * np.pi * radius,
                      center=center, radius=radius,
                      provenance={"sampler": "disk"})


def _check_containment(domain, comp):
    eps = geo.EPS_GEOM * domain.scale
    if comp.kind == "polygon":
        viol = comp.vertices @ domain.normals.T - domain.offsets
    else:
        viol = comp.center @ domain.normals.T - domain.offsets + comp.radius
    if not np.max(viol) <= eps:
        raise SamplerInfeasibleError("competitor escapes the domain")


def sweep_competitors(family, v, n_samples, seed, samplers):
    """The competitors of ``oracle.verify_minimality``, drawn one at a time.

    Competitor i uses samplers[i % len(samplers)], with the draw layout of
    ``oracle._blocks``: first draws from the seed's generator, hull ladder
    continuations from the spawned one; every hull is Qhull's.  Returns, per
    competitor, its Competitor or the SamplerInfeasibleError it raised.
    """
    rng, retry = orc._generators(seed)
    fan = orc._Fan(family.domain.vertices)
    k0 = orc._hull_start(family.domain, v / family.v_max)
    out = []
    for i in range(n_samples):
        name = samplers[i % len(samplers)]
        try:
            if name == "hull":
                comp = _hull_competitor(rng, retry, fan, v, k0)
            elif name == "halfplane":
                comp = _halfplane_competitor(rng, family, v)
            else:
                comp = _disk_competitor(rng, family, v)
            if abs(comp.area - v) > AREA_TOL_REL * family.v_max:
                raise SamplerInfeasibleError("sampler missed the target area")
            _check_containment(family.domain, comp)
        except SamplerInfeasibleError as exc:
            comp = exc
        out.append(comp)
    return out


def lp_inradius(polygon):
    """Inradius as the linear program  max r  s.t.  n_i . x + r <= d_i.

    Solved for the polygon moved to its vertex mean and scaled to unit
    size, so that the solver's absolute tolerances (tightened to 1e-10)
    mean the same at every offset and scale.
    """
    n = polygon.normals
    c = polygon.vertices.mean(axis=0)
    P = (polygon.vertices - c) / polygon.scale
    d = 0.5 * (np.sum(n * P, axis=1) + np.sum(n * np.roll(P, -1, axis=0), axis=1))
    res = linprog(c=[0.0, 0.0, -1.0],
                  A_ub=np.hstack([n, np.ones((len(n), 1))]),
                  b_ub=d,
                  bounds=[(None, None), (None, None), (0.0, None)],
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return float(res.x[2]) * polygon.scale


def padded(grid):
    """(bytearray, live 2-D bool view) of ``grid`` inside a zero margin of
    ``_PAD`` cells: a chain's buffer layout, built without a chain."""
    cells = np.pad(np.asarray(grid).astype(bool), orc._PAD)
    buf = bytearray(cells.tobytes())
    return buf, np.frombuffer(buf, dtype=bool).reshape(cells.shape)


def chain(grid, h):
    """A ``_Chain`` on grid with cell side h, masked by all of the grid, and
    with no trace."""
    return orc._Chain(grid, np.ones(np.shape(grid), dtype=bool), h, None)


def chain_cells(chain):
    """Live 2-D bool view of a ``_Chain``'s padded buffer."""
    return np.frombuffer(chain.buf, dtype=bool).reshape(-1, chain.width)


def chain_grid(chain):
    """Copy of a ``_Chain``'s grid, without the margin."""
    return orc._unpad(chain.buf, chain.width)


def flat_counts(chain):
    """A ``_Chain``'s transition counts, recounted as the differing flat pairs
    (x, x + o_k) of its buffer.  Offsets are positive and reach at most
    ``_PAD`` cells, so any flat pair that is not a grid pair joins two
    margin cells."""
    flat = np.frombuffer(chain.buf, dtype=bool)
    return [int(np.count_nonzero(flat[d:] != flat[:-d])) for d in chain.offsets]


def stencil_sums(cells, coef):
    """sum_k coef_k * (cells[x + (a_k, b_k)] + cells[x - (a_k, b_k)]) at every cell x,
    reading cells beyond the array as outside, from 2-D shifted slices."""
    ny, nx = cells.shape
    ext = np.pad(cells.astype(float), orc._PAD)
    sums = np.zeros((ny, nx))
    for (a, b), c in zip(orc._CROFTON_DIRS, coef):
        fwd = ext[orc._PAD + b:orc._PAD + b + ny, orc._PAD + a:orc._PAD + a + nx]
        back = ext[orc._PAD - b:orc._PAD - b + ny, orc._PAD - a:orc._PAD - a + nx]
        sums += c * (fwd + back)
    return sums


def price(chain, counts, p, q):
    """(counts, perimeter) of a ``_Chain`` with the given counts once in-cell p
    leaves and out-cell q joins, one swap at a time.

    Per direction p leaving adds 2 (nb1 + nb2) - 2 and q joining adds
    2 - 2 (nb1 + nb2), reading p as already out; the grid is untouched.
    """
    buf = chain.buf
    after = [n + 2 * (buf[p + d] + buf[p - d] - buf[q + d] - buf[q - d])
             for n, d in zip(counts, chain.offsets)]
    if abs(q - p) in chain.offsets:
        after[chain.offsets.index(abs(q - p))] += 2  # q's neighbour p has already left
    return after, perimeter(chain, after)


def perimeter(chain, counts) -> float:
    """Crofton perimeter of a ``_Chain``'s counts, summed in direction order
    over Python floats."""
    total = 0.0
    for c, n in zip(chain.coef, counts):
        total += c * n
    return 0.5 * total


def priced_anneal(domain, v, grid_n, schedule=None, seed=0):
    """``anneal_discrete`` with every valid proposal priced from the stencil.

    Fed the same per-sweep draws, each proposal is priced into exact
    transition counts and decided on ``after - current``, the perimeter
    change between the counts' perimeters, instead of on the kept
    stencil sums; the best state is copied at every improvement.  Of the
    chain it reads only the start bytes, offsets and weights: the mask,
    the boundary lists, validity, the counts and the swaps all come from
    the grid bytes.
    """
    schedule = schedule or orc.AnnealSchedule()
    rng, mask, start, h, origin = orc._anneal_start(domain, v, grid_n, seed)
    ref = chain(start, h)
    buf = ref.buf
    n4 = (1, -1, ref.width, -ref.width)
    mask_buf, mask_cells = padded(mask)
    counts = flat_counts(ref)
    current = perimeter(ref, counts)
    best, best_energy = bytes(buf), current
    temp = schedule.t0_cells * h
    trace = np.empty(schedule.sweeps)
    proposals = accepted = 0
    for sweep in range(schedule.sweeps):
        bd_in, bd_out = _boundaries(chain_cells(ref), mask_cells)
        if len(bd_in) == 0 or len(bd_out) == 0:
            trace[sweep:] = current
            break
        proposals += len(bd_in)
        with np.errstate(divide="ignore"):
            moves = orc._sweep_moves(rng, bd_in, bd_out, temp)
        for p, q, limit in moves:
            if not _valid_swap(buf, mask_buf, n4, p, q):
                continue
            after_counts, after = price(ref, counts, p, q)
            if after - current <= limit:
                buf[p], buf[q] = 0, 1
                counts, current = after_counts, after
                accepted += 1
                if current < best_energy:
                    best, best_energy = bytes(buf), current
        trace[sweep] = current
        temp *= schedule.ratio
    best_grid = orc._unpad(best, ref.width)
    return orc.AnnealResult(grid=best_grid, perimeter=float(best_energy), origin=origin,
                            cell=h, in_count=int(best_grid.sum()), seed=seed,
                            energy_trace=trace, temperature_final=float(temp),
                            proposals=proposals, accepted=accepted)


def transition_count(g, a, b) -> int:
    """Pairs (p, p + (a, b)) with differing values, zero outside the grid."""
    pad_y, pad_x = abs(b), abs(a)
    G = np.pad(g, ((pad_y, pad_y), (pad_x, pad_x)))
    H = np.roll(np.roll(G, -b, axis=0), -a, axis=1)
    return int(np.count_nonzero(G ^ H))


def crofton_perimeter(grid, cell) -> float:
    """Crofton perimeter of a binary grid from the shifted-copy transition
    counts, summed in the library's direction order and float expressions."""
    g = np.asarray(grid).astype(bool)
    total = 0.0
    for w, ln, (a, b) in zip(orc._CROFTON_W, orc._CROFTON_LEN, orc._CROFTON_DIRS):
        total += float(w * (cell / ln)) * transition_count(g, int(a), int(b))
    return 0.5 * total


_N4 = np.array([(0, 1), (0, -1), (1, 0), (-1, 0)])


def _boundaries(cells, mask):
    """Flat indices of in-cells with an out 4-neighbor and of masked out-cells
    with an in 4-neighbor, in row-major order, on the zero-padded views,
    by one stencil pass per neighbour."""
    ny, nx = cells.shape
    inner = cells[1:-1, 1:-1]
    nbr_out = np.zeros_like(inner)
    nbr_in = np.zeros_like(inner)
    for dj, di in _N4:
        sl = cells[1 + dj: ny - 1 + dj, 1 + di: nx - 1 + di]
        nbr_out |= ~sl
        nbr_in |= sl
    bd_in = np.zeros_like(cells)
    bd_out = np.zeros_like(cells)
    bd_in[1:-1, 1:-1] = inner & nbr_out
    bd_out[1:-1, 1:-1] = mask[1:-1, 1:-1] & ~inner & nbr_in
    return np.flatnonzero(bd_in), np.flatnonzero(bd_out)


def _has_neighbor(buf, n4, x, value):
    for d in n4:
        if buf[x + d] == value:
            return True
    return False


def _valid_swap(buf, mask, n4, p, q):
    """Boundary swap stays valid against the current (possibly stale-listed)
    state, read from the grid bytes."""
    if not buf[p] or buf[q] or not mask[q]:
        return False
    return _has_neighbor(buf, n4, p, 0) and _has_neighbor(buf, n4, q, 1)


def delta(chain, p, q):
    """Perimeter change once in-cell p leaves and out-cell q joins.

    Per direction, p leaving changes the perimeter by its neighbours'
    weight less coef_k, and q joining by coef_k less its neighbours'
    weight read with p already out: S[p] - S[q], plus coef_k when p
    is q's neighbour along direction k.  ``anneal_discrete`` reads the
    same expression inline.
    """
    sums = chain.sums
    return sums[p] - sums[q] + chain.adjacent_coef.get(q - p, 0.0)


def index(chain, j, i):
    """Byte of cell (j, i) in a ``_Chain``'s padded buffer."""
    return (int(j) + orc._PAD) * chain.width + int(i) + orc._PAD


def flip(chain, counts, j, i):
    """Toggle cell (j, i) of a ``_Chain`` with the given counts, and its
    stencil sums; returns the counts after the toggle."""
    x = index(chain, j, i)
    buf = chain.buf
    sign = 1 if buf[x] else -1
    counts = [n + sign * (2 * (buf[x + d] + buf[x - d]) - 2)
              for n, d in zip(counts, chain.offsets)]
    buf[x] ^= 1
    sums = chain.sums
    for c, d in zip(chain.coef, chain.offsets):
        sums[x + d] -= sign * c
        sums[x - d] -= sign * c
    return counts


_SEG1 = np.full((16, 2), -1, dtype=int)
_SEG2 = np.full((16, 2), -1, dtype=int)
for _case, _pair in {1: (0, 3), 2: (0, 1), 3: (3, 1), 4: (1, 2), 6: (0, 2),
                     7: (3, 2), 8: (2, 3), 9: (0, 2), 11: (1, 2), 12: (3, 1),
                     13: (0, 1), 14: (0, 3)}.items():
    _SEG1[_case] = _pair
_SEG1[5] = (0, 1)   # center above: segments (B,R) and (T,L)
_SEG2[5] = (2, 3)
_SEG1[10] = (0, 3)  # center above: segments (B,L) and (R,T)
_SEG2[10] = (1, 2)
_SEG1_ALT = _SEG1.copy()
_SEG2_ALT = _SEG2.copy()
_SEG1_ALT[5] = (0, 3)
_SEG2_ALT[5] = (1, 2)
_SEG1_ALT[10] = (0, 1)
_SEG2_ALT[10] = (2, 3)
# _CROSSED[edge, case]: the edge's two corners differ, so a segment ends on it
_CROSSED = np.array([[k >> i & 1 != k >> j & 1 for k in range(16)]
                     for i, j in ((0, 1), (1, 2), (3, 2), (0, 3))])


def _marching_squares(values, origin, spacing, t):
    """(total iso-contour length, (m, 2) edge crossings) of {values > t}.

    The value field is padded with one ring of zeros so contours close at
    the grid edge.  Lengths are in physical units.
    """
    dx, dy = float(spacing[0]), float(spacing[1])
    V = np.pad(values, 1)
    a = V[:-1, :-1]
    b = V[:-1, 1:]
    c = V[1:, 1:]
    d = V[1:, :-1]
    ab, bb, cb, db = a > t, b > t, c > t, d > t
    case = (ab.view(np.uint8) | bb.view(np.uint8) << 1
            | cb.view(np.uint8) << 2 | db.view(np.uint8) << 3)
    mixed = (case > 0) & (case < 15)
    if not np.any(mixed):
        return 0.0, np.empty((0, 2))

    jj, ii = np.divmod(np.flatnonzero(mixed), mixed.shape[1])
    x0 = origin[0] + (ii - 1.0) * dx   # pad ring shifts sample indices by one
    y0 = origin[1] + (jj - 1.0) * dy
    av, bv, cv, dv = a[jj, ii], b[jj, ii], c[jj, ii], d[jj, ii]
    cs = case[jj, ii]

    def frac(p, q):
        with np.errstate(divide="ignore", invalid="ignore"):
            f = (t - p) / (q - p)
        return np.clip(np.nan_to_num(f, nan=0.5), 0.0, 1.0)

    ex = np.stack([x0 + dx * frac(av, bv),            # B
                   x0 + dx,                           # R
                   x0 + dx * frac(dv, cv),            # T
                   x0 + np.zeros_like(x0)])           # L
    ey = np.stack([y0 + np.zeros_like(y0),
                   y0 + dy * frac(bv, cv),
                   y0 + dy,
                   y0 + dy * frac(av, dv)])

    center_above = (av + bv + cv + dv) > 4.0 * t
    s1 = np.where(center_above[None, :].T, _SEG1[cs], _SEG1_ALT[cs])
    s2 = np.where(center_above[None, :].T, _SEG2[cs], _SEG2_ALT[cs])
    cols = np.arange(len(cs))

    def seg_len(s):
        valid = s[:, 0] >= 0
        p0 = np.where(valid, s[:, 0], 0)
        p1 = np.where(valid, s[:, 1], 0)
        length = np.hypot(ex[p1, cols] - ex[p0, cols], ey[p1, cols] - ey[p0, cols])
        return np.where(valid, length, 0.0)

    total = float(np.sum(seg_len(s1)) + np.sum(seg_len(s2)))
    has = np.flatnonzero(_CROSSED[:, cs])
    return total, np.stack([ex.ravel()[has], ey.ravel()[has]], axis=1)


def quickhull_sorted(points, counts):
    """(vertices, hull_counts): the convex hulls of point sets stored back to back.

    The reference for ``geometry.convex_hulls``: quickhull to the end,
    with a stable sort that groups the live points by edge every round.

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


def write_grid_per_cell(u, path):
    """The grid file of ``io.write_grid``, formatting every cell on its own."""
    with open(path, "w") as fh:
        head = [repr(float(x)) for x in (u.origin[0], u.origin[1],
                                         u.spacing[0], u.spacing[1])]
        fh.write(f"{u.nx} {u.ny} " + " ".join(head) + "\n")
        fh.writelines(" ".join(map(repr, row)) + "\n" for row in u.values.tolist())


def write_pgm_per_cell(grid, path):
    """The graymap of ``io.write_pgm``, one cell at a time."""
    g = np.asarray(grid)
    with open(path, "w") as fh:
        fh.write(f"P2\n{g.shape[1]} {g.shape[0]}\n255\n")
        for row in g[::-1]:
            fh.write(" ".join("255" if v else "0" for v in row) + "\n")


def write_family_csv_per_row(rows, path):
    """The CSV of ``io.write_family_csv``, one f-string per row."""
    with open(path, "w") as fh:
        fh.write("v,case,r,perimeter,curvature\n")
        for v, case, r, p, k in rows:
            fh.write(f"{v:.9g},{case},{r:.9g},{p:.9g},{k:.9g}\n")


def write_report_csv_per_number(report, path):
    """The CSV of ``io.write_report_csv``, one f-string per number."""
    with open(path, "w") as fh:
        fh.write(",".join(report.levels.dtype.names) + "\n")
        for row in report.levels.tolist():
            fh.write(",".join(f"{x:.9g}" for x in row) + "\n")


def _f(x) -> str:
    return f"{float(x):.9g}"


def rounded_boundary_path(body):
    """The SVG path of ``svgout`` for core + r disk, one vertex at a time."""
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


def polygon_path(vertices):
    """The SVG path of ``svgout`` for a polygon, one vertex at a time."""
    parts = [f"M {_f(vertices[0, 0])} {_f(vertices[0, 1])}"]
    parts += [f"L {_f(p[0])} {_f(p[1])}" for p in vertices[1:]]
    parts.append("Z")
    return " ".join(parts)


def contours_svg(domain, contour_sets, max_points=1500):
    """``svgout.contours_svg`` with one path and one circle formatted at a time."""
    lo = domain.vertices.min(axis=0)
    hi = domain.vertices.max(axis=0)
    rad = 0.002 * float(np.max(hi - lo))
    rows = [f'<path d="{polygon_path(domain.vertices)}" stroke="#888"/>']
    for pts in contour_sets:
        pts = np.asarray(pts).reshape(-1, 2)
        if len(pts) > max_points:
            pts = pts[:: len(pts) // max_points + 1]
        dots = "".join(f'<circle cx="{_f(p[0])}" cy="{_f(p[1])}" r="{_f(rad)}"/>'
                       for p in pts)
        rows.append(f'<g fill="#c02" stroke="none">{dots}</g>')
    return svgout._document(domain, "\n".join(rows))
