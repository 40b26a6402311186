"""Reference implementations, kept as test oracles.

Each one solves the same problem as the library by an independent,
slower route: the erosion structure by re-deriving every vertex from
scratch after each event, the r <-> v inversion and the rank by
bisection, the inradius by a linear program, and marching squares by
one full-grid pass per threshold.
"""

import numpy as np
from scipy.optimize import linprog

RADIUS_ITERS = 80     # bisection depth for the r <-> v inversion
RANK_ITERS = 60       # bisection depth for entry radii (machine precision)


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


def bisect_rank(family, points):
    """Rank of points of the domain outside the ball hull H, by bisection.

    Other points get NaN; their ranks are closed-form in family.rank.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.full(len(pts), np.nan)
    inside = family.structure.distance_to_core(pts, 0.0) <= family._eps
    rnd = inside & (family.balls.centers.distance(pts) > family.balls.inradius)
    if np.any(rnd):
        r = bisect_exit_radius(family.structure, pts[rnd])
        out[rnd] = np.minimum(family.structure.area_of_opening(r), family.v_max)
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
