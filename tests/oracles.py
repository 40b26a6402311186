"""Reference implementations of the exact layer, kept as test oracles.

Each one solves the same problem as the library by an independent,
slower route: the erosion structure by re-deriving every vertex from
scratch after each event, the r <-> v inversion and the rank by
bisection, and the inradius by a linear program.
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
