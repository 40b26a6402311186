"""Equimeasurable convex rearrangement of grid-sampled functions.

A nonnegative function u sampled at cell centers, vanishing outside a
convex domain, is rearranged into u_tilde whose level sets are the
canonical perimeter minimizers of the domain: u_tilde = u* o rho, where
u* is the decreasing rearrangement of u and rho the smallest volume at
which a point is swallowed by the nested minimizer family.  The
composition reproduces the direct definition (smallest s with
x outside E(|{u > s}|)) because the family is nested and u* is the
generalized inverse of the distribution function.

Total variation is estimated through the coarea formula: the threshold
integral of marching-squares contour lengths.  Linear interpolation on
cell edges avoids the axis-alignment bias of pixel-edge counting.  The
report measures u and u_tilde on one threshold grid, u's.

All thresholds are marched in one sweep.  A cell is mixed at threshold t
exactly when its corner min <= t < its corner max, so two searchsorted
calls give every cell its range of mixed levels (span-space selection:
Livnat, Shen & Johnson, IEEE TVCG 1996) and only the mixed (cell, level)
pairs are marched, level by level in row-major cell order, in blocks of
at most CHUNK_PAIRS pairs (a level with more is a block of its own).  A
block's cells are those still mixed from the last block plus those whose
range starts in it.  Each level's length is bitwise that of a full-grid
pass, and each crossed cell edge gives one crossing, from the cell whose
bottom or left edge it is.  The report hulls one marcher block at a time.

The cost of a sweep is mostly per block, so blocks are as large as the
report's memory bound allows.  A block's arrays live in one call and are
dropped as soon as they are used.  At its peak, while it measures
segments, a block holds about 140 bytes per pair: 64 for the crossing on
each of the cell's four edges, the rest for segment edges, lengths and
their temporaries.  Only its lengths, crossings (16 bytes each, about one
per pair) and counts outlive the call.
"""

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import DomainMismatchError
from .family import MinimizerFamily
from .geometry import ConvexPolygon, _measures, convex_hulls

DEFAULT_LEVELS = 256
EQ_DEFECT_FACTOR = 4.0     # equimeasurability bound: 4 h (P + 1)
CONVEXITY_FACTOR = 2.0     # hull-area defect bound: 2 h P
BV_TOL_REL = 0.02
CHUNK_PAIRS = 12288        # (cell, level) pairs marched at once


@dataclass(eq=False)
class GridFunction:
    """Nonnegative samples at the cell centers of a uniform rectangular grid.

    ``origin`` is the center of cell (0, 0); cell (i, j) sits at
    ``origin + (i dx, j dy)`` with ``values[j, i]`` (row 0 = smallest y).
    Values at centers strictly outside the closed domain must be exactly 0
    and the grid must cover the domain bounding box with at least one cell
    of margin.  The grid's span must not overflow when squared, and
    16 sum(values) max(1, cell area, cell diagonal) must be finite, which
    bounds the corner sums, the L1 norm and the coarea integral of the
    report.  Treat instances as immutable.
    """

    origin: np.ndarray
    spacing: np.ndarray
    values: np.ndarray
    domain: ConvexPolygon
    _inside: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.spacing = np.asarray(self.spacing, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if not (np.all(np.isfinite(self.origin)) and np.all(np.isfinite(self.spacing))):
            raise ValueError("grid origin and spacing must be finite")
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-d array (ny, nx)")
        if np.any(self.spacing <= 0.0):
            raise ValueError("grid spacing must be positive")
        with np.errstate(over="ignore"):
            span = self.spacing * self.values.shape[::-1]
            finite = np.isfinite([span @ span, *(self.origin + span)])
        if not np.all(finite):
            raise ValueError(f"grid span {span.tolist()} overflows when squared")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")
        if np.any(self.values < 0.0):
            raise ValueError("grid values must be nonnegative")
        with np.errstate(over="ignore"):
            total = float(np.sum(self.values))
        diagonal = float(np.hypot(*self.spacing))
        if not math.isfinite(16.0 * total * max(1.0, self.cell_area, diagonal)):
            raise ValueError("grid values too large: their BV estimate overflows")
        self._validate_domain()

    def _validate_domain(self):
        lo = self.domain.vertices.min(axis=0)
        hi = self.domain.vertices.max(axis=0)
        ny, nx = self.values.shape
        first = self.origin
        last = self.origin + self.spacing * np.array([nx - 1, ny - 1])
        slack = 1e-6 * self.spacing
        if (np.any(first > lo - 0.5 * self.spacing + slack)
                or np.any(last < hi + 0.5 * self.spacing - slack)):
            raise DomainMismatchError("grid does not cover the domain with a margin cell")
        outside = ~self.inside_mask
        if np.any(self.values[outside] != 0.0):
            raise DomainMismatchError("nonzero sample outside the closed domain")

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def ny(self) -> int:
        return self.values.shape[0]

    @property
    def cell_area(self) -> float:
        return float(self.spacing[0] * self.spacing[1])

    @property
    def inside_mask(self) -> np.ndarray:
        """Cells whose center lies in the closed domain."""
        if self._inside is None:
            pts = self.centers().reshape(-1, 2)
            self._inside = self.domain.contains_point(pts).reshape(self.values.shape)
        return self._inside

    def centers(self) -> np.ndarray:
        """(ny, nx, 2) array of cell-center coordinates."""
        xs = self.origin[0] + self.spacing[0] * np.arange(self.nx)
        ys = self.origin[1] + self.spacing[1] * np.arange(self.ny)
        X, Y = np.meshgrid(xs, ys)
        return np.stack([X, Y], axis=-1)

    def with_values(self, values) -> "GridFunction":
        values = np.asarray(values, dtype=float)
        return GridFunction(self.origin.copy(), self.spacing.copy(), values, self.domain,
                            self._inside if values.shape == self.values.shape else None)

    def same_frame(self, other: "GridFunction") -> bool:
        return (self.values.shape == other.values.shape
                and np.allclose(self.origin, other.origin, rtol=0, atol=1e-12)
                and np.allclose(self.spacing, other.spacing, rtol=0, atol=1e-12)
                and np.array_equal(self.domain.vertices, other.domain.vertices))

    @classmethod
    def for_domain(cls, domain: ConvexPolygon, n: int, margin: int = 1) -> "GridFunction":
        """Zero grid with square cells, n cells across the wider bbox side."""
        if n <= 2 * margin + 1:
            raise ValueError("grid resolution too small for the margin")
        lo = domain.vertices.min(axis=0)
        hi = domain.vertices.max(axis=0)
        h = float(np.max(hi - lo)) / (n - 2 * margin)
        counts = np.ceil((hi - lo) / h - 1e-9).astype(int) + 2 * margin
        origin = lo - (margin - 0.5) * h
        return cls(origin, np.array([h, h]), np.zeros((counts[1], counts[0])), domain)


@dataclass(frozen=True, eq=False)
class Profile:
    """Decreasing rearrangement u*(v) = sup{t : |{u > t}| >= v} as a staircase.

    ``steps`` holds the positive sample values sorted descending; each step
    is one cell wide in measure.  u* is 0 beyond the support measure.
    """

    steps: np.ndarray
    cell_area: float

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        k = np.ceil(v / self.cell_area - 1e-12).astype(int)
        out = np.append(self.steps, 0.0)[np.clip(k, 1, len(self.steps) + 1) - 1]
        return float(out) if out.ndim == 0 else out


def distribution(u: GridFunction, t):
    """mu(t) = |{u > t}| by strict cell counting; right-continuous in t.

    t is one threshold or an array of them; one sort of u serves them all.
    """
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0.0):
        raise ValueError("threshold must be nonnegative")
    v = np.sort(u.values, axis=None)
    mu = (v.size - np.searchsorted(v, ts, side="right")) * u.cell_area
    return float(mu) if mu.ndim == 0 else mu


def decreasing_rearrangement(u: GridFunction) -> Profile:
    """Sort positive samples descending; step widths are one cell area."""
    pos = u.values[u.values > 0.0]
    steps = np.sort(pos)[::-1].copy()
    return Profile(steps=steps, cell_area=u.cell_area)


def convex_rearrangement(u: GridFunction, family: MinimizerFamily) -> GridFunction:
    """Rearrange u so each level set is the canonical minimizer of its measure.

    Evaluates u* o rank at every cell center.  Values outside the closed
    domain are forced to zero, matching the class of admissible inputs.
    """
    if not np.array_equal(u.domain.vertices, family.domain.vertices):
        raise DomainMismatchError("grid function and family use different domains")
    prof = decreasing_rearrangement(u)
    pts = u.centers().reshape(-1, 2)
    out = np.zeros(len(pts))
    inside = u.inside_mask.reshape(-1)
    chunk = 16384
    idx = np.nonzero(inside)[0]
    for s in range(0, len(idx), chunk):
        sel = idx[s:s + chunk]
        out[sel] = prof(family.rank(pts[sel]))
    return u.with_values(out.reshape(u.values.shape))


# ---------------------------------------------------------------------------
# marching squares
#
# Cell corners a=(i,j), b=(i+1,j), c=(i+1,j+1), d=(i,j+1); the above-set bit
# code is a + 2b + 4c + 8d.  Crossings are linearly interpolated on the four
# cell edges (B bottom, R right, T top, L left = 0..3).  Saddle cells (5, 10)
# are disambiguated by the sign of the center average.

# _SEGMENTS[case + 16 * center_above]: the edges (p, q, r, s) of the cell's
# segments (p, q) and (r, s), -1 where there is no segment
_SEGMENTS = np.full((32, 4), -1, np.int8)
for _case, _pair in {1: (0, 3), 2: (0, 1), 3: (3, 1), 4: (1, 2), 6: (0, 2),
                     7: (3, 2), 8: (2, 3), 9: (0, 2), 11: (1, 2), 12: (3, 1),
                     13: (0, 1), 14: (0, 3)}.items():
    _SEGMENTS[[_case, _case + 16], :2] = _pair
_SEGMENTS[[5, 26]] = (0, 3, 1, 2)   # (B,L) and (R,T)
_SEGMENTS[[10, 21]] = (0, 1, 2, 3)  # (B,R) and (T,L)
# _CROSSED[case]: edges B and L have differing corners, so a segment ends on them
_CROSSED = np.array([[k & 1 != k >> i & 1 for i in (1, 3)] for k in range(16)])


def march_levels(values, origin, spacing, ts):
    """Yield (lengths, points, counts) per block of the ascending thresholds
    ts: each level's iso-contour length of {values > t} and crossing count,
    and the block's (m, 2) edge crossings in level order, each edge once.

    The value field is padded with one ring of zeros so contours close at
    the grid edge.  Lengths are in physical units.
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(np.diff(ts) < 0.0):
        raise ValueError("thresholds must be ascending")
    V = np.pad(values, 1).ravel()
    w = values.shape[1] + 2
    # cell p has corners a, b, c, d at V[p], V[p+1], V[p+w+1], V[p+w]; the
    # cells past the last column wrap through zero padding and never mix
    corners = V[:-w - 1], V[1:-w], V[w + 1:], V[w:-1]
    # cell p is mixed at level k exactly when lo[p] <= k < hi[p], the first
    # levels at or above its corner min and its corner max
    narrow = np.min_scalar_type(len(ts))
    lo, hi = (np.searchsorted(ts, reduce(op, corners)).astype(narrow)
              for op in (np.minimum, np.maximum))
    cells = np.flatnonzero(lo < hi)
    cells = cells[np.argsort(lo[cells], kind="stable")]   # by first mixed level
    lo, hi = lo[cells], hi[cells]
    count = np.cumsum(np.bincount(lo, minlength=len(ts) + 1)
                      - np.bincount(hi, minlength=len(ts) + 1))
    first = np.concatenate([[0], np.cumsum(count[:-1])])   # pairs before level k
    k0, act = 0, np.empty(0, np.intp)
    while k0 < len(ts):
        # levels k0 <= k < k1: at most CHUNK_PAIRS pairs, or one whole level;
        # act: the cells mixed at one of them, carried over or entering now
        k1 = max(k0 + 1, int(np.searchsorted(first, first[k0] + CHUNK_PAIRS, "right")) - 1)
        entering = np.arange(*np.searchsorted(lo, np.array([k0, k1], lo.dtype)))
        act = np.concatenate([act[hi[act] > k0], entering])
        act = act[np.argsort(cells[act])]   # row-major
        start = np.maximum(lo[act], k0)
        yield _march_block(V, w, origin, spacing, ts, cells[act], start,
                           np.minimum(hi[act], k1) - start, first[k0:k1 + 1] - first[k0])
        k0 = k1


def _march_block(V, w, origin, spacing, ts, cells, start, n, bounds):
    """(lengths, points, counts) of one march_levels block: cell cells[i]
    (row-major) is mixed at the n[i] levels from start[i] on, and the
    block's level k has the pairs bounds[k]:bounds[k + 1] in level order.
    Each array is dropped once used (see the module docstring)."""
    dx, dy = float(spacing[0]), float(spacing[1])
    last = np.cumsum(n, dtype=np.intp)
    p = np.repeat(cells, n)
    lev = (np.arange(len(p)) + np.repeat(start - last + n, n)).astype(start.dtype)
    order = np.argsort(lev, kind="stable")   # level-major, row-major cells
    p, t = p[order], ts[lev[order]]
    del last, lev, order

    av, bv, cv, dv = V[p], V[p + 1], V[p + w + 1], V[p + w]
    cs = ((av > t).view(np.uint8) | (bv > t).view(np.uint8) << 1
          | (cv > t).view(np.uint8) << 2 | (dv > t).view(np.uint8) << 3)
    case = cs + (((av + bv + cv + dv) > 4.0 * t).view(np.uint8) << 4)   # center above t

    # ex, ey: rows B, R, T, L hold the crossing on that edge of each pair's
    # cell.  Only crossed edges are read, and there (t - a) / (b - a) lies
    # in [0, 1] in floats.
    ex, ey = np.empty((4, len(p))), np.empty((4, len(p)))
    ex[3] = origin[0] + (p % w - 1.0) * dx   # pad ring shifts sample indices by one
    ey[0] = origin[1] + (p // w - 1.0) * dy
    del p
    ex[1], ey[2] = ex[3] + dx, ey[0] + dy
    with np.errstate(divide="ignore", invalid="ignore"):
        for out, base, h, a, b in ((ex[0], ex[3], dx, av, bv), (ey[1], ey[0], dy, bv, cv),
                                   (ex[2], ex[3], dx, dv, cv), (ey[3], ey[0], dy, av, dv)):
            np.subtract(t, a, out=out)
            out /= b - a
            out *= h
            out += base
    del av, bv, cv, dv, a, b, t

    # every mixed cell has one segment and a saddle a second, from edge
    # seg[:, 2 k] to edge seg[:, 2 k + 1]
    seg = np.take(_SEGMENTS, case, axis=0)
    seg_len = np.zeros((2, len(case)))
    for k, sel in ((0, slice(None)), (1, np.flatnonzero(seg[:, 2] >= 0))):
        at = seg[sel, 2 * k:2 * k + 2].T.astype(np.intp)   # into ex.ravel(), ey.ravel()
        at *= len(case)
        at += np.arange(len(case))[sel]
        seg_len[k, sel] = np.hypot(*[np.diff(e.take(at), axis=0)[0] for e in (ex, ey)])
    # one np.sum per level keeps a full-grid pass's bits
    lengths = np.array([np.sum(seg_len[0, i:j]) + np.sum(seg_len[1, i:j])
                        for i, j in zip(bounds[:-1], bounds[1:])])
    del seg, seg_len

    # the crossings on rows B and L of ex, ey (a crossed R or T edge is
    # another cell's L or B): crossed[i] = 2 pair + (0 for B, 1 for L)
    crossed = np.flatnonzero(np.take(_CROSSED, cs, axis=0))
    at = crossed >> 1
    at += (crossed & 1) * (3 * len(cs))
    return (lengths, np.stack([ex.take(at), ey.take(at)], axis=1),
            np.diff(np.searchsorted(crossed, 2 * bounds)))


def level_perimeter(u: GridFunction, t: float) -> float:
    """Marching-squares boundary length of {u > t}."""
    return float(next(march_levels(u.values, u.origin, u.spacing, [t]))[0][0])


def level_contour_points(u: GridFunction, t: float) -> np.ndarray:
    """The edge crossings of the iso-contour at t, each once, as an (m, 2) array."""
    return next(march_levels(u.values, u.origin, u.spacing, [t]))[1]


def _threshold_grid(values, levels: int):
    """(top, ts): max values, or 1.0 if none is positive; `levels` ts in (0, top)."""
    top = float(np.max(values, initial=0.0)) or 1.0
    return top, np.linspace(0.0, top, levels + 2)[1:-1]


def bv_norm_estimate(u: GridFunction, levels: int = DEFAULT_LEVELS):
    """(l1, tv, bv) with tv from the coarea formula.

    tv integrates marching-squares contour lengths over `levels` uniform
    thresholds in (0, max u) by the trapezoid rule, extending the lowest
    sampled length to t = 0 and zero to t = max u.
    """
    if levels < 16:
        raise ValueError("levels must be at least 16")
    top, ts = _threshold_grid(u.values, levels)
    sweep = march_levels(u.values, u.origin, u.spacing, ts)
    return _coarea(u, ts, top, np.concatenate([lengths for lengths, _, _ in sweep]))


def _coarea(u: GridFunction, ts: np.ndarray, top: float, per: np.ndarray):
    """(l1, tv, bv) of u from contour lengths per at (top, ts) = _threshold_grid(., L)."""
    l1 = float(np.sum(np.abs(u.values))) * u.cell_area
    t_ext = np.concatenate([[0.0], ts, [top]])
    p_ext = np.concatenate([[per[0]], per, [0.0]])
    tv = float(np.trapezoid(p_ext, t_ext))
    return l1, tv, l1 + tv


@dataclass(eq=False)
class RearrangementReport:
    """Per-level diagnostics comparing u with its convex rearrangement.

    passed is the verdict: equimeasurability, the BV inequality and
    level-set convexity must all hold.  ustar_continuous (the sampled
    distribution of u strictly decreases, so its decreasing
    rearrangement u* has no jumps) is an advisory indicator of the
    input, not part of the verdict.
    """

    thresholds: np.ndarray
    mu_u: np.ndarray
    mu_ut: np.ndarray
    per_u: np.ndarray
    per_ut: np.ndarray
    eq_defect: np.ndarray
    eq_bound: np.ndarray
    convexity_defect: np.ndarray
    convexity_bound: np.ndarray
    bv_u: tuple
    bv_ut: tuple
    max_eq_defect: float
    equimeasurable_pass: bool
    bv_pass: bool
    convexity_pass: bool
    ustar_continuous: bool

    @property
    def passed(self) -> bool:
        return self.equimeasurable_pass and self.bv_pass and self.convexity_pass

    def as_dict(self):
        return {
            "levels": [
                {"t": float(t), "mu_u": float(a), "mu_ut": float(b),
                 "per_u": float(p), "per_ut": float(q),
                 "eq_defect": float(e), "eq_bound": float(eb),
                 "convexity_defect": float(cd), "convexity_bound": float(cb)}
                for t, a, b, p, q, e, eb, cd, cb in zip(
                    self.thresholds, self.mu_u, self.mu_ut, self.per_u,
                    self.per_ut, self.eq_defect, self.eq_bound,
                    self.convexity_defect, self.convexity_bound)
            ],
            "bv_u": {"l1": self.bv_u[0], "tv": self.bv_u[1], "bv": self.bv_u[2]},
            "bv_ut": {"l1": self.bv_ut[0], "tv": self.bv_ut[1], "bv": self.bv_ut[2]},
            "max_eq_defect": self.max_eq_defect,
            "equimeasurable_pass": self.equimeasurable_pass,
            "bv_pass": self.bv_pass,
            "convexity_pass": self.convexity_pass,
            "ustar_continuous": self.ustar_continuous,
            "passed": self.passed,
        }


def _hull_areas(pts, counts) -> np.ndarray:
    """Hull area of each level's crossings, from one convex_hulls call."""
    idx, hull = convex_hulls(pts, counts)
    area = np.zeros(len(counts))
    if len(idx):
        area[hull > 0] = _measures(pts[idx], hull[hull > 0])[0]
    return area


def rearrangement_report(u: GridFunction, ut: GridFunction,
                         levels: int = DEFAULT_LEVELS) -> RearrangementReport:
    """Check equimeasurability, the BV inequality and level-set convexity.

    Both functions are marched once on u's threshold grid and measured
    with the same estimators (both coarea integrals run up to max u); the
    BV check allows a 2 percent estimator tolerance and the per-level
    equimeasurability defect is bounded by 4 h (P + 1).
    """
    if levels < 16:
        raise ValueError("levels must be at least 16")
    if not u.same_frame(ut):
        raise DomainMismatchError("report requires matching grids")
    h = float(np.max(u.spacing))
    top, ts = _threshold_grid(u.values, levels)
    mu_u, mu_ut = distribution(u, ts), distribution(ut, ts)
    per_u = np.concatenate([lengths for lengths, _, _ in march_levels(u.values, u.origin,
                                                                       u.spacing, ts)])
    # u_tilde's levels are hulled a marcher block at a time
    per_ut, hull = [], []
    for lengths, pts, counts in march_levels(ut.values, ut.origin, ut.spacing, ts):
        per_ut.append(lengths)
        hull.append(_hull_areas(pts, counts))
    per_ut, hull = np.concatenate(per_ut), np.concatenate(hull)
    bv_u, bv_ut = _coarea(u, ts, top, per_u), _coarea(ut, ts, top, per_ut)
    conv_defect = hull - mu_ut
    eq_defect = np.abs(mu_u - mu_ut)
    eq_bound = EQ_DEFECT_FACTOR * h * (per_u + 1.0)
    conv_bound = CONVEXITY_FACTOR * h * np.maximum(per_ut, 1.0)
    eq_pass = bool(np.all(eq_defect <= eq_bound))
    bv_pass = bool(bv_ut[2] <= bv_u[2] * (1.0 + BV_TOL_REL))
    conv_pass = bool(np.all(conv_defect <= conv_bound))
    strictly = bool(np.all(np.diff(mu_u) < 0.0)) if len(ts) > 1 else False
    return RearrangementReport(
        thresholds=ts, mu_u=mu_u, mu_ut=mu_ut, per_u=per_u, per_ut=per_ut,
        eq_defect=eq_defect, eq_bound=eq_bound,
        convexity_defect=conv_defect, convexity_bound=conv_bound,
        bv_u=bv_u, bv_ut=bv_ut, max_eq_defect=float(eq_defect.max(initial=0.0)),
        equimeasurable_pass=eq_pass, bv_pass=bv_pass, convexity_pass=conv_pass,
        ustar_continuous=strictly)
