"""Independent evidence that the constructed shapes minimize perimeter.

Two oracles: random area-matched convex competitors whose perimeter must
never beat the candidate shape, and a fixed-area simulated annealing
search on a binary pixel grid scored by a multi-direction Cauchy-Crofton
perimeter estimate (pixel-edge counting would reward axis-aligned shapes;
line sampling over sixteen lattice directions is rotation-robust).

Competitors are drawn in blocks: a block takes its random numbers in one
draw, hulls all its first rungs in one ``geometry.convex_hulls`` call,
cuts all its half-planes in one array pass, and measures and checks its
polygons by segmented reductions over their vertices, stored back to
back.  Only a hull that goes up the ladder is drawn and hulled alone.
"""

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import SamplerInfeasibleError, ScheduleInvalidError
from .family import MinimizerFamily
from .geometry import EPS_GEOM, ConvexPolygon, _measures, _shoelace, convex_hulls, erode

AREA_TOL_REL = 1e-6
PERIMETER_SLACK = 1e-9
SAMPLERS = ("hull", "halfplane", "disk")
HULL_K0 = 12              # the hull ladder's rungs are HULL_K0 * 2**j points
HULL_K_MAX = 65536        # ... up to this many
BLOCK_POINTS = 1 << 14    # first-rung hull points, or half-plane rows x domain vertices, per block
_RS_SMOOTH = math.gamma(5 / 3) * (2 / 3) ** (1 / 3)   # Renyi-Sulanke, smooth bodies
ANNEAL_MAX_GRID = 256


@dataclass(frozen=True, eq=False)
class Competitor:
    """Area-matched candidate set inside the closed domain."""

    kind: str                 # "polygon" or "disk"
    area: float
    perimeter: float
    vertices: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float = 0.0
    provenance: dict = field(default_factory=dict)


class _Fan:
    """Triangle fan of a convex polygon from its first vertex, for uniform points.

    Triangles are picked by inverting the cumulative distribution of their
    areas, the draws of ``Generator.choice(p=areas / areas.sum())`` without
    its per-call checks.
    """

    def __init__(self, v: np.ndarray):
        self.a, self.b, self.c = v[0], v[1:-1], v[2:]
        areas = 0.5 * np.abs((self.b[:, 0] - self.a[0]) * (self.c[:, 1] - self.a[1])
                             - (self.b[:, 1] - self.a[1]) * (self.c[:, 0] - self.a[0]))
        cdf = np.cumsum(areas / areas.sum())
        self.cdf = cdf / cdf[-1]

    def sample(self, rng, n: int) -> np.ndarray:
        return self.place(rng.random(n), rng.random(n), rng.random(n))

    def place(self, u_pick, u_r1, u_r2) -> np.ndarray:
        """Points (..., 2) from three equal-shaped arrays of uniforms: the
        triangle pick and the two barycentric draws."""
        pick = self.cdf.searchsorted(u_pick, side="right")
        r1 = np.sqrt(u_r1)
        wa, wb, wc = 1 - r1, r1 * (1 - u_r2), r1 * u_r2
        out = np.empty(pick.shape + (2,))
        for d in (0, 1):     # one coordinate at a time: no length-2 inner loops
            out[..., d] = self.a[d] * wa + self.b[pick, d] * wb + self.c[pick, d] * wc
        return out


def _hull_start(domain: ConvexPolygon, ratio: float) -> int:
    """First rung of the hull ladder at which the hull is expected to cover the ratio.

    Efron's identity turns the expected hull vertex count N of k uniform
    points into the expected missed share of the domain, N / k.  Renyi &
    Sulanke (1963) give N for an r-gon, (2r/3) ln k, and for a smooth
    body, Gamma(5/3) (2/3)^(1/3) (int kappa^(1/3) ds) k^(1/3) / |domain|^(1/3).
    A polygon with many vertices behaves like a smooth body until k
    resolves its corners, so the smaller count is taken.  The curvature
    integral is the polygon's sum of turn^(1/3) * (mean adjacent edge
    length)^(2/3), exact for regular polygons inscribed in a circle.
    """
    v = domain.vertices
    edge = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
    prev = np.roll(domain.normals, 1, axis=0)
    turn = np.arctan2(prev[:, 0] * domain.normals[:, 1] - prev[:, 1] * domain.normals[:, 0],
                      np.sum(prev * domain.normals, axis=1))
    affine = float(np.sum(np.cbrt(turn) * (0.5 * (edge + np.roll(edge, 1))) ** (2 / 3)))
    smooth = _RS_SMOOTH * affine / _shoelace(v) ** (1 / 3)
    k = HULL_K0
    while (2 * k <= HULL_K_MAX
           and min(smooth * k ** (1 / 3), 2.0 * len(v) / 3.0 * math.log(k)) > (1.0 - ratio) * k):
        k *= 2
    return k


def _hull_ladder(rng, fan, v, k, tries):
    """(vertices, area, k, tries): the hull ladder continued at rung k, after
    ``tries`` short hulls.  A hull short of area v doubles k."""
    while k <= HULL_K_MAX:
        pts = fan.sample(rng, k)
        idx, count = convex_hulls(pts, [k])
        area = _measures(pts[idx], count)[0][0]
        if area >= v:
            return pts[idx], area, k, tries
        k *= 2
        tries += 1
    raise SamplerInfeasibleError(f"hull of {k // 2} points never reached area {v}")


def _tied(p, i):
    """(first, last) in CCW order of each row's extreme vertex i and a neighbour tied with it."""
    n = p.shape[1]
    rows = np.arange(len(p))
    prev, nxt = (i - 1) % n, (i + 1) % n
    at, tied_prev = p[rows, i], p[rows, prev] == p[rows, i]
    return (np.where(tied_prev, prev, i),
            np.where(~tied_prev & (p[rows, nxt] == at), nxt, i))


def _chain_at(brk, ts, member):
    """One boundary chain's tangential coordinate at every sorted projection brk.

    ``member`` marks the chain's own vertices in the sorted order, where
    their coordinates ``ts`` are taken as they are; in between they are
    interpolated from the nearest own vertex on each side, which running
    extrema over the sorted positions find.  This is ``np.interp`` over
    the chain, row by row.
    """
    n = brk.shape[1]
    pos = np.arange(n)
    prev = np.maximum.accumulate(np.where(member, pos, -1), axis=1)
    nxt = np.minimum.accumulate(np.where(member, pos, n)[:, ::-1], axis=1)[:, ::-1]
    prev, nxt = np.where(prev < 0, nxt, prev), np.where(nxt == n, prev, nxt)
    p0, p1 = np.take_along_axis(brk, prev, 1), np.take_along_axis(brk, nxt, 1)
    t0, t1 = np.take_along_axis(ts, prev, 1), np.take_along_axis(ts, nxt, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mid = (t1 - t0) / (p1 - p0) * (brk - p0) + t0
    return np.where(brk == p1, t1, np.where(brk == p0, t0, mid))


def _halfplane_cuts(vertices, normals, v):
    """(slots, kept): the parts of a convex CCW polygon with normal . x <= c of area v,
    one per row of normals.

    The cut area A(c) has the chord length L(c) as its derivative.  Both
    boundary chains from the lowest to the highest vertex along a normal
    are linear between vertex projections, so L is linear between the
    sorted projections, A is exact there by the trapezoid rule and
    quadratic in between; one root per row gives c.  Tied projections
    make zero-width intervals, which no search lands in; a tied extreme
    edge enters as the chord at its end.

    slots (m, n, 2, 2) holds, per row and vertex i, vertex i and the
    crossing of edge i -> i + 1 with the row's cut line; kept (m, n, 2)
    marks the slots that the cut keeps, so ``slots[kept]`` lists every
    cut's CCW vertices, back to back.
    """
    m, n = len(normals), len(vertices)
    rows = np.arange(m)
    nx, ny = normals[:, 0:1], normals[:, 1:2]
    p = nx * vertices[:, 0] + ny * vertices[:, 1]
    t = nx * vertices[:, 1] - ny * vertices[:, 0]
    lo_first, lo_last = _tied(p, p.argmin(axis=1))
    hi_first, hi_last = _tied(p, p.argmax(axis=1))
    idx = np.arange(n)
    # right of the normal: CCW from the lowest to the highest vertex; left: against CCW
    right = (idx - lo_last[:, None]) % n <= ((hi_first - lo_last) % n)[:, None]
    left = (lo_first[:, None] - idx) % n <= ((lo_first - hi_last) % n)[:, None]
    order = p.argsort(axis=1)
    brk, ts = np.take_along_axis(p, order, 1), np.take_along_axis(t, order, 1)
    chord = (_chain_at(brk, ts, np.take_along_axis(left, order, 1))
             - _chain_at(brk, ts, np.take_along_axis(right, order, 1)))
    width = np.diff(brk, axis=1)
    area = np.zeros((m, n))
    np.cumsum(0.5 * (chord[:, :-1] + chord[:, 1:]) * width, axis=1, out=area[:, 1:])
    k = np.minimum(np.count_nonzero(area <= v, axis=1) - 1,
                   n - 2 - np.argmax(width[:, ::-1] > 0.0, axis=1))
    d = v - area[rows, k]
    c0, w = chord[rows, k], width[rows, k]
    slope = (chord[rows, k + 1] - c0) / w
    root = c0 + np.sqrt(np.maximum(c0 * c0 + 2.0 * slope * d, 0.0))
    slots = np.empty((m, n, 2, 2))
    slots[:, :, 0] = vertices
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(root > 0.0, np.minimum(2.0 * d / root, w), 0.0)
        side = p - (brk[rows, k] + s)[:, None]
        after = np.roll(side, -1, axis=1)
        frac = side / (side - after)
        slots[:, :, 1] = vertices + frac[..., None] * (np.roll(vertices, -1, axis=0) - vertices)
    crossing = ((side < 0.0) & (after > 0.0)) | ((after < 0.0) & (side > 0.0))
    return slots, np.stack([side <= 0.0, crossing], axis=2)


class _Sweep:
    """What the competitors of one (domain, volume) share: the fan, the first
    rung of the hull ladder and the disk centers."""

    def __init__(self, family: MinimizerFamily, v: float):
        self.family, self.v = family, float(v)
        self.fan = _Fan(family.domain.vertices)
        self.hull_k0 = _hull_start(family.domain, v / family.v_max)
        self.area_tol = AREA_TOL_REL * family.v_max

    @cached_property
    def disk(self):
        """(radius, uniforms per center, centers of an (m, uniforms) array), or
        (radius, 0, why no disk of area v fits)."""
        radius = float(np.sqrt(self.v / np.pi))
        family = self.family
        if radius > family.balls.inradius * (1.0 + 1e-12):
            return radius, 0, "disk larger than the largest inscribed ball"
        feasible = erode(family.domain, radius, family.structure)
        pts = feasible.points
        if feasible.kind == "empty":
            return radius, 0, "no feasible disk center"
        if feasible.kind == "point":
            return radius, 0, lambda u: np.repeat(pts[:1], len(u), axis=0)
        if feasible.kind == "segment":
            return radius, 1, lambda u: pts[0] + u * (pts[1] - pts[0])
        fan = _Fan(pts)
        return radius, 3, lambda u: fan.place(u[:, 0], u[:, 1], u[:, 2])

    @cached_property
    def vertex_inside(self):
        return self.family.domain.contains_point(self.family.domain.vertices)


def _generators(seed):
    """(first, retry): the generator of every competitor's first draws, and the
    one its hull ladder continuations draw from."""
    if isinstance(seed, np.random.Generator):
        return seed, seed.spawn(1)[0]
    seq = np.random.SeedSequence(seed)
    return np.random.default_rng(seq), np.random.default_rng(seq.spawn(1)[0])


class _Block:
    """Competitors start, start + 1, ... of a sweep, one entry each.

    ``perimeter`` and ``area`` are NaN for a competitor that failed, and
    ``errors`` maps its position in the block to the reason.  Polygons
    keep their vertices back to back in the groups of ``polygons``, a
    disk its center in ``centers``.
    """

    def __init__(self, start, samplers):
        m = len(samplers)
        self.start, self.samplers = start, samplers
        self.perimeter, self.area = np.full(m, np.nan), np.full(m, np.nan)
        self.k, self.tries = np.zeros(m, dtype=int), np.zeros(m, dtype=int)
        self.theta, self.centers = np.full(m, np.nan), np.full((m, 2), np.nan)
        self.radius = 0.0
        self.polygons = []
        self.errors = {}

    def fail(self, rows, reason):
        for j in rows:
            self.errors.setdefault(int(j), reason)

    def add_polygons(self, rows, pts, counts, inside, sweep):
        """Measure and check the polygons of the competitors at rows, stored back
        to back with per-vertex containment flags."""
        if not len(rows):
            return
        area, perimeter, starts = _measures(pts, counts)
        self.area[rows], self.perimeter[rows] = area, perimeter
        self.polygons.append((rows, pts, starts, counts))
        missed = np.abs(area - sweep.v) > sweep.area_tol
        self.fail(rows[missed], "sampler missed the target area")
        self.fail(rows[~np.logical_and.reduceat(inside, starts)], "competitor escapes the domain")

    def raise_first(self):
        if self.errors:
            raise SamplerInfeasibleError(self.errors[min(self.errors)])

    def provenance(self, j) -> dict:
        name = str(self.samplers[j])
        if name == "hull":
            return {"sampler": name, "k": int(self.k[j]), "tries": int(self.tries[j])}
        if name == "halfplane":
            return {"sampler": name, "theta": float(self.theta[j])}
        return {"sampler": name}

    def competitor(self, j) -> Competitor:
        if j in self.errors:
            raise SamplerInfeasibleError(self.errors[j])
        common = {"area": float(self.area[j]), "perimeter": float(self.perimeter[j]),
                  "provenance": self.provenance(j)}
        if self.samplers[j] == "disk":
            return Competitor(kind="disk", center=self.centers[j], radius=self.radius, **common)
        for rows, pts, starts, counts in self.polygons:
            at = np.flatnonzero(rows == j)
            if len(at):
                s = starts[at[0]]
                return Competitor(kind="polygon", vertices=pts[s:s + counts[at[0]]], **common)
        raise AssertionError(f"competitor {j} has no polygon")


def _hull_rows(block, rows, u, sweep, retry):
    """Hull competitors at block positions rows, from their first-rung uniforms u.

    The first rungs are hulled and measured in one call each.  A hull
    short of area v goes on up the ladder (``_hull_ladder``) with draws
    from ``retry``, in competitor order.  Reached hulls are shrunk about
    their vertex mean to area v.
    """
    k0, fan, v = sweep.hull_k0, sweep.fan, sweep.v
    u = u.reshape(len(rows), 3, k0)
    pts = fan.place(u[:, 0], u[:, 1], u[:, 2]).reshape(-1, 2)
    idx, counts = convex_hulls(pts, np.full(len(rows), k0))
    area = _measures(pts[idx], counts)[0]
    block.k[rows] = k0
    first = area >= v
    verts, got = [pts[idx[np.repeat(first, counts)]]], [np.flatnonzero(first)]
    for i in np.flatnonzero(~first):
        j = rows[i]
        try:
            hull, area[i], block.k[j], block.tries[j] = _hull_ladder(retry, fan, v, 2 * k0, 1)
        except SamplerInfeasibleError as exc:
            block.fail([j], str(exc))
            continue
        verts.append(hull)
        counts[i] = len(hull)
        got.append([i])
    got = np.concatenate(got)
    if not len(got):
        return
    verts, counts = np.concatenate(verts), counts[got]
    starts = np.cumsum(counts) - counts
    centroid = np.repeat(np.add.reduceat(verts, starts, axis=0) / counts[:, None], counts, axis=0)
    verts = centroid + np.repeat(np.sqrt(v / area[got]), counts)[:, None] * (verts - centroid)
    block.add_polygons(rows[got], verts, counts,
                       sweep.family.domain.contains_point(verts), sweep)


def _halfplane_rows(block, rows, u, sweep):
    """Half-plane competitors at block positions rows, from one uniform each for the
    normal angle: the domain cut at the offset of area v, in closed form."""
    theta = 2.0 * np.pi * u
    block.theta[rows] = theta
    domain = sweep.family.domain
    slots, kept = _halfplane_cuts(domain.vertices,
                                  np.stack([np.cos(theta), np.sin(theta)], axis=1), sweep.v)
    # the domain's own vertices are checked once; each cut adds two crossings
    inside = np.empty(kept.shape, dtype=bool)
    inside[:, :, 0] = sweep.vertex_inside
    inside[:, :, 1] = True
    crossing = kept[:, :, 1]
    inside[crossing, 1] = domain.contains_point(slots[crossing, 1])
    counts = kept.sum(axis=(1, 2))
    whole = counts >= 3
    block.fail(rows[~whole], "half-plane cut collapsed")
    kept = kept[whole]
    block.add_polygons(rows[whole], slots[whole][kept], counts[whole],
                       inside[whole][kept], sweep)


def _disk_rows(block, rows, u, sweep):
    """Disk competitors of area v at block positions rows, uniform over the feasible centers."""
    radius, per, centers = sweep.disk
    block.radius = radius
    if isinstance(centers, str):
        block.fail(rows, centers)
        return
    block.centers[rows] = c = centers(u.reshape(len(rows), per))
    block.area[rows], block.perimeter[rows] = sweep.v, 2.0 * np.pi * radius
    domain = sweep.family.domain
    inside = domain.contains_point(c, EPS_GEOM * domain.scale - radius)
    block.fail(rows[~inside], "competitor escapes the domain")


def _blocks(sweep: _Sweep, samplers, n_samples: int, seed):
    """The competitors of a sweep, in blocks of at most BLOCK_POINTS first-rung
    hull points or half-plane rows x domain vertices (and at least one competitor).

    Competitor i uses ``samplers[i % len(samplers)]``.  Its first draws
    come from the seed's generator in competitor order: 3 k0 uniforms for
    a hull (the triangle picks of its first rung, then the two barycentric
    draws), one for a half-plane normal angle, and 0, 1 or 3 for a disk
    center on a point, a segment or a polygon of feasible centers.  A
    block draws all of its competitors' at once.  Ladder continuations
    draw from a second generator spawned from the seed, in competitor
    order.  So no competitor depends on the block size.
    """
    if not 0.0 < sweep.v < sweep.family.v_max:
        raise SamplerInfeasibleError("volume must be strictly inside (0, |domain|)")
    for name in samplers:
        if name not in SAMPLERS:
            raise ValueError(f"unknown sampler {name!r}")
    rng, retry = _generators(seed)
    uniforms = {"hull": 3 * sweep.hull_k0, "halfplane": 1,
                "disk": sweep.disk[1] if "disk" in samplers else 0}
    per = max(sweep.hull_k0 if "hull" in samplers else 1,
              len(sweep.family.domain.vertices) if "halfplane" in samplers else 1)
    size = max(1, BLOCK_POINTS // per)
    cycle = np.array(samplers)
    for start in range(0, n_samples, size):
        names = cycle[np.arange(start, min(start + size, n_samples)) % len(cycle)]
        offs = np.cumsum([0] + [uniforms[name] for name in names])
        draws = rng.random(int(offs[-1]))
        block = _Block(start, names)
        for name in SAMPLERS:
            rows = np.flatnonzero(names == name)
            if not len(rows):
                continue
            u = np.stack([draws[o:o + uniforms[name]] for o in offs[rows]])
            if name == "hull":
                _hull_rows(block, rows, u, sweep, retry)
            elif name == "halfplane":
                _halfplane_rows(block, rows, u[:, 0], sweep)
            else:
                _disk_rows(block, rows, u, sweep)
        yield block


def sample_competitor(family: MinimizerFamily, v: float, sampler: str,
                      seed, sweep: _Sweep | None = None) -> Competitor:
    """Draw one area-matched competitor inside the closed domain: a sweep of one.

    Samplers: "hull" (convex hull of uniform points shrunk about its
    vertex mean; the point count starts at the rung whose expected hull
    covers v), "halfplane" (the domain cut at the offset of area v, in
    closed form), "disk" (random feasible center, only when a disk of
    area v fits).  ``seed`` is a seed or a Generator.  ``sweep`` is the
    ``_Sweep`` of (family, v); it is built when absent.
    """
    block = next(_blocks(sweep or _Sweep(family, v), [sampler], 1, seed))
    return block.competitor(0)


@dataclass(eq=False)
class MinimalityReport:
    """Outcome of a competitor sweep against one family member."""

    volume: float
    minimizer_perimeter: float
    n_samples: int
    seed: int
    samplers: list
    min_gap: float
    mean_gap: float
    gap_histogram: dict
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self):
        return {**asdict(self), "passed": self.passed}


def verify_minimality(family: MinimizerFamily, v: float, n_samples: int,
                      seed: int = 0, samplers=None) -> MinimalityReport:
    """Sweep random competitors; record any whose perimeter beats E(v).

    A violation is a competitor perimeter more than 1e-9 below the
    candidate perimeter.  Violations are reported with full provenance
    rather than raised.  Competitors come in blocks (``_blocks``); the
    first one that cannot be drawn, in sweep order, raises
    SamplerInfeasibleError.
    """
    p_min = family.perimeter(v)
    if samplers is None:
        samplers = ["hull", "halfplane"]
        if v <= family.balls.ball_measure:
            samplers.append("disk")
    gaps = np.empty(n_samples)
    violations = []
    for block in _blocks(_Sweep(family, v), samplers, n_samples, seed):
        block.raise_first()
        gap = block.perimeter - p_min
        gaps[block.start:block.start + len(gap)] = gap
        for j in np.flatnonzero(gap < -PERIMETER_SLACK):
            violations.append({"index": block.start + int(j), "gap": float(gap[j]),
                               "perimeter": float(block.perimeter[j]),
                               **block.provenance(j)})
    counts, edges = np.histogram(gaps, bins=16)
    hist = {"edges": edges.tolist(), "counts": counts.tolist()}
    return MinimalityReport(volume=float(v), minimizer_perimeter=float(p_min),
                            n_samples=n_samples, seed=seed, samplers=samplers,
                            min_gap=float(gaps.min()), mean_gap=float(gaps.mean()),
                            gap_histogram=hist, violations=violations)


# ---------------------------------------------------------------------------
# Cauchy-Crofton perimeter on binary grids
#
# Lines are the lattice-line families in sixteen coprime directions; the
# transition count along a family, weighted by the angular gap of the
# direction and the line spacing h/|v|, integrates the Crofton measure.
# The angular weights sum to pi, which makes the estimate unbiased after
# averaging over boundary orientation; the residual anisotropy for a
# straight edge is about one percent.

_CROFTON_DIRS = np.array([(1, 0), (2, 1), (1, 1), (1, 2),
                          (0, 1), (-1, 2), (-1, 1), (-2, 1),
                          (3, 1), (3, 2), (2, 3), (1, 3),
                          (-1, 3), (-2, 3), (-3, 2), (-3, 1)])


def _crofton_weights():
    ang = np.mod(np.arctan2(_CROFTON_DIRS[:, 1], _CROFTON_DIRS[:, 0]), np.pi)
    order = np.argsort(ang)
    a = ang[order]
    gaps = np.diff(np.concatenate([a, [a[0] + np.pi]]))
    w = np.empty(len(a))
    w[0] = 0.5 * (gaps[-1] + gaps[0])
    w[1:] = 0.5 * (gaps[:-1] + gaps[1:])
    out = np.empty(len(a))
    out[order] = w
    return out


_CROFTON_W = _crofton_weights()
_CROFTON_LEN = np.linalg.norm(_CROFTON_DIRS, axis=1)


def crofton_perimeter(grid, cell: float) -> float:
    """Perimeter of a binary cell grid from line-transition counts.

    ``grid`` is (ny, nx) boolean (nonzero = inside); ``cell`` the pixel
    side length.  Cells beyond the array count as outside.
    """
    return _CroftonCounts(grid, cell).perimeter()


_PAD = 3  # widest stencil reach: every read of a grid cell's stencil stays in the buffer


def _padded_buffer(grid):
    """(bytearray, live 2-D bool view) of ``grid`` inside a zero margin of _PAD cells."""
    padded = np.pad(np.asarray(grid).astype(bool), _PAD)
    buf = bytearray(padded.tobytes())
    return buf, np.frombuffer(buf, dtype=bool).reshape(padded.shape)


class _CroftonCounts:
    """Transition counts of a binary grid and their weighted sum.

    Cell (j, i) is byte ``(j + 3) * width + i + 3`` of ``buf``; the zero
    margin is the outside, so stencil reads need no bounds checks.  Flat
    offset ``b * width + a`` reaches the Crofton neighbour (a, b), and
    ``g`` is a live boolean view of the grid.  Offsets are positive and reach
    at most _PAD cells, so ``counts``, the differing flat pairs of ``buf``,
    are the grid's: any other flat pair joins two margin cells.
    """

    def __init__(self, grid, cell):
        self.buf, self.cells = _padded_buffer(grid)
        self.g = self.cells[_PAD:-_PAD, _PAD:-_PAD]
        self.width = self.cells.shape[1]
        self.coef = [float(w * (cell / ln)) for w, ln in zip(_CROFTON_W, _CROFTON_LEN)]
        self.offsets = [int(b) * self.width + int(a) for a, b in _CROFTON_DIRS]
        flat = self.cells.ravel()
        self.counts = [int(np.count_nonzero(flat[d:] != flat[:-d])) for d in self.offsets]

    def perimeter(self, counts=None) -> float:
        total = 0.0
        for c, n in zip(self.coef, self.counts if counts is None else counts):
            total += c * n
        return 0.5 * total


class _CroftonCounter(_CroftonCounts):
    """Transition counts of a binary grid, updated from a fixed flat stencil.

    ``sums`` keeps, per padded cell x, the stencil sum
    ``sum_k coef_k * (buf[x + o_k] + buf[x - o_k])`` (cells beyond the
    buffer read as outside), so a swap's perimeter change is
    ``sums[p] - sums[q] + adjacent_coef.get(q - p, 0.0)`` and only a
    committed swap updates them.  ``nin`` keeps, per padded cell, its
    count of in-cell 4-neighbours, and ``nin_cells`` is its live 2-D view.
    """

    def __init__(self, grid, cell):
        super().__init__(grid, cell)
        self.n4 = (1, -1, self.width, -self.width)
        # flat q - p -> direction k when q is p's neighbour along direction k
        self.adjacent = {s * d: k for k, d in enumerate(self.offsets) for s in (1, -1)}
        self.adjacent_coef = {d: self.coef[k] for d, k in self.adjacent.items()}
        self.sums = _stencil_sums(self.cells, self.coef).ravel().tolist()
        ext = np.pad(self.cells, 1).astype(np.uint8)
        nin = ext[:-2, 1:-1] + ext[2:, 1:-1] + ext[1:-1, :-2] + ext[1:-1, 2:]
        self.nin = bytearray(nin.tobytes())
        self.nin_cells = np.frombuffer(self.nin, dtype=np.uint8).reshape(nin.shape)

    def price(self, p, q):
        """(counts, perimeter) once in-cell p leaves and out-cell q joins.

        Per direction p leaving adds 2 (nb1 + nb2) - 2 and q joining adds
        2 - 2 (nb1 + nb2), reading p as already out; the grid is untouched.
        """
        buf = self.buf
        counts = [n + 2 * (buf[p + d] + buf[p - d] - buf[q + d] - buf[q - d])
                  for n, d in zip(self.counts, self.offsets)]
        k = self.adjacent.get(q - p)
        if k is not None:
            counts[k] += 2  # q's neighbour p has already left
        return counts, self.perimeter(counts)

    def commit(self, p, q, counts):
        """Apply a swap priced by ``price``, and update the stencil sums and
        4-neighbour counts around p and q."""
        self.buf[p] = 0
        self.buf[q] = 1
        self.counts = counts
        sums = self.sums
        for c, d in zip(self.coef, self.offsets):
            sums[p + d] -= c
            sums[p - d] -= c
            sums[q + d] += c
            sums[q - d] += c
        nin = self.nin
        for d in self.n4:
            nin[p + d] -= 1
            nin[q + d] += 1

    def boundaries(self, mask_cells):
        """Flat indices, in row-major order, of in-cells with an out 4-neighbour
        and of masked out-cells with an in 4-neighbour."""
        cells, nin = self.cells, self.nin_cells
        return (np.flatnonzero(cells & (nin < 4)),
                np.flatnonzero((mask_cells > cells) & (nin > 0)))


def _stencil_sums(cells, coef):
    """sum_k coef_k * (cells[x + (a_k, b_k)] + cells[x - (a_k, b_k)]) at every cell x,
    reading cells beyond the array as outside."""
    ny, nx = cells.shape
    ext = np.pad(cells.astype(float), _PAD)
    sums = np.zeros((ny, nx))
    for (a, b), c in zip(_CROFTON_DIRS, coef):
        fwd = ext[_PAD + b:_PAD + b + ny, _PAD + a:_PAD + a + nx]
        back = ext[_PAD - b:_PAD - b + ny, _PAD - a:_PAD - a + nx]
        sums += c * (fwd + back)
    return sums


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric cooling: T starts at t0_cells * h and shrinks per sweep."""

    t0_cells: float = 2.0
    ratio: float = 0.97
    sweeps: int = 400

    def validate(self):
        if not (0.0 < self.ratio < 1.0):
            raise ScheduleInvalidError("cooling ratio must be in (0, 1)")
        if self.sweeps <= 0 or self.t0_cells <= 0.0:
            raise ScheduleInvalidError("sweeps and start temperature must be positive")


@dataclass(eq=False)
class AnnealResult:
    """Best state found by the fixed-area boundary-swap chain.

    ``proposals`` counts the drawn moves (one per boundary in-cell per
    sweep, stale or not) and ``accepted`` the swaps taken.
    """

    grid: np.ndarray
    perimeter: float
    origin: np.ndarray
    cell: float
    in_count: int
    seed: int
    energy_trace: np.ndarray
    temperature_final: float
    proposals: int
    accepted: int


def anneal_discrete(domain: ConvexPolygon, v: float, grid_n: int,
                    schedule: AnnealSchedule | None = None,
                    seed: int = 0) -> AnnealResult:
    """Metropolis search for the minimal-perimeter pixel set of area v.

    Moves swap one boundary in-cell with one out-cell adjacent to the
    in-set, so the cell count is conserved exactly.  Each sweep draws all
    its moves and acceptance limits at once (``_sweep_moves``).  The
    energy is the Crofton perimeter: a proposal is decided on the
    counter's kept stencil sums and 4-neighbour counts, and only an
    accepted swap is priced into exact transition counts, whose
    perimeter is the energy of record.  Starts from a compact
    axis-aligned block at a seeded position.
    """
    if (isinstance(grid_n, bool) or not isinstance(grid_n, (int, np.integer))
            or not 1 <= grid_n <= ANNEAL_MAX_GRID):
        raise ScheduleInvalidError(f"desk-scale oracle: grid_n must be an integer from 1 to "
                                   f"{ANNEAL_MAX_GRID}, got {grid_n!r}")
    schedule = schedule or AnnealSchedule()
    schedule.validate()
    rng, mask, grid, h, origin = _anneal_start(domain, v, grid_n, seed)
    count = int(grid.sum())
    counter = _CroftonCounter(grid, h)
    buf, nin, sums, adjacent_coef = counter.buf, counter.nin, counter.sums, counter.adjacent_coef
    mask_buf, mask_cells = _padded_buffer(mask)
    energy = counter.perimeter()
    best = bytes(buf)
    best_energy = energy
    temp = schedule.t0_cells * h
    trace = np.empty(schedule.sweeps)
    proposals = accepted = 0

    for sweep in range(schedule.sweeps):
        bd_in, bd_out = counter.boundaries(mask_cells)
        if len(bd_in) == 0 or len(bd_out) == 0:
            trace[sweep:] = energy
            break
        proposals += len(bd_in)
        for p, q, limit in _sweep_moves(rng, bd_in, bd_out, temp):
            # valid: p is in with an out 4-neighbour, q a masked out-cell with an in one
            if (buf[p] and not buf[q] and mask_buf[q] and nin[p] < 4 and nin[q]
                    and sums[p] - sums[q] + adjacent_coef.get(q - p, 0.0) <= limit):
                counts, energy = counter.price(p, q)
                counter.commit(p, q, counts)
                accepted += 1
                if energy < best_energy:
                    best_energy = energy
                    best = bytes(buf)
        trace[sweep] = energy
        temp *= schedule.ratio
        if np.count_nonzero(counter.g) != count:  # swap moves conserve the count
            raise RuntimeError(f"anneal sweep {sweep} changed the cell count from {count}")

    best_grid = _unpad(best, counter.cells.shape)
    assert int(best_grid.sum()) == count
    return AnnealResult(grid=best_grid, perimeter=float(best_energy), origin=origin,
                        cell=h, in_count=count, seed=seed, energy_trace=trace,
                        temperature_final=float(temp), proposals=proposals,
                        accepted=accepted)


def _anneal_start(domain, v, grid_n, seed):
    """(rng, mask, grid, h, origin): the seeded generator, the domain mask on the
    grid of cell side h over the bounding box, the start block of round(v / h^2)
    cells, and the center of cell (0, 0)."""
    rng = np.random.default_rng(seed)
    lo = domain.vertices.min(axis=0)
    hi = domain.vertices.max(axis=0)
    h = float(np.max(hi - lo)) / grid_n
    nx = int(np.ceil((hi[0] - lo[0]) / h - 1e-9))
    ny = int(np.ceil((hi[1] - lo[1]) / h - 1e-9))
    xs = lo[0] + (np.arange(nx) + 0.5) * h
    ys = lo[1] + (np.arange(ny) + 0.5) * h
    X, Y = np.meshgrid(xs, ys)
    mask = domain.contains_point(np.stack([X, Y], axis=-1).reshape(-1, 2))
    mask = mask.reshape(ny, nx)
    count = int(round(v / (h * h)))
    if not 0 < count <= int(mask.sum()):
        raise ScheduleInvalidError("target area infeasible on this grid")
    return rng, mask, _seed_block(rng, mask, count), h, lo + 0.5 * h


def _sweep_moves(rng, bd_in, bd_out, temp):
    """One sweep's moves: (p, q, limit) for each boundary in-cell.

    p and q are drawn uniformly from the sweep's boundary lists, in three
    vectorised draws.  A move is taken when its perimeter change is at
    most ``limit = -temp * log(U)``: the Metropolis rule
    ``U < exp(-delta / temp)`` rearranged, so a change <= 0 is always
    taken (U = 0 gives an infinite limit).
    """
    n_in, n_out = len(bd_in), len(bd_out)
    ps = bd_in[rng.integers(n_in, size=n_in)].tolist()
    qs = bd_out[rng.integers(n_out, size=n_in)].tolist()
    with np.errstate(divide="ignore"):
        limits = (-temp * np.log(rng.random(n_in))).tolist()
    return zip(ps, qs, limits)


def _unpad(buf, shape):
    """Copy of the grid held in a padded byte buffer of the given 2-D shape."""
    cells = np.frombuffer(buf, dtype=bool).reshape(shape)
    return cells[_PAD:-_PAD, _PAD:-_PAD].copy()


def _seed_block(rng, mask, count):
    """Compact axis-aligned block of `count` cells around a seeded interior cell."""
    ny, nx = mask.shape
    cells = np.argwhere(mask)
    anchor = cells[rng.integers(len(cells))]
    cheb = np.maximum(np.abs(np.arange(ny)[:, None] - anchor[0]),
                      np.abs(np.arange(nx)[None, :] - anchor[1]))
    order = np.lexsort((np.arange(mask.size), cheb.reshape(-1) + np.where(mask.reshape(-1), 0, 10**6)))
    grid = np.zeros(mask.size, dtype=bool)
    grid[order[:count]] = True
    grid = grid.reshape(ny, nx)
    assert not np.any(grid & ~mask)
    return grid
