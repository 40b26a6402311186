"""Independent evidence that the constructed shapes minimize perimeter.

Two oracles: random area-matched convex competitors whose perimeter must
never beat the candidate shape, and a fixed-area simulated annealing
search on a binary pixel grid scored by a multi-direction Cauchy-Crofton
perimeter estimate (pixel-edge counting would reward axis-aligned shapes;
line sampling over sixteen lattice directions is rotation-robust).
A chain's stencil sums, 4-neighbour counts and transition counts all read
one stencil: a cell's two Crofton neighbours along each direction.

Competitors are drawn in blocks: a block takes its random numbers in one
draw, hulls all its first rungs in one ``geometry.convex_hulls`` call,
cuts all its half-planes in one array pass, and measures and checks its
polygons by segmented reductions over their vertices, stored back to
back.  The hulls that fall short of their area go up the ladder a
window of blocks at a time: the window draws their second rungs in one
call and hulls them in one call, at most CHUNK_ENTRIES // 2 points at a
time.  Only a hull that climbs to a third rung is drawn and hulled alone.
"""

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import SamplerInfeasibleError, ScheduleInvalidError, VolumeOutOfRangeError
from .family import MinimizerFamily
from .geometry import CHUNK_ENTRIES, EPS_GEOM, ConvexPolygon, _measures, convex_hulls

AREA_TOL_REL = 1e-6
PERIMETER_SLACK = 1e-9
SAMPLERS = ("hull", "halfplane", "disk")
HULL_K0 = 12              # the hull ladder's rungs are HULL_K0 * 2**j points
HULL_K_MAX = HULL_K0 << 12   # ... up to this many, 49,152
WINDOW_BLOCKS = 4         # blocks whose short hulls draw and hull their second rungs together
_RS_SMOOTH = math.gamma(5 / 3) * (2 / 3) ** (1 / 3)   # Renyi-Sulanke, smooth bodies
ANNEAL_MAX_GRID = 256
# A half-plane cut of area v at a corner is about sqrt(v) deep, and one
# whose depth is within an ulp of the corner's coordinates collapses: v
# must be at least (_FLOOR_ULPS * eps * max|x|)^2, which keeps the chance
# of a collapse near 1e-9 a competitor.
_FLOOR_ULPS = 2 ** 13


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
    edge = domain.lengths
    prev = np.roll(domain.normals, 1, axis=0)
    turn = np.arctan2(prev[:, 0] * domain.normals[:, 1] - prev[:, 1] * domain.normals[:, 0],
                      np.sum(prev * domain.normals, axis=1))
    affine = float(np.sum(np.cbrt(turn) * (0.5 * (edge + np.roll(edge, 1))) ** (2 / 3)))
    smooth = _RS_SMOOTH * affine / domain.area ** (1 / 3)
    k = HULL_K0
    while (2 * k <= HULL_K_MAX
           and min(smooth * k ** (1 / 3), 2.0 * len(edge) / 3.0 * math.log(k)) > (1.0 - ratio) * k):
        k *= 2
    return k


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
        # core_body is "empty" only beyond r* (1 + 1e-9) + EPS_GEOM scale
        feasible = family.structure.core_body(radius)
        pts = feasible.points
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


def _hull_sets(fan, u, k):
    """(points, vertices, counts, areas): sets of k uniform points, one per row of
    3k uniforms u (the triangle picks, then the two barycentric draws), back
    to back, and their hulls from one ``convex_hulls`` call: vertex indices
    into points, back to back, and the vertex counts and areas per set."""
    pts = fan.place(u[:, :k], u[:, k:2 * k], u[:, 2 * k:]).reshape(-1, 2)
    idx, counts = convex_hulls(pts, np.full(len(u), k))
    return pts, idx, counts, _measures(pts[idx], counts)[0]


def _hull_rows(block, rows, u, sweep):
    """Hull competitors at block positions rows, from their first-rung uniforms u.

    The first rungs are hulled and measured in one call, and the hulls
    that reach area v are added.  Returns the block positions of the
    short ones, which go on up the ladder (``_ladders``).
    """
    pts, idx, counts, area = _hull_sets(sweep.fan, u, sweep.hull_k0)
    block.k[rows] = sweep.hull_k0
    first = area >= sweep.v
    _add_hulls(block, rows[first], pts[idx[np.repeat(first, counts)]], counts[first],
               area[first], sweep)
    return rows[~first]


def _add_hulls(block, rows, verts, counts, area, sweep):
    """Add the hulls, back to back, of the competitors at rows, each shrunk about
    its vertex mean from its area to v."""
    if not len(rows):
        return
    starts = np.cumsum(counts) - counts
    centroid = np.repeat(np.add.reduceat(verts, starts, axis=0) / counts[:, None], counts, axis=0)
    verts = centroid + np.repeat(np.sqrt(sweep.v / area), counts)[:, None] * (verts - centroid)
    block.add_polygons(rows, verts, counts, sweep.family.domain.contains_point(verts), sweep)


def _ladders(window, sweep, retry):
    """Climb the hull ladders of a window's short competitors, and yield each block
    of the window, in order, once its own are done.

    ``window`` lists (block, short positions).  Rung j + 2 of a ladder
    (2^(j+1) k0 points) takes the next 2^j *slots* of 6 k0 uniforms from
    ``retry``, in competitor order.  So the window draws one slot for
    each competitor it has left, at most CHUNK_ENTRIES // 2 points' worth,
    in one call and hulls them all as second rungs in one call.  A
    competitor takes the next slot's hull if it reaches v; one still
    short climbs alone on the slots after it, and draws more only once
    the drawn ones run out.
    """
    k0, fan, v = sweep.hull_k0, sweep.fan, sweep.v
    slot = 6 * k0
    per_call = max(1, CHUNK_ENTRIES // 2 // (2 * k0))
    left = sum(len(short) for _, short in window)
    pool, at = np.empty((0, slot)), 0
    for block, short in window:
        if 2 * k0 > HULL_K_MAX:     # no second rung
            block.fail(short, f"hull of {k0} points never reached area {v}")
            short = ()
        reached = []
        for j in short:
            if at == len(pool):
                pool, at = retry.random((min(left, per_call), slot)), 0
                pts, idx, counts, area = _hull_sets(fan, pool, 2 * k0)
                starts = np.cumsum(counts) - counts
            left -= 1
            hull, got = pts[idx[starts[at]:starts[at] + counts[at]]], area[at]
            at += 1
            k, tries = 2 * k0, 1
            while not got >= v and 2 * k <= HULL_K_MAX:
                k, tries = 2 * k, tries + 1
                take = pool[at:at + k // (2 * k0)].ravel()
                at += len(take) // slot
                u = np.concatenate([take, retry.random(3 * k - len(take))])
                ladder, ladder_idx, _, ladder_area = _hull_sets(fan, u[None], k)
                hull, got = ladder[ladder_idx], ladder_area[0]
            if not got >= v:
                block.fail([j], f"hull of {k} points never reached area {v}")
                continue
            block.k[j], block.tries[j] = k, tries
            reached.append((j, hull, got))
        if reached:
            rows, hulls, areas = zip(*reached)
            _add_hulls(block, np.array(rows), np.concatenate(hulls),
                       np.array([len(h) for h in hulls]), np.array(areas), sweep)
        yield block


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
    """The competitors of a sweep, in blocks of at most CHUNK_ENTRIES first-rung
    hull points or half-plane rows x domain vertices (and at least one competitor).

    Competitor i uses ``samplers[i % len(samplers)]``.  Its first draws
    come from the seed's generator in competitor order: 3 k0 uniforms for
    a hull (the triangle picks of its first rung, then the two barycentric
    draws), one for a half-plane normal angle, and 0, 1 or 3 for a disk
    center on a point, a segment or a polygon of feasible centers.  A
    block draws all of its competitors' at once.  Ladder continuations
    draw from a second generator spawned from the seed, in competitor
    order, slot by slot (``_ladders``).  So no competitor depends on the
    block size.

    Blocks go up the ladder in windows of at most WINDOW_BLOCKS, so that
    what a sweep holds does not grow with n_samples.  A window ends early
    at a block that records a failure, since the first failure in sweep
    order ends a ``verify_minimality`` sweep, and each block is yielded
    once its own ladders are done.
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
    size = max(1, CHUNK_ENTRIES // per)
    cycle = np.array(samplers)
    window = []
    for start in range(0, n_samples, size):
        names = cycle[np.arange(start, min(start + size, n_samples)) % len(cycle)]
        offs = np.cumsum([0] + [uniforms[name] for name in names])
        draws = rng.random(int(offs[-1]))
        block, short = _Block(start, names), np.empty(0, dtype=int)
        for name in SAMPLERS:
            rows = np.flatnonzero(names == name)
            if not len(rows):
                continue
            u = np.stack([draws[o:o + uniforms[name]] for o in offs[rows]])
            if name == "hull":
                short = _hull_rows(block, rows, u, sweep)
            elif name == "halfplane":
                _halfplane_rows(block, rows, u[:, 0], sweep)
            else:
                _disk_rows(block, rows, u, sweep)
        window.append((block, short))
        if len(window) == WINDOW_BLOCKS or block.errors:
            yield from _ladders(window, sweep, retry)
            window = []
    yield from _ladders(window, sweep, retry)


def sample_competitor(family: MinimizerFamily, v: float, sampler: str, seed) -> Competitor:
    """Draw one area-matched competitor inside the closed domain: a sweep of one.

    Samplers: "hull" (convex hull of uniform points shrunk about its
    vertex mean; the point count starts at the rung whose expected hull
    covers v), "halfplane" (the domain cut at the offset of area v, in
    closed form), "disk" (random feasible center, only when a disk of
    area v fits).
    """
    block = next(_blocks(_Sweep(family, v), [sampler], 1, seed))
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


def _volume_floor(domain: ConvexPolygon) -> float:
    """Least volume ``verify_minimality`` takes: (_FLOOR_ULPS * eps * max|x|)^2,
    with max|x| the largest vertex coordinate in absolute value."""
    extent = float(np.max(np.abs(domain.vertices)))
    return (_FLOOR_ULPS * np.finfo(float).eps * extent) ** 2


def verify_minimality(family: MinimizerFamily, v: float, n_samples: int,
                      seed: int = 0) -> MinimalityReport:
    """Sweep random competitors; record any whose perimeter beats E(v).

    The samplers are "hull" and "halfplane", and "disk" too when a disk of
    area v fits (v at most the largest ball's area).  A violation is a
    competitor perimeter more than 1e-9 P(v) below the candidate perimeter
    P(v), a threshold that scales with the domain.
    Violations are reported with full provenance rather than raised.
    Competitors come in blocks (``_blocks``); the first one that cannot
    be drawn, in sweep order, raises SamplerInfeasibleError, as does
    n_samples below 1.  v below ``_volume_floor`` raises
    VolumeOutOfRangeError.
    """
    floor = _volume_floor(family.domain)
    if v < floor:
        raise VolumeOutOfRangeError(
            f"verification needs v of at least {floor:.6g} = (2^13 eps max|x|)^2 on this "
            f"domain: a smaller half-plane cut is not resolved in absolute coordinates")
    p_min = family.perimeter(v)
    samplers = ["hull", "halfplane"]
    if v <= family.balls.ball_measure:
        samplers.append("disk")
    if n_samples < 1:
        raise SamplerInfeasibleError(f"n_samples must be at least 1, got {n_samples}")
    gaps = np.empty(n_samples)
    violations = []
    for block in _blocks(_Sweep(family, v), samplers, n_samples, seed):
        block.raise_first()
        gap = block.perimeter - p_min
        gaps[block.start:block.start + len(gap)] = gap
        for j in np.flatnonzero(gap < -PERIMETER_SLACK * p_min):
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


_PAD = 3  # widest stencil reach: every read of a grid cell's stencil stays in the buffer


class _Chain:
    """One annealing chain on a binary grid: its state, read off one stencil,
    and its log of accepted swaps.

    Cell (j, i) is byte ``(j + 3) * width + i + 3`` of ``buf`` and of
    ``mask_buf``; the zero margin is the outside.  Flat offset
    ``o_k = b * width + a`` reaches the Crofton neighbour (a, b), and each
    count the chain keeps is a sum of ``near_k(x) = buf[x + o_k] + buf[x - o_k]``
    (cells beyond the buffer read as outside):

    - the stencil sums ``sums[x] = sum_k coef_k near_k(x)``, so a swap's
      perimeter change is ``sums[p] - sums[q] + adjacent_coef.get(q - p, 0.0)``;
    - the in-cell 4-neighbours ``nin[x] = near_0(x) + near_4(x)``;
    - the transition counts ``counts[k] = 2 |in| - sum_{x in} near_k(x)``
      (both o_k neighbours of an in-cell lie in the buffer).

    ``swap(p, q)`` logs p, q and both cells' windows ``buf[x - reach : x +
    reach + 1]`` (``reach = 3 * width + 3``), then commits the swap and
    updates ``sums`` and ``nin``.  At ``cap = CHUNK_ENTRIES // 64`` logged
    swaps, and once more when the chain ends (``flush``), the windows give
    each swap's count change, 2 (near_k(p) - near_k(q)), plus 2 when
    q - p = +-o_k since p leaves before q joins.  Their running sums are the
    counts after each swap, and each energy is the Crofton perimeter of its
    counts, summed in direction order.  ``best`` and ``best_energy`` follow
    the first strict minimum, rebuilt by undoing the later swaps of its
    batch, and each sweep marked by ``end_sweep`` gets the energy after its
    last swap in ``trace``.
    """

    def __init__(self, grid, mask, cell, trace):
        padded = np.pad(np.asarray(grid, dtype=bool), _PAD).view(np.uint8)
        flat = padded.ravel()
        self.buf = bytearray(flat)
        self.mask_buf = bytearray(np.pad(np.asarray(mask, dtype=bool), _PAD))
        self.width = width = padded.shape[1]
        self.coef = [float(w * (cell / ln)) for w, ln in zip(_CROFTON_W, _CROFTON_LEN)]
        self.offsets = [int(b) * width + int(a) for a, b in _CROFTON_DIRS]
        self.n4 = (1, -1, width, -width)
        self.adjacent_coef = {s * d: c for c, d in zip(self.coef, self.offsets) for s in (1, -1)}
        # one offset at a time: the build's temporaries take a few bytes a cell
        inside = flat.view(bool)
        n_in = int(np.count_nonzero(inside))
        sums, nin, counts = np.zeros(len(flat)), np.zeros(len(flat), dtype=np.uint8), []
        for c, d in zip(self.coef, self.offsets):
            near = np.zeros(len(flat), dtype=np.uint8)
            near[:-d] = flat[d:]
            near[d:] += flat[:-d]
            sums += c * near
            counts.append(2 * n_in - int(near[inside].sum()))
            if d in self.n4:
                nin += near
        self.sums, self.nin = sums.tolist(), bytearray(nin)
        self.trace = trace
        self.reach = 3 * width + 3
        self.cap = max(1, CHUNK_ENTRIES // 64)
        self.ps, self.qs, self.windows, self.marks = [], [], bytearray(), []
        self.counts = np.array(counts)
        self.energy = float(self.perimeter(self.counts))
        self.best, self.best_energy = bytes(self.buf), self.energy

    def perimeter(self, counts):
        """Crofton perimeter of counts (the last axis runs over the directions),
        summed in direction order."""
        total = 0.0
        for k, c in enumerate(self.coef):
            total += c * counts[..., k]
        return 0.5 * total

    def boundaries(self):
        """Flat indices, in row-major order, of in-cells with an out 4-neighbour
        and of masked out-cells with an in 4-neighbour."""
        cells = np.frombuffer(self.buf, dtype=bool)
        nin = np.frombuffer(self.nin, dtype=np.uint8)
        return (np.flatnonzero(cells & (nin < 4)),
                np.flatnonzero((np.frombuffer(self.mask_buf, dtype=bool) > cells) & (nin > 0)))

    def swap(self, p, q):
        """Log the swap of in-cell p for out-cell q, and commit it: move p out
        and q in, and update the stencil sums and 4-neighbour counts around
        p and q."""
        buf, reach = self.buf, self.reach
        self.ps.append(p)
        self.qs.append(q)
        self.windows += buf[p - reach:p + reach + 1]
        self.windows += buf[q - reach:q + reach + 1]
        buf[p] = 0
        buf[q] = 1
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
        if len(self.ps) == self.cap:
            self.flush()

    def end_sweep(self, sweep):
        """Mark the sweep's trace entry for the energy after the swaps logged so far."""
        self.marks.append((sweep, len(self.ps)))

    def priced(self):
        """(counts, energies) after each logged swap."""
        offsets = np.array(self.offsets)
        win = np.frombuffer(self.windows, dtype=np.uint8).reshape(len(self.ps), 2, -1)
        near = win[:, :, self.reach + offsets] + win[:, :, self.reach - offsets]
        step = np.abs(np.array(self.qs) - np.array(self.ps))
        delta = 2 * (near[:, 0].astype(np.int64) - near[:, 1] + (step[:, None] == offsets))
        counts = self.counts + np.cumsum(delta, axis=0)
        return counts, self.perimeter(counts)

    def flush(self):
        """Price the logged swaps, follow the best state and fill the marked
        trace entries; then empty the log."""
        if self.ps:
            counts, energies = self.priced()
            i = int(np.argmin(energies))
            if energies[i] < self.best_energy:
                best = bytearray(self.buf)
                for p, q in zip(self.ps[:i:-1], self.qs[:i:-1]):
                    best[q] = 0
                    best[p] = 1
                self.best, self.best_energy = bytes(best), float(energies[i])
            ends = np.concatenate([[self.energy], energies])
            self.counts, self.energy = counts[-1], float(energies[-1])
        else:
            ends = np.array([self.energy])
        if self.marks:
            sweeps, at = zip(*self.marks)
            self.trace[list(sweeps)] = ends[list(at)]
        self.ps, self.qs, self.windows, self.marks = [], [], bytearray(), []


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
    chain's kept stencil sums and 4-neighbour counts, and an accepted
    swap is committed and logged.  The exact transition counts, whose
    perimeter is the energy of record, the energy trace and the best
    state come from the log in batches (``_Chain``).  Starts from a
    compact axis-aligned block at a seeded position.
    """
    if (isinstance(grid_n, bool) or not isinstance(grid_n, (int, np.integer))
            or not 1 <= grid_n <= ANNEAL_MAX_GRID):
        raise ScheduleInvalidError(f"desk-scale oracle: grid_n must be an integer from 1 to "
                                   f"{ANNEAL_MAX_GRID}, got {grid_n!r}")
    schedule = schedule or AnnealSchedule()
    schedule.validate()
    rng, mask, grid, h, origin = _anneal_start(domain, v, grid_n, seed)
    count = int(grid.sum())
    trace = np.empty(schedule.sweeps)
    chain = _Chain(grid, mask, h, trace)
    buf, mask_buf, nin, sums = chain.buf, chain.mask_buf, chain.nin, chain.sums
    adjacent_coef = chain.adjacent_coef
    cells = np.frombuffer(buf, dtype=bool)
    temp = schedule.t0_cells * h
    proposals = accepted = 0

    with np.errstate(divide="ignore"):
        for sweep in range(schedule.sweeps):
            bd_in, bd_out = chain.boundaries()
            if len(bd_in) == 0 or len(bd_out) == 0:
                chain.flush()
                trace[sweep:] = chain.energy
                break
            proposals += len(bd_in)
            for p, q, limit in _sweep_moves(rng, bd_in, bd_out, temp):
                # valid: p is in with an out 4-neighbour, q a masked out-cell with an in one
                if (buf[p] and not buf[q] and mask_buf[q] and nin[p] < 4 and nin[q]
                        and sums[p] - sums[q] + adjacent_coef.get(q - p, 0.0) <= limit):
                    chain.swap(p, q)
                    accepted += 1
            chain.end_sweep(sweep)
            temp *= schedule.ratio
            if np.count_nonzero(cells) != count:  # swap moves conserve the count
                raise RuntimeError(f"anneal sweep {sweep} changed the cell count from {count}")
    chain.flush()

    best_grid = _unpad(chain.best, chain.width)
    assert int(best_grid.sum()) == count
    return AnnealResult(grid=best_grid, perimeter=chain.best_energy, origin=origin,
                        cell=h, in_count=count, seed=seed, energy_trace=trace,
                        temperature_final=float(temp), proposals=proposals,
                        accepted=accepted)


def _anneal_start(domain, v, grid_n, seed):
    """(rng, mask, grid, h, origin): the seeded generator, the domain mask on the
    grid of cell side h over the bounding box, the start block of round(v / h^2)
    cells, and the center of cell (0, 0)."""
    rng = np.random.default_rng(seed)
    lo, hi = domain.lo, domain.hi
    h = float(np.max(hi - lo)) / grid_n
    nx = int(np.ceil((hi[0] - lo[0]) / h - 1e-9))
    ny = int(np.ceil((hi[1] - lo[1]) / h - 1e-9))
    xs = lo[0] + (np.arange(nx) + 0.5) * h
    ys = lo[1] + (np.arange(ny) + 0.5) * h
    mask = domain.contains_lattice(xs, ys)
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
    taken (U = 0 gives an infinite limit; the caller ignores the divide
    by zero with ``np.errstate``).
    """
    n_in, n_out = len(bd_in), len(bd_out)
    ps = bd_in[rng.integers(n_in, size=n_in)].tolist()
    qs = bd_out[rng.integers(n_out, size=n_in)].tolist()
    limits = np.log(rng.random(n_in))
    limits *= -temp
    return zip(ps, qs, limits.tolist())


def _unpad(buf, width):
    """Copy of the grid held in a padded byte buffer of the given width."""
    cells = np.frombuffer(buf, dtype=bool).reshape(-1, width)
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
