"""Independent evidence that the constructed shapes minimize perimeter.

Two oracles: random area-matched convex competitors whose perimeter must
never beat the candidate shape, and a fixed-area simulated annealing
search on a binary pixel grid scored by a multi-direction Cauchy-Crofton
perimeter estimate (pixel-edge counting would reward axis-aligned shapes;
line sampling over sixteen lattice directions is rotation-robust).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SamplerInfeasibleError, ScheduleInvalidError
from .family import MinimizerFamily
from .geometry import (ConvexPolygon, EPS_GEOM, _shoelace, _edge_length_sum,
                       clip_halfplane, convex_hull, erode)

AREA_TOL_REL = 1e-6
PERIMETER_SLACK = 1e-9
SAMPLERS = ("hull", "halfplane", "disk")
QHULL_RETRIES = 16        # Qhull failures one hull competitor may absorb
HULL_K0 = 12              # the hull ladder's rungs are HULL_K0 * 2**j points
HULL_K_MAX = 65536        # ... up to this many
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


def _polygon_competitor(vertices, provenance):
    return Competitor(kind="polygon", area=_shoelace(vertices),
                      perimeter=_edge_length_sum(vertices),
                      vertices=vertices, provenance=provenance)


def _check_containment(domain: ConvexPolygon, comp: Competitor):
    eps = EPS_GEOM * domain.scale
    if comp.kind == "polygon":
        viol = comp.vertices @ domain.normals.T - domain.offsets
        ok = np.max(viol) <= eps
    else:
        viol = comp.center @ domain.normals.T - domain.offsets + comp.radius
        ok = np.max(viol) <= eps
    if not ok:
        raise SamplerInfeasibleError("competitor escapes the domain")


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
        pick = self.cdf.searchsorted(rng.random(n), side="right")
        r1 = np.sqrt(rng.random(n))
        r2 = rng.random(n)
        return (self.a * (1 - r1)[:, None]
                + self.b[pick] * (r1 * (1 - r2))[:, None]
                + self.c[pick] * (r1 * r2)[:, None])


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


def _hull_competitor(rng, fan, v, k):
    """Hull of k uniform points, k doubled until it reaches area v, then shrunk to v."""
    tries = 0
    failures = 0
    while k <= HULL_K_MAX:
        pts = fan.sample(rng, k)
        hull = convex_hull(pts)
        if hull is None:
            failures += 1
            if failures > QHULL_RETRIES:
                raise SamplerInfeasibleError(
                    f"Qhull failed {failures} times on hulls of {k} points")
            tries += 1
            continue
        verts = pts[hull.vertices]
        area = _shoelace(verts)
        if area >= v:
            centroid = verts.mean(axis=0)
            verts = centroid + np.sqrt(v / area) * (verts - centroid)
            return _polygon_competitor(verts, {"sampler": "hull", "k": k,
                                               "tries": tries})
        k *= 2
        tries += 1
    raise SamplerInfeasibleError(
        f"hull of {k // 2} points never reached area {v}")


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


def halfplane_cut(vertices: np.ndarray, normal: np.ndarray, v: float):
    """(cut, c): the part of a convex CCW polygon with normal . x <= c, of area v.

    The cut area A(c) has the chord length L(c) as its derivative.  Both
    boundary chains from the lowest to the highest vertex along the
    normal are linear between vertex projections, so L is linear between
    the sorted projections, A is exact there by the trapezoid rule and
    quadratic in between.  One root gives c, and the polygon is clipped
    once.  Tied projections make zero-width intervals, which no search
    lands in; a tied extreme edge enters as the chord at its end.
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
    feasible = erode(family.domain, radius, family.structure)
    if feasible.kind == "empty":
        raise SamplerInfeasibleError("no feasible disk center")
    if feasible.kind == "point":
        center = feasible.points[0]
    elif feasible.kind == "segment":
        center = feasible.points[0] + rng.random() * (feasible.points[1]
                                                      - feasible.points[0])
    else:
        center = _Fan(feasible.points).sample(rng, 1)[0]
    return Competitor(kind="disk", area=v, perimeter=2.0 * np.pi * radius,
                      center=center, radius=radius,
                      provenance={"sampler": "disk"})


@dataclass(frozen=True, eq=False)
class _Sweep:
    """What the competitors of one (domain, volume) share: the fan and the first rung."""

    fan: _Fan
    hull_k0: int


def _sweep(family: MinimizerFamily, v: float) -> _Sweep:
    return _Sweep(_Fan(family.domain.vertices), _hull_start(family.domain, v / family.v_max))


def sample_competitor(family: MinimizerFamily, v: float, sampler: str,
                      seed, sweep: _Sweep | None = None) -> Competitor:
    """Draw one area-matched competitor inside the closed domain.

    Samplers: "hull" (convex hull of uniform points shrunk about its
    centroid; the point count starts at the rung whose expected hull
    covers v), "halfplane" (the domain cut at the offset of area v, in
    closed form), "disk" (random feasible center, only when a disk of
    area v fits).  ``sweep`` carries what a sweep of competitors at this
    volume shares; it is built when absent.
    """
    if not 0.0 < v < family.v_max:
        raise SamplerInfeasibleError("volume must be strictly inside (0, |domain|)")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if sampler == "hull":
        sweep = sweep or _sweep(family, v)
        comp = _hull_competitor(rng, sweep.fan, v, sweep.hull_k0)
    elif sampler == "halfplane":
        comp = _halfplane_competitor(rng, family, v)
    elif sampler == "disk":
        comp = _disk_competitor(rng, family, v)
    else:
        raise ValueError(f"unknown sampler {sampler!r}")
    if abs(comp.area - v) > AREA_TOL_REL * family.v_max:
        raise SamplerInfeasibleError("sampler missed the target area")
    _check_containment(family.domain, comp)
    return comp


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
        return {"volume": self.volume,
                "minimizer_perimeter": self.minimizer_perimeter,
                "n_samples": self.n_samples, "seed": self.seed,
                "samplers": list(self.samplers),
                "min_gap": self.min_gap, "mean_gap": self.mean_gap,
                "gap_histogram": self.gap_histogram,
                "violations": self.violations, "passed": self.passed}


def verify_minimality(family: MinimizerFamily, v: float, n_samples: int,
                      seed: int = 0, samplers=None) -> MinimalityReport:
    """Sweep random competitors; record any whose perimeter beats E(v).

    A violation is a competitor perimeter more than 1e-9 below the
    candidate perimeter.  Violations are reported with full provenance
    rather than raised.
    """
    p_min = family.perimeter(v)
    if samplers is None:
        samplers = ["hull", "halfplane"]
        if v <= family.balls.ball_measure:
            samplers.append("disk")
    rng = np.random.default_rng(seed)
    sweep = _sweep(family, v)
    gaps = np.empty(n_samples)
    violations = []
    for i in range(n_samples):
        name = samplers[i % len(samplers)]
        comp = sample_competitor(family, v, name, rng, sweep)
        gap = comp.perimeter - p_min
        gaps[i] = gap
        if gap < -PERIMETER_SLACK:
            violations.append({"index": i, "gap": float(gap),
                               "perimeter": float(comp.perimeter),
                               **comp.provenance})
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
    g = np.asarray(grid).astype(bool)
    if not g.any():
        return 0.0
    total = 0.0
    for (a, b), w, ln in zip(_CROFTON_DIRS, _CROFTON_W, _CROFTON_LEN):
        n = _transition_count(g, a, b)
        total += w * (cell / ln) * n
    return 0.5 * total


def _transition_count(g, a, b) -> int:
    """Pairs (p, p + (a, b)) with differing values, zero outside the grid."""
    ny, nx = g.shape
    pad_y, pad_x = abs(b), abs(a)
    G = np.pad(g, ((pad_y, pad_y), (pad_x, pad_x)))
    H = np.roll(np.roll(G, -b, axis=0), -a, axis=1)
    return int(np.count_nonzero(G ^ H))


_PAD = 3  # widest stencil reach: every read of a grid cell's stencil stays in the buffer


def _padded_buffer(grid):
    """(bytearray, live 2-D bool view) of ``grid`` inside a zero margin of _PAD cells."""
    padded = np.pad(np.asarray(grid).astype(bool), _PAD)
    buf = bytearray(padded.tobytes())
    return buf, np.frombuffer(buf, dtype=bool).reshape(padded.shape)


class _CroftonCounter:
    """Transition counts of a binary grid, updated from a fixed flat stencil.

    Cell (j, i) is byte ``(j + 3) * width + i + 3`` of ``buf``; the zero
    margin is the outside, so stencil reads need no bounds checks.  Flat
    offset ``b * width + a`` reaches the Crofton neighbour (a, b), and
    ``g`` is a live boolean view of the grid.

    ``sums`` keeps, per padded cell x, the stencil sum
    ``sum_k coef_k * (buf[x + o_k] + buf[x - o_k])`` (cells beyond the
    buffer read as outside), so a swap's perimeter change is read off
    two entries by ``delta`` and only a committed swap updates them.
    """

    def __init__(self, grid, cell):
        g = np.asarray(grid).astype(bool)
        self.counts = [_transition_count(g, a, b) for a, b in _CROFTON_DIRS]
        self.buf, self.cells = _padded_buffer(g)
        self.g = self.cells[_PAD:-_PAD, _PAD:-_PAD]
        self.width = self.cells.shape[1]
        self.coef = [float(w * (cell / ln)) for w, ln in zip(_CROFTON_W, _CROFTON_LEN)]
        self.offsets = [int(b) * self.width + int(a) for a, b in _CROFTON_DIRS]
        self.n4 = (1, -1, self.width, -self.width)
        # flat q - p -> direction k when q is p's neighbour along direction k
        self.adjacent = {s * d: k for k, d in enumerate(self.offsets) for s in (1, -1)}
        self.adjacent_coef = {d: self.coef[k] for d, k in self.adjacent.items()}
        self.sums = _stencil_sums(self.cells, self.coef).ravel().tolist()

    def index(self, j, i) -> int:
        return (int(j) + _PAD) * self.width + int(i) + _PAD

    def perimeter(self, counts=None) -> float:
        total = 0.0
        for c, n in zip(self.coef, self.counts if counts is None else counts):
            total += c * n
        return 0.5 * total

    def delta(self, p, q) -> float:
        """Perimeter change once in-cell p leaves and out-cell q joins.

        Per direction, p leaving changes the perimeter by its neighbours'
        weight less coef_k, and q joining by coef_k less its neighbours'
        weight read with p already out: S[p] - S[q], plus coef_k when p
        is q's neighbour along direction k.
        """
        sums = self.sums
        return sums[p] - sums[q] + self.adjacent_coef.get(q - p, 0.0)

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
        """Apply a swap priced by ``price``, and update the stencil sums around p and q."""
        self.buf[p] = 0
        self.buf[q] = 1
        self.counts = counts
        sums = self.sums
        for c, d in zip(self.coef, self.offsets):
            sums[p + d] -= c
            sums[p - d] -= c
            sums[q + d] += c
            sums[q - d] += c

    def flip(self, j, i):
        x = self.index(j, i)
        buf = self.buf
        sign = 1 if buf[x] else -1
        self.counts = [n + sign * (2 * (buf[x + d] + buf[x - d]) - 2)
                       for n, d in zip(self.counts, self.offsets)]
        buf[x] ^= 1
        sums = self.sums
        for c, d in zip(self.coef, self.offsets):
            sums[x + d] -= sign * c
            sums[x - d] -= sign * c


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
    counter's kept stencil sums, and only an accepted swap is priced
    into exact transition counts, whose perimeter is the energy of
    record.  Starts from a compact axis-aligned block at a seeded
    position.
    """
    if grid_n > ANNEAL_MAX_GRID:
        raise ValueError(f"desk-scale oracle: grid_n must be at most {ANNEAL_MAX_GRID}")
    schedule = schedule or AnnealSchedule()
    schedule.validate()
    rng, mask, grid, h, origin = _anneal_start(domain, v, grid_n, seed)
    count = int(grid.sum())
    counter = _CroftonCounter(grid, h)
    buf, n4, delta = counter.buf, counter.n4, counter.delta
    mask_buf, mask_cells = _padded_buffer(mask)
    energy = counter.perimeter()
    best = bytes(buf)
    best_energy = energy
    temp = schedule.t0_cells * h
    trace = np.empty(schedule.sweeps)
    proposals = accepted = 0

    for sweep in range(schedule.sweeps):
        bd_in, bd_out = _boundaries(counter.cells, mask_cells)
        if len(bd_in) == 0 or len(bd_out) == 0:
            trace[sweep:] = energy
            break
        proposals += len(bd_in)
        for p, q, limit in _sweep_moves(rng, bd_in, bd_out, temp):
            if _valid_swap(buf, mask_buf, n4, p, q) and delta(p, q) <= limit:
                counts, energy = counter.price(p, q)
                counter.commit(p, q, counts)
                accepted += 1
                if energy < best_energy:
                    best_energy = energy
                    best = bytes(buf)
        trace[sweep] = energy
        temp *= schedule.ratio
        assert int(counter.g.sum()) == count  # swap moves conserve the count

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
        raise ValueError("target area infeasible on this grid")
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


_N4 = np.array([(0, 1), (0, -1), (1, 0), (-1, 0)])


def _boundaries(cells, mask):
    """Flat indices of in-cells with an out 4-neighbor and of masked out-cells
    with an in 4-neighbor, in row-major order, on the zero-padded views."""
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
    """Boundary swap stays valid against the current (possibly stale-listed) state."""
    if not buf[p] or buf[q] or not mask[q]:
        return False
    return _has_neighbor(buf, n4, p, 0) and _has_neighbor(buf, n4, q, 1)
