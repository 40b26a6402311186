"""Independent evidence that the constructed shapes minimize perimeter.

Two oracles: random area-matched convex competitors whose perimeter must
never beat the candidate shape, and a fixed-area simulated annealing
search on a binary pixel grid scored by a multi-direction Cauchy-Crofton
perimeter estimate (pixel-edge counting would reward axis-aligned shapes;
line sampling over sixteen lattice directions is rotation-robust).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import SamplerInfeasibleError, ScheduleInvalidError
from .family import MinimizerFamily
from .geometry import (ConvexPolygon, EPS_GEOM, _shoelace, _edge_length_sum,
                       clip_halfplane, erode)

AREA_TOL_REL = 1e-6
PERIMETER_SLACK = 1e-9
SAMPLERS = ("hull", "halfplane", "disk")
QHULL_RETRIES = 16        # Qhull failures one hull competitor may absorb
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


def sample_points_in_polygon(rng, v: np.ndarray, n: int) -> np.ndarray:
    """Uniform points in the convex polygon of vertices v, by an area-weighted fan."""
    tri_b = v[1:-1]
    tri_c = v[2:]
    a = v[0]
    areas = 0.5 * np.abs((tri_b[:, 0] - a[0]) * (tri_c[:, 1] - a[1])
                         - (tri_b[:, 1] - a[1]) * (tri_c[:, 0] - a[0]))
    pick = rng.choice(len(areas), size=n, p=areas / areas.sum())
    r1 = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    return (a * (1 - r1)[:, None]
            + tri_b[pick] * (r1 * (1 - r2))[:, None]
            + tri_c[pick] * (r1 * r2)[:, None])


def _hull_competitor(rng, family, v, k0=12, k_max=8192):
    dom = family.domain
    k = k0
    tries = 0
    failures = 0
    while k <= k_max:
        pts = sample_points_in_polygon(rng, dom.vertices, k)
        try:
            hull = ConvexHull(pts)
        except QhullError as exc:
            failures += 1
            if failures > QHULL_RETRIES:
                raise SamplerInfeasibleError(
                    f"Qhull failed {failures} times on hulls of {k} points") from exc
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
        f"hull of {k_max} points never reached area {v}")


def _halfplane_competitor(rng, family, v):
    dom = family.domain
    theta = rng.uniform(0.0, 2.0 * np.pi)
    n = np.array([np.cos(theta), np.sin(theta)])
    proj = dom.vertices @ n
    lo, hi = float(proj.min()), float(proj.max())
    target_tol = 0.5 * AREA_TOL_REL * family.v_max
    for _ in range(80):
        c = 0.5 * (lo + hi)
        cut = clip_halfplane(dom.vertices, n, c)
        area = _shoelace(cut) if len(cut) >= 3 else 0.0
        if abs(area - v) <= target_tol:
            break
        if area < v:
            lo = c
        else:
            hi = c
    cut = clip_halfplane(dom.vertices, n, 0.5 * (lo + hi))
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
        center = sample_points_in_polygon(rng, feasible.points, 1)[0]
    return Competitor(kind="disk", area=v, perimeter=2.0 * np.pi * radius,
                      center=center, radius=radius,
                      provenance={"sampler": "disk"})


def sample_competitor(family: MinimizerFamily, v: float, sampler: str,
                      seed) -> Competitor:
    """Draw one area-matched competitor inside the closed domain.

    Samplers: "hull" (convex hull of uniform points shrunk about its
    centroid), "halfplane" (domain cut by a bisected half-plane), "disk"
    (random feasible center, only when a disk of area v fits).
    """
    if not 0.0 < v < family.v_max:
        raise SamplerInfeasibleError("volume must be strictly inside (0, |domain|)")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if sampler == "hull":
        comp = _hull_competitor(rng, family, v)
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
    gaps = np.empty(n_samples)
    violations = []
    for i in range(n_samples):
        name = samplers[i % len(samplers)]
        comp = sample_competitor(family, v, name, rng)
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

    def index(self, j, i) -> int:
        return (int(j) + _PAD) * self.width + int(i) + _PAD

    def perimeter(self, counts=None) -> float:
        total = 0.0
        for c, n in zip(self.coef, self.counts if counts is None else counts):
            total += c * n
        return 0.5 * total

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
        """Apply a swap priced by ``price``."""
        self.buf[p] = 0
        self.buf[q] = 1
        self.counts = counts

    def flip(self, j, i):
        x = self.index(j, i)
        buf = self.buf
        sign = 1 if buf[x] else -1
        self.counts = [n + sign * (2 * (buf[x + d] + buf[x - d]) - 2)
                       for n, d in zip(self.counts, self.offsets)]
        buf[x] ^= 1


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
    """Best state found by the fixed-area boundary-swap chain."""

    grid: np.ndarray
    perimeter: float
    origin: np.ndarray
    cell: float
    in_count: int
    seed: int
    energy_trace: np.ndarray
    temperature_final: float


def anneal_discrete(domain: ConvexPolygon, v: float, grid_n: int,
                    schedule: AnnealSchedule | None = None,
                    seed: int = 0) -> AnnealResult:
    """Metropolis search for the minimal-perimeter pixel set of area v.

    Moves swap one boundary in-cell with one out-cell adjacent to the
    in-set, so the cell count is conserved exactly.  The energy is the
    Crofton perimeter: each swap is priced from the counter's stencil
    and written back only when accepted.  Starts from a compact
    axis-aligned block at a seeded position.
    """
    if grid_n > ANNEAL_MAX_GRID:
        raise ValueError(f"desk-scale oracle: grid_n must be at most {ANNEAL_MAX_GRID}")
    schedule = schedule or AnnealSchedule()
    schedule.validate()
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

    grid = _seed_block(rng, mask, count)
    counter = _CroftonCounter(grid, h)
    buf, n4 = counter.buf, counter.n4
    mask_buf, mask_cells = _padded_buffer(mask)
    energy = counter.perimeter()
    current = energy
    best = bytes(buf)
    best_energy = energy
    temp = schedule.t0_cells * h
    trace = np.empty(schedule.sweeps)

    for sweep in range(schedule.sweeps):
        bd_in, bd_out = _boundaries(counter.cells, mask_cells)
        n_in, n_out = len(bd_in), len(bd_out)
        if n_in == 0 or n_out == 0:
            trace[sweep:] = energy
            break
        for _ in range(n_in):
            p = bd_in[rng.integers(n_in)]
            q = bd_out[rng.integers(n_out)]
            if not _valid_swap(buf, mask_buf, n4, p, q):
                continue
            counts, after = counter.price(p, q)
            delta = after - current
            if delta <= 0.0 or rng.random() < np.exp(-delta / temp):
                energy = current + delta
                counter.commit(p, q, counts)
                current = after
                if energy < best_energy:
                    best_energy = energy
                    best = bytes(buf)
        trace[sweep] = energy
        temp *= schedule.ratio
        assert int(counter.g.sum()) == count  # swap moves conserve the count

    best_grid = np.frombuffer(best, dtype=bool).reshape(counter.cells.shape)
    best_grid = best_grid[_PAD:-_PAD, _PAD:-_PAD].copy()
    assert int(best_grid.sum()) == count
    origin = lo + 0.5 * h
    return AnnealResult(grid=best_grid, perimeter=float(best_energy), origin=origin,
                        cell=h, in_count=count, seed=seed, energy_trace=trace,
                        temperature_final=float(temp))


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
    return np.flatnonzero(bd_in).tolist(), np.flatnonzero(bd_out).tolist()


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
