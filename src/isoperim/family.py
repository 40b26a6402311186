"""The nested family E(v) of volume-constrained perimeter minimizers.

For a convex polygonal domain the minimizer of boundary length among
subsets of given area v is, depending on v:

* a disk of area v centered at the midpoint of the incenter segment
  (v <= area of a largest inscribed ball),
* the convex hull of two largest inscribed balls placed symmetrically
  on the incenter segment (up to the area of the union of all largest
  balls),
* the morphological opening of the domain at the unique radius whose
  opening has area v (beyond that, up to the full domain area).

The family is nested, each shape is convex, and the arc curvature of the
free boundary is monotone in v from the stadium regime upward.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import VolumeOutOfRangeError
from .geometry import (ConvexPolygon, ErosionStructure, LargestBallSet,
                       RoundedBody, EPS_GEOM)

TOL_REL = 1e-9        # relative tolerance for areas and ranks


@dataclass(frozen=True, eq=False)
class MinimizerShape:
    """One member E(v) of the family, tagged by its construction.

    kind is "disk", "stadium" or "rounded".  Disks carry center/radius,
    stadiums the two endpoints of their spine segment plus the ball
    radius, rounded shapes the eroded core dilated by `radius`.
    curvature is the reciprocal arc radius (inf for the full domain) and
    scale the domain's length scale, which sets the membership tolerance.
    """

    kind: str
    volume: float
    perimeter: float
    curvature: float
    scale: float
    center: np.ndarray | None = None       # disk
    radius: float = 0.0                     # disk / stadium / rounded
    spine: np.ndarray | None = None         # stadium: (2, 2) endpoints
    body: RoundedBody | None = None         # rounded

    def contains(self, points, tol: float | None = None):
        """Closed membership, vectorized over (..., 2) points.

        The default tolerance is EPS_GEOM times the domain scale, the one
        MinimizerFamily.member uses, so both agree at every scale.
        """
        if tol is None:
            tol = EPS_GEOM * self.scale
        if self.kind == "disk":
            d = np.linalg.norm(np.asarray(points, dtype=float) - self.center, axis=-1)
        elif self.kind == "stadium":
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            d = geometry._point_segment_distance(pts, self.spine[0], self.spine[1])
            if np.asarray(points).ndim == 1:
                d = d[0]
        else:
            return geometry.contains(self.body, points, tol)
        return d <= self.radius + tol

    def as_dict(self):
        params: dict
        if self.kind == "disk":
            params = {"center": self.center.tolist(), "radius": self.radius}
        elif self.kind == "stadium":
            params = {"spine": self.spine.tolist(), "radius": self.radius}
        else:
            core = self.body.core
            params = {"core_kind": core.kind, "core_points": core.points.tolist(),
                      "radius": self.radius}
        return {"type": self.kind, "v": self.volume, "perimeter": self.perimeter,
                "curvature": None if not np.isfinite(self.curvature) else self.curvature,
                "parameters": params}


class MinimizerFamily:
    """Domain plus the cached data needed to answer family queries.

    Immutable after construction; every query is a pure function, and the
    array-valued entry points are safe to call point-wise in parallel.
    """

    def __init__(self, domain: ConvexPolygon, balls: LargestBallSet,
                 structure: ErosionStructure):
        self.domain = domain
        self.balls = balls
        self.structure = structure
        area, perim = geometry.polygon_measures(domain)
        self.v_max = area
        self.domain_perimeter = perim
        self.tol_area = TOL_REL * area
        self.tol_rank = TOL_REL * area
        self._eps = EPS_GEOM * domain.scale
        m = balls.midpoint
        if balls.center_length > 0.0:
            u = (balls.centers.points[1] - balls.centers.points[0]) / balls.center_length
        else:
            u = np.array([1.0, 0.0])
        self._mid = m
        self._axis = u
        if not (0.0 < balls.ball_measure <= balls.hull_measure < self.v_max):
            raise VolumeOutOfRangeError("degenerate volume thresholds for domain")

    # -- volume bookkeeping --------------------------------------------------

    def _check_volume(self, v, allow_zero=False):
        v = np.asarray(v, dtype=float)
        lo_ok = v >= -self.tol_area if allow_zero else v > 0.0
        if not np.all(lo_ok & (v <= self.v_max * (1.0 + TOL_REL))):
            raise VolumeOutOfRangeError(
                f"volume outside (0, {self.v_max}]")
        return np.minimum(v, self.v_max)

    def radius_for_volume(self, v):
        """Arc radius r with area(opening(domain, r)) = v, for v in [|H|, |Omega|].

        Closed form: one searchsorted over the opening areas at the event
        radii, then the quadratic A(r) + r P(r) + pi r^2 = v of that
        interval (ErosionStructure.radius_for_area).  v = |Omega| (within
        rounding) gives exactly r = 0, the domain itself.  Accepts scalars
        or arrays.
        """
        scalar = np.isscalar(v) or np.asarray(v).ndim == 0
        v = np.atleast_1d(self._check_volume(v))
        if np.any(v < self.balls.hull_measure - self.tol_area):
            raise VolumeOutOfRangeError("volume below the ball-union area")
        v = np.clip(v, self.balls.hull_measure, self.v_max)
        r = self.structure.radius_for_area(v)
        # the opening area plateaus at |Omega| within rounding; pin E(|Omega|)
        # to the domain itself (r exactly 0)
        r = np.where(v >= self.v_max * (1.0 - 1e-14), 0.0, r)
        return float(r[0]) if scalar else r

    # -- the family ----------------------------------------------------------

    def minimizer(self, v: float) -> MinimizerShape:
        """The canonical minimizer E(v); v = |Omega| returns the domain itself."""
        v = float(self._check_volume(v))
        balls = self.balls
        if v <= balls.ball_measure:
            radius = float(np.sqrt(v / np.pi))
            return MinimizerShape(kind="disk", volume=v,
                                  perimeter=2.0 * np.sqrt(np.pi * v),
                                  curvature=1.0 / radius, scale=self.domain.scale,
                                  center=self._mid.copy(), radius=radius)
        if v <= balls.hull_measure:
            r = balls.inradius
            ell = (v - np.pi * r * r) / (2.0 * r)
            half = 0.5 * ell * self._axis
            spine = np.stack([self._mid - half, self._mid + half])
            return MinimizerShape(kind="stadium", volume=v,
                                  perimeter=2.0 * np.pi * r + 2.0 * ell,
                                  curvature=1.0 / r, scale=self.domain.scale,
                                  spine=spine, radius=r)
        r = self.radius_for_volume(v)
        body = RoundedBody(core=self.structure.core_body(r), radius=r)
        perim = float(self.structure.perimeter_of_opening(r))
        curv = 1.0 / r if r > 0.0 else np.inf
        return MinimizerShape(kind="rounded", volume=v, perimeter=perim,
                              curvature=curv, scale=self.domain.scale,
                              body=body, radius=r)

    def perimeter(self, v):
        """P(E(v)); vectorized."""
        scalar = np.isscalar(v) or np.asarray(v).ndim == 0
        v = np.atleast_1d(self._check_volume(v))
        out = np.empty_like(v)
        disk = v <= self.balls.ball_measure
        stad = (~disk) & (v <= self.balls.hull_measure)
        rnd = ~disk & ~stad
        out[disk] = 2.0 * np.sqrt(np.pi * v[disk])
        r = self.balls.inradius
        out[stad] = 2.0 * np.pi * r + (v[stad] - np.pi * r * r) / r
        if np.any(rnd):
            out[rnd] = self.structure.perimeter_of_opening(self.radius_for_volume(v[rnd]))
        return float(out[0]) if scalar else out

    def curvature(self, v):
        """Reciprocal arc radius of the free boundary of E(v); inf at v = |Omega|."""
        scalar = np.isscalar(v) or np.asarray(v).ndim == 0
        v = np.atleast_1d(self._check_volume(v))
        out = np.empty_like(v)
        disk = v <= self.balls.ball_measure
        stad = (~disk) & (v <= self.balls.hull_measure)
        rnd = ~disk & ~stad
        out[disk] = np.sqrt(np.pi / v[disk])
        out[stad] = 1.0 / self.balls.inradius
        if np.any(rnd):
            r = self.radius_for_volume(v[rnd])
            with np.errstate(divide="ignore"):
                out[rnd] = np.where(r > 0.0, 1.0 / np.where(r > 0, r, 1.0), np.inf)
        return float(out[0]) if scalar else out

    def member(self, v, points):
        """Closed membership x in E(v); v and points broadcast together."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        scalar = np.asarray(points).ndim == 1 and (np.isscalar(v) or np.asarray(v).ndim == 0)
        v = np.broadcast_to(np.atleast_1d(self._check_volume(v)), (pts.shape[0],))
        out = np.zeros(pts.shape[0], dtype=bool)
        eps = self._eps
        balls = self.balls
        disk = v <= balls.ball_measure
        stad = (~disk) & (v <= balls.hull_measure)
        rnd = ~disk & ~stad
        if np.any(disk):
            radius = np.sqrt(v[disk] / np.pi)
            d = np.linalg.norm(pts[disk] - self._mid, axis=1)
            out[disk] = d <= radius + eps
        if np.any(stad):
            r = balls.inradius
            ell = (v[stad] - np.pi * r * r) / (2.0 * r)
            d = self._spine_distance(pts[stad], 0.5 * ell)
            out[stad] = d <= r + eps
        if np.any(rnd):
            r = self.radius_for_volume(v[rnd])
            d = self.structure.distance_to_core(pts[rnd], r)
            out[rnd] = d <= r + eps
        return bool(out[0]) if scalar else out

    def _spine_distance(self, pts, half_len):
        """Distance to the centered segment of per-point half length."""
        rel = pts - self._mid
        a = rel @ self._axis
        b = rel @ np.array([-self._axis[1], self._axis[0]])
        excess = np.maximum(np.abs(a) - half_len, 0.0)
        return np.hypot(excess, b)

    def rank(self, points):
        """Smallest volume v with x in E(v) (the sentinel |Omega| outside).

        Disk and stadium entries are closed-form.  An entry in the opening
        regime is the opening area at the exit radius of x, the largest r
        with dist(x, core(r)) <= r (ErosionStructure.exit_radius): its
        event interval is bracketed by exact membership tests at the event
        radii and the radius solved from per-vertex quadratics there.  Work
        runs in blocks of bounded size, so memory does not grow with the
        number of points.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        scalar = np.asarray(points).ndim == 1
        out = np.full(pts.shape[0], self.v_max)
        balls = self.balls
        r_star = balls.inradius
        eps = self._eps

        inside = self.structure.distance_to_core(pts, np.zeros(pts.shape[0])) <= eps
        rel = pts - self._mid
        a = rel @ self._axis
        b = rel @ np.array([-self._axis[1], self._axis[0]])
        d_center = np.hypot(a, b)
        excess = np.maximum(np.abs(a) - 0.5 * balls.center_length, 0.0)
        d_spine = np.hypot(excess, b)

        disk = inside & (d_center <= r_star)
        out[disk] = np.pi * d_center[disk] ** 2

        stad = inside & ~disk & (d_spine <= r_star)
        if np.any(stad):
            reach = np.sqrt(np.maximum(r_star**2 - b[stad] ** 2, 0.0))
            ell = np.clip(2.0 * (np.abs(a[stad]) - reach), 0.0, balls.center_length)
            out[stad] = np.pi * r_star**2 + 2.0 * r_star * ell

        rnd = inside & ~disk & ~stad
        if np.any(rnd):
            radius = self.structure.exit_radius(pts[rnd])
            out[rnd] = np.minimum(self.structure.area_of_opening(radius), self.v_max)
        return float(out[0]) if scalar else out


def build_family(domain: ConvexPolygon) -> MinimizerFamily:
    """Compute the volume thresholds and caches for a validated domain."""
    structure = ErosionStructure(domain)
    balls = geometry.largest_balls(domain, structure)
    return MinimizerFamily(domain, balls, structure)
