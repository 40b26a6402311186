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
from .geometry import ConvexPolygon, ErodedBody, ErosionStructure, RoundedBody, EPS_GEOM

TOL_REL = 1e-9        # relative tolerance for areas and ranks
KINDS = ("disk", "stadium", "rounded")
STADIUM, ROUNDED = 1, 2                # regime indices into KINDS (0: disk)


@dataclass(frozen=True, eq=False)
class MinimizerShape:
    """One member E(v) of the family: body = core + B_radius.

    kind names the regime.  A "disk" has a point core (the midpoint of
    the incenter set), a "stadium" a segment core (a centred piece of the
    incenter segment) dilated by the inradius, and a "rounded" shape the
    eroded domain dilated by its erosion radius (the opening).  curvature
    is 1 / radius (inf for the full domain).  Membership and measures of
    E(v) are MinimizerFamily's: member, perimeter and the structure's
    Steiner polynomials.
    """

    kind: str
    volume: float
    perimeter: float
    curvature: float
    body: RoundedBody

    @property
    def radius(self) -> float:
        return self.body.radius

    def as_dict(self):
        core = self.body.core
        if self.kind == "disk":
            params = {"center": core.points[0].tolist()}
        elif self.kind == "stadium":
            params = {"spine": core.points.tolist()}
        else:
            params = {"core_kind": core.kind, "core_points": core.points.tolist()}
        params["radius"] = self.radius
        return {"type": self.kind, "v": self.volume, "perimeter": self.perimeter,
                "curvature": None if not np.isfinite(self.curvature) else self.curvature,
                "parameters": params}


class MinimizerFamily:
    """The family of the domain ``structure.polygon``, built from its erosion alone.

    The largest balls are read off the structure.  The state is fixed at
    construction but for one lazy fill: the structure forms its Steiner
    polynomials on the first query that reaches the opening regime, so
    disk and stadium minimizers never form them.  The fill is
    thread-benign: concurrent first queries at worst form the same arrays
    twice, and each reads a complete set.  Every query is a pure function
    but for that fill, and the array-valued entry points are safe to call
    point-wise in parallel.
    """

    def __init__(self, structure: ErosionStructure):
        self.structure = structure
        self.domain = domain = structure.polygon
        self.balls = balls = geometry.largest_balls(structure)
        self.v_max = domain.area
        self.tol_area = TOL_REL * domain.area
        self._eps = EPS_GEOM * domain.scale
        self._mid = balls.midpoint
        if balls.center_length > 0.0:
            self._axis = (balls.centers.points[1] - balls.centers.points[0]) / balls.center_length
        else:
            self._axis = np.array([1.0, 0.0])
        if not (0.0 < balls.ball_measure <= balls.hull_measure < self.v_max):
            raise VolumeOutOfRangeError("degenerate volume thresholds for domain")

    # -- volume bookkeeping --------------------------------------------------

    def _check_volume(self, v):
        v = np.asarray(v, dtype=float)
        if not np.all((v > 0.0) & (v <= self.v_max * (1.0 + TOL_REL))):
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

    def _classify(self, v):
        """Regime, arc radius rho and spine half-length of E(v) for checked v.

        The regime indexes KINDS: the disk up to the largest ball's area
        (rho = sqrt(v / pi)), the stadium up to the ball union's area
        (rho = r*, a spine of half-length (v - pi r*^2) / (4 r*) on the
        incenter segment), the opening beyond (rho from radius_for_volume).
        The half-length is 0 outside the stadium.
        """
        v = np.atleast_1d(v)
        balls = self.balls
        regime = (v > balls.ball_measure).astype(np.intp) + (v > balls.hull_measure)
        rho = np.sqrt(v / np.pi)
        half = np.zeros_like(v)
        stad = regime == STADIUM
        r = balls.inradius
        rho[stad] = r
        half[stad] = 0.5 * ((v[stad] - np.pi * r * r) / (2.0 * r))
        rnd = regime == ROUNDED
        if np.any(rnd):
            rho[rnd] = self.radius_for_volume(v[rnd])
        return regime, rho, half

    def _perimeter(self, regime, rho, half):
        """Core perimeter plus 2 pi rho; a segment core counts twice."""
        core = 4.0 * half
        rnd = regime == ROUNDED
        if np.any(rnd):
            core[rnd] = self.structure.core_measures(rho[rnd])[1]
        return core + 2.0 * np.pi * rho

    def minimizer(self, v: float) -> MinimizerShape:
        """The canonical minimizer E(v); v = |Omega| returns the domain itself."""
        v = self._check_volume(float(v))
        regime, rho, half = self._classify(v)
        r, h = float(rho[0]), float(half[0])
        if regime[0] == ROUNDED:
            core = self.structure.core_body(r)
        elif h > 0.0:
            core = ErodedBody("segment", np.stack([self._mid - h * self._axis,
                                                   self._mid + h * self._axis]))
        else:
            core = ErodedBody("point", self._mid[None, :].copy())
        return MinimizerShape(kind=KINDS[regime[0]], volume=float(v),
                              perimeter=float(self._perimeter(regime, rho, half)[0]),
                              curvature=1.0 / r if r > 0.0 else np.inf,
                              body=RoundedBody(core=core, radius=r))

    def perimeter(self, v):
        """P(E(v)); vectorized."""
        out = self._perimeter(*self._classify(self._check_volume(v)))
        return float(out[0]) if np.ndim(v) == 0 else out

    def curvature(self, v):
        """Reciprocal arc radius of the free boundary of E(v); inf at v = |Omega|."""
        _, rho, _ = self._classify(self._check_volume(v))
        with np.errstate(divide="ignore"):
            out = 1.0 / rho
        return float(out[0]) if np.ndim(v) == 0 else out

    def member(self, v, points):
        """Closed membership x in E(v); v and points broadcast together."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        scalar = np.asarray(points).ndim == 1 and np.ndim(v) == 0
        regime, rho, half = (np.broadcast_to(x, (pts.shape[0],))
                             for x in self._classify(self._check_volume(v)))
        a, b = self._spine_frame(pts)
        d = np.hypot(np.maximum(np.abs(a) - half, 0.0), b)
        rnd = regime == ROUNDED
        if np.any(rnd):
            d[rnd] = self.structure.distance_to_core(pts[rnd], rho[rnd])
        out = d <= rho + self._eps
        return bool(out[0]) if scalar else out

    def _spine_frame(self, pts):
        """(along, across) coordinates of points in the incenter axis frame."""
        rel = pts - self._mid
        return rel @ self._axis, rel @ np.array([-self._axis[1], self._axis[0]])

    def rank(self, points):
        """Smallest volume v with x in E(v) (the sentinel |Omega| outside).

        Domain membership is ConvexPolygon.contains_point at EPS_GEOM *
        scale.  Near a vertex of interior angle theta it admits points up
        to that tolerance / sin(theta / 2) outside the domain; such a point
        lies in no disk inside the domain, so its exit radius is 0 and its
        rank |Omega|: the opening at r = 0 is the domain itself.  The
        structure's area at r = 0 can miss |Omega| by more than tol_area
        (beside a nearly flat vertex it meets two nearly parallel edge
        lines), and the opening area is flat to second order in r there,
        so every exit radius whose area the structure cannot tell from its
        area at r = 0 (a vertex's, about 1e-17 in floats) ranks |Omega|.

        Disk and stadium entries are closed-form.  An entry in the opening
        regime is the opening area at the exit radius of x, the largest r
        with dist(x, core(r)) <= r (ErosionStructure.exit_radius), solved
        from the per-vertex quadratics of every skeleton vertex over the
        radii it lives.  Work runs in blocks of bounded size, so memory
        does not grow with the number of points.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        scalar = np.asarray(points).ndim == 1
        out = np.full(pts.shape[0], self.v_max)
        balls = self.balls
        r_star = balls.inradius

        inside = self.domain.contains_point(pts)
        a, b = self._spine_frame(pts)
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
            # the opening at r = 0 is the domain itself, and its area is flat
            # to second order there: where the structure's area map still
            # reads its value at r = 0, the rank is |Omega|
            area = self.structure.area_of_opening(np.append(radius, 0.0))
            out[rnd] = np.where(area[:-1] < area[-1], np.minimum(area[:-1], self.v_max),
                                self.v_max)
        return float(out[0]) if scalar else out


def build_family(domain: ConvexPolygon) -> MinimizerFamily:
    """Compute the volume thresholds and caches for a validated domain."""
    return MinimizerFamily(ErosionStructure(domain))
