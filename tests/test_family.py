import numpy as np
import pytest

from isoperim import geometry as geo
from isoperim.errors import VolumeOutOfRangeError
from isoperim.family import build_family

import oracles
from conftest import perimeter_of_opening, random_polygon

R9 = float(np.sqrt(0.1 / (4.0 - np.pi)))          # solves 1 - (4-pi) r^2 = 0.9
P9 = 4.0 - (8.0 - 2.0 * np.pi) * R9


def test_thresholds_square(square_family):
    f = square_family
    assert f.balls.ball_measure == pytest.approx(np.pi / 4, rel=1e-9)
    assert f.balls.hull_measure == pytest.approx(np.pi / 4, rel=1e-9)
    assert f.v_max == pytest.approx(1.0, abs=1e-15)


def test_thresholds_rect(rect_family):
    f = rect_family
    assert f.balls.ball_measure == pytest.approx(np.pi / 4, rel=1e-9)
    assert f.balls.hull_measure == pytest.approx(np.pi / 4 + 1.0, rel=1e-9)
    assert f.v_max == pytest.approx(2.0, abs=1e-15)


def test_thresholds_64gon():
    n = 64
    poly = geo.validate_polygon(
        [(np.cos(2 * k * np.pi / n), np.sin(2 * k * np.pi / n)) for k in range(n)])
    f = build_family(poly)
    assert f.balls.hull_measure == pytest.approx(f.balls.ball_measure, rel=1e-9)
    assert 0 < f.v_max - f.balls.ball_measure < 12.0 / n**2


def test_radius_for_volume_square(square_family):
    assert square_family.radius_for_volume(0.9) == pytest.approx(R9, abs=1e-12)
    assert square_family.radius_for_volume(1.0) == 0.0
    with pytest.raises(VolumeOutOfRangeError):
        square_family.radius_for_volume(0.5)   # below the ball-union area
    with pytest.raises(VolumeOutOfRangeError):
        square_family.radius_for_volume(1.5)


def test_radius_for_volume_rect(rect_family):
    # area = 2 - (4 - pi) r^2, so v = 1.9 gives the same radius as the square at 0.9
    assert rect_family.radius_for_volume(1.9) == pytest.approx(R9, abs=1e-12)


def test_minimizer_disk_case(square_family):
    shape = square_family.minimizer(np.pi / 4)
    assert shape.kind == "disk"
    assert np.allclose(shape.body.core.points[0], [0.5, 0.5], atol=1e-9)
    assert shape.radius == pytest.approx(0.5, rel=1e-12)
    assert shape.perimeter == pytest.approx(np.pi, rel=1e-12)


def test_minimizer_stadium_case(rect_family):
    shape = rect_family.minimizer(1.2)
    assert shape.kind == "stadium"
    ell = 1.2 - np.pi / 4
    assert shape.perimeter == pytest.approx(np.pi + 2 * ell, rel=1e-12)
    core = shape.body.core.points
    spine = core[np.argsort(core[:, 0])]
    assert np.allclose(spine, [[1.0 - ell / 2, 0.5], [1.0 + ell / 2, 0.5]], atol=1e-9)


def test_minimizer_rounded_case(square_family, rect_family):
    shape = square_family.minimizer(0.9)
    assert shape.kind == "rounded"
    assert shape.radius == pytest.approx(R9, abs=1e-12)
    assert shape.perimeter == pytest.approx(P9, abs=1e-9)
    # every kind is core + B_radius, measured by the same Steiner formula
    for fam, v, kind in ((square_family, 0.9, "rounded"), (square_family, 0.5, "disk"),
                         (rect_family, 0.5, "disk"), (rect_family, 1.2, "stadium"),
                         (rect_family, 1.9, "rounded")):
        shape = fam.minimizer(v)
        assert shape.kind == kind
        area, perim = oracles.rounded_measures(shape.body)
        assert area == pytest.approx(v, abs=fam.tol_area)
        assert perim == pytest.approx(shape.perimeter, rel=1e-12)


def test_minimizer_out_of_range(square_family):
    with pytest.raises(VolumeOutOfRangeError):
        square_family.minimizer(0.0)
    with pytest.raises(VolumeOutOfRangeError):
        square_family.minimizer(1.0001)


def test_curvature_cases(square_family, rect_family):
    assert square_family.curvature(np.pi / 4) == pytest.approx(2.0, rel=1e-12)
    assert square_family.curvature(0.9) == pytest.approx(1.0 / R9, rel=1e-9)
    assert rect_family.curvature(1.2) == pytest.approx(2.0, rel=1e-12)
    assert square_family.curvature(1.0) == np.inf


def test_member_examples(square_family):
    assert square_family.member(0.9, (0.5, 0.5))
    # the arc cuts the corner: the core's corner is more than the radius away
    assert not square_family.member(0.9, (0.99, 0.99))
    assert square_family.member(np.pi / 4, (1.0, 0.5))   # the inscribed disk's edge point
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, size=(64, 2))
    assert square_family.member(1.0, pts).all()
    assert square_family.member(1.0, (1.0, 1.0))


def test_member_classifies_a_scalar_volume_once(square_family, monkeypatch):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.1, 1.1, size=(500, 2))
    for v in (0.2, 0.9, 1.0):
        assert np.array_equal(square_family.member(v, pts),
                              square_family.member(np.full(len(pts), v), pts))
    seen = []
    fam = type(square_family)
    solve = fam.radius_for_volume

    def spy(self, v):
        seen.append(np.size(v))
        return solve(self, v)

    monkeypatch.setattr(fam, "radius_for_volume", spy)
    square_family.member(0.9, pts)
    assert seen == [1]


def test_rank_examples(square_family):
    assert square_family.rank((0.5, 0.5)) == pytest.approx(0.0, abs=1e-12)
    assert square_family.rank((0.5, 0.75)) == pytest.approx(np.pi * 0.0625, abs=1e-9)
    assert square_family.rank((1.0, 1.0)) == pytest.approx(1.0, abs=1e-9)
    assert square_family.rank((3.0, 3.0)) == square_family.v_max


def test_rank_disk_regime_inside_central_ball(rect_family):
    # |x - midpoint| <= r*: swallowed by a growing centered disk
    assert rect_family.rank((1.4, 0.5)) == pytest.approx(np.pi * 0.16, abs=1e-9)


def test_rank_stadium_regime(rect_family):
    # off the central ball but within r* of the spine line: enters when the
    # stadium spine grows to length 2 (|a| - sqrt(r*^2 - b^2))
    x = np.array([1.6, 0.8])
    a, b = 0.6, 0.3
    ell = 2 * (a - np.sqrt(0.25 - b * b))
    expect = np.pi * 0.25 + 2 * 0.5 * ell
    assert rect_family.rank(x) == pytest.approx(expect, abs=1e-9)
    # consistency: x sits on the boundary of the stadium of that volume
    shape = rect_family.minimizer(expect)
    assert shape.kind == "stadium"
    assert rect_family.member(expect, x)
    assert not rect_family.member(expect * (1 - 1e-6), x)


def test_rank_member_consistency(rect_family):
    rng = np.random.default_rng(5)
    pts = rng.uniform([0, 0], [2, 1], size=(400, 2))
    rho = rect_family.rank(pts)
    up = np.minimum(rho * (1 + 1e-9) + 1e-12, rect_family.v_max)
    assert rect_family.member(up, pts).all()
    probe = rho > 1e-6
    down = rho[probe] * (1 - 1e-5)
    assert not rect_family.member(down, pts[probe]).any()


def test_rank_against_volume_bisection_oracle(rect_family):
    # independent route: bisect the member predicate on v directly
    rng = np.random.default_rng(9)
    pts = rng.uniform([0, 0], [2, 1], size=(40, 2))
    rho = rect_family.rank(pts)
    for x, r in zip(pts, rho):
        if not rect_family.member(rect_family.v_max, x):
            continue
        lo, hi = 0.0, rect_family.v_max
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if mid <= 0.0:
                break
            if rect_family.member(mid, x):
                hi = mid
            else:
                lo = mid
        # the closed-membership epsilon shifts the oracle by O(eps * dA/dr)
        assert r == pytest.approx(hi, abs=5e-8)


def test_nestedness_sampled(rect_family):
    rng = np.random.default_rng(17)
    n = 4000
    v = np.sort(rng.uniform(1e-3, rect_family.v_max, size=(n, 2)), axis=1)
    pts = rng.uniform([-0.2, -0.2], [2.2, 1.2], size=(n, 2))
    m1 = rect_family.member(v[:, 0], pts)
    m2 = rect_family.member(v[:, 1], pts)
    assert not np.any(m1 & ~m2)


def test_ball_contained_in_larger_members(rect_family):
    rng = np.random.default_rng(23)
    n = 2000
    ang = rng.uniform(0, 2 * np.pi, n)
    rad = rect_family.balls.inradius * np.sqrt(rng.uniform(0, 1, n)) * (1 - 1e-9)
    pts = rect_family.balls.midpoint + np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    v = rng.uniform(rect_family.balls.ball_measure, rect_family.v_max, n)
    assert rect_family.member(v, pts).all()


def test_perimeter_seam_continuity(rect_family):
    f = rect_family
    r = f.balls.inradius
    vb = f.balls.ball_measure
    vh = f.balls.hull_measure
    disk_formula = 2.0 * np.sqrt(np.pi * vb)
    stadium_formula = 2.0 * np.pi * r + (vb - np.pi * r * r) / r
    assert abs(disk_formula - stadium_formula) <= 1e-9
    stadium_at_h = 2.0 * np.pi * r + (vh - np.pi * r * r) / r
    rounded_at_h = float(perimeter_of_opening(f.structure, f.radius_for_volume(vh)))
    assert abs(stadium_at_h - rounded_at_h) <= 1e-9


def test_rank_beside_a_sharp_vertex_is_the_domain_area():
    # the half-plane membership reaches eps / sin(theta / 2) beyond a vertex
    # of interior angle theta, farther than eps from the domain; no disk
    # inside the domain holds such a point, so its rank is |Omega|
    poly = geo.validate_polygon([(0.0, 0.0), (1.0, 0.0), (0.5, 0.05)])
    f = build_family(poly)
    eps = geo.EPS_GEOM * poly.scale
    u = poly.normals[-1] + poly.normals[0]       # outward bisector at vertex 0
    u /= np.linalg.norm(u)
    reach = eps / np.dot(poly.normals[0], u)     # eps / sin(theta / 2), about 20 eps
    t = np.linspace(2.0 * eps, 0.99 * reach, 16)
    pts = poly.vertices[0] + t[:, None] * u
    assert np.all(poly.contains_point(pts))
    assert np.all(f.structure.distance_to_core(pts, 0.0) > eps)
    assert np.all(f.structure.exit_radius(pts) == 0.0)
    assert np.all(np.abs(f.rank(pts) - f.v_max) <= 1e-14 * f.v_max)


def test_perimeter_monotone_and_floor(rect_family):
    v = np.linspace(0.01, rect_family.v_max, 300)
    p = rect_family.perimeter(v)
    assert np.all(np.diff(p) >= -1e-10)
    floor = 2.0 * np.sqrt(np.pi * v)
    assert np.all(p >= floor - 1e-9)
    # equality exactly in the disk regime
    disk = v <= rect_family.balls.ball_measure
    assert np.allclose(p[disk], floor[disk], rtol=1e-12)
    assert np.all(p[~disk] > floor[~disk] + 1e-6)


def test_curvature_monotone_from_ball_threshold(rect_family):
    v = np.linspace(rect_family.balls.ball_measure, rect_family.v_max * 0.999, 300)
    k = rect_family.curvature(v)
    assert np.all(np.diff(k) >= -1e-10)
    hull = v >= rect_family.balls.hull_measure
    assert np.all(np.diff(k[hull]) > 0)


def test_shapes_convex_and_inside_domain(rect_family):
    rng = np.random.default_rng(31)
    dom = rect_family.domain
    for v in (0.4, 1.0, 1.2, 1.6, 1.95):
        shape = rect_family.minimizer(v)
        # arc centers stay a radius away from every domain edge
        centers = shape.body.core.points
        slack = centers @ dom.normals.T + shape.radius - dom.offsets
        assert np.max(slack) <= 1e-9 * dom.scale
        # convexity: membership is closed under midpoints
        pts = rng.uniform([0, 0], [2, 1], size=(3000, 2))
        inside = pts[rect_family.member(v, pts)]
        mids = 0.5 * (inside[:-1] + inside[1:])
        assert rect_family.member(v, mids).all()


def test_random_domains_build_and_query():
    rng = np.random.default_rng(77)
    for _ in range(6):
        poly = random_polygon(rng, k=10)
        f = build_family(poly)
        assert 0 < f.balls.ball_measure <= f.balls.hull_measure < f.v_max
        v = np.linspace(0.2, 0.999, 40) * f.v_max
        p = f.perimeter(v)
        assert np.all(np.diff(p) >= -1e-9)
        shape = f.minimizer(float(0.9 * f.v_max))
        area, _ = oracles.rounded_measures(shape.body)
        assert area == pytest.approx(0.9 * f.v_max, abs=10 * f.tol_area)
