import tracemalloc
import warnings

import numpy as np
import pytest

from isoperim import geometry as geo
from isoperim import rearrange as rr
from isoperim.errors import DegenerateError, NonConvexError
from isoperim.family import build_family

import oracles
from conftest import (SQUARE, cut_arc, ellipse_polygon, moved_and_scaled,
                      perimeter_of_opening, random_polygon, square_points)
from test_golden_cli import _bump_grid


def test_validate_square(square):
    assert len(square.vertices) == 4
    area, perim = geo._shoelace(square.vertices), oracles.polygon_perimeter(square.vertices)
    assert area == pytest.approx(1.0, abs=1e-15)
    assert perim == pytest.approx(4.0, abs=1e-15)
    assert not square.reversed_input


def test_validate_reorients_cw():
    poly = geo.validate_polygon(list(reversed(SQUARE)))
    assert poly.reversed_input
    assert geo._shoelace(poly.vertices) == pytest.approx(1.0)
    # CCW orientation: positive cross products
    e = np.roll(poly.vertices, -1, axis=0) - poly.vertices
    f = np.roll(e, -1, axis=0)
    cross = e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]
    assert np.all(cross > 0)


def test_polygon_carries_its_area_and_box():
    # every layer reads these fields; they must be the bits of the expressions
    # they replaced, for any orientation, offset and scale
    rng = np.random.default_rng(12)
    shapes = [SQUARE, ellipse_polygon(3, 64), random_polygon(rng).vertices]
    for verts in shapes:
        for label, moved in moved_and_scaled(verts):
            p = geo.validate_polygon(moved)
            assert p.reversed_input == label.endswith("-cw")
            assert p.area == geo._shoelace(p.vertices), label
            edges = np.linalg.norm(np.roll(p.vertices, -1, axis=0) - p.vertices, axis=1)
            for got, want in ((p.lo, p.vertices.min(axis=0)), (p.hi, p.vertices.max(axis=0)),
                              (p.lengths, edges)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), label
            assert build_family(p).v_max == p.area, label


def test_validate_rejects_collinear():
    with pytest.raises((NonConvexError, DegenerateError)):
        geo.validate_polygon([(0, 0), (1, 0), (2, 0), (1, 1)])


def test_validate_rejects_garbage():
    with pytest.raises(DegenerateError):
        geo.validate_polygon([(0, 0), (1, 0)])
    with pytest.raises(DegenerateError):
        geo.validate_polygon([(0, 0), (1, 0), (np.nan, 1)])
    with pytest.raises(DegenerateError):
        geo.validate_polygon([(0, 0), (0, 0), (1, 0), (1, 1)])
    with pytest.raises(NonConvexError):
        geo.validate_polygon([(0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)])


@pytest.mark.parametrize("side", [1e154, 1e308])
def test_validate_rejects_overflowing_span(side):
    # the squared span overflows a double: name the span, with no numpy warning
    corners = [(-side, -side), (side, -side), (side, side), (-side, side)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for verts in (np.array(SQUARE) * side, corners):
            with pytest.raises(DegenerateError, match="coordinate span"):
                geo.validate_polygon(verts)
        assert len(geo.validate_polygon(np.array(SQUARE) * 1e153).vertices) == 4


@pytest.mark.parametrize("n", [1000, 3100, 4096, 8192])
def test_validate_accepts_smooth_ngons(n):
    # the turn test is on the sine, so no vertex count is too many
    theta = 2.0 * np.pi * np.arange(n) / n
    verts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    assert len(geo.validate_polygon(verts).vertices) == n
    assert geo.validate_polygon(verts[::-1]).reversed_input
    # an edge midpoint makes a collinear run, and pulling it in a reflex vertex
    mid = 0.5 * (verts[0] + verts[1])
    for p in (mid, 0.999 * mid):
        with pytest.raises(NonConvexError):
            geo.validate_polygon(np.insert(verts, 1, p, axis=0))


def test_hexagon_measures_against_fan_oracle():
    verts = [(np.cos(k * np.pi / 3), np.sin(k * np.pi / 3)) for k in range(6)]
    poly = geo.validate_polygon(verts)
    area, perim = geo._shoelace(poly.vertices), oracles.polygon_perimeter(poly.vertices)
    # independent oracle: triangle fan about the centroid
    v = poly.vertices
    c = v.mean(axis=0)
    fan = 0.0
    for i in range(len(v)):
        a = v[i] - c
        b = v[(i + 1) % len(v)] - c
        fan += 0.5 * abs(a[0] * b[1] - a[1] * b[0])
    assert area == pytest.approx(fan, rel=1e-12)
    assert area == pytest.approx(3.0 * np.sqrt(3.0) / 2.0, rel=1e-12)
    assert perim == pytest.approx(6.0, rel=1e-12)


def test_erode_square_quarter(square):
    body = geo.ErosionStructure(square).core_body(0.25)
    assert body.kind == "polygon"
    assert geo._shoelace(body.points) == pytest.approx(0.25, abs=1e-12)
    assert np.allclose(np.sort(body.points, axis=0)[0], [0.25, 0.25])
    assert np.allclose(np.sort(body.points, axis=0)[-1], [0.75, 0.75])


def test_erode_square_collapses_to_point(square):
    body = geo.ErosionStructure(square).core_body(0.5)
    assert body.kind == "point"
    assert np.allclose(body.points[0], [0.5, 0.5], atol=1e-9)


def test_erode_rect_collapses_to_segment(rect21):
    body = geo.ErosionStructure(rect21).core_body(0.5)
    assert body.kind == "segment"
    ends = body.points[np.argsort(body.points[:, 0])]
    assert np.allclose(ends, [[0.5, 0.5], [1.5, 0.5]], atol=1e-9)


def test_erode_beyond_inradius_is_empty(square):
    assert geo.ErosionStructure(square).core_body(0.7).kind == "empty"


def test_erode_monotone_random_polygons():
    rng = np.random.default_rng(42)
    for _ in range(12):
        poly = random_polygon(rng)
        struct = geo.ErosionStructure(poly)
        r1, r2 = np.sort(rng.uniform(0.0, struct.r_star, size=2))
        inner = struct.core_body(float(r2))
        if inner.kind == "empty":
            continue
        # every point of the deeper erosion satisfies the shallower offsets
        viol = inner.points @ poly.normals.T - (poly.offsets - r1)
        assert np.max(viol) <= 1e-9 * poly.scale


def test_erode_matches_direct_halfplane_clipping():
    rng = np.random.default_rng(7)
    for _ in range(10):
        poly = random_polygon(rng)
        struct = geo.ErosionStructure(poly)
        r = rng.uniform(0.05, 0.85) * struct.r_star
        body = struct.core_body(float(r))
        assert body.kind == "polygon"
        # independent route: clip the polygon by each offset half-plane
        cut = poly.vertices
        for nrm, off in zip(poly.normals, poly.offsets):
            cut = oracles.clip_halfplane(cut, nrm, off - r)
        assert geo._shoelace(body.points) == pytest.approx(
            geo._shoelace(cut), rel=1e-9, abs=1e-12)


def test_largest_balls_square(square):
    balls = geo.largest_balls(geo.ErosionStructure(square))
    assert balls.inradius == pytest.approx(0.5, abs=1e-9)
    assert balls.centers.kind == "point"
    assert np.allclose(balls.midpoint, [0.5, 0.5], atol=1e-9)
    assert balls.ball_measure == pytest.approx(np.pi / 4, rel=1e-9)
    assert balls.hull_measure == pytest.approx(balls.ball_measure, rel=1e-9)


def test_largest_balls_rect(rect21):
    balls = geo.largest_balls(geo.ErosionStructure(rect21))
    assert balls.inradius == pytest.approx(0.5, abs=1e-9)
    assert balls.centers.kind == "segment"
    ends = balls.centers.points[np.argsort(balls.centers.points[:, 0])]
    assert np.allclose(ends, [[0.5, 0.5], [1.5, 0.5]], atol=1e-8)
    assert balls.hull_measure == pytest.approx(np.pi / 4 + 1.0, rel=1e-9)
    # grid oracle: max over dense samples of the distance to the edge lines
    xs = np.linspace(0, 2, 401)
    ys = np.linspace(0, 1, 201)
    X, Y = np.meshgrid(xs, ys)
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    dists = np.min(rect21.offsets - pts @ rect21.normals.T, axis=1)
    assert abs(dists.max() - balls.inradius) <= 0.01


def test_largest_balls_triangle_incircle():
    tri = geo.validate_polygon([(0, 0), (1, 0), (0.5, np.sqrt(3) / 2)])
    balls = geo.largest_balls(geo.ErosionStructure(tri))
    assert balls.inradius == pytest.approx(1.0 / (2.0 * np.sqrt(3.0)), rel=1e-9)
    assert balls.centers.kind == "point"
    assert np.allclose(balls.midpoint, [0.5, 1.0 / (2.0 * np.sqrt(3.0))], atol=1e-9)
    # grid oracle
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, size=(200000, 2))
    inside = tri.contains_point(pts, tol=0.0)
    depth = np.min(tri.offsets - pts[inside] @ tri.normals.T, axis=1)
    assert abs(depth.max() - balls.inradius) <= 0.01


def test_inradius_certificate_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        poly = random_polygon(rng, k=11)
        balls = geo.largest_balls(geo.ErosionStructure(poly))
        depth = poly.offsets - balls.centers.points @ poly.normals.T
        # every incenter is at distance exactly r* from the nearest edge line
        assert np.all(depth.min(axis=1) >= balls.inradius - 1e-9 * poly.scale)
        assert np.all(np.abs(depth.min(axis=1) - balls.inradius) <= 1e-9 * poly.scale)


def test_opening_identity_and_hull(square, rect21):
    s = geo.ErosionStructure(square)
    assert np.array_equal(s.core_body(0.0).points, square.vertices)
    area, perim = geo._shoelace(square.vertices), oracles.polygon_perimeter(square.vertices)
    assert s.area_of_opening(0.0) == pytest.approx(area)
    assert perimeter_of_opening(s, 0.0) == pytest.approx(perim)

    s = geo.ErosionStructure(rect21)
    balls = geo.largest_balls(s)
    assert s.area_of_opening(balls.inradius) == pytest.approx(balls.hull_measure, rel=1e-9)
    assert perimeter_of_opening(s, balls.inradius) == pytest.approx(
        2 * np.pi * balls.inradius + 2 * balls.center_length, rel=1e-9)


def test_opening_point_core_is_disk(square):
    s = geo.ErosionStructure(square)
    assert s.core_body(0.5).kind == "point"
    assert s.area_of_opening(0.5) == pytest.approx(np.pi / 4, rel=1e-12)
    assert perimeter_of_opening(s, 0.5) == pytest.approx(np.pi, rel=1e-12)


def test_rounded_measures_square_closed_form(square):
    # area = 1 - (4 - pi) r^2, perimeter = 4 - (8 - 2 pi) r
    s = geo.ErosionStructure(square)
    for r in (0.1, 0.25, np.sqrt(0.1 / (4 - np.pi))):
        body = geo.RoundedBody(core=s.core_body(r), radius=r)
        for area, perim in (oracles.rounded_measures(body),
                            (s.area_of_opening(r), perimeter_of_opening(s, r))):
            assert area == pytest.approx(1 - (4 - np.pi) * r * r, rel=1e-12)
            assert perim == pytest.approx(4 - (8 - 2 * np.pi) * r, rel=1e-12)


def test_stadium_measures(rect_family):
    f = rect_family
    shape = f.minimizer(f.balls.hull_measure)
    assert shape.kind == "stadium"
    assert shape.perimeter == pytest.approx(np.pi + 2.0, rel=1e-12)
    area, perim = oracles.rounded_measures(shape.body)
    assert area == pytest.approx(np.pi / 4 + 1.0, rel=1e-12)
    assert perim == pytest.approx(np.pi + 2.0, rel=1e-12)


def test_steiner_area_against_monte_carlo():
    # E(v) at the volume of an opening holds that volume of random points
    rng = np.random.default_rng(2024)
    for _ in range(4):
        poly = random_polygon(rng)
        f = build_family(poly)
        r = rng.uniform(0.1, 0.9) * f.structure.r_star
        area = float(f.structure.area_of_opening(r))
        lo = poly.vertices.min(axis=0) - r
        hi = poly.vertices.max(axis=0) + r
        n = 120_000
        pts = rng.uniform(lo, hi, size=(n, 2))
        p_hat = np.count_nonzero(f.member(area, pts)) / n
        box = float(np.prod(hi - lo))
        sigma = box * np.sqrt(max(p_hat * (1 - p_hat), 1e-9) / n)
        assert abs(p_hat * box - area) <= 4.0 * sigma


def test_regular_64gon_ball_nearly_fills():
    n = 64
    poly = geo.validate_polygon(
        [(np.cos(2 * k * np.pi / n), np.sin(2 * k * np.pi / n)) for k in range(n)])
    balls = geo.largest_balls(geo.ErosionStructure(poly))
    assert balls.inradius == pytest.approx(np.cos(np.pi / n), rel=1e-9)
    assert balls.centers.kind == "point"
    area = geo._shoelace(poly.vertices)
    assert balls.hull_measure == pytest.approx(balls.ball_measure, rel=1e-9)
    assert 0 < area - balls.ball_measure < 12.0 / n**2


def _hull_sets(rng, count):
    """Point sets of 3 to 1000 points: uniform and normal, moved 1e6 of their
    size from the origin, scaled by 1e-6 and 1e6, with duplicate points, and
    marching-squares-like (half the points on one of 12 grid lines)."""
    for _ in range(count):
        n = int(rng.integers(3, 1001))
        base = rng.random((n, 2))
        grid = base.copy()
        grid[: n // 2, 0] = rng.integers(0, 12, n // 2) / 12.0
        grid[n // 2:, 1] = rng.integers(0, 12, n - n // 2) / 12.0
        yield from (base, rng.normal(size=(n, 2)), base + 1e6, base - [1e6, -3e6],
                    1e-6 * base, 1e6 * base,
                    np.concatenate([base, base[rng.integers(0, n, n // 2)]]), grid)


def test_convex_hulls_matches_qhull():
    ConvexHull = pytest.importorskip("scipy.spatial").ConvexHull
    rng = np.random.default_rng(5)
    sets = list(_hull_sets(rng, 40))
    for pts in sets:
        idx, counts = geo.convex_hulls(pts, [len(pts)])
        assert counts.tolist() == [len(idx)]
        got, ref = pts[idx], pts[ConvexHull(pts).vertices]
        # the same vertices in the same CCW cycle, from the leftmost-then-lowest
        assert len(got) == len(ref)
        assert np.array_equal(got[0], min(map(tuple, pts)))
        at = np.flatnonzero((ref == got[0]).all(axis=1))
        assert len(at) == 1 and np.array_equal(np.roll(ref, -at[0], axis=0), got)
    # no area: 0, 1 or 2 points, repeated points and collinear sets
    t, k = rng.random(50), rng.integers(-20, 20, 50)
    flat = [np.empty((0, 2)), [[1.0, 2.0]], [[1.0, 2.0]] * 3, [[0.0, 0.0], [1.0, 1.0]],
            np.stack([t, t], 1), np.stack([t, -t], 1), np.stack([t, 0 * t + 0.3], 1),
            np.stack([0 * t - 2.0, 1e6 * t], 1), np.stack([k, 3 * k], 1) / 8.0]
    for pts in flat:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        idx, counts = geo.convex_hulls(pts, [len(pts)])
        assert counts.tolist() == [len(idx)] and len(idx) <= min(2, len(pts))
        if len(pts):
            assert np.array_equal(pts[idx[0]], min(map(tuple, pts)))
            assert np.array_equal(pts[idx[-1]], max(map(tuple, pts)))
    # hulled together, every set gives what it gives alone, bit for bit
    sets = [np.asarray(p, dtype=float).reshape(-1, 2) for p in flat] + sets
    rng.shuffle(sets)
    idx, counts = geo.convex_hulls(np.concatenate(sets), [len(p) for p in sets])
    offsets, ends = np.cumsum([0] + [len(p) for p in sets]), np.cumsum(counts)
    for pts, off, end, count in zip(sets, offsets, ends, counts):
        alone, n = geo.convex_hulls(pts, [len(pts)])
        assert n.tolist() == [count] and np.array_equal(idx[end - count:end] - off, alone)


@pytest.fixture(scope="module")
def golden_blocks(square_family):
    """The march_levels blocks of u and u_tilde of the (48, jittered)
    rearrange golden on u's 256-level threshold grid, as the report
    marches them (u_tilde's levels are convex, u's are not)."""
    u = _bump_grid(48, "jittered")
    ut = rr.convex_rearrangement(u, square_family)
    ts = rr._threshold_grid(u.values, 256)[1]
    return [(pts, counts) for g in (u, ut)
            for _, pts, counts in rr.march_levels(g.values, g.origin, g.spacing, ts)]


def _same_hulls(pts, counts):
    got, want = geo.convex_hulls(pts, counts), oracles.quickhull_sorted(pts, counts)
    return all(np.array_equal(g, w) for g, w in zip(got, want))


def test_convex_hulls_matches_reference(golden_blocks):
    # bit for bit the hulls of quickhull to the end, on point sets in
    # general position (few vertices, no switch to chains) and in convex
    # position (mostly vertices, finished by chains), with duplicates
    rng = np.random.default_rng(11)
    sets = list(_hull_sets(rng, 40))
    assert all(_same_hulls(pts, [len(pts)]) for pts in sets)
    assert _same_hulls(np.concatenate(sets), [len(p) for p in sets])
    assert len(golden_blocks) > 2
    assert all(_same_hulls(pts, counts) for pts, counts in golden_blocks)
    # an integer cone marched at its own values: a crossing on a sample,
    # shared by the edges that meet there, comes once per edge
    j, i = np.mgrid[0:64, 0:64]
    cone = np.maximum(np.floor(30.0 - np.hypot(i - 31.5, j - 31.5)), 0.0)
    levels = list(rr.march_levels(cone, (0.0, 0.0), (1.0, 1.0), np.unique(cone)))
    dups = sum(len(pts) - len(np.unique(pts, axis=0)) for _, pts, _ in levels)
    assert dups > 500 and all(_same_hulls(pts, counts) for _, pts, counts in levels)
    assert _same_hulls(square_points(rng, 85 * 192), np.full(85, 192))
    t = 2.0 * np.pi * rng.permutation(4096) / 4096
    circle = np.stack([np.cos(t), np.sin(t)], 1)
    assert len(geo.convex_hulls(circle, [4096])[0]) == 4096
    assert _same_hulls(circle, [4096])
    for n in (384, 65536):
        assert _same_hulls(square_points(rng, n), [n])


def _peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_convex_hulls_memory_within_reference(golden_blocks):
    # no more traced memory than the reference on a sweep block, the
    # largest report block and a large single set
    rng = np.random.default_rng(12)
    block = max(golden_blocks, key=lambda b: len(b[0]))
    for pts, counts in [(square_points(rng, 85 * 192), np.full(85, 192)), block,
                        (square_points(rng, 65536), [65536])]:
        assert _peak(geo.convex_hulls, pts, counts) <= _peak(oracles.quickhull_sorted, pts, counts)


def test_convex_hulls_stalled_chains_go_back_to_quickhull(monkeypatch):
    # a convex arc cut off by a farther split point: the chains drop its
    # end one point per pass (some 28,000 passes here) unless they hand
    # their points back to quickhull rounds
    passes = []
    chain_pass = geo._chain_pass
    monkeypatch.setattr(geo, "_chain_pass", lambda *args: passes.append(1) or chain_pass(*args))
    pts = cut_arc(65536)
    assert _same_hulls(pts, [len(pts)])
    assert 0 < len(passes) <= 24
    # in a block, beside sets in convex and in general position, and with
    # the arc's points in reverse and with copies
    rng = np.random.default_rng(3)
    arc = cut_arc(4096)
    t = 2.0 * np.pi * rng.permutation(512) / 512
    sets = [arc, np.stack([np.cos(t), np.sin(t)], 1), arc[::-1], square_points(rng, 192),
            np.concatenate([arc, arc[rng.integers(0, len(arc), 1000)]]) + 1e6]
    passes.clear()
    assert _same_hulls(np.concatenate(sets), [len(s) for s in sets])
    assert 0 < len(passes) <= 24


def test_convex_hulls_finished_chains_keep_their_hulls(monkeypatch):
    # a chain phase that finishes at a pass from the eighth on (here on
    # single sets of 384 fan points) returns its hulls: no hand-back to
    # quickhull follows a pass that dropped nothing
    phases, drops = [], []
    chain_pass, hull_chains = geo._chain_pass, geo._hull_chains

    def record_pass(*args):
        keep = chain_pass(*args)
        drops.append(np.count_nonzero(~keep))
        return keep

    def record_chains(*args):
        drops.clear()
        out = hull_chains(*args)
        phases.append((list(drops), out[0] is None))
        return out

    monkeypatch.setattr(geo, "_chain_pass", record_pass)
    monkeypatch.setattr(geo, "_hull_chains", record_chains)
    rng = np.random.default_rng(0)
    for _ in range(40):
        assert _same_hulls(square_points(rng, 384), [384])
    assert not [d for d, back in phases if back and d[-1] == 0]
    assert any(len(d) >= 8 and not back for d, back in phases)
