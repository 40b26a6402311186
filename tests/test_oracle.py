import dataclasses

import numpy as np
import pytest

from isoperim import oracle as orc
from isoperim.errors import SamplerInfeasibleError, ScheduleInvalidError
from isoperim.family import build_family
from isoperim.geometry import _shoelace, validate_polygon

import oracles
from conftest import ellipse_polygon, regular_polygon


def _raster(shape_fn, n=256, lo=0.0, hi=1.0):
    h = (hi - lo) / n
    xs = lo + (np.arange(n) + 0.5) * h
    X, Y = np.meshgrid(xs, xs)
    return shape_fn(X, Y), h


def test_crofton_axis_square():
    grid, h = _raster(lambda X, Y: (np.abs(X - 0.5) <= 0.25) & (np.abs(Y - 0.5) <= 0.25))
    assert orc.crofton_perimeter(grid, h) == pytest.approx(2.0, rel=0.02)


def test_crofton_disk():
    grid, h = _raster(lambda X, Y: (X - 0.5) ** 2 + (Y - 0.5) ** 2 <= 0.09)
    assert orc.crofton_perimeter(grid, h) == pytest.approx(2 * np.pi * 0.3, rel=0.02)


def test_crofton_rotated_square():
    grid, h = _raster(lambda X, Y: (np.abs(X - 0.5) + np.abs(Y - 0.5)) <= 0.25 * np.sqrt(2))
    axis, _ = _raster(lambda X, Y: (np.abs(X - 0.5) <= 0.25) & (np.abs(Y - 0.5) <= 0.25))
    p_rot = orc.crofton_perimeter(grid, h)
    p_axis = orc.crofton_perimeter(axis, h)
    assert p_rot == pytest.approx(2.0, rel=0.02)
    assert p_rot == pytest.approx(p_axis, rel=0.03)


def test_crofton_empty_grid():
    assert orc.crofton_perimeter(np.zeros((8, 8), dtype=bool), 0.1) == 0.0


def test_crofton_counter_matches_batch():
    rng = np.random.default_rng(3)
    grid = rng.random((48, 48)) < 0.4
    h = 1 / 48
    counter = orc._CroftonCounter(grid, h)
    assert counter.perimeter() == pytest.approx(orc.crofton_perimeter(grid, h), abs=1e-12)
    for _ in range(300):
        j, i = rng.integers(0, 48, 2)
        counter.flip(j, i)
    assert counter.perimeter() == pytest.approx(
        orc.crofton_perimeter(counter.g, h), abs=1e-12)


def test_hull_sampler(square_family):
    comp = orc.sample_competitor(square_family, 0.9, "hull", seed=7)
    assert comp.kind == "polygon"
    assert comp.area == pytest.approx(0.9, abs=1e-6)
    assert square_family.domain.contains_point(comp.vertices).all()


def test_hull_sampler_gives_up_when_qhull_keeps_failing(square_family, monkeypatch):
    calls = []

    def failing_hull(points):
        calls.append(len(points))
        return None       # what convex_hull returns when Qhull rejects the points

    monkeypatch.setattr(orc, "convex_hull", failing_hull)
    with pytest.raises(SamplerInfeasibleError, match="Qhull failed"):
        orc.sample_competitor(square_family, 0.9, "hull", seed=7)
    assert len(calls) == orc.QHULL_RETRIES + 1


def test_hull_ladder_starts_near_the_target(square_family):
    sweep = orc._sweep(square_family, 0.9)
    rng = np.random.default_rng(12)
    comps = [orc.sample_competitor(square_family, 0.9, "hull", rng, sweep)
             for _ in range(500)]
    assert all({"sampler", "k", "tries"} <= c.provenance.keys() for c in comps)
    assert np.mean([1 + c.provenance["tries"] for c in comps]) <= 1.5
    assert all(c.provenance["k"] >= sweep.hull_k0 for c in comps)


def test_hull_ladder_start_does_not_overshoot_smooth_domains():
    # the polygon estimate with r = 256 would start near k = 15,000
    fam = build_family(validate_polygon(ellipse_polygon(1, 256)))
    assert orc._sweep(fam, 0.9 * fam.v_max).hull_k0 <= 384


def test_hull_ladder_exhausted_raises(square_family, monkeypatch):
    monkeypatch.setattr(orc, "HULL_K_MAX", 96)
    with pytest.raises(SamplerInfeasibleError, match="never reached"):
        orc.sample_competitor(square_family, 0.99, "hull", seed=3)


def test_verify_minimality_smooth_domain_near_full():
    # hulls of about 12,288 points are needed here
    fam = build_family(validate_polygon(ellipse_polygon(1, 256)))
    report = orc.verify_minimality(fam, 0.99 * fam.v_max, 16, seed=4)
    assert report.passed
    assert report.min_gap > 0.0


def test_halfplane_sampler(square_family):
    comp = orc.sample_competitor(square_family, 0.9, "halfplane", seed=1)
    assert comp.area == pytest.approx(0.9, abs=1e-6)
    assert square_family.domain.contains_point(comp.vertices).all()


def test_halfplane_sampler_clips_once(square_family, monkeypatch):
    calls = []
    clip = orc.clip_halfplane

    def counting_clip(*args):
        calls.append(args)
        return clip(*args)

    monkeypatch.setattr(orc, "clip_halfplane", counting_clip)
    orc.sample_competitor(square_family, 0.9, "halfplane", seed=1)
    assert len(calls) == 1


def test_escaping_competitor_raises(square_family):
    ellipse = build_family(validate_polygon(ellipse_polygon(2, 1024)))
    for fam in (ellipse, square_family):
        comp = orc.sample_competitor(fam, 0.5 * fam.v_max, "halfplane", seed=4)
        orc._check_containment(fam.domain, comp)
        grown = 1.001 * comp.vertices
        for verts in (grown, grown[::-1]):
            with pytest.raises(SamplerInfeasibleError, match="escapes"):
                orc._check_containment(fam.domain, dataclasses.replace(comp, vertices=verts))


HALFPLANE_POLYGONS = {
    "triangle": [(0.0, 0.0), (1.0, 0.0), (0.3, 0.8)],
    "square": [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
    "ellipse256": ellipse_polygon(1, 256),
    "regular1024": regular_polygon(1024),
}


@pytest.mark.parametrize("shift, scale", [(0.0, 1.0), (1e6, 1.0), (0.0, 1e-6), (0.0, 1e6)])
@pytest.mark.parametrize("name", list(HALFPLANE_POLYGONS))
def test_halfplane_cut_matches_bisection(name, shift, scale):
    poly = validate_polygon(np.asarray(HALFPLANE_POLYGONS[name]) * scale + shift)
    total = _shoelace(poly.vertices)
    tol = orc.AREA_TOL_REL * total
    theta = np.random.default_rng(len(poly.vertices)).uniform(0.0, 2.0 * np.pi)
    # exact axis directions tie the projections of the square's and the triangle's edges
    normals = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (np.cos(theta), np.sin(theta))]
    for normal in np.asarray(normals):
        for ratio in (1e-6, 0.01, 0.5, 0.9, 1.0 - 1e-6):
            v = ratio * total
            cut, c = orc.halfplane_cut(poly.vertices, normal, v)
            ref, lo, hi = oracles.bisect_halfplane_cut(poly.vertices, normal, v, 0.5 * tol)
            assert abs(_shoelace(cut) - v) <= tol
            assert abs(_shoelace(cut) - _shoelace(ref)) <= tol
            slack = 1e-9 * poly.scale
            assert lo - slack <= c <= hi + slack
            assert poly.contains_point(cut).all()


def test_halfplane_sampler_matches_bisected_sampler(rect_family):
    for seed in range(20):
        comp = orc.sample_competitor(rect_family, 1.2, "halfplane", seed=seed)
        cut, theta = oracles.bisect_halfplane_competitor(
            np.random.default_rng(seed), rect_family, 1.2)
        assert comp.provenance["theta"] == theta
        assert comp.perimeter == pytest.approx(
            orc._edge_length_sum(cut), abs=1e-5)


def test_disk_sampler(square_family):
    comp = orc.sample_competitor(square_family, 0.5, "disk", seed=3)
    assert comp.kind == "disk"
    assert comp.radius == pytest.approx(np.sqrt(0.5 / np.pi), rel=1e-12)
    # feasible center: the disk fits inside the square
    slack = (comp.center @ square_family.domain.normals.T
             - square_family.domain.offsets + comp.radius)
    assert np.max(slack) <= 1e-9


def test_disk_sampler_infeasible(square_family):
    with pytest.raises(SamplerInfeasibleError):
        orc.sample_competitor(square_family, 0.9, "disk", seed=0)


def test_verify_minimality_square(square_family):
    report = orc.verify_minimality(square_family, 0.9, 600, seed=5)
    assert report.passed
    assert report.min_gap > 0.0
    assert report.n_samples == 600


def test_verify_minimality_disk_equality(rect_family):
    # below the ball measure translated disks tie the minimizer exactly
    report = orc.verify_minimality(rect_family, 0.5, 64, seed=2,
                                   samplers=["disk"])
    assert report.passed
    assert abs(report.min_gap) <= 1e-9


def test_verify_minimality_stadium(rect_family):
    report = orc.verify_minimality(rect_family, 1.2, 400, seed=11)
    assert report.passed
    assert report.minimizer_perimeter == pytest.approx(
        np.pi + 2 * (1.2 - np.pi / 4), rel=1e-12)


def test_anneal_schedule_validation(square):
    with pytest.raises(ScheduleInvalidError):
        orc.anneal_discrete(square, 0.5, 32, orc.AnnealSchedule(ratio=1.5), seed=0)
    with pytest.raises(ScheduleInvalidError):
        orc.anneal_discrete(square, 0.5, 32, orc.AnnealSchedule(sweeps=0), seed=0)
    with pytest.raises(ValueError):
        orc.anneal_discrete(square, 0.5, 512, seed=0)


def test_anneal_small_square(square, square_family):
    res = orc.anneal_discrete(square, 0.9, 32,
                              orc.AnnealSchedule(sweeps=120), seed=1)
    assert int(res.grid.sum()) == res.in_count
    assert res.perimeter == pytest.approx(
        orc.crofton_perimeter(res.grid, res.cell), abs=1e-12)
    assert res.perimeter <= res.energy_trace.min() + 1e-12
    target = square_family.perimeter(0.9)
    assert res.perimeter == pytest.approx(target, rel=0.08)


def test_anneal_disk_regime(square, square_family):
    res = orc.anneal_discrete(square, np.pi / 4, 32,
                              orc.AnnealSchedule(sweeps=120), seed=0)
    assert res.perimeter == pytest.approx(np.pi, rel=0.08)


def test_anneal_rect_near_full(rect21, rect_family):
    res = orc.anneal_discrete(rect21, 1.9, 48,
                              orc.AnnealSchedule(sweeps=200), seed=0)
    assert res.perimeter == pytest.approx(rect_family.perimeter(1.9), rel=0.08)
