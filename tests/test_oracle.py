import numpy as np
import pytest
from scipy.spatial import QhullError

from isoperim import oracle as orc
from isoperim.errors import SamplerInfeasibleError, ScheduleInvalidError


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
        raise QhullError("QH6154 initial simplex is flat")

    monkeypatch.setattr(orc, "ConvexHull", failing_hull)
    with pytest.raises(SamplerInfeasibleError, match="Qhull failed"):
        orc.sample_competitor(square_family, 0.9, "hull", seed=7)
    assert len(calls) == orc.QHULL_RETRIES + 1


def test_halfplane_sampler(square_family):
    comp = orc.sample_competitor(square_family, 0.9, "halfplane", seed=1)
    assert comp.area == pytest.approx(0.9, abs=1e-6)
    assert square_family.domain.contains_point(comp.vertices).all()


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
