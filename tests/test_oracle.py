import json
import tracemalloc

import numpy as np
import pytest

from isoperim import oracle as orc
from isoperim.errors import SamplerInfeasibleError, ScheduleInvalidError
from isoperim.family import build_family
from isoperim.geometry import _edge_length_sum, _shoelace, validate_polygon

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


def test_crofton_disk(monkeypatch):
    # a one-off perimeter reads the 16 counts and builds no annealing state
    monkeypatch.setattr(orc, "_stencil_sums", None)
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
        oracles.flip(counter, j, i)
    assert counter.perimeter() == pytest.approx(
        orc.crofton_perimeter(counter.g, h), abs=1e-12)


def _edge_grids():
    """Random grids with an in-cell on each of the four sides, single rows and
    columns, and empty and full grids."""
    rng = np.random.default_rng(5)
    grids = []
    for ny, nx in [(5, 7), (9, 4), (13, 13), (2, 3)]:
        g = rng.random((ny, nx)) < 0.5
        g[0, rng.integers(nx)] = g[-1, rng.integers(nx)] = True
        g[rng.integers(ny), 0] = g[rng.integers(ny), -1] = True
        grids.append(g)
    for shape in [(1, 9), (9, 1), (1, 1)]:
        grids += [rng.random(shape) < 0.5, np.ones(shape, dtype=bool)]
    return grids + [np.zeros((6, 5), dtype=bool), np.ones((6, 5), dtype=bool)]


@pytest.mark.parametrize("grid", _edge_grids(), ids=lambda g: "x".join(map(str, g.shape)))
def test_flat_counts_match_shifted_counts(grid):
    h = 0.125
    counts = [oracles.transition_count(grid, int(a), int(b)) for a, b in orc._CROFTON_DIRS]
    assert orc._CroftonCounter(grid, h).counts == counts
    total = 0.0
    for w, ln, n in zip(orc._CROFTON_W, orc._CROFTON_LEN, counts):
        total += w * (h / ln) * n
    assert orc.crofton_perimeter(grid, h) == 0.5 * total


def test_hull_sampler(square_family):
    comp = orc.sample_competitor(square_family, 0.9, "hull", seed=7)
    assert comp.kind == "polygon"
    assert comp.area == pytest.approx(0.9, abs=1e-6)
    assert square_family.domain.contains_point(comp.vertices).all()


def test_hull_ladder_starts_near_the_target(square_family):
    sweep = orc._Sweep(square_family, 0.9)
    rng = np.random.default_rng(12)
    comps = [orc.sample_competitor(square_family, 0.9, "hull", rng, sweep)
             for _ in range(500)]
    assert all({"sampler", "k", "tries"} <= c.provenance.keys() for c in comps)
    assert np.mean([1 + c.provenance["tries"] for c in comps]) <= 1.5
    assert all(c.provenance["k"] >= sweep.hull_k0 for c in comps)


def test_hull_ladder_start_does_not_overshoot_smooth_domains():
    # the polygon estimate with r = 256 would start near k = 15,000
    fam = build_family(validate_polygon(ellipse_polygon(1, 256)))
    assert orc._Sweep(fam, 0.9 * fam.v_max).hull_k0 <= 384


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


def test_halfplane_cuts_one_batched_call_per_block(square_family, monkeypatch):
    # no bisection and no Python clip loop: one array pass cuts a block's half-planes
    assert not hasattr(orc, "halfplane_cut")
    assert not hasattr(orc, "clip_halfplane")
    calls = []
    cuts = orc._halfplane_cuts

    def counting_cuts(vertices, normals, v):
        calls.append(len(normals))
        return cuts(vertices, normals, v)

    monkeypatch.setattr(orc, "_halfplane_cuts", counting_cuts)
    monkeypatch.setattr(orc, "BLOCK_POINTS", 7 * orc._Sweep(square_family, 0.9).hull_k0)
    orc.verify_minimality(square_family, 0.9, 40, seed=1)
    assert calls == [3, 4, 3, 4, 3, 3]   # odd competitors in blocks of 7


def test_escaping_competitor_raises(square_family):
    # a cut moved against its normal leaves the domain where the cut meets it;
    # the verdict is per competitor
    ellipse = build_family(validate_polygon(ellipse_polygon(2, 1024)))
    for fam in (ellipse, square_family):
        v = 0.5 * fam.v_max
        sweep = orc._Sweep(fam, v)
        comp = orc.sample_competitor(fam, v, "halfplane", seed=4, sweep=sweep)
        theta = comp.provenance["theta"]
        moved = comp.vertices - 1e-3 * fam.domain.scale * np.array([np.cos(theta), np.sin(theta)])
        verts = np.concatenate([comp.vertices, moved])
        block = orc._Block(0, np.array(["halfplane", "halfplane"]))
        block.add_polygons(np.arange(2), verts, np.full(2, len(comp.vertices)),
                           fam.domain.contains_point(verts), sweep)
        assert block.errors == {1: "competitor escapes the domain"}
        with pytest.raises(SamplerInfeasibleError, match="escapes"):
            block.raise_first()


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
    normals = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0),
                        (np.cos(theta), np.sin(theta))])
    for ratio in (1e-6, 0.01, 0.5, 0.9, 1.0 - 1e-6):
        v = ratio * total
        slots, kept = orc._halfplane_cuts(poly.vertices, normals, v)
        for normal, row, keep in zip(normals, slots, kept):
            cut = row[keep]
            ref, lo, hi = oracles.bisect_halfplane_cut(poly.vertices, normal, v, 0.5 * tol)
            one, _ = oracles.halfplane_cut(poly.vertices, normal, v)
            assert abs(_shoelace(cut) - v) <= tol
            assert abs(_shoelace(cut) - _shoelace(ref)) <= tol
            slack = 1e-9 * poly.scale
            assert lo - slack <= np.max(cut @ normal) <= hi + slack
            assert cut.shape == one.shape
            assert abs(_shoelace(cut) - _shoelace(one)) <= tol
            assert poly.contains_point(cut).all()


def test_halfplane_sampler_matches_bisected_sampler(rect_family):
    for seed in range(20):
        comp = orc.sample_competitor(rect_family, 1.2, "halfplane", seed=seed)
        cut, theta = oracles.bisect_halfplane_competitor(
            np.random.default_rng(seed), rect_family, 1.2)
        assert comp.provenance["theta"] == theta
        assert comp.perimeter == pytest.approx(
            _edge_length_sum(cut), abs=1e-5)


def _batched(family, v, n_samples, seed, samplers):
    """Per competitor of the blocked sweep: its Competitor or its SamplerInfeasibleError."""
    out = []
    for block in orc._blocks(orc._Sweep(family, v), samplers, n_samples, seed):
        for j in range(len(block.samplers)):
            try:
                out.append(block.competitor(j))
            except SamplerInfeasibleError as exc:
                out.append(exc)
    return out


def _samplers(family, v):
    return ["hull", "halfplane"] + (["disk"] if v <= family.balls.ball_measure else [])


def _assert_same_competitors(got, ref, p_min):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        if isinstance(b, SamplerInfeasibleError):
            assert isinstance(a, SamplerInfeasibleError) and str(a) == str(b)
            continue
        assert a.kind == b.kind and a.provenance == b.provenance
        gap = b.perimeter - p_min
        assert abs((a.perimeter - p_min) - gap) <= 1e-12 * abs(gap)
        assert a.area == pytest.approx(b.area, rel=1e-12)
        if a.kind == "polygon":
            assert a.vertices.shape == b.vertices.shape
        else:
            assert np.array_equal(a.center, b.center) and a.radius == b.radius


@pytest.mark.parametrize("name, fraction, n_samples", [
    ("square", 0.9, 400), ("rect21", 0.25, 300), ("rect21", 0.6, 300),
    ("rect21", 0.95, 300), ("ellipse256", 0.99, 12)])
def test_sweep_matches_reference_loop(request, name, fraction, n_samples):
    # the square at v = 0.9, the 2x1 rectangle at 0.5 (with disks), 1.2 and 1.9,
    # and the 256-gon ellipse at 0.99 |domain|
    if name == "ellipse256":
        fam = build_family(validate_polygon(ellipse_polygon(1, 256)))
    else:
        fam = request.getfixturevalue({"square": "square_family", "rect21": "rect_family"}[name])
    v = fraction * fam.v_max
    samplers = _samplers(fam, v)
    got = _batched(fam, v, n_samples, 21, samplers)
    ref = oracles.sweep_competitors(fam, v, n_samples, 21, samplers)
    _assert_same_competitors(got, ref, fam.perimeter(v))
    assert not any(isinstance(c, SamplerInfeasibleError) for c in ref)
    if name == "square":   # some hulls went up the ladder
        assert any(c.provenance.get("tries", 0) for c in ref)


@pytest.mark.parametrize("fam_name, kind", [("square_family", "point"),
                                             ("rect_family", "segment")])
def test_disks_at_the_ball_measure_match_reference_loop(request, fam_name, kind):
    # a disk of the largest ball's area has a point or a segment of centers
    fam = request.getfixturevalue(fam_name)
    v = fam.balls.ball_measure
    assert orc.erode(fam.domain, orc._Sweep(fam, v).disk[0], fam.structure).kind == kind
    samplers = ["disk", "hull", "halfplane"]
    got = _batched(fam, v, 60, 5, samplers)
    _assert_same_competitors(got, oracles.sweep_competitors(fam, v, 60, 5, samplers),
                             fam.perimeter(v))
    assert {c.provenance["sampler"] for c in got} == set(samplers)


def test_sweep_raises_for_the_same_competitors(square_family, monkeypatch):
    k0 = orc._Sweep(square_family, 0.9).hull_k0
    monkeypatch.setattr(orc, "HULL_K_MAX", k0)       # a short first rung fails
    samplers = ["hull", "halfplane"]
    got = _batched(square_family, 0.9, 300, 2, samplers)
    ref = oracles.sweep_competitors(square_family, 0.9, 300, 2, samplers)
    _assert_same_competitors(got, ref, square_family.perimeter(0.9))
    reasons = {str(c).split(" ")[0] for c in ref if isinstance(c, SamplerInfeasibleError)}
    assert reasons == {"hull"}
    first = next(i for i, c in enumerate(ref) if isinstance(c, SamplerInfeasibleError))
    with pytest.raises(SamplerInfeasibleError, match=str(ref[first])):
        orc.verify_minimality(square_family, 0.9, 300, seed=2, samplers=samplers)


@pytest.mark.parametrize("fam_name, v", [("square_family", 0.9), ("rect_family", 0.5)])
def test_sweep_does_not_depend_on_block_cap(request, monkeypatch, fam_name, v):
    fam = request.getfixturevalue(fam_name)
    samplers = _samplers(fam, v)
    per = max(orc._Sweep(fam, v).hull_k0, len(fam.domain.vertices))
    runs = []
    for cap in (orc.BLOCK_POINTS, 1, 7 * per):      # blocks of many, 1 and 7 competitors
        monkeypatch.setattr(orc, "BLOCK_POINTS", cap)
        report = json.dumps(orc.verify_minimality(fam, v, 250, seed=6).as_dict())
        runs.append((report, _batched(fam, v, 250, 6, samplers)))
    for report, comps in runs[1:]:
        assert report == runs[0][0]
        for a, b in zip(comps, runs[0][1]):
            assert a.area == b.area and a.perimeter == b.perimeter
            if a.kind == "polygon":
                assert np.array_equal(a.vertices, b.vertices)
            else:
                assert np.array_equal(a.center, b.center)


def _sweep_peak(family, v, n_samples):
    tracemalloc.start()
    orc.verify_minimality(family, v, n_samples, seed=3)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def test_sweep_memory_does_not_grow_with_samples(square_family):
    _sweep_peak(square_family, 0.9, 100)     # one-time costs stay outside the trace
    small = _sweep_peak(square_family, 0.9, 1000)
    large = _sweep_peak(square_family, 0.9, 8000)
    # blocks hold at most BLOCK_POINTS first-rung points; only the gaps
    # (8 bytes a competitor) and the histogram's temporaries grow
    assert large - small <= 40 * 7000


@pytest.mark.parametrize("fam_name, v", [("square_family", 0.9), ("rect_family", 0.5)])
def test_violations_keep_their_provenance(request, monkeypatch, fam_name, v):
    fam = request.getfixturevalue(fam_name)
    ref = oracles.sweep_competitors(fam, v, 200, 8, _samplers(fam, v))
    monkeypatch.setattr(fam, "perimeter", lambda v: 1e3)   # every competitor beats it
    report = orc.verify_minimality(fam, v, 200, seed=8)
    assert [viol["index"] for viol in report.violations] == list(range(200))
    for viol, comp in zip(report.violations, ref):
        assert {key: viol[key] for key in comp.provenance} == comp.provenance
        assert viol.keys() - comp.provenance.keys() == {"index", "gap", "perimeter"}
        assert viol["perimeter"] == pytest.approx(comp.perimeter, rel=1e-12)
    assert {c.provenance["sampler"] for c in ref} == set(_samplers(fam, v))


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
