import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from isoperim import rearrange as rr
from isoperim.errors import DomainMismatchError
from isoperim.errors import GeometryError
from isoperim.geometry import EPS_GEOM, validate_polygon
from isoperim.rearrange import GridFunction

import oracles
from conftest import (SQUARE, cone_grid, disk_indicator_grid, ellipse_polygon, oscillation,
                      random_polygon, regular_polygon, support_measure)


def test_grid_validation(square, rect21):
    u = GridFunction.for_domain(square, 64)
    assert u.values.shape == (64, 64)
    assert u.cell_area == pytest.approx(u.spacing[0] ** 2)
    bad = u.values.copy()
    bad[0, 0] = 1.0   # corner cell center is outside the domain
    with pytest.raises(DomainMismatchError):
        u.with_values(bad)
    with pytest.raises(ValueError):
        u.with_values(np.full_like(u.values, -1.0))
    with pytest.raises(ValueError):
        u.with_values(np.full_like(u.values, np.nan))
    with pytest.raises(DomainMismatchError):
        GridFunction(u.origin, u.spacing, u.values, rect21)


@pytest.mark.parametrize("n", [16, 48, 256])
def test_for_domain_far_off_frames(n):
    # the unit square scaled by 1e-6 to 1e6 and moved up to 1e9 (at most
    # 1e12 of its sides): the grid has n cells across, the domain's cells
    # inside and one margin ring outside, however its coordinates round
    square = np.array(SQUARE)
    for scale in 10.0 ** np.arange(-6, 7, 3):
        for offset in (0.0, 1e3, 1e6, 1e9):
            if offset > 1e12 * scale:
                continue
            for shift in ((offset, offset), (-offset, offset / 3)):
                u = GridFunction.for_domain(validate_polygon(scale * square + shift), n)
                assert u.values.shape == (n, n)
                assert np.count_nonzero(u.inside_mask) == (n - 2) ** 2
                assert np.array_equal(u.inside_mask, u.domain.contains_point(u.centers()))


def assert_mask_is_contains_point(u, tols=(None,)):
    """The lattice membership at every cell center is contains_point's.

    Both test at EPS_GEOM * scale.  Each of tols (None: the domain itself)
    is met by moving every edge line out by tol - EPS_GEOM * scale, which
    puts the default tolerance where that tolerance would stand.
    """
    xs, ys = u._axes()
    for tol in tols:
        poly = u.domain
        if tol is not None:
            shift = tol - EPS_GEOM * poly.scale
            poly = dataclasses.replace(poly, offsets=poly.offsets + shift)
        assert np.array_equal(poly.contains_lattice(xs, ys), poly.contains_point(u.centers()))
    assert np.array_equal(u.inside_mask, u.domain.contains_point(u.centers()))


def test_inside_mask_on_edge_lines_and_every_normal_sign():
    # the square's edges have nx > 0, nx < 0 and nx = 0; cell centers lie
    # exactly on all four edge lines, and on the diamond's rounded ones
    square = validate_polygon(SQUARE)
    on_lines = GridFunction(np.array([-0.25, -0.25]), np.array([0.125, 0.125]),
                            np.zeros((12, 12)), square)
    assert np.count_nonzero(on_lines.inside_mask) == 81
    assert_mask_is_contains_point(on_lines, (None, 0.0, -1e-12, 0.2))
    diamond = validate_polygon([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
    assert_mask_is_contains_point(GridFunction(np.array([-1.5, -1.5]), np.array([0.25, 0.25]),
                                               np.zeros((13, 13)), diamond), (None, 0.0, 1e-3))
    # nx = -0.0 holds like nx = 0.0: the test is constant along a row
    negzero = dataclasses.replace(square, normals=np.where(square.normals == 0.0, -0.0,
                                                           square.normals))
    assert np.any(np.signbit(negzero.normals[:, 0]) & (negzero.normals[:, 0] == 0.0))
    frame = GridFunction.for_domain(square, 37)
    for poly in (square, negzero):
        u = GridFunction(frame.origin, frame.spacing, frame.values, poly)
        assert_mask_is_contains_point(u, (None, 0.0))
        u = GridFunction(on_lines.origin, on_lines.spacing, on_lines.values, poly)
        assert_mask_is_contains_point(u, (None, 0.0))


@pytest.mark.parametrize("kind", ["sliver", "ngon1000", "moved_ellipse1000"])
def test_inside_mask_on_slivers_and_many_edges(kind):
    if kind == "sliver":
        polys = [validate_polygon([(0.0, 0.0), (1.0, 0.0), (0.3, h)]) for h in (1e-2, 1e-4)]
    elif kind == "ngon1000":
        polys = [validate_polygon(regular_polygon(1000))]
    else:
        polys = [validate_polygon(ellipse_polygon(3, 1000) + 1e6)]
    for poly in polys:
        for n in (16, 101):
            assert_mask_is_contains_point(GridFunction.for_domain(poly, n),
                                          (None, 0.0, 1e-3 * poly.scale))


def test_inside_mask_on_random_frames():
    # random polygons scaled by 1e-6 to 1e6 and moved up to 1e6 of their
    # sizes, on grids of 4 to 120 cells across, at three tolerances
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 120:
        poly = random_polygon(rng, k=int(rng.integers(3, 24)))
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        shift = rng.uniform(-1e6, 1e6, 2) * scale * (rng.random() < 0.5)
        try:
            poly = validate_polygon(scale * poly.vertices + shift)
            u = GridFunction.for_domain(poly, int(rng.integers(4, 121)))
        except (GeometryError, ValueError):
            continue
        assert_mask_is_contains_point(u, (None, 0.0, 100.0 * EPS_GEOM * poly.scale))
        checked += 1


@pytest.mark.parametrize("field,index,value", [
    ("spacing", 0, np.inf), ("spacing", 1, np.nan), ("spacing", 0, -np.inf),
    ("origin", 0, np.nan), ("origin", 1, -np.inf), ("origin", 0, np.inf)])
def test_grid_rejects_nonfinite_frame(square, field, index, value):
    u = GridFunction.for_domain(square, 16)
    frame = {"origin": u.origin.copy(), "spacing": u.spacing.copy()}
    frame[field][index] = value
    with pytest.raises(ValueError, match="grid origin and spacing must be finite"):
        GridFunction(frame["origin"], frame["spacing"], u.values, square)


def test_grid_rejects_what_would_overflow(square, square_family):
    # a frame whose span overflows when squared, or values whose BV
    # estimate would overflow, are refused before any marching; a grid
    # just inside the bound gives a finite report with no warning
    u = GridFunction.for_domain(square, 16)
    with pytest.raises(ValueError, match="overflows when squared"):
        GridFunction(u.origin, np.array([1e308, u.spacing[1]]), u.values, square)
    with pytest.raises(ValueError, match="grid values too large"):
        u.with_values(np.where(u.inside_mask, 1e308, 0.0))
    cone = cone_grid(square, 32)
    big = cone.with_values(cone.values * (1e306 / np.sum(cone.values)))
    rep = rr.rearrangement_report(big, rr.convex_rearrangement(big, square_family), 16)
    assert np.all(np.isfinite([*rep.bv_u, *rep.bv_ut, *rep.levels["per_u"],
                               *rep.levels["convexity_defect"]]))


def test_distribution_indicator(square):
    u = disk_indicator_grid(square, 128, (0.5, 0.5), 0.25, antialias=False)
    mu = rr.distribution(u, 0.5)
    assert mu == pytest.approx(np.pi * 0.0625, abs=4 * u.spacing[0])
    assert rr.distribution(u, 2.0) == 0.0
    with pytest.raises(ValueError):
        rr.distribution(u, -0.1)
    # indicator of the whole domain: measure 1 within a boundary cell layer
    full = u.with_values(u.inside_mask.astype(float))
    assert rr.distribution(full, 0.5) == pytest.approx(1.0, abs=4 * u.spacing[0])
    with pytest.raises(ValueError):
        rr.distribution(u, np.array([0.5, -0.1]))
    _assert_counts_every_threshold(disk_indicator_grid(square, 29, (0.4, 0.6), 0.3))


def _assert_counts_every_threshold(u):
    # many thresholds from one sort: the counts of one full-grid pass each,
    # at sample values (ties), between them, at 0 and above the maximum
    rng = np.random.default_rng(8)
    ts = np.concatenate([[0.0], np.unique(u.values), rng.uniform(0.0, 2.0, 50)])
    got = rr.distribution(u, ts)
    want = [int(np.count_nonzero(u.values > t)) * u.cell_area for t in ts]
    assert got.tolist() == want
    assert [rr.distribution(u, float(t)) for t in ts] == want


def test_distribution_cone(square):
    u = cone_grid(square, 128)
    h = float(u.spacing[0])
    # {u > t} is the inner square of side 1 - 2t
    mu = rr.distribution(u, 0.25)
    assert mu == pytest.approx(0.25, abs=2 * (2 * h) * 4.0)
    cone = cone_grid(square, 37)
    _assert_counts_every_threshold(cone)
    _assert_counts_every_threshold(cone.with_values(np.round(4.0 * cone.values, 0)))


def test_profile_two_level(square):
    u0 = GridFunction.for_domain(square, 32)
    vals = np.zeros_like(u0.values)
    vals[10:20, 10:20] = 3.0
    u = u0.with_values(vals)
    prof = rr.decreasing_rearrangement(u)
    a = 100 * u.cell_area
    assert prof(0.0) == 3.0
    assert prof(a * 0.5) == 3.0
    assert prof(a) == 3.0
    assert prof(a * 1.01) == 0.0
    assert support_measure(prof) == pytest.approx(a)


def test_profile_staircase_semantics(square):
    u0 = GridFunction.for_domain(square, 16)
    vals = np.zeros_like(u0.values)
    distinct = [5.0, 4.0, 2.5, 1.0]
    for k, t in enumerate(distinct):
        vals[6, 6 + k] = t
    u = u0.with_values(vals)
    prof = rr.decreasing_rearrangement(u)
    a = u.cell_area
    # sup over {t : mu(t) >= v}: the k-th largest value on ((k-1)a, ka]
    for k, t in enumerate(distinct):
        assert prof(a * (k + 0.5)) == t
        assert prof(a * (k + 1)) == t
    assert prof(a * 4.5) == 0.0
    # brute-force oracle for the sup definition on a few v values
    for v in (0.3 * a, 1.7 * a, 3.2 * a):
        cands = [t for t in np.linspace(0, 6, 2401)
                 if rr.distribution(u, t) >= v - 1e-15]
        assert prof(v) == pytest.approx(max(cands), abs=0.01)


def test_profile_cone_closed_form(square):
    u = cone_grid(square, 200)
    prof = rr.decreasing_rearrangement(u)
    h = float(u.spacing[0])
    for v in (0.04, 0.25, 0.5, 0.81):
        assert prof(v) == pytest.approx((1 - np.sqrt(v)) / 2, abs=2 * h)


def test_rearrangement_fixed_point(square, square_family):
    u0 = GridFunction.for_domain(square, 128)
    centers = u0.centers().reshape(-1, 2)
    member = square_family.member(0.9, centers).reshape(u0.values.shape)
    u = u0.with_values(np.where(member, 2.0, 0.0))
    ut = rr.convex_rearrangement(u, square_family)
    differ = ut.values != u.values
    assert differ.mean() <= 0.005
    # all mismatches hug the shape boundary (a 2-cell layer)
    h = float(u.spacing[0])
    if differ.any():
        pts = u0.centers()[differ]
        r = square_family.radius_for_volume(0.9)
        d = square_family.structure.distance_to_core(pts, np.full(len(pts), r))
        assert np.all(np.abs(d - r) <= 2.5 * h)


def test_rearrangement_offcenter_disk(square, square_family):
    u = disk_indicator_grid(square, 256, (0.35, 0.4), 0.2)
    ut = rr.convex_rearrangement(u, square_family)
    # same-area disk, recentered: compare against the analytic indicator
    ref = disk_indicator_grid(square, 256, (0.5, 0.5), 0.2)
    h = float(u.spacing[0])
    mismatch = np.abs((ut.values > 0.5) ^ (ref.values > 0.5)).mean()
    assert mismatch <= 4 * h * 2 * np.pi * 0.2
    bv_u = rr.bv_norm_estimate(u, 64)
    bv_t = rr.bv_norm_estimate(ut, 64)
    assert bv_t[2] == pytest.approx(bv_u[2], rel=0.02)
    rep = rr.rearrangement_report(u, ut, 32)
    assert rep.passed


def test_rearrangement_domain_mismatch(rect21, square_family):
    u = GridFunction.for_domain(rect21, 32)
    with pytest.raises(DomainMismatchError):
        rr.convex_rearrangement(u, square_family)


def test_rearrangement_matches_literal_definition(square, square_family):
    # oracle: u~(x) = inf{s >= 0 : x not in E(|{u > s}|)} scanned over the
    # value set, using only the member predicate
    u = cone_grid(square, 48)
    ut = rr.convex_rearrangement(u, square_family)
    prof = rr.decreasing_rearrangement(u)
    rng = np.random.default_rng(4)
    jj = rng.integers(0, u.ny, 25)
    ii = rng.integers(0, u.nx, 25)
    svals = np.concatenate([[0.0], np.unique(u.values)])
    exact = 0
    for j, i in zip(jj, ii):
        x = u.centers()[j, i]
        ref = None
        for s in svals:
            mu = rr.distribution(u, float(s))
            if mu <= 0.0 or not square_family.member(mu, x):
                ref = float(s)
                break
        assert ref is not None
        got = float(ut.values[j, i])
        if got == pytest.approx(ref, abs=1e-12):
            exact += 1
        else:
            # ties at a rank breakpoint move the value by one profile step
            osc = oscillation(prof, max(square_family.rank(x) - 2 * u.cell_area, 0),
                              square_family.rank(x) + 2 * u.cell_area)
            assert abs(got - ref) <= osc + 1e-12
    assert exact >= 20


def test_bv_norm_estimates(square):
    u = disk_indicator_grid(square, 258, (0.5, 0.5), 0.25)
    l1, tv, bv = rr.bv_norm_estimate(u, 64)
    assert tv == pytest.approx(np.pi / 2, rel=0.02)
    assert bv == pytest.approx(l1 + tv)

    zero = GridFunction.for_domain(square, 32)
    assert rr.bv_norm_estimate(zero, 64) == (0.0, 0.0, 0.0)

    cone = cone_grid(square, 258)
    l1c, tvc, _ = rr.bv_norm_estimate(cone, 256)
    assert tvc == pytest.approx(1.0, rel=0.02)
    assert l1c == pytest.approx(1.0 / 6.0, rel=0.01)

    with pytest.raises(ValueError):
        rr.bv_norm_estimate(u, 8)


def test_level_perimeter_square_levels(square):
    u = cone_grid(square, 200)
    # {u > t} is a square of side 1 - 2t with perimeter 4 - 8t
    for t in (0.1, 0.2, 0.35):
        assert rr.level_perimeter(u, t) == pytest.approx(4 - 8 * t, rel=0.02)


def test_report_fixed_point(square, square_family):
    u0 = GridFunction.for_domain(square, 128)
    centers = u0.centers().reshape(-1, 2)
    member = square_family.member(0.9, centers).reshape(u0.values.shape)
    u = u0.with_values(np.where(member, 1.0, 0.0))
    ut = rr.convex_rearrangement(u, square_family)
    rep = rr.rearrangement_report(u, ut, 32)
    assert rep.passed
    assert rep.max_eq_defect <= 4 * u.cell_area / u.spacing[0]
    assert rep.bv_ut[2] == pytest.approx(rep.bv_u[2], rel=0.02)
    assert not rep.ustar_continuous  # indicator: flat distribution


def test_report_cone(square, square_family):
    u = cone_grid(square, 128)
    ut = rr.convex_rearrangement(u, square_family)
    # fewer levels than distinct sample values so each threshold sheds cells
    rep = rr.rearrangement_report(u, ut, 32)
    assert rep.equimeasurable_pass and rep.bv_pass and rep.convexity_pass
    assert rep.ustar_continuous
    assert rep.bv_ut[2] < rep.bv_u[2]
    # l1 is preserved by equimeasurability
    assert rep.bv_ut[0] == pytest.approx(rep.bv_u[0], rel=1e-3)
    # isoperimetric floor for every reported level, up to estimator slack
    h = float(u.spacing[0])
    for mu, per in ((rep.levels["mu_u"], rep.levels["per_u"]),
                    (rep.levels["mu_ut"], rep.levels["per_ut"])):
        floor = 2.0 * np.sqrt(np.pi * mu)
        assert np.all(per >= 0.98 * floor - 4 * h)


def test_report_verdict_needs_convex_levels(square):
    # two separate bumps: the middle level sets are two disjoint disks
    u0 = GridFunction.for_domain(square, 96)
    c = u0.centers()
    bumps = [np.clip(1.0 - np.linalg.norm(c - m, axis=-1) / 0.2, 0.0, None)
             for m in ((0.28, 0.5), (0.72, 0.5))]
    u = u0.with_values(np.where(u0.inside_mask, np.maximum(*bumps), 0.0))
    rep = rr.rearrangement_report(u, u, 32)
    assert rep.equimeasurable_pass and rep.bv_pass
    assert not rep.convexity_pass
    assert not rep.passed and not rep.as_dict()["passed"]


def test_report_frame_mismatch(square, square_family):
    u = cone_grid(square, 64)
    other = GridFunction.for_domain(square, 32)
    with pytest.raises(DomainMismatchError):
        rr.rearrangement_report(u, other, 32)


@pytest.mark.parametrize("levels", [-3, 0, 1, 15])
def test_report_rejects_few_levels_first(square, levels):
    u = cone_grid(square, 32)
    with pytest.raises(ValueError, match="levels must be at least 16"):
        rr.rearrangement_report(u, u, levels)


def test_report_does_not_depend_on_block_size(square, square_family, monkeypatch):
    u = cone_grid(square, 128)
    ut = rr.convex_rearrangement(u, square_family)
    reps = []
    for chunk in (100, rr.CHUNK_PAIRS):
        monkeypatch.setattr(rr, "CHUNK_PAIRS", chunk)
        reps.append(rr.rearrangement_report(u, ut))
    for name in ("per_u", "per_ut", "convexity_defect"):
        assert np.array_equal(reps[0].levels[name], reps[1].levels[name]), name
    for name in ("bv_u", "bv_ut"):
        assert np.array_equal(getattr(reps[0], name), getattr(reps[1], name)), name


@pytest.mark.parametrize("scale", [1.0, 0.5, 0.0], ids=["equal-max", "lower-max", "zero"])
def test_report_marches_each_level_once(square, monkeypatch, scale):
    # the report sweeps u and u_tilde once each over the thresholds of u,
    # and both BV norms come from those two sweeps
    u = cone_grid(square, 32)
    ut = u.with_values(scale * u.values)
    levels = 24
    monkeypatch.setattr(rr, "CHUNK_PAIRS", 100)   # several blocks per sweep
    march = rr.march_levels
    calls, blocks, marched = [], [], []

    def spy(*args):
        calls.append(args)
        for lengths, pts, counts in march(*args):
            # at most one earlier block's crossings are alive: the report
            # hulls each marcher block as it comes
            assert sum(ref() is not None for ref in blocks) <= 1
            assert len(lengths) == len(counts) and np.sum(counts) == len(pts)
            blocks.append(weakref.ref(pts))
            marched.append(len(counts))
            yield lengths, pts, counts

    monkeypatch.setattr(rr, "march_levels", spy)
    rep = rr.rearrangement_report(u, ut, levels)
    assert len(calls) == 2
    assert sum(marched) == 2 * levels
    assert scale == 0.0 or len(blocks) > 2
    assert rep.bv_u == rr.bv_norm_estimate(u, levels)
    l1 = float(np.sum(ut.values)) * ut.cell_area
    ts, per_ut = rep.levels["t"], rep.levels["per_ut"]
    tv = float(np.trapezoid([per_ut[0], *per_ut, 0.0], [0.0, *ts, np.max(u.values)]))
    assert rep.bv_ut == (l1, tv, l1 + tv)
    if scale == 1.0:   # one grid serves both, so the library estimate agrees
        assert rep.bv_ut == rr.bv_norm_estimate(ut, levels)
    assert np.array_equal(per_ut, [rr.level_perimeter(ut, t) for t in ts])


def _sweep_grids(rng, count):
    """(values, thresholds) on grids from 1 x 1 to 29 x 29: uniform random,
    integer-valued, rounded normal and 0/1, with thresholds on sample values."""
    for i in range(count):
        shape = tuple(rng.integers(1, 30, size=2))
        values = [rng.random(shape), rng.integers(0, 5, shape).astype(float),
                  np.round(rng.normal(size=shape), 1),
                  (rng.random(shape) < 0.5).astype(float)][i % 4]
        ts = np.concatenate([rng.choice(values.ravel(), 4),
                             rng.uniform(values.min() - 0.1, values.max() + 0.1, 6)])
        yield values, np.sort(ts)


def _levels(blocks):
    """(lengths, crossings per level) of march_levels' block records."""
    blocks = list(blocks)
    for lengths, pts, counts in blocks:
        assert lengths.dtype == float and len(lengths) == len(counts)
        assert np.sum(counts) == len(pts)
    return (np.concatenate([lengths for lengths, _, _ in blocks]),
            [level for _, pts, counts in blocks
             for level in np.split(pts, np.cumsum(counts)[:-1])])


def _keys(pts, a=0, b=1):
    """Rows of pts as complex numbers, which sort by coordinate a, then b."""
    return pts[:, a] + 1j * pts[:, b]


def _all_near(ref, pts, ulps):
    """Whether every row of ref lies within ulps (per coordinate) of a row
    of pts.  A crossing and its twin from the other cell on its edge share
    one coordinate exactly, so the twin is next to it when pts is sorted by
    that coordinate, then the other."""
    near = np.zeros(len(ref), bool)
    for a, b in ((0, 1), (1, 0)):
        key = np.sort(_keys(pts, a, b))
        at = np.searchsorted(key, _keys(ref, a, b))
        for k in (np.maximum(at - 1, 0), np.minimum(at, len(key) - 1)):
            near |= ((np.abs(key[k].real - ref[:, a]) <= ulps[a])
                     & (np.abs(key[k].imag - ref[:, b]) <= ulps[b]))
    return bool(np.all(near))


@pytest.mark.parametrize("chunk", [1, 7, rr.CHUNK_PAIRS])
def test_march_levels_matches_full_grid_passes(monkeypatch, chunk):
    # blocks of 1 and 7 pairs split the sweep at nearly every level
    monkeypatch.setattr(rr, "CHUNK_PAIRS", chunk)
    rng = np.random.default_rng(chunk)
    for values, ts in _sweep_grids(rng, 120):
        origin, spacing = rng.normal(size=2), rng.uniform(0.1, 2.0, 2)
        lengths, levels = _levels(rr.march_levels(values, origin, spacing, ts))
        assert len(lengths) == len(levels) == len(ts)
        for t, length, pts in zip(ts, lengths, levels):
            ref_length, ref_pts = oracles._marching_squares(values, origin, spacing, t)
            assert length == ref_length
            # the reference has each crossing twice, once from each cell on
            # its edge; the two copies differ by at most a few ulps
            assert 2 * len(pts) == len(ref_pts)
            assert np.all(np.isin(_keys(pts), _keys(ref_pts)))
            if len(pts):
                assert _all_near(ref_pts, pts, 4.0 * np.spacing(np.abs(ref_pts).max(axis=0)))


@pytest.mark.parametrize("t,length", [(0.5, 4.0), (0.4, 4.4)],
                         ids=["center-below", "center-above"])
@pytest.mark.parametrize("values", [np.eye(2), np.eye(2)[::-1]], ids=["case5", "case10"])
def test_march_levels_saddle_cells(values, t, length):
    # samples 1 on one diagonal and 0 on the other: the cell between the
    # four samples is a saddle, split at t = 0.5 (center average not above
    # t) into two diamonds of side (1 - t) sqrt 2 about the 1-samples, and
    # joined through the center at t = 0.4
    lengths, (pts,) = _levels(rr.march_levels(values, (0.0, 0.0), (1.0, 1.0), [t]))
    assert lengths[0] == pytest.approx(length * np.sqrt(2.0), rel=1e-14)
    assert lengths[0] == oracles._marching_squares(values, (0.0, 0.0), (1.0, 1.0), t)[0]
    ones = np.argwhere(values == 1.0)[:, ::-1]   # (i, j) of values[j, i]
    step = (1.0 - t) * np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
    want = (ones[:, None, :] + step).reshape(-1, 2)
    assert len(pts) == 8   # every crossing once
    assert np.allclose(pts[np.lexsort(pts.T)], want[np.lexsort(want.T)], rtol=0, atol=1e-15)


def test_march_levels_rejects_descending_thresholds():
    with pytest.raises(ValueError, match="ascending"):
        next(rr.march_levels(np.ones((3, 3)), (0.0, 0.0), (1.0, 1.0), [0.5, 0.2]))


def test_report_memory_is_bounded(square, square_family):
    # the sweep holds level ranges of live cells and one block of pairs,
    # not per-cell copies of the four corners
    frame = GridFunction.for_domain(square, 256)
    c = frame.centers()
    values = sum(np.exp(-np.sum((c - m) ** 2, axis=-1) / (2.0 * 0.08 ** 2))
                 for m in ((0.2, 0.3), (0.5, 0.3), (0.8, 0.3), (0.2, 0.7), (0.5, 0.7)))
    u = frame.with_values(np.where(frame.inside_mask, values, 0.0))
    ut = rr.convex_rearrangement(u, square_family)
    tracemalloc.start()
    try:
        rr.rearrangement_report(u, ut, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_with_values_keeps_the_inside_mask(square, monkeypatch):
    u = cone_grid(square, 48)
    calls = []
    contains = type(square).contains_lattice
    monkeypatch.setattr(type(square), "contains_lattice",
                        lambda self, xs, ys: calls.append(len(ys)) or contains(self, xs, ys))
    ut = u.with_values(0.5 * u.values)
    assert ut.inside_mask is u.inside_mask and calls == []
    bad = ut.values.copy()
    bad[0, 0] = 1.0   # corner cell center is outside the domain
    with pytest.raises(DomainMismatchError):
        u.with_values(bad)
    assert calls == []


def test_composition_monotone_property(square, square_family):
    u = cone_grid(square, 96)
    ut = rr.convex_rearrangement(u, square_family)
    prof = rr.decreasing_rearrangement(u)
    pts = u.centers().reshape(-1, 2)
    rng = np.random.default_rng(12)
    sel = rng.choice(len(pts), 300, replace=False)
    rho = square_family.rank(pts[sel])
    vals = ut.values.reshape(-1)[sel]
    order = np.argsort(rho)
    rho_s, vals_s = rho[order], vals[order]
    close = np.nonzero(np.diff(rho_s) <= square_family.tol_area)[0]
    for i in close:
        osc = oscillation(prof, rho_s[i] - square_family.tol_area,
                          rho_s[i + 1] + square_family.tol_area)
        assert abs(vals_s[i + 1] - vals_s[i]) <= osc + 1e-12
    # monotone: larger rank never increases the value beyond profile slack
    assert np.all(np.diff(vals_s) <= 1e-12)


def test_upper_semicontinuity_property(square, square_family):
    u = cone_grid(square, 96)
    ut = rr.convex_rearrangement(u, square_family)
    prof = rr.decreasing_rearrangement(u)
    vals = ut.values
    pts = u.centers().reshape(-1, 2)
    rho = square_family.rank(pts).reshape(vals.shape)
    pad = np.pad(vals, 1)
    nbr_max = np.maximum.reduce([
        pad[2:, 1:-1], pad[:-2, 1:-1], pad[1:-1, 2:], pad[1:-1, :-2],
        pad[2:, 2:], pad[2:, :-2], pad[:-2, 2:], pad[:-2, :-2]])
    pad_r = np.pad(rho, 1, constant_values=np.inf)
    nbr_rho_min = np.minimum.reduce([
        pad_r[2:, 1:-1], pad_r[:-2, 1:-1], pad_r[1:-1, 2:], pad_r[1:-1, :-2],
        pad_r[2:, 2:], pad_r[2:, :-2], pad_r[:-2, 2:], pad_r[:-2, :-2]])
    drop = np.maximum(rho - nbr_rho_min, 0.0) + square_family.tol_area
    # interior cells only: outside centers are forced to zero while their
    # rank clamps at the |domain| sentinel, a sampling artifact at the rim
    for j, i in zip(*np.nonzero((nbr_max > vals) & u.inside_mask)):
        osc = oscillation(prof, max(rho[j, i] - drop[j, i], 0.0), rho[j, i])
        assert nbr_max[j, i] - vals[j, i] <= osc + 1e-12
