"""The closed-form exact layer against its reference implementations.

The erosion structure is compared with a full re-derivation after every
event and with the full-scan build, radius_for_volume and rank with
bisection, and the inradius certificate with a linear program (all in
``oracles``), over generated convex polygons: slivers, near-parallel
edges, many vertices, offsets of a million sizes and scales from 1e-3
to 1e3.
"""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from isoperim import family
from isoperim import geometry as geo
from isoperim.errors import DegenerateError, GeometryError, VolumeOutOfRangeError
from isoperim.family import TOL_REL, build_family

import oracles
from conftest import RECT21, SQUARE, ellipse_polygon, random_polygon, regular_polygon

ROOT = Path(__file__).resolve().parents[1]
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def convex_polygons(draw):
    kind = draw(st.sampled_from(["ellipse", "hull", "sliver", "near_parallel",
                                 "flat_vertex"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "ellipse":
        verts = ellipse_polygon(seed, draw(st.integers(3, 300)),
                                draw(st.floats(1.0, 30.0)), draw(st.floats(0.0, 0.45)))
    elif kind == "hull":
        pts = rng.uniform(-1.0, 1.0, size=(draw(st.integers(3, 40)), 2))
        try:
            verts = pts[ConvexHull(pts).vertices]
        except QhullError:
            assume(False)
    elif kind == "sliver":
        h = 10.0 ** draw(st.floats(-4.0, -1.0))
        verts = [(0.0, 0.0), (1.0, 0.0), (draw(st.floats(0.05, 0.95)), h)]
    elif kind == "near_parallel":
        # top edge tilted from the bottom one by delta / length
        length = draw(st.floats(1.0, 20.0))
        delta = 10.0 ** draw(st.floats(-9.0, -3.0))
        verts = [(0.0, 0.0), (length, 0.0), (length, 1.0 + delta), (0.0, 1.0)]
    else:
        # an interior angle within eps of pi between two adjacent edges
        eps = 10.0 ** draw(st.floats(-8.0, -2.0))
        verts = [(0.0, 0.0), (1.0, 0.0), (2.0, eps), (2.0, 1.0), (0.0, 1.0)]
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    # a million of its own sizes from the origin, so that every scale keeps
    # the same relative precision
    offset = draw(st.sampled_from([0.0, 1e6])) * scale
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    verts = scale * np.asarray(verts, dtype=float) @ rot.T + offset
    try:
        return geo.validate_polygon(verts)
    except GeometryError:
        assume(False)


def family_or_skip(poly):
    try:
        return build_family(poly)
    except (GeometryError, VolumeOutOfRangeError):   # no structure, or no regimes
        assume(False)


@PROPERTY
@given(convex_polygons())
def test_structure_matches_rederivation(poly):
    ref, r_star = oracles.rederived_intervals(poly)
    if not ref:
        with pytest.raises(DegenerateError):
            geo.ErosionStructure(poly)
        return
    s = geo.ErosionStructure(poly)
    assert len(s.intervals) == len(ref)
    ref_breaks = np.array([iv["r_lo"] for iv in ref] + [r_star])
    assert np.max(np.abs(s.breaks - ref_breaks)) <= 1e-12 * poly.scale
    assert abs(s.r_star - r_star) <= 1e-12 * poly.scale
    for iv, rv in zip(s.intervals, ref):
        assert np.array_equal(iv.edges, rv["edges"])
        assert np.array_equal(iv.Z, rv["Z"]) and np.array_equal(iv.S, rv["S"])
    # Steiner polynomials against the shoelace and edge lengths of the
    # re-derived vertices, at both ends and the middle of every interval
    for rv in ref:
        for r in (rv["r_lo"], 0.5 * (rv["r_lo"] + rv["r_hi"]), rv["r_hi"]):
            area, perim = s.core_measures(r if r < rv["r_hi"] else np.nextafter(r, 0.0))
            want_a, want_p, size_a, size_p = oracles.core_measures(poly, rv, r)
            assert abs(area - want_a) <= 1e-12 * size_a
            assert abs(perim - want_p) <= 1e-12 * size_p


def assert_matches_full_scan(poly):
    """The heap build against the full-scan build of oracles.scan_structure.

    Intervals, breaks, r* and the incenter set must agree bit for bit; the
    carried Steiner sums must agree with the one-pass sums of the
    snapshots to the tolerance of test_structure_matches_rederivation,
    at both ends and the middle of every interval.
    """
    try:
        ref = oracles.scan_structure(poly)
    except DegenerateError:
        with pytest.raises(DegenerateError):
            geo.ErosionStructure(poly)
        return None
    s = geo.ErosionStructure(poly)
    assert len(s.intervals) == len(ref.intervals)
    assert np.array_equal(s.breaks, ref.breaks) and s.r_star == ref.r_star
    assert np.array_equal(s.center_points, ref.center_points)
    c = poly.vertices.mean(axis=0)
    for k, (iv, rv) in enumerate(zip(s.intervals, ref.intervals)):
        assert (iv.r_lo, iv.r_hi) == (rv.r_lo, rv.r_hi)
        for got, want in zip(iv[2:], rv[2:]):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        reach0, speed = np.linalg.norm(rv.Z - c, axis=1), np.linalg.norm(rv.S, axis=1)
        for t in (0.0, 0.5 * (rv.r_hi - rv.r_lo), rv.r_hi - rv.r_lo):
            reach = reach0 + (rv.r_lo + t) * speed
            (a0, a1, a2), (b0, b1, b2) = s._area_poly[k], ref._area_poly[k]
            (p0, p1), (q0, q1) = s._perim_poly[k], ref._perim_poly[k]
            assert (abs(a0 + t * (a1 + t * a2) - (b0 + t * (b1 + t * b2)))
                    <= 1e-12 * np.sum(reach * np.roll(reach, -1)))
            assert abs(p0 + t * p1 - (q0 + t * q1)) <= 1e-12 * np.sum(2.0 * reach)
    return s, ref


@PROPERTY
@given(convex_polygons())
def test_structure_matches_full_scan(poly):
    assert_matches_full_scan(poly)


# where its nearly antiparallel edges become adjacent the last vertex moves
# at |S| about 1e8, so the Steiner sums carry their largest terms there
PENTAGON = [(0.0, 0.0), (1.0, 0.0), (2.0, 1e-8), (2.0, 1.0), (0.0, 1.0)]


@pytest.mark.parametrize("scale, offset", [(1.0, 0.0), (1e-6, 0.0), (1e6, 0.0), (1.0, 1e6),
                                           (1e-6, 1e6)])
def test_near_antiparallel_pentagon_matches_full_scan(scale, offset):
    # offset in units of the pentagon's own size, as in convex_polygons
    poly = geo.validate_polygon(scale * (np.asarray(PENTAGON) + offset * np.hypot(2.0, 1.0)))
    s, ref = assert_matches_full_scan(poly)
    assert np.max(np.abs(s.intervals[-1].S)) > 1e7
    # the core area and perimeter at both ends of every interval, to the
    # rounding of the domain's own measures; sums expanded about r = 0
    # would miss by far more
    ends = np.stack([np.zeros(len(ref.intervals)), np.diff(ref.breaks)], axis=1)

    def at_ends(coefs):
        return np.array([np.polyval(c[::-1], t) for c, t in zip(coefs, ends)])

    area, perim = geo.polygon_measures(poly)
    assert np.max(np.abs(at_ends(s._area_poly) - at_ends(ref._area_poly))) <= 1e-12 * area
    assert np.max(np.abs(at_ends(s._perim_poly) - at_ends(ref._perim_poly))) <= 1e-12 * perim


@pytest.mark.parametrize("kind", ["ellipse", "regular"])
def test_structure_matches_full_scan_1024(kind):
    verts = ellipse_polygon(4, 1024) if kind == "ellipse" else regular_polygon(1024)
    s, ref = assert_matches_full_scan(geo.validate_polygon(verts))
    K = len(ref.intervals)
    assert (K > 1000) if kind == "ellipse" else (K == 1)
    # the on-demand sequence: negative indices, bounds and iteration
    for k in (0, K // 2, K - 1, -1, -K):
        assert all(np.array_equal(a, b) for a, b in zip(s.intervals[k], ref.intervals[k]))
    for k in (K, -K - 1):
        with pytest.raises(IndexError):
            s.intervals[k]
    assert sum(1 for _ in s.intervals) == K


def nearly_regular_polygons(count):
    """Regular n-gons with vertices moved by 1e-13 to 1e-8 of their size.

    Their edges shrink slowly and vanish at radii a tie apart, so the
    length rule drops edges at radii r > 0, which other inputs rarely do.
    """
    rng = np.random.default_rng(17)
    polys = []
    while len(polys) < count:
        n = int(rng.integers(5, 80))
        noise = 10.0 ** rng.uniform(-13.0, -8.0) * rng.standard_normal((n, 2))
        try:
            polys.append(geo.validate_polygon(regular_polygon(n) + noise))
        except GeometryError:
            pass
    return polys


@pytest.mark.parametrize("bound", ["tight", "none"])
def test_structure_matches_full_scan_when_edges_shrink_slowly(bound):
    # with no bound at all every shrinking edge waits among the pending
    # edges, which the length rule re-tests at every step
    with pytest.MonkeyPatch.context() as mp:
        if bound == "none":
            mp.setattr(geo, "_length_bound", lambda len0, dlen, eps_len: -np.inf)
        for poly in nearly_regular_polygons(60):
            assert_matches_full_scan(poly)


def test_farthest_pair_is_the_first_in_row_major_order():
    rng = np.random.default_rng(13)
    with pytest.MonkeyPatch.context() as mp:
        for chunk in (7, geo.CHUNK_ENTRIES):
            mp.setattr(geo, "CHUNK_ENTRIES", chunk)
            for m in (1, 2, 3, 17, 300):
                for digits in (None, 0):      # rounded points tie across row blocks
                    pts = 3.0 * rng.standard_normal((m, 2))
                    if digits is not None:
                        pts = np.round(pts, digits)
                    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
                    i, j = np.unravel_index(np.argmax(d2), d2.shape)
                    assert geo._farthest_pair(pts) == (i, j, np.sqrt(d2[i, j]))


def test_length_bound_stays_below_the_length_rule():
    # the heap key of the length rule: below it, len0 + r*dlen <= eps_len
    # must fail in floats, and a little above it, hold
    rng = np.random.default_rng(11)
    for _ in range(20000):
        eps_len = 10.0 ** rng.uniform(-15.0, 3.0)
        len0 = eps_len * (1.0 + 10.0 ** rng.uniform(-16.0, 8.0))
        dlen = -(10.0 ** rng.uniform(-12.0, 3.0))
        key = geo._length_bound(len0, dlen, eps_len)
        below = float(np.nextafter(key, -np.inf))
        assert below < 0.0 or not len0 + below * dlen <= eps_len
        above = key + 1e-13 * (abs(key) + eps_len / -dlen)
        assert len0 + above * dlen <= eps_len


# peak traced memory of one build, per vertex: twice the 1.8 kB measured
# for both 4096-vertex builds below.  The full-scan build kept every
# interval's rows, about 270 MB for the ellipse, and a 4096 x 4096
# distance array, about 400 MB, for the regular polygon.
BUILD_BYTES_PER_VERTEX = 3600


@pytest.mark.parametrize("kind", ["ellipse", "regular"])
def test_structure_memory_is_linear(kind):
    n = 4096
    poly = geo.validate_polygon(ellipse_polygon(0, n, jitter=0.3) if kind == "ellipse"
                                else regular_polygon(n))
    tracemalloc.start()
    try:
        s = geo.ErosionStructure(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BUILD_BYTES_PER_VERTEX * n
    assert (len(s.intervals) > 4000) if kind == "ellipse" else (len(s.intervals) == 1)
    f = family.MinimizerFamily(poly, geo.largest_balls(poly, s), s)
    v = 0.5 * (f.balls.hull_measure + f.v_max)
    shape = f.minimizer(v)
    assert shape.kind == "rounded"
    assert abs(geo.rounded_measures(shape.body)[0] - v) <= 1e-12 * f.v_max
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1.0, 1.0, (512, 2))
    pts = pts[poly.contains_point(pts)]
    rho = f.rank(pts)
    assert np.all((rho >= 0.0) & (rho <= f.v_max))
    clear = np.abs(rho - v) > 1e-9 * f.v_max
    assert np.array_equal((rho <= v)[clear], f.member(v, pts)[clear])


@PROPERTY
@given(convex_polygons())
def test_radius_for_volume_matches_bisection(poly):
    f = family_or_skip(poly)
    s = f.structure
    rng = np.random.default_rng(0)
    v = np.concatenate([rng.uniform(f.balls.hull_measure, f.v_max, 32),
                        # exactly the opening areas at the event radii
                        s.area_of_opening(s.breaks),
                        [f.balls.hull_measure, f.v_max]])
    v = np.clip(v, f.balls.hull_measure, f.v_max)
    r = f.radius_for_volume(v)
    ref = oracles.bisect_radius_for_volume(f, v)
    # Where the radii differ, both must solve area(r) = v to the area map's
    # resolution: its rounding, and the steps the tie rule leaves at events
    # closer than the tie (an area map flat near r = 0 or cut into steps
    # defines r no sharper than that)
    steps = np.abs(s.area_of_opening(np.nextafter(s.breaks[1:-1], 0.0))
                   - s.area_of_opening(s.breaks[1:-1]))
    res = 8e-16 * f.v_max + np.max(steps, initial=0.0)
    solved = ((np.abs(s.area_of_opening(r) - v) <= res)
              & (np.abs(s.area_of_opening(ref) - v) <= res))
    assert np.all((np.abs(r - ref) <= 1e-12 * s.r_star) | solved)


def probe_points(f, rng, m=64):
    """Points of the domain: random, at event radii, and on its boundary."""
    s = f.structure
    dom = f.domain
    V = dom.vertices
    lo, hi = V.min(axis=0), V.max(axis=0)
    inner = rng.uniform(lo, hi, size=(8 * m, 2))
    inner = inner[dom.contains_point(inner)][:m]
    # x = V_i(b_k) + b_k u with u in the middle of vertex i's normal cone:
    # x leaves the opening exactly at the event radius b_k
    radii = s.breaks[rng.choice(len(s.intervals), size=min(8, len(s.intervals)),
                                replace=False)]
    event = []
    for r in radii:
        iv = s.intervals[int(s.interval_index(r))]
        i = rng.integers(len(iv.Z))
        u = iv.normals[i] + iv.normals[(i + 1) % len(iv.Z)]
        event.append(iv.Z[i] + r * iv.S[i] + r * u / np.linalg.norm(u))
    t = rng.uniform(0.0, 1.0, size=(len(V), 1))
    edge = V + t * (np.roll(V, -1, axis=0) - V)
    return inner, np.array(event), radii, V, edge


def assert_exits_agree(f, pts, radius, ref_radius):
    """Two exit radii agree to 1e-12 r*, or their opening areas to TOL_REL
    |Omega|, or the point lies on the opening's boundary to rounding at both.

    The last case is ill-conditioned, not wrong: on the domain's edges,
    and near a nearly flat vertex where the arc runs almost along the
    vertex path, a last-bit change of x moves its exit radius far.
    """
    s = f.structure
    area = np.minimum(s.area_of_opening(radius), f.v_max)
    ref = np.minimum(s.area_of_opening(ref_radius), f.v_max)
    off = ((np.abs(radius - ref_radius) > 1e-12 * s.r_star)
           & (np.abs(area - ref) > TOL_REL * f.v_max))
    # rounding of the vertex positions Z + r S that the distance kernel sees
    reach = max(np.max(np.abs(iv.Z) + s.r_star * np.abs(iv.S)) for iv in s.intervals)
    eta = 1e-12 * f.domain.scale + 8.0 * np.finfo(float).eps * reach
    for r in (radius[off], ref_radius[off]):
        assert np.all(np.abs(s.distance_to_core(pts[off], r) - r) <= eta)


@PROPERTY
@given(convex_polygons())
def test_rank_matches_bisection(poly):
    f = family_or_skip(poly)
    s = f.structure
    rng = np.random.default_rng(1)
    inner, event, radii, corners, edge = probe_points(f, rng)
    # just inside the boundary the rank is still well conditioned
    near = edge - 1e-9 * poly.scale * poly.normals
    pts = np.concatenate([inner, event, near, corners, edge])
    rho = f.rank(pts)
    assert np.all((rho >= 0.0) & (rho <= f.v_max))
    ref = oracles.bisect_rank(f, pts)
    rnd = ~np.isnan(ref)
    off = rnd & (np.abs(rho - ref) > TOL_REL * f.v_max)
    assert_exits_agree(f, pts[off], s.exit_radius(pts[off]),
                       oracles.bisect_exit_radius(s, pts[off]))
    event_rnd = rnd[len(inner):len(inner) + len(event)]
    assert_exits_agree(f, event[event_rnd], s.exit_radius(event[event_rnd]),
                       radii[event_rnd])


@pytest.mark.parametrize("kind", ["ellipse", "regular"])
def test_exit_radius_matches_bisection_1024(kind):
    n = 1024
    poly = geo.validate_polygon(ellipse_polygon(4, n) if kind == "ellipse"
                                else regular_polygon(n))
    f = build_family(poly)
    s = f.structure
    assert (len(s.intervals) > 1000) if kind == "ellipse" else (len(s.intervals) == 1)
    rng = np.random.default_rng(6)
    inner, event, radii, _, _ = probe_points(f, rng, m=256)
    radius = s.exit_radius(inner)
    assert_exits_agree(f, inner, radius, oracles.bisect_exit_radius(s, inner))
    # event points outside the ball hull leave the opening at their radius
    rnd = f.balls.centers.distance(event) > f.balls.inradius
    assert_exits_agree(f, event[rnd], s.exit_radius(event[rnd]), radii[rnd])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geo, "CHUNK_ENTRIES", 7)
        assert np.array_equal(s.exit_radius(inner), radius)


def test_distance_to_core_is_independent_of_block_size():
    # points on the edges sit on the inside test's threshold, and on the
    # threshold of the domain's membership test at tolerance 0
    poly = geo.validate_polygon(regular_polygon(1024))
    s = build_family(poly).structure
    t = np.random.default_rng(8).random(1024)[:, None]
    pts = poly.vertices + t * (np.roll(poly.vertices, -1, axis=0) - poly.vertices)
    d = s.distance_to_core(pts, 0.0)
    inside = poly.contains_point(pts, 0.0)
    assert 0 < np.count_nonzero(inside) < len(pts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geo, "CHUNK_ENTRIES", 7)
        assert np.array_equal(s.distance_to_core(pts, 0.0), d)
        assert np.array_equal(poly.contains_point(pts, 0.0), inside)


@PROPERTY
@given(convex_polygons())
def test_inradius_certificate_accepts_and_matches_lp(poly):
    try:
        struct = geo.ErosionStructure(poly)
    except DegenerateError:
        assume(False)
    balls = geo.largest_balls(poly, struct)
    assert abs(balls.inradius - oracles.lp_inradius(poly)) <= 1e-9 * poly.scale


@pytest.mark.parametrize("case", ["random", "sliver", "ngon256"])
def test_inradius_certificate_matches_lp(case):
    rng = np.random.default_rng(19)
    if case == "random":
        polys = [random_polygon(rng, k=int(rng.integers(3, 30))) for _ in range(20)]
    elif case == "sliver":
        polys = [geo.validate_polygon([(0.0, 0.0), (1.0, 0.0), (t, h)])
                 for t, h in ((0.5, 1e-4), (0.01, 1e-3), (0.99, 1e-2))]
        polys.append(geo.validate_polygon([(0, 0), (10, 0), (10, 1 + 1e-7), (0, 1)]))
    else:
        polys = [geo.validate_polygon(ellipse_polygon(1, 256))]
    for poly in polys:
        balls = geo.largest_balls(poly)
        assert balls.inradius == pytest.approx(oracles.lp_inradius(poly),
                                               abs=1e-9 * poly.scale)


@pytest.mark.parametrize("corrupt", ["r_star_up", "r_star_down", "center"])
def test_inradius_certificate_rejects_corruption(corrupt):
    for verts in (SQUARE, RECT21, ellipse_polygon(1, 256)):
        poly = geo.validate_polygon(verts)
        struct = geo.ErosionStructure(poly)
        if corrupt == "r_star_up":
            struct.r_star *= 1.0 + 1e-6      # infeasible: some edge is violated
        elif corrupt == "r_star_down":
            struct.r_star *= 1.0 - 1e-6      # feasible but not optimal
        else:
            struct.center_points = struct.center_points + 1e-6 * poly.scale
        with pytest.raises(DegenerateError):
            geo.largest_balls(poly, struct)


def test_rank_memory_is_bounded():
    poly = geo.validate_polygon(ellipse_polygon(1, 256))
    f = build_family(poly)
    rng = np.random.default_rng(3)
    pts = rng.uniform(poly.vertices.min(axis=0), poly.vertices.max(axis=0), (16384, 2))
    tracemalloc.start()
    try:
        f.rank(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_shape_contains_memory_is_bounded():
    poly = geo.validate_polygon(ellipse_polygon(1, 256))
    f = build_family(poly)
    shape = f.minimizer(0.9 * f.v_max)
    assert shape.body.core.kind == "polygon"
    rng = np.random.default_rng(3)
    pts = rng.uniform(poly.vertices.min(axis=0), poly.vertices.max(axis=0), (16384, 2))
    tracemalloc.start()
    try:
        inside = shape.contains(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert np.array_equal(inside, f.member(0.9 * f.v_max, pts))


def test_trace_targets_resolve():
    # perfbench/tracing.py wraps these names through vars(owner)[attr]
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, name, _ in tracing.targets():
        assert callable(vars(owner)[attr]), name
    poly = geo.validate_polygon(ellipse_polygon(2, 32))
    with tracing.Tracer() as tracer:
        f = family.build_family(poly)       # looked up where the tracer patched it
        f.rank(np.array([[0.0, 0.0], [0.9, 0.0], [0.0, 0.45]]))
        f.minimizer(0.95 * f.v_max)
        f.member(0.95 * f.v_max, np.array([[0.0, 0.0], [0.9, 0.0]]))
    names = {span[0] for span in tracer.spans}
    assert {"family.build_family", "geometry.ErosionStructure", "geometry.largest_balls",
            "family.rank", "family.minimizer", "family.radius_for_volume",
            "geometry.distance_to_core", "geometry.area_of_opening"} <= names
    counts = [span[5] for span in tracer.spans if span[0] == "geometry.ErosionStructure"]
    assert counts == [len(f.structure.intervals)]


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_shape_contains_agrees_with_member(scale):
    rng = np.random.default_rng(5)
    for verts, frac, kind in ((SQUARE, 0.3, "disk"), (RECT21, 0.6, "stadium"),
                              (SQUARE, 0.9, "rounded")):
        f = build_family(geo.validate_polygon(scale * np.asarray(verts, dtype=float)))
        v = frac * f.v_max
        shape = f.minimizer(v)
        assert shape.kind == kind
        # points around the boundary: directions from the ball midpoint at
        # radii that straddle the shape's support distance
        ang = rng.uniform(0.0, 2.0 * np.pi, 400)
        direction = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        reach = f.balls.inradius + 0.5 * f.balls.center_length
        t = reach * rng.uniform(0.5, 1.5, 400)[:, None]
        pts = f.balls.midpoint + t * direction
        pts = np.concatenate([pts, f.balls.midpoint + 1.001 * shape.radius * direction[:50]])
        assert np.array_equal(shape.contains(pts), f.member(v, pts))


def test_member_at_full_volume_beside_a_nearly_flat_vertex():
    # vertex 1 is nearly flat: the structure's r = 0 polygon, which meets
    # its two edge lines, misses it by 7.2e-10 against an eps of 6.9e-10
    verts = np.array([[0.0, 0.0], [0.14992854442813724, 0.17485287880129005],
                      [0.2998570860324425, 0.3497057600238901],
                      [0.12500421005498444, 0.49963430203071735],
                      [-0.17485287880129005, 0.14992854442813724]])
    f = build_family(geo.validate_polygon(verts))
    assert np.array_equal(f.structure.distance_to_core(verts, 0.0), np.zeros(5))
    assert np.all(f.member(f.v_max, verts))
    assert np.array_equal(f.member(f.v_max, verts), f.minimizer(f.v_max).contains(verts))
