import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from isoperim import geometry, oracle
from isoperim.family import build_family
from isoperim.geometry import validate_polygon
from isoperim.rearrange import GridFunction

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
RECT21 = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)]


@pytest.fixture(scope="session")
def square():
    return validate_polygon(SQUARE)


@pytest.fixture(scope="session")
def rect21():
    return validate_polygon(RECT21)


@pytest.fixture(scope="session")
def square_family(square):
    return build_family(square)


@pytest.fixture(scope="session")
def rect_family(rect21):
    return build_family(rect21)


def random_polygon(rng, k=9, spread=1.0):
    """Convex hull of k uniform points in a box; retried until valid."""
    for _ in range(50):
        pts = rng.uniform(-spread, spread, size=(k, 2))
        try:
            hull = ConvexHull(pts)
            return validate_polygon(pts[hull.vertices])
        except Exception:
            continue
    raise RuntimeError("could not draw a valid random polygon")


def ellipse_polygon(seed, n, aspect=2.0, jitter=0.4):
    """n vertices on x^2 + (aspect y)^2 = 1 at jittered angles."""
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * (np.arange(n) + rng.uniform(-jitter, jitter, n)) / n
    return np.stack([np.cos(theta), np.sin(theta) / aspect], axis=1)


@st.composite
def valid_vertices(draw, max_vertices=64):
    """A triangle with angles above 6 degrees, a sliver or a jittered 5- to
    max_vertices-gon, rotated, scaled by 1e-6 to 1e6 and moved up to 1e6 of
    its sizes: the domains of the CLI contract.  Near-parallel 4-gons, a
    known failure of the exact layer, are left out."""
    kind = draw(st.sampled_from(["triangle", "sliver", "ngon"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "triangle":
        arcs = rng.uniform(0.1, 1.0, 3)
        theta = 2.0 * np.pi * np.cumsum(arcs) / arcs.sum()
        v = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif kind == "sliver":
        v = np.array([(0.0, 0.0), (1.0, 0.0), (rng.uniform(0.05, 0.95),
                                                10.0 ** rng.uniform(-3.0, -1.0))])
    else:
        v = ellipse_polygon(seed, draw(st.integers(5, max_vertices)), rng.uniform(1.0, 4.0),
                            rng.uniform(0.0, 0.4))
    angle = rng.uniform(0.0, 2.0 * np.pi)
    v = v @ np.array([[np.cos(angle), np.sin(angle)], [-np.sin(angle), np.cos(angle)]])
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    out = draw(st.sampled_from([0.0, 10.0 ** draw(st.floats(0.0, 6.0))]))
    direction = rng.normal(size=2)
    v = scale * (v + out * np.ptp(v, axis=0).max() * direction / np.linalg.norm(direction))
    return v[::-1] if draw(st.booleans()) else v


def square_points(rng, n):
    """n uniform points in the unit square from 3 n uniforms of rng, drawn as
    the hull sampler draws them: the triangle picks, then the two
    barycentric draws."""
    fan = oracle._Fan(validate_polygon(SQUARE).vertices)
    return fan.place(rng.random(n), rng.random(n), rng.random(n))


def moved_and_scaled(vertices):
    """(label, vertices): the polygon CCW and reversed, at scales 1e-6, 1 and
    1e6, at the origin and 1e6 of its own sizes out."""
    v = np.asarray(vertices, dtype=float)
    size = float(np.max(np.ptp(v, axis=0)))
    for scale in (1e-6, 1.0, 1e6):
        for out in (0.0, 1e6):
            moved = scale * (v + out * size * np.array([1.0, -0.7]))
            yield f"x{scale:g}+{out:g}", moved
            yield f"x{scale:g}+{out:g}-cw", moved[::-1]


def regular_polygon(n):
    """n vertices on the unit circle at equal angles."""
    theta = 2.0 * np.pi * np.arange(n) / n
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def cut_arc(m=65536):
    """The points (t, t^2 - t) for m values of t in (0, 0.9], and (0, 0),
    (20, 20) and (10, 0).

    The first quickhull round splits the lower edge at (10, 0) and keeps
    every arc point outside (0, 0) -> (10, 0), so the chains take over; the
    arc points past t = 10 - sqrt(90) are inside the hull, and only the
    last of them fails the turn test in each pass.
    """
    t = 0.9 * np.arange(1, m + 1) / m
    return np.concatenate([[(0.0, 0.0), (20.0, 20.0), (10.0, 0.0)], np.stack([t, t * t - t], 1)])


def exact_ngon(seed):
    """(vertices, minimizer volumes) of the ``exact-ngon`` workload at a seed,
    drawn by perfbench/workloads.py as a benchmark run draws them."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    sizes, rng = workloads.SIZES["exact-ngon"], workloads._rng("exact-ngon", seed)
    verts = workloads.jittered_ellipse(rng, sizes["vertices"], sizes["aspect"])
    volumes = rng.uniform(sizes["sweep_lo"], sizes["sweep_hi"], sizes["minimizer_calls"])
    return verts, volumes * workloads._shoelace(verts)


def event_counts(polygon):
    """(one-edge, multi-edge) events of the erosion structure's event loop.

    The build runs under a line tracer, which reads how many edges ks
    each event drops at the line ``count -= len(ks)`` of
    ``geometry._skeleton_events``.
    """
    lines, first = inspect.getsourcelines(geometry._skeleton_events)
    at = [first + i for i, line in enumerate(lines) if line.strip() == "count -= len(ks)"]
    assert len(at) == 1, "the event loop no longer counts its drops in one line"
    counts, code = [0, 0], geometry._skeleton_events.__code__

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno == at[0]:
            counts[len(frame.f_locals["ks"]) > 1] += 1
        return on_line

    saved = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line if frame.f_code is code else None)
    try:
        geometry.ErosionStructure(polygon)
    finally:
        sys.settrace(saved)
    return tuple(counts)


def perimeter_of_opening(structure, r):
    """Perimeter of the opening at radius r: core perimeter + 2 pi r."""
    r = np.asarray(r, dtype=float)
    return structure.core_measures(r)[1] + 2.0 * np.pi * r


def support_measure(profile):
    """Measure of {u > 0} of a decreasing rearrangement: one cell per step."""
    return len(profile.steps) * profile.cell_area


def oscillation(profile, v_lo, v_hi):
    """Drop of u* over [v_lo, v_hi] (u* is nonincreasing)."""
    return float(profile(max(v_lo, 0.0)) - profile(v_hi))


def cone_grid(square_poly, n):
    """Distance-to-boundary of the unit square sampled on an n-wide grid."""
    u0 = GridFunction.for_domain(square_poly, n)
    c = u0.centers()
    x, y = c[..., 0], c[..., 1]
    vals = np.maximum(np.minimum.reduce([x, 1.0 - x, y, 1.0 - y]), 0.0)
    vals[~u0.inside_mask] = 0.0
    return u0.with_values(vals)


def disk_indicator_grid(square_poly, n, center, radius, antialias=True):
    """Indicator of a disk; optionally with one-cell linear edge coverage."""
    u0 = GridFunction.for_domain(square_poly, n)
    c = u0.centers()
    d = np.linalg.norm(c - np.asarray(center, dtype=float), axis=-1)
    h = float(u0.spacing[0])
    if antialias:
        vals = np.clip(0.5 + (radius - d) / h, 0.0, 1.0)
    else:
        vals = (d <= radius).astype(float)
    vals[~u0.inside_mask] = 0.0
    return u0.with_values(vals)
