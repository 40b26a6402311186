"""The SVG writers against the per-vertex paths of ``oracles``, byte for byte.

Shapes with point, segment and polygon cores (and r = 0, where the shape
is the domain itself) on 3- to 1000-gons and on their copies moved by a
million from the origin; level sets as marching-squares point clouds,
some longer than ``svgout.MAX_CONTOUR_POINTS``.
"""

import numpy as np
import pytest

from isoperim import geometry as geo
from isoperim import rearrange as rr
from isoperim import svgout
from isoperim.family import build_family

import oracles
from conftest import RECT21, ellipse_polygon, regular_polygon

DOMAINS = [[(0.0, 0.0), (1.0, 0.0), (0.3, 0.8)], RECT21, regular_polygon(7),
           ellipse_polygon(1, 64), ellipse_polygon(2, 256), ellipse_polygon(3, 1000)]


@pytest.fixture(params=[0.0, 1e6], ids=["origin", "moved"])
def families(request):
    return [build_family(geo.validate_polygon(np.asarray(v, dtype=float) + request.param))
            for v in DOMAINS]


def shapes_of(family):
    """Minimizers of every regime, the domain itself, and bodies of radius 0."""
    f = family
    volumes = [0.3 * f.balls.ball_measure, f.balls.ball_measure,
               0.5 * (f.balls.hull_measure + f.balls.ball_measure), f.balls.hull_measure,
               0.5 * (f.balls.hull_measure + f.v_max), 0.999 * f.v_max, f.v_max]
    shapes = [f.minimizer(v) for v in volumes]
    bodies = [s.body for s in shapes]
    bodies += [geo.RoundedBody(core=b.core, radius=0.0) for b in bodies]
    return shapes, bodies


def test_shape_and_family_svg_match_per_vertex_paths(families, monkeypatch):
    kinds = set()
    for f in families:
        shapes, bodies = shapes_of(f)
        kinds.update(b.core.kind for b in bodies)
        got = [svgout.shape_svg(f.domain, s) for s in shapes]
        got.append(svgout.family_svg(f.domain, shapes))
        paths = [svgout._rounded_boundary_path(b) for b in bodies]
        with monkeypatch.context() as mp:
            mp.setattr(svgout, "_polygon_path", oracles.polygon_path)
            mp.setattr(svgout, "_rounded_boundary_path", oracles.rounded_boundary_path)
            want = [svgout.shape_svg(f.domain, s) for s in shapes]
            want.append(svgout.family_svg(f.domain, shapes))
        assert got == want
        assert paths == [oracles.rounded_boundary_path(b) for b in bodies]
        assert svgout._polygon_path(f.domain.vertices) == oracles.polygon_path(f.domain.vertices)
    assert kinds == {"point", "segment", "polygon"}


def test_contours_svg_matches_per_point_circles(families, monkeypatch):
    for f in families[3:5]:
        frame = rr.GridFunction.for_domain(f.domain, 96)
        c = frame.centers()
        u = np.where(frame.inside_mask, np.exp(-np.sum((c - f.domain.vertices.mean(axis=0)) ** 2,
                                                       axis=-1)), 0.0)
        ts = np.linspace(0.2, 0.95, 6) * u.max()
        sets = [s for _, pts, n in rr.march_levels(u, frame.origin, frame.spacing, ts)
                for s in np.split(pts, np.cumsum(n)[:-1])]
        assert max(len(s) for s in sets) > 40
        for max_points in (1500, 40):
            monkeypatch.setattr(svgout, "MAX_CONTOUR_POINTS", max_points)
            assert (svgout.contours_svg(f.domain, sets)
                    == oracles.contours_svg(f.domain, sets, max_points))
