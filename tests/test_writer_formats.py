"""Each writer that formats a whole path or table with one ``%`` format
against its per-number reference in ``oracles``, byte for byte.

The numbers include -0.0, subnormals, +-1e300, infinities and NaN; the
tables and contour sets include empty ones.
"""

import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from isoperim import geometry as geo
from isoperim import io as iio
from isoperim import svgout
from isoperim.family import KINDS

import oracles
from conftest import SQUARE

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True)
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300, -1e300,
         np.inf, -np.inf, np.nan, 0.1, 1.0 / 3.0, 123456789.0, 1e16]
numbers = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=True, allow_infinity=True))
EDGE_ROWS = np.array(EDGES[:14]).reshape(7, 2)
radii = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 0.25, np.nan]),
                  st.floats(0.0, 1e6))


def points(min_rows=0, max_rows=12):
    return hnp.arrays(np.float64, st.tuples(st.integers(min_rows, max_rows), st.just(2)),
                      elements=numbers)


@pytest.fixture(scope="module")
def text_of(tmp_path_factory):
    path = tmp_path_factory.mktemp("writers") / "out"

    def text(writer, *args):
        writer(*args, path)
        return path.read_bytes()
    return text


@PROPERTY
@given(points(min_rows=1))
@example(EDGE_ROWS)
def test_polygon_path(vertices):
    assert svgout._polygon_path(vertices) == oracles.polygon_path(vertices)


@PROPERTY
@given(st.sampled_from(["point", "segment", "polygon"]), points(min_rows=3), radii)
@example("point", EDGE_ROWS, 5e-324)
@example("segment", EDGE_ROWS[2:4], 1e300)
@example("polygon", EDGE_ROWS, 0.25)
def test_rounded_boundary_path(kind, pts, r):
    pts = pts[:{"point": 1, "segment": 2, "polygon": len(pts)}[kind]]
    with np.errstate(all="ignore"):
        if kind != "point":   # a core with no edge of length has no path
            loop = pts[:2] if kind == "segment" else pts
            e = np.roll(loop, -1, axis=0) - loop
            assume(not np.all(np.sqrt(np.vecdot(e, e)) <= 0.0))
        body = geo.RoundedBody(core=geo.ErodedBody(kind, pts), radius=r)
        assert svgout._rounded_boundary_path(body) == oracles.rounded_boundary_path(body)


@PROPERTY
@given(st.lists(points(max_rows=40), max_size=4), st.sampled_from([1500, 7, 1]))
@example([], 1500)
@example([np.empty((0, 2)), EDGE_ROWS], 3)
def test_contours_svg(contour_sets, max_points):
    domain = geo.validate_polygon(SQUARE)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svgout, "MAX_CONTOUR_POINTS", max_points)
        got = svgout.contours_svg(domain, contour_sets)
    assert got == oracles.contours_svg(domain, contour_sets, max_points)


@PROPERTY
@given(st.lists(st.tuples(numbers, st.sampled_from(KINDS), numbers, numbers, numbers),
                max_size=12))
@example([])
@example([(EDGES[i], "rounded", *EDGES[i + 1:i + 4]) for i in range(len(EDGES) - 3)])
def test_family_csv(text_of, rows):
    assert (text_of(iio.write_family_csv, rows)
            == text_of(oracles.write_family_csv_per_row, rows))


@PROPERTY
@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.just(9)), elements=numbers))
@example(np.empty((0, 9)))
@example(np.resize(EDGES, (5, 9)))
def test_report_csv(text_of, table):
    report = types.SimpleNamespace(levels=np.rec.fromarrays(
        list(table.T), names="t,mu_u,mu_ut,per_u,per_ut,eq_defect,eq_bound,"
                             "convexity_defect,convexity_bound"))
    assert (text_of(iio.write_report_csv, report)
            == text_of(oracles.write_report_csv_per_number, report))


@PROPERTY
@given(st.sampled_from([np.bool_, np.uint8, np.float64]).flatmap(
    lambda dtype: hnp.arrays(dtype, st.tuples(st.integers(0, 6), st.integers(1, 6)))))
@example(np.zeros((0, 3), dtype=bool))
@example(np.resize(EDGES, (3, 5)))
def test_pgm(text_of, grid):
    assert text_of(iio.write_pgm, grid) == text_of(oracles.write_pgm_per_cell, grid)
