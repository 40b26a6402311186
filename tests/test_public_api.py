"""The public API is the set of names in ``isoperim.__all__``.

A change that adds or removes a public name has to edit this set too.
Every public name is used by the library itself or traced by the
benchmark, so no entry point lives on for the tests alone.
"""

import ast
from pathlib import Path

import isoperim

from test_tracing_targets import _load_tracing

PUBLIC = {
    "AnnealSchedule", "Competitor", "ConvexPolygon", "DegenerateError",
    "DomainMismatchError", "ErodedBody", "GeometryError", "GridFunction",
    "IsoperimError", "LargestBallSet", "MinimizerFamily", "MinimizerShape",
    "NonConvexError", "Profile", "RearrangementReport", "RoundedBody",
    "SamplerInfeasibleError", "ScheduleInvalidError", "VolumeOutOfRangeError",
    "anneal_discrete", "build_family", "bv_norm_estimate", "convex_rearrangement",
    "decreasing_rearrangement", "distribution", "largest_balls",
    "level_contour_points", "level_perimeter", "rearrangement_report",
    "sample_competitor", "validate_polygon", "verify_minimality",
}


def test_all_is_the_public_set():
    assert len(isoperim.__all__) == len(set(isoperim.__all__))
    assert set(isoperim.__all__) == PUBLIC
    assert len(PUBLIC) == 32


def test_every_public_name_resolves():
    namespace = {}
    exec("from isoperim import *", namespace)
    for name in PUBLIC:
        assert getattr(isoperim, name) is namespace[name], name


def test_every_public_name_is_used_by_the_library_or_traced():
    # a name's own def or class statement is not a Name or Attribute node
    used = set()
    for path in Path(isoperim.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    traced = {attr for _, attr, _, _ in _load_tracing().targets()}
    assert sorted(set(isoperim.__all__) - used - traced) == []
