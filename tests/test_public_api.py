"""The public API is the set of names in ``isoperim.__all__``.

A change that adds or removes a public name has to edit this set too.
"""

import isoperim

PUBLIC = {
    "AnnealSchedule", "Competitor", "ConvexPolygon", "DegenerateError",
    "DomainMismatchError", "ErodedBody", "GeometryError", "GridFunction",
    "IsoperimError", "LargestBallSet", "MinimizerFamily", "MinimizerShape",
    "NonConvexError", "Profile", "RearrangementReport", "RoundedBody",
    "SamplerInfeasibleError", "ScheduleInvalidError", "VolumeOutOfRangeError",
    "anneal_discrete", "build_family", "bv_norm_estimate", "convex_rearrangement",
    "crofton_perimeter", "decreasing_rearrangement", "distribution", "largest_balls",
    "level_contour_points", "level_perimeter", "polygon_measures",
    "rearrangement_report", "sample_competitor", "validate_polygon",
    "verify_minimality",
}


def test_all_is_the_public_set():
    assert len(isoperim.__all__) == len(set(isoperim.__all__))
    assert set(isoperim.__all__) == PUBLIC


def test_every_public_name_resolves():
    namespace = {}
    exec("from isoperim import *", namespace)
    for name in PUBLIC:
        assert getattr(isoperim, name) is namespace[name], name
