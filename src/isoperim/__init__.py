"""Volume-constrained perimeter minimizers in convex 2D domains and the
equimeasurable convex rearrangement of grid-sampled functions.

The exact layer loads with the package; the verification and grid layers,
``oracle`` and ``rearrange``, load when one of their names is first used.
"""

import importlib

from .errors import (DegenerateError, DomainMismatchError, GeometryError,
                     IsoperimError, NonConvexError, SamplerInfeasibleError,
                     ScheduleInvalidError, VolumeOutOfRangeError)
from .family import MinimizerFamily, MinimizerShape, build_family
from .geometry import (ConvexPolygon, ErodedBody, LargestBallSet, RoundedBody,
                       largest_balls, validate_polygon)

__version__ = "0.1.0"

__all__ = [
    "AnnealSchedule", "Competitor", "ConvexPolygon", "DegenerateError",
    "DomainMismatchError", "ErodedBody", "GeometryError", "GridFunction",
    "IsoperimError", "LargestBallSet", "MinimizerFamily", "MinimizerShape",
    "NonConvexError", "Profile", "RearrangementReport", "RoundedBody",
    "SamplerInfeasibleError", "ScheduleInvalidError", "VolumeOutOfRangeError",
    "anneal_discrete", "build_family", "bv_norm_estimate", "convex_rearrangement",
    "decreasing_rearrangement", "distribution", "largest_balls", "level_contour_points",
    "level_perimeter", "rearrangement_report", "sample_competitor", "validate_polygon",
    "verify_minimality",
]

_LAZY = {"oracle": ("AnnealSchedule", "Competitor", "anneal_discrete", "sample_competitor",
                    "verify_minimality"),
         "rearrange": ("GridFunction", "Profile", "RearrangementReport", "bv_norm_estimate",
                       "convex_rearrangement", "decreasing_rearrangement", "distribution",
                       "level_contour_points", "level_perimeter", "rearrangement_report")}


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = importlib.import_module(f".{module}", __name__)
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_LAZY))
