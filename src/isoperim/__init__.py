"""Volume-constrained perimeter minimizers in convex 2D domains and the
equimeasurable convex rearrangement of grid-sampled functions."""

from .errors import (DegenerateError, DomainMismatchError, GeometryError,
                     IsoperimError, NonConvexError, SamplerInfeasibleError,
                     ScheduleInvalidError, VolumeOutOfRangeError)
from .family import MinimizerFamily, MinimizerShape, build_family
from .geometry import (ConvexPolygon, ErodedBody, LargestBallSet, RoundedBody,
                       largest_balls, validate_polygon)
from .oracle import (AnnealSchedule, Competitor, anneal_discrete, sample_competitor,
                     verify_minimality)
from .rearrange import (GridFunction, Profile, RearrangementReport,
                        bv_norm_estimate, convex_rearrangement,
                        decreasing_rearrangement, distribution,
                        level_contour_points, level_perimeter,
                        rearrangement_report)

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
