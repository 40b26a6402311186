"""The public API is the set of names in ``isoperim.__all__``.

A change that adds or removes a public name has to edit this set too.
Every public name is used by the library itself or traced by the
benchmark, so no entry point lives on for the tests alone; and every
defaulted parameter of a public function is passed by some call in the
library, so no option does either.
"""

import ast
import inspect
from pathlib import Path

import isoperim

from test_tracing_targets import _load_tracing

SRC = Path(isoperim.__file__).parent

# defaulted parameters of public functions that no library call passes
UNPASSED = {
    ("anneal_discrete", "schedule"): "tests need short schedules to stay inside tier-1's 40 s",
    ("bv_norm_estimate", "levels"): "bv_norm_estimate is public and only traced",
}

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
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    traced = {attr for _, attr, _, _ in _load_tracing().targets()}
    assert sorted(set(isoperim.__all__) - used - traced) == []


def _passed(params):
    """{function name: the parameter names some call in the library passes},
    for the public functions, with their parameter lists ``params``."""
    out = {name: set() for name in params}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in params:
                continue
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):   # *args or **kwargs
                out[name].update(params[name])
            out[name].update(params[name][:len(node.args)])
            out[name].update(k.arg for k in node.keywords)
    return out


def test_every_defaulted_parameter_is_passed_by_the_library():
    # an option that only the tests set is a code path the program never takes
    functions = {name: inspect.signature(getattr(isoperim, name)).parameters
                 for name in isoperim.__all__ if inspect.isfunction(getattr(isoperim, name))}
    passed = _passed({name: list(params) for name, params in functions.items()})
    unpassed = {(name, p.name) for name, params in functions.items() for p in params.values()
                if p.default is not p.empty and p.name not in passed[name]}
    assert sorted(unpassed) == sorted(UNPASSED)
