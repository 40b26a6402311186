"""The public API is the set of names in ``isoperim.__all__``.

A change that adds or removes a public name has to edit this set too.
Every public name is used by the library itself or traced by the
benchmark, so no entry point lives on for the tests alone; and every
defaulted parameter of a public function, or of a method of a public
class, of ErosionStructure or of ``oracle._Chain``, is passed by some
call in the library, so no option does either.
"""

import ast
import inspect
import sys
from pathlib import Path

import pytest

import isoperim
from isoperim.geometry import ErosionStructure
from isoperim.oracle import _Chain

from test_tracing_targets import _load_tracing

SRC = Path(isoperim.__file__).parent

# defaulted parameters of public functions and methods that no library call passes
UNPASSED = {
    ("anneal_discrete", "schedule"): "tests need short schedules to stay inside tier-1's 40 s",
    ("AnnealSchedule", "t0_cells"): "the fields of those short schedules",
    ("AnnealSchedule", "ratio"): "the fields of those short schedules",
    ("AnnealSchedule", "sweeps"): "the fields of those short schedules",
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


def test_public_names_resolve_lazily():
    # the oracle and rearrange names come from the package's __getattr__
    for name in isoperim.__all__:
        obj = getattr(isoperim, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(isoperim.__all__) <= set(dir(isoperim))
    with pytest.raises(AttributeError, match="no_such_name"):
        isoperim.no_such_name


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


def _callables():
    """(label, the name a call uses, parameters) for each public function and
    each method of a public class, of ErosionStructure or of the annealing
    chain ``oracle._Chain``.  A method is
    labelled ``Class.method``; a constructor is labelled and called by its
    class name."""
    out, classes = [], [ErosionStructure, _Chain]
    for name in isoperim.__all__:
        obj = getattr(isoperim, name)
        if inspect.isfunction(obj):
            out.append((name, name, list(inspect.signature(obj).parameters.values())))
        elif inspect.isclass(obj):
            classes.append(obj)
    for cls in classes:
        for attr, member in vars(cls).items():
            fn = getattr(member, "__func__", member)   # staticmethod, classmethod
            if not inspect.isfunction(fn):
                continue
            params = list(inspect.signature(fn).parameters.values())
            if not isinstance(member, staticmethod):
                params = params[1:]                      # self or cls
            if attr == "__init__":
                out.append((cls.__name__, cls.__name__, params))
            else:
                out.append((f"{cls.__name__}.{attr}", attr, params))
    return out


def _passed(callables):
    """({label: the parameter names some call in the library passes},
    {label: the parameter names some call in the library leaves out}).

    A call is matched by name alone, so it counts for every callable of
    that name.  ``**kwargs`` may pass any parameter; an unpacked ``*args``
    is taken to fill the positions left without a default, as
    ``contains_lattice(*self._axes())`` fills xs and ys.
    """
    by_call = {}
    for label, call, params in callables:
        by_call.setdefault(call, []).append((label, params))
    out = {label: set() for label, _, _ in callables}
    left = {label: set() for label, _, _ in callables}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
            n = starred[0] if starred else len(node.args)
            for label, params in by_call.get(name, ()):
                given = {k.arg for k in node.keywords}
                if None in given:
                    given.update(p.name for p in params)
                given.update(p.name for p in params[:n])
                if starred:
                    given.update(p.name for p in params[n:] if p.default is p.empty)
                out[label] |= given - {None}
                left[label].update(p.name for p in params if p.name not in given)
    return out, left


def test_every_defaulted_parameter_is_passed_by_the_library():
    # an option that only the tests set is a code path the program never takes
    callables = _callables()
    passed, left = _passed(callables)
    unpassed = {(label, p.name) for label, _, params in callables for p in params
                if p.default is not p.empty and p.name not in passed[label]}
    assert sorted(unpassed) == sorted(UNPASSED)
    # a private class has no outside callers: a default that every library
    # call overrides is read by the tests alone
    overridden = {(label, p.name) for label, _, params in callables if label.startswith("_")
                  for p in params if p.default is not p.empty and p.name not in left[label]}
    assert sorted(overridden) == []
