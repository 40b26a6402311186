"""Spans around the public callables of isoperim, recorded from outside.

The tracer replaces each callable at the name its caller looks it up
(module attributes, class attributes), so internal calls such as
``rearrangement_report -> level_perimeter`` are caught too.  Spans are
kept in memory as ``[name, start, end, parent, op, note]`` lists and
turned into per-layer metrics afterwards; nothing is written while the
program runs.
"""

import os
import statistics
from functools import wraps
from time import perf_counter

import numpy as np

LAYERS = ("cli", "io", "svgout", "family", "geometry", "rearrange", "oracle")


def _rank_note(args, kwargs, result):
    family = args[0]
    values = np.atleast_1d(result)
    rounded = (values > family.balls.hull_measure) & (values < family.v_max)
    return values.size, int(np.count_nonzero(rounded))


def _structure_note(args, kwargs, result):
    return len(args[0].intervals)


def _competitor_note(args, kwargs, result):
    prov = result.provenance
    return prov.get("sampler"), prov.get("tries", 0)


def _anneal_note(args, kwargs, result):
    return len(result.energy_trace)


def _svg_note(args, kwargs, result):
    return len(result.encode())


def _written_note(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def targets():
    """(owner, attribute, span name, note) for every traced callable."""
    from isoperim import cli, family, geometry, io, oracle, rearrange, svgout

    fam, struct = family.MinimizerFamily, geometry.ErosionStructure
    out = [
        (cli, "main", "cli.main", None),
        (cli, "build_family", "family.build_family", None),
        (family, "build_family", "family.build_family", None),
        (fam, "minimizer", "family.minimizer", None),
        (fam, "radius_for_volume", "family.radius_for_volume", None),
        (fam, "rank", "family.rank", _rank_note),
        (struct, "__init__", "geometry.ErosionStructure", _structure_note),
        (struct, "distance_to_core", "geometry.distance_to_core", None),
        (struct, "area_of_opening", "geometry.area_of_opening", None),
        (geometry, "largest_balls", "geometry.largest_balls", None),
        (rearrange, "convex_rearrangement", "rearrange.convex_rearrangement", None),
        (rearrange, "rearrangement_report", "rearrange.rearrangement_report", None),
        (rearrange, "level_perimeter", "rearrange.level_perimeter", None),
        (rearrange, "level_contour_points", "rearrange.level_contour_points", None),
        (rearrange, "distribution", "rearrange.distribution", None),
        (rearrange, "bv_norm_estimate", "rearrange.bv_norm_estimate", None),
        (oracle, "verify_minimality", "oracle.verify_minimality", None),
        (oracle, "sample_competitor", "oracle.sample_competitor", _competitor_note),
        (oracle, "anneal_discrete", "oracle.anneal_discrete", _anneal_note),
        (io, "load_domain", "io.load_domain", None),
        (io, "read_grid", "io.read_grid", None),
    ]
    for writer in ("dump_json", "write_grid", "write_pgm", "write_family_csv",
                   "write_report_csv"):
        out.append((io, writer, f"io.{writer}", _written_note))
    for name in ("shape_svg", "family_svg", "contours_svg"):
        out.append((svgout, name, f"svgout.{name}", _svg_note))
    return out


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._targets = targets()
        self._saved = []

    def _wrap(self, fn, name, note):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result
        return traced

    def install(self):
        wrapped = {}
        for owner, attr, name, note in self._targets:
            fn = vars(owner)[attr]
            self._saved.append((owner, attr, fn))
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(fn, name, note)
            setattr(owner, attr, wrapped[id(fn)])

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans, lo=0, hi=None):
    """Per-layer self time over spans[lo:hi]: duration minus direct children."""
    hi = len(spans) if hi is None else hi
    child = [0.0] * (hi - lo)
    for name, t0, t1, parent, _, _ in spans[lo:hi]:
        if parent >= lo:
            child[parent - lo] += t1 - t0
    out = dict.fromkeys(LAYERS, 0.0)
    for k, (name, t0, t1, _, _, _) in enumerate(spans[lo:hi]):
        out[name.split(".")[0]] += (t1 - t0) - child[k]
    return out


def layer_metrics(spans, lo, hi, op_info):
    """Per-layer metrics of one pass, from the spans recorded during it."""
    by = {}
    for span in spans[lo:hi]:
        by.setdefault(span[0], []).append(span)

    def calls(*names):
        return sum(len(by.get(n, ())) for n in names)

    def total(*names):
        return sum((s[2] - s[1] for n in names for s in by.get(n, ())), 0.0)

    def mean_ms(name):
        n = calls(name)
        return 1e3 * total(name) / n if n else 0.0

    def notes(name):
        return [s[5] for s in by.get(name, ())]

    rank = notes("family.rank")
    rank_points = sum(p for p, _ in rank)
    rank_rounded = sum(r for _, r in rank)
    comps = notes("oracle.sample_competitor")
    hull_tries = [1 + t for sampler, t in comps if sampler == "hull"]
    sweeps = sum(notes("oracle.anneal_discrete"))
    writers = [n for n in by if n.startswith("io.") and n not in
               ("io.load_domain", "io.read_grid")]
    svg = [n for n in by if n.startswith("svgout.")]
    ratios = [i["anneal_ratio"] for i in op_info if "anneal_ratio" in i]

    m = {
        "geometry.structure_ms": mean_ms("geometry.ErosionStructure"),
        "geometry.intervals": max(notes("geometry.ErosionStructure"), default=0),
        "geometry.largest_balls_ms": mean_ms("geometry.largest_balls"),
        "geometry.distance_to_core_calls": calls("geometry.distance_to_core"),
        "geometry.distance_to_core_s": total("geometry.distance_to_core"),
        "geometry.area_of_opening_calls": calls("geometry.area_of_opening"),
        "geometry.area_of_opening_s": total("geometry.area_of_opening"),
        "family.build_ms": mean_ms("family.build_family"),
        "family.minimizer_calls": calls("family.minimizer"),
        "family.minimizer_s": total("family.minimizer"),
        "family.radius_for_volume_calls": calls("family.radius_for_volume"),
        "family.radius_for_volume_s": total("family.radius_for_volume"),
        "family.rank_s": total("family.rank"),
        "family.rank_points": rank_points,
        "family.rank_us_per_point":
            1e6 * total("family.rank") / rank_points if rank_points else 0.0,
        "family.rank_rounded_frac": rank_rounded / rank_points if rank_points else 0.0,
        "rearrange.convex_s": total("rearrange.convex_rearrangement"),
        "rearrange.report_s": total("rearrange.rearrangement_report"),
        "rearrange.marching_calls":
            calls("rearrange.level_perimeter", "rearrange.level_contour_points"),
        "rearrange.marching_s":
            total("rearrange.level_perimeter", "rearrange.level_contour_points"),
        "rearrange.distribution_calls": calls("rearrange.distribution"),
        "rearrange.distribution_s": total("rearrange.distribution"),
        "rearrange.bv_s": total("rearrange.bv_norm_estimate"),
        "oracle.verify_minimality_s": total("oracle.verify_minimality"),
        "oracle.competitors": len(comps),
        "oracle.competitor_us":
            1e6 * total("oracle.sample_competitor") / len(comps) if comps else 0.0,
        "oracle.hull_tries_per_competitor":
            sum(hull_tries) / len(hull_tries) if hull_tries else 0.0,
        "oracle.anneal_calls": calls("oracle.anneal_discrete"),
        "oracle.anneal_s": total("oracle.anneal_discrete"),
        "oracle.anneal_ms_per_sweep":
            1e3 * total("oracle.anneal_discrete") / sweeps if sweeps else 0.0,
        "oracle.anneal_ratio": statistics.median(ratios) if ratios else 0.0,
        "io.read_s": total("io.load_domain", "io.read_grid"),
        "io.write_s": total(*writers),
        "io.bytes_written": sum(sum(notes(n)) for n in writers),
        "svgout.s": total(*svg),
        "svgout.bytes": sum(sum(notes(n)) for n in svg),
        "trace.spans": hi - lo,
    }
    for layer, seconds in self_times(spans, lo, hi).items():
        m[f"{layer}.self_s"] = seconds
    return m
