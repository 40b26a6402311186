"""Output checks for every timed CLI call.

Checks rest on invariants and closed forms, never on byte-golden files:
a later change may legitimately alter an RNG stream or the last digit of
a formatted number.  ``check(op, code)`` returns ``(error, info)``; error
is None when the call passed, ``info`` carries values the trace reports.
"""

import csv
import json
import math

ANNEAL_BAND = 0.05
KIND_ORDER = {"disk": 0, "stadium": 1, "rounded": 2}
REL_9 = 1e-8        # "equal to 9 significant digits", with rounding slack


def _fmt9(x: float) -> float:
    return float(f"{x:.9g}")


def _float(text: str) -> float:
    return math.inf if text == "inf" else float(text)


def _grid_shape(path):
    """(rows, columns) of a grid file whose body matches its header, else None."""
    with open(path) as fh:
        nx, ny = map(int, fh.readline().split()[:2])
        widths = [len(line.split()) for line in fh]
    return (ny, nx) if len(widths) == ny and set(widths) == {nx} else None


def check_rearrange(op, out):
    report = json.loads((out / "report.json").read_text())
    if not report["passed"]:
        return "report.json passed is false", {}
    if not report["convexity_pass"]:
        return "report.json convexity_pass is false", {}
    want = tuple(op.expect["shape"])
    got = _grid_shape(out / "u_tilde.grid")
    if got != want:
        return f"u_tilde.grid shape {got}, input {want}", {}
    return None, {}


def check_family(op, out):
    with open(out / "family.csv") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != op.expect["rows"]:
        return f"family.csv has {len(rows)} rows, expected {op.expect['rows']}", {}
    kinds = [KIND_ORDER.get(r["case"], -1) for r in rows]
    if min(kinds) < 0 or kinds != sorted(kinds):
        return "kinds not ordered disk -> stadium -> rounded", {}
    perim = [float(r["perimeter"]) for r in rows]
    if any(b < a for a, b in zip(perim, perim[1:])):
        return "perimeter decreases along the sweep", {}
    # from |H_Omega| on (stadium and rounded rows) curvature is nondecreasing
    curv = [_float(r["curvature"]) for r, k in zip(rows, kinds) if k > 0]
    if any(b < a for a, b in zip(curv, curv[1:])):
        return "curvature decreases beyond |H_Omega|", {}
    return None, {}


def check_minimizer(op, out):
    shape = json.loads((out / "shape.json").read_text())
    v_req = op.expect["volume"]
    if shape["v"] != _fmt9(v_req):
        return f"returned v {shape['v']!r} != requested {v_req!r}", {}
    p = shape["perimeter"]
    p_disk = 2.0 * math.sqrt(math.pi * v_req)
    if shape["type"] == "disk":
        if abs(p - p_disk) > REL_9 * p_disk:
            return f"disk perimeter {p!r} != 2 sqrt(pi v) = {p_disk!r}", {}
    elif p < p_disk * (1.0 - REL_9):
        return f"perimeter {p!r} beats the isoperimetric bound {p_disk!r}", {}
    if not (out / "shape.svg").read_text().startswith("<svg"):
        return "shape.svg is not an SVG document", {}
    return None, {"kind": shape["type"]}


def check_verify(op, out):
    res = json.loads((out / "verify.json").read_text())
    v = op.expect["volume"]
    r = math.sqrt((1.0 - v) / (4.0 - math.pi))   # unit square, rounded regime
    p_exact = 4.0 - (8.0 - 2.0 * math.pi) * r
    if not res["ok"]:
        return "verify.json ok is false", {}
    if res["violations"]:
        return f"{len(res['violations'])} competitor violations", {}
    if res["n_samples"] != op.expect["samples"]:
        return f"n_samples {res['n_samples']}, expected {op.expect['samples']}", {}
    if abs(res["minimizer_perimeter"] - p_exact) > 1e-6:
        return (f"minimizer_perimeter {res['minimizer_perimeter']!r} != "
                f"P(0.9) = {p_exact!r}"), {}
    ratio = res["anneal"]["ratio"]
    if abs(ratio - 1.0) > ANNEAL_BAND:
        return f"anneal ratio {ratio!r} outside the 5% band", {}
    return None, {"anneal_ratio": ratio}


CHECKS = {
    "rearrange": check_rearrange,
    "family": check_family,
    "minimizer": check_minimizer,
    "verify": check_verify,
}


def check(op, code):
    """(error or None, info) for one finished call with exit code ``code``."""
    if code != 0:
        return f"exit code {code}", {}
    try:
        return CHECKS[op.command](op, op.out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}", {}
