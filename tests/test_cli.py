import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isoperim import cli
from isoperim import oracle as orc
from isoperim import io as iio
from isoperim.cli import _parse_sweep, main
from isoperim.errors import (DegenerateError, DomainMismatchError, GeometryError,
                             NonConvexError, SamplerInfeasibleError,
                             ScheduleInvalidError, VolumeOutOfRangeError)
from isoperim.family import build_family
from isoperim.geometry import validate_polygon
from isoperim.rearrange import GridFunction, RearrangementReport

from conftest import SQUARE, RECT21, cone_grid, valid_vertices

R9 = float(np.sqrt(0.1 / (4.0 - np.pi)))
P9 = 4.0 - (8.0 - 2.0 * np.pi) * R9


@pytest.fixture()
def square_json(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"vertices": SQUARE}))
    return str(path)


@pytest.fixture()
def rect_json(tmp_path):
    path = tmp_path / "rect21.json"
    path.write_text(json.dumps({"vertices": RECT21}))
    return str(path)


def test_minimizer_command(square_json, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["minimizer", "--domain", square_json, "--volume", "0.9",
                 "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "case=rounded" in text
    data = json.loads(open(os.path.join(out, "shape.json")).read())
    assert data["type"] == "rounded"
    assert data["perimeter"] == pytest.approx(P9, abs=1e-6)
    assert data["curvature"] == pytest.approx(1 / R9, abs=1e-6)
    svg = open(os.path.join(out, "shape.svg")).read()
    assert svg.startswith("<svg") and " A " in svg


def _fresh(code, *args):
    """The last stdout line of a fresh interpreter running ``code`` with the
    repo's sources and perfbench on its path."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), str(root / "perfbench"), os.environ.get("PYTHONPATH"))
        if p))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


_LOADED = ("print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
           "             or m in ('isoperim.oracle', 'isoperim.rearrange')))\n")


def test_import_and_minimizer_load_no_scipy(square_json, tmp_path):
    # every subcommand, each in a fresh interpreter, runs without loading scipy;
    # the grid and verification layers load only for the subcommands that run them
    grid_path = str(tmp_path / "cone.grid")
    iio.write_grid(cone_grid(validate_polygon(SQUARE), 40), grid_path)
    code = ("import json, sys\n"
            "import isoperim\n"
            "from isoperim.cli import main\n"
            "assert main(json.loads(sys.argv[1])) == 0\n" + _LOADED)
    for argv, loaded in ((["minimizer", "--volume", "0.9"], []),
                         (["family", "--sweep", "0.2:0.9:8"], []),
                         (["rearrange", "--grid", grid_path, "--levels", "32"],
                          ["isoperim.rearrange"]),
                         (["verify", "--volume", "0.9", "--samples", "300"],
                          ["isoperim.oracle"])):
        argv += ["--domain", square_json, "--out", str(tmp_path / argv[0])]
        assert _fresh(code, json.dumps(argv)) == str(loaded), argv[0]
    # the benchmark's set-up: import, read the domain, build the family
    code = ("import sys\n"
            "import isoperim\n"
            "from isoperim import io\n"
            "isoperim.build_family(io.load_domain(sys.argv[1]))\n" + _LOADED)
    assert _fresh(code, square_json) == "[]"
    # every name the benchmark's tracer patches resolves after importing the CLI alone
    code = ("import isoperim.cli\n"
            "from tracing import Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "tracer.uninstall()\n"
            "print('restored')\n")
    assert _fresh(code) == "restored"


def test_minimizer_stadium(rect_json, tmp_path):
    out = str(tmp_path / "out")
    code = main(["minimizer", "--domain", rect_json, "--volume", "1.2",
                 "--out", out, "--json"])
    assert code == 0
    data = json.loads(open(os.path.join(out, "shape.json")).read())
    assert data["type"] == "stadium"
    assert data["perimeter"] == pytest.approx(np.pi + 2 * (1.2 - np.pi / 4), abs=1e-6)


def test_minimizer_volume_errors(square_json):
    assert main(["minimizer", "--domain", square_json,
                 "--volume-fraction", "1.0"]) == 4
    assert main(["minimizer", "--domain", square_json, "--volume", "1.5"]) == 4
    assert main(["minimizer", "--domain", square_json, "--volume", "-1"]) == 4


def test_minimizer_parse_errors(tmp_path, square_json):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["minimizer", "--domain", str(bad), "--volume", "0.5"]) == 2
    assert main(["minimizer", "--domain", str(tmp_path / "missing.json"),
                 "--volume", "0.5"]) == 2
    assert main(["minimizer", "--domain", square_json]) == 2  # no volume flag


@pytest.mark.parametrize("vertices", [
    [[0, 0], [1, 0], [2, 0], [1, 1]],       # collinear run
    5,
    {"a": 1},
    [[0, 0], [1, 0], [1, {}]],
    [[0, 0], [1, 0], ["x", 1]],
    [[0, 0], [1, 0], [1, 1, 1]],            # ragged rows
], ids=["collinear", "number", "object", "object-entry", "string-entry", "ragged"])
def test_minimizer_geometry_error(tmp_path, capsys, vertices):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": vertices}))
    assert main(["minimizer", "--domain", str(bad), "--volume", "0.5"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("side", [1e154, 1e308])
def test_minimizer_rejects_overflowing_span(tmp_path, capsys, side):
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps({"vertices": (np.array(SQUARE) * side).tolist()}))
    assert main(["minimizer", "--domain", str(bad), "--volume", "0.5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: coordinate span") and "duplicate" not in err


@pytest.mark.parametrize("exc,code", [
    (VolumeOutOfRangeError("v"), 4),
    (DomainMismatchError("m"), 5),
    (GeometryError("g"), 3),
    (NonConvexError("n"), 3),
    (DegenerateError("d"), 3),
    (SamplerInfeasibleError("s"), 2),
    (ScheduleInvalidError("a"), 2),
    (json.JSONDecodeError("j", "{", 0), 2),
    (OSError("o"), 2),
    (ValueError("x"), 2),
], ids=lambda x: type(x).__name__ if isinstance(x, Exception) else str(x))
def test_exit_code_per_error_class(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_minimizer", fail)
    assert main(["minimizer", "--domain", "unread.json", "--volume", "0.5"]) == code
    assert capsys.readouterr().err == f"error: {exc}\n"


# argparse's output at COLUMNS=80 under Python 3.11, captured from the parser
# that added every subcommand's arguments on every call
_USAGE = {
    None: "usage: isoperim [-h] {minimizer,family,rearrange,verify} ...\n",
    "minimizer": (
        "usage: isoperim minimizer [-h] --domain DOMAIN [--out OUT] [--json]\n"
        "                          (--volume VOLUME | --volume-fraction VOLUME_FRACTION)\n"),
    "family": "usage: isoperim family [-h] --domain DOMAIN [--out OUT] [--json] --sweep a:b:n\n",
    "rearrange": (
        "usage: isoperim rearrange [-h] --domain DOMAIN [--out OUT] [--json] --grid\n"
        "                          GRID [--levels LEVELS]\n"),
    "verify": (
        "usage: isoperim verify [-h] --domain DOMAIN [--out OUT] [--json]\n"
        "                       (--volume VOLUME | --volume-fraction VOLUME_FRACTION)\n"
        "                       [--samples SAMPLES] [--seed SEED] [--anneal N]\n"),
}
_HELP = {
    None: _USAGE[None] + """
Command-line front end. Subcommands: ``minimizer`` (one shape), ``family`` (a
volume sweep), ``rearrange`` (convex rearrangement of a grid function plus its
report), ``verify`` (competitor sweep and optional annealing oracle). Exit
codes: 0 success, 2 parse or usage error (sampler and annealing schedule
failures included), 3 geometry error, 4 volume out of range, 5 domain
mismatch, 6 verification failure. Outputs are deterministic for a fixed config
and seed; numbers are pinned to 9 significant digits.

positional arguments:
  {minimizer,family,rearrange,verify}
    minimizer           construct one minimizer shape
    family              sweep the family over volumes
    rearrange           convex rearrangement of a grid function
    verify              competitor sweep and annealing oracle

options:
  -h, --help            show this help message and exit
""",
    "minimizer": _USAGE["minimizer"] + """
options:
  -h, --help            show this help message and exit
  --domain DOMAIN       domain JSON file
  --out OUT             output directory
  --json                machine-readable stdout
  --volume VOLUME
  --volume-fraction VOLUME_FRACTION
""",
    "family": _USAGE["family"] + """
options:
  -h, --help       show this help message and exit
  --domain DOMAIN  domain JSON file
  --out OUT        output directory
  --json           machine-readable stdout
  --sweep a:b:n
""",
    "rearrange": _USAGE["rearrange"] + """
options:
  -h, --help       show this help message and exit
  --domain DOMAIN  domain JSON file
  --out OUT        output directory
  --json           machine-readable stdout
  --grid GRID      grid text file
  --levels LEVELS
""",
    "verify": _USAGE["verify"] + """
options:
  -h, --help            show this help message and exit
  --domain DOMAIN       domain JSON file
  --out OUT             output directory
  --json                machine-readable stdout
  --volume VOLUME
  --volume-fraction VOLUME_FRACTION
  --samples SAMPLES
  --seed SEED
  --anneal N            also run the annealing oracle on an N^2 grid
""",
}
_D = ["--domain", "d.json"]


@pytest.mark.parametrize("argv,name", [
    (["-h"], None), (["--help"], None), (["-h", "minimizer"], None),
    (["minimizer", "-h"], "minimizer"), (["family", "-h"], "family"),
    (["rearrange", "--help"], "rearrange"), (["verify", "-h"], "verify"),
    (["verify", *_D, "--volume", "1", "--anneal", "3", "-h"], "verify"),
])
def test_help_is_pinned(monkeypatch, capsys, argv, name):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 0
    assert capsys.readouterr() == (_HELP[name], "")


@pytest.mark.parametrize("argv,name,message", [
    ([], None, "the following arguments are required: command"),
    (["bogus"], None, "argument command: invalid choice: 'bogus' "
                      "(choose from 'minimizer', 'family', 'rearrange', 'verify')"),
    (["Minimizer"], None, "argument command: invalid choice: 'Minimizer' "
                          "(choose from 'minimizer', 'family', 'rearrange', 'verify')"),
    (["--foo", "minimizer", *_D, "--volume", "1"], None, "unrecognized arguments: --foo"),
    (["minimizer"], "minimizer", "the following arguments are required: --domain"),
    (["minimizer", *_D], "minimizer",
     "one of the arguments --volume --volume-fraction is required"),
    (["minimizer", *_D, "--volume", "x"], "minimizer",
     "argument --volume: invalid float value: 'x'"),
    (["minimizer", *_D, "--volume", "1", "--volume-fraction", "0.5"], "minimizer",
     "argument --volume-fraction: not allowed with argument --volume"),
    (["minimizer", *_D, "--vol", "1"], "minimizer",
     "ambiguous option: --vol could match --volume, --volume-fraction"),
    (["minimizer", *_D, "--volume", "1", "--bogus"], None, "unrecognized arguments: --bogus"),
    (["minimizer", *_D, "--volume", "1", "extra"], None, "unrecognized arguments: extra"),
    (["family", *_D], "family", "the following arguments are required: --sweep"),
    (["family", "minimizer", *_D, "--sweep", "0:1:3"], None,
     "unrecognized arguments: minimizer"),
    (["rearrange", *_D], "rearrange", "the following arguments are required: --grid"),
    (["rearrange", *_D, "--grid", "g", "--levels", "x"], "rearrange",
     "argument --levels: invalid int value: 'x'"),
    (["verify", *_D, "--volume", "1", "--samples", "x"], "verify",
     "argument --samples: invalid int value: 'x'"),
    (["verify", *_D, "--volume", "1", "--anneal"], "verify",
     "argument --anneal: expected one argument"),
    (["verify", *_D, "--volume", "1", "--volume-fraction", "0.5"], "verify",
     "argument --volume-fraction: not allowed with argument --volume"),
    (["rearrange", *_D, "--grid", "g", "extra"], None, "unrecognized arguments: extra"),
    (["verify", *_D, "--volume", "1", "extra"], None, "unrecognized arguments: extra"),
])
def test_usage_errors_are_pinned(monkeypatch, capsys, argv, name, message):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 2
    prog = "isoperim" if name is None else f"isoperim {name}"
    assert capsys.readouterr() == ("", f"{_USAGE[name]}{prog}: error: {message}\n")


@pytest.mark.parametrize("argv,parsers", [
    ([], 5), (["-h"], 5), (["bogus"], 5), (["--foo", "minimizer"], 5),
    (["minimizer", *_D, "--volume", "1"], 2), (["family", *_D, "--sweep", "0:1:3"], 2),
    (["rearrange", *_D, "--grid", "g"], 2), (["verify", *_D, "--volume", "1"], 2),
])
def test_a_subcommand_builds_its_own_parser_only(monkeypatch, argv, parsers):
    # the top-level parser and the invoked subcommand's; all five otherwise
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser(argv)
    assert len(built) == parsers


def _grid_text(dx="0.5", x0="-0.25", y0="-0.25", value="0", rows=4):
    """A 4 x 4 grid over the unit square, one margin cell wide, with ``value``
    at the inside cell (1, 1) and ``rows`` body rows."""
    body = ["0 0 0 0", f"0 {value} 0 0", "0 0 0 0", "0 0 0 0"][:rows]
    return "\n".join([f"4 4 {x0} {y0} {dx} 0.5", *body]) + "\n"


def _domain_text(vertices):
    return json.dumps({"vertices": vertices})


_REARRANGE = ["rearrange", "--grid", "u.grid"]
_MINIMIZER = ["minimizer", "--volume", "0.5"]


@pytest.mark.parametrize("argv,files,code,message", [
    (_REARRANGE, {"u.grid": _grid_text(dx="inf")}, 2, "grid origin and spacing must be finite"),
    (_REARRANGE, {"u.grid": _grid_text(dx="nan")}, 2, "grid origin and spacing must be finite"),
    (_REARRANGE, {"u.grid": _grid_text(x0="nan")}, 2, "grid origin and spacing must be finite"),
    (_REARRANGE, {"u.grid": _grid_text(y0="-inf")}, 2, "grid origin and spacing must be finite"),
    (_REARRANGE, {"u.grid": _grid_text(value="nan")}, 2, "grid values must be finite"),
    (_REARRANGE, {"u.grid": _grid_text(value="inf")}, 2, "grid values must be finite"),
    (_REARRANGE, {"u.grid": _grid_text(value="-1")}, 2, "grid values must be nonnegative"),
    (_REARRANGE, {"u.grid": _grid_text(value="0 0")}, 2, "columns"),
    (_REARRANGE, {"u.grid": _grid_text(rows=3)}, 2, "grid body is (3, 4), header says (4, 4)"),
    (_REARRANGE, {"u.grid": _grid_text(rows=0)}, 2, "grid file has no body"),
    (_REARRANGE, {"u.grid": _grid_text(dx="1e308")}, 2, "overflows when squared"),
    (_REARRANGE, {"u.grid": _grid_text(value="1e308")}, 2, "grid values too large"),
    (_MINIMIZER, {"domain.json": "{not json"}, 2, "line 1 column 2"),
    (_MINIMIZER, {"domain.json": _domain_text([["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]])},
     3, "vertices must be an (n, 2) array of numbers"),
    (_MINIMIZER, {"domain.json": _domain_text([[False, False], [True, False], [True, True],
                                               [False, True]])},
     3, "vertices must be an (n, 2) array of numbers"),
    (_MINIMIZER, {"domain.json": _domain_text([[0, 0], [2, 0], [1, 0.5], [2, 2], [0, 2]])},
     3, "vertex chain is not strictly convex"),
    (_MINIMIZER, {"domain.json": _domain_text([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]])},
     3, "duplicate consecutive vertices"),
    (["family", "--sweep=0.1:inf:10"], {}, 2, "sweep ends must be finite"),
    (["family", "--sweep=nan:0.5:10"], {}, 2, "sweep ends must be finite"),
    (["family", "--sweep=-1e308:1e308:10"], {}, 4, "sweep outside (0, |domain|]"),
    (["verify", "--volume", "0.9", "--seed", "-1"], {}, 2, "--seed must be nonnegative, got -1"),
    (_MINIMIZER, {"domain.json": "[" * 100_000 + "]" * 100_000}, 2,
     "domain file nests arrays or objects too deeply"),
    (_MINIMIZER, {"domain.json": '{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}"}, 2,
     "domain file nests arrays or objects too deeply"),
], ids=["dx-inf", "dx-nan", "x0-nan", "y0-minus-inf", "value-nan", "value-inf",
        "value-negative", "ragged-body", "short-body", "no-body", "dx-overflow",
        "value-overflow", "bad-json", "string-coordinates", "boolean-coordinates", "non-convex",
        "coincident-vertices", "sweep-inf", "sweep-nan", "sweep-overflow", "seed-negative",
        "deep-nesting", "deep-vertices"])
def test_bad_input_gives_one_error_line(tmp_path, capsys, argv, files, code, message):
    files = {"domain.json": _domain_text(SQUARE), **files}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a leaked warning is a failure
        assert main(argv + ["--domain", str(tmp_path / "domain.json"),
                            "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert "Traceback" not in err and "Warning" not in err
    assert not out.exists()  # rejected before any work


def test_minimizer_on_a_4096_gon(tmp_path, capsys):
    theta = 2.0 * np.pi * np.arange(4096) / 4096
    domain = tmp_path / "ngon.json"
    domain.write_text(json.dumps({"vertices": np.stack([np.cos(theta), np.sin(theta)],
                                                       axis=1).tolist()}))
    out = str(tmp_path / "out")
    assert main(["minimizer", "--domain", str(domain), "--volume-fraction", "0.9999999",
                 "--out", out]) == 0
    assert "case=rounded" in capsys.readouterr().out


def test_family_command(rect_json, tmp_path):
    out = str(tmp_path / "out")
    code = main(["family", "--domain", rect_json, "--sweep", "0.2:1.99:60",
                 "--out", out])
    assert code == 0
    rows = open(os.path.join(out, "family.csv")).read().splitlines()
    assert rows[0] == "v,case,r,perimeter,curvature"
    cases = [r.split(",")[1] for r in rows[1:]]
    # trichotomy transitions exactly twice on a sweep across both seams
    changes = sum(1 for a, b in zip(cases, cases[1:]) if a != b)
    assert changes == 2
    assert cases[0] == "disk" and cases[-1] == "rounded"
    ps = np.array([float(r.split(",")[3]) for r in rows[1:]])
    assert np.all(np.diff(ps) >= -1e-9)
    assert os.path.exists(os.path.join(out, "family.svg"))


def test_family_usage_error(rect_json):
    assert main(["family", "--domain", rect_json, "--sweep", "0.5:1.9:1"]) == 2
    assert main(["family", "--domain", rect_json, "--sweep", "junk"]) == 2
    assert main(["family", "--domain", rect_json, "--sweep", "0.5:3.5:10"]) == 4


@pytest.mark.parametrize("steps", ["1", "0", "-3", "10001"])
def test_family_rejects_bad_step_counts(square_json, tmp_path, capsys, steps):
    out = tmp_path / "out"
    code = main(["family", "--domain", square_json, "--sweep", f"0.2:0.9:{steps}",
                 "--out", str(out)])
    assert code == 2
    assert (capsys.readouterr().err.strip()
            == f"error: --sweep needs 2 to 10000 steps, got {steps}")
    assert not out.exists()  # rejected before any work


def test_count_bounds_are_inclusive(square_json, tmp_path, capsys):
    assert _parse_sweep("0.2:0.9:2") == (0.2, 0.9, 2)
    assert _parse_sweep("0.2:0.9:10000") == (0.2, 0.9, 10000)
    for levels in ("16", "4096"):
        # the count passes; the missing grid file is what fails
        assert main(["rearrange", "--domain", square_json,
                     "--grid", str(tmp_path / "missing.grid"), "--levels", levels,
                     "--out", str(tmp_path / "out")]) == 2
        assert "missing.grid" in capsys.readouterr().err


@pytest.mark.parametrize("levels", ["-3", "0", "15", "4097"])
def test_rearrange_rejects_bad_level_counts(square_json, tmp_path, capsys, levels):
    out = tmp_path / "out"
    code = main(["rearrange", "--domain", square_json,
                 "--grid", str(tmp_path / "never-read.grid"),
                 "--levels", levels, "--out", str(out)])
    assert code == 2
    assert (capsys.readouterr().err.strip()
            == f"error: --levels must be from 16 to 4096, got {levels}")
    assert not out.exists()  # rejected before any work


def test_rearrange_command(square_json, tmp_path):
    square = validate_polygon(SQUARE)
    grid_path = str(tmp_path / "cone.grid")
    iio.write_grid(cone_grid(square, 66), grid_path)
    out = str(tmp_path / "out")
    code = main(["rearrange", "--domain", square_json, "--grid", grid_path,
                 "--levels", "32", "--out", out])
    assert code == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert report["passed"]
    assert report["bv_ut"]["bv"] < report["bv_u"]["bv"]
    ut = iio.read_grid(os.path.join(out, "u_tilde.grid"), square)
    assert ut.values.shape == (66, 66)
    assert os.path.exists(os.path.join(out, "levels.svg"))
    assert os.path.exists(os.path.join(out, "report.csv"))


def test_rearrange_builds_the_report_dict_once(square_json, tmp_path, monkeypatch, capsys):
    # report.json and the --json stdout share one as_dict(); report.csv reads
    # the levels table
    grid_path = str(tmp_path / "cone.grid")
    iio.write_grid(cone_grid(validate_polygon(SQUARE), 32), grid_path)
    calls = []
    as_dict = RearrangementReport.as_dict
    monkeypatch.setattr(RearrangementReport, "as_dict",
                        lambda self: calls.append(1) or as_dict(self))
    out = tmp_path / "out"
    assert main(["rearrange", "--domain", square_json, "--grid", grid_path,
                 "--levels", "16", "--json", "--out", str(out)]) == 0
    assert len(calls) == 1
    report = json.loads((out / "report.json").read_text())
    assert json.loads(capsys.readouterr().out) == report
    rows = (out / "report.csv").read_text().splitlines()
    assert sorted(rows[0].split(",")) == sorted(report["levels"][0]) and len(rows) == 17
    # the per-level numbers live only in the levels table
    assert {f.name for f in dataclasses.fields(RearrangementReport)}.isdisjoint(rows[0].split(","))


def test_rearrange_rejects_negative(square_json, tmp_path):
    square = validate_polygon(SQUARE)
    grid_path = str(tmp_path / "neg.grid")
    u = cone_grid(square, 20)
    iio.write_grid(u, grid_path)
    lines = open(grid_path).read().splitlines()
    parts = lines[10].split()
    parts[10] = "-0.25"
    lines[10] = " ".join(parts)
    open(grid_path, "w").write("\n".join(lines) + "\n")
    assert main(["rearrange", "--domain", square_json, "--grid", grid_path]) == 2


def test_rearrange_domain_mismatch(rect_json, tmp_path):
    square = validate_polygon(SQUARE)
    grid_path = str(tmp_path / "small.grid")
    iio.write_grid(cone_grid(square, 20), grid_path)
    # square grid does not cover the rectangle
    assert main(["rearrange", "--domain", rect_json, "--grid", grid_path]) == 5


def test_rearrange_far_off_square(tmp_path):
    # the unit square moved by 1e9, on a grid in the for_domain frame: the
    # frame check allows for the rounding of coordinates that large
    moved = [[x + 1e9, y + 1e9] for x, y in SQUARE]
    domain = tmp_path / "moved.json"
    domain.write_text(json.dumps({"vertices": moved}))
    frame = GridFunction.for_domain(validate_polygon(moved), 48)
    x, y = np.moveaxis(frame.centers() - 1e9, -1, 0)
    cone = np.maximum(np.minimum.reduce([x, 1.0 - x, y, 1.0 - y]), 0.0)
    grid_path = str(tmp_path / "cone.grid")
    iio.write_grid(frame.with_values(np.where(frame.inside_mask, cone, 0.0)), grid_path)
    out = tmp_path / "out"
    assert main(["rearrange", "--domain", str(domain), "--grid", grid_path,
                 "--levels", "32", "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["passed"]


def test_verify_command(square_json, tmp_path):
    out = str(tmp_path / "out")
    code = main(["verify", "--domain", square_json, "--volume", "0.9",
                 "--samples", "300", "--seed", "4", "--out", out])
    assert code == 0
    data = json.loads(open(os.path.join(out, "verify.json")).read())
    assert data["ok"] and not data["violations"]
    assert data["min_gap"] > 0


def test_verify_with_anneal_writes_pgm(square_json, tmp_path):
    out = str(tmp_path / "out")
    code = main(["verify", "--domain", square_json, "--volume", "0.9",
                 "--samples", "100", "--seed", "1", "--anneal", "32",
                 "--out", out])
    assert code == 0
    data = json.loads(open(os.path.join(out, "verify.json")).read())
    assert 0.9 <= data["anneal"]["ratio"] <= 1.1
    pgm = open(os.path.join(out, "anneal.pgm")).read().splitlines()
    assert pgm[0] == "P2"
    assert pgm[1].split() == ["32", "32"]


def _cpus(monkeypatch, n):
    """Let cmd_verify see n CPUs; with two it forks its annealing chains."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture()
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@needs_fork
@pytest.mark.parametrize("anneal", ["16", "32"])
def test_verify_outputs_do_not_depend_on_the_cpu_count(square_json, tmp_path, monkeypatch,
                                                       capsys, no_child_left, anneal):
    # the golden verify config: the chains forked beside the sweep (two CPUs)
    # or run after it in-process (one CPU, or no process to fork) give the
    # same bytes
    forks = []
    fork = os.fork

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")
    outputs = []
    for n, forker in ((1, fork), (2, lambda: forks.append(1) or fork()), (2, no_fork)):
        _cpus(monkeypatch, n)
        monkeypatch.setattr(os, "fork", forker)
        out = tmp_path / f"{len(outputs)}"
        assert main(["verify", "--domain", square_json, "--volume", "0.9", "--samples", "2000",
                     "--seed", "1", "--anneal", anneal, "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out, (out / "verify.json").read_bytes(),
                        (out / "anneal.pgm").read_bytes()))
    assert forks == [1]
    assert outputs[0] == outputs[1] == outputs[2]
    if anneal == "16":
        from test_golden_cli import VERIFY_GOLDEN
        assert {name: hashlib.sha256(data).hexdigest() for name, data in
                zip(VERIFY_GOLDEN, outputs[0][1:])} == VERIFY_GOLDEN


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("argv,code,message", [
    # the sweep and the chains both fail: the sweep's error wins
    (["--volume-fraction", "1e-100", "--anneal", "6"], cli.EXIT_VOLUME,
     "verification needs v of at least"),
    # only the chains fail: their error, after the sweep
    (["--volume", "0.1", "--anneal", "1"], cli.EXIT_PARSE,
     "target area infeasible on this grid"),
], ids=["sweep-and-chains-fail", "chains-fail"])
def test_verify_error_order_holds_with_the_chains_forked(square_json, tmp_path, monkeypatch,
                                                         capsys, no_child_left, cpus, argv,
                                                         code, message):
    _cpus(monkeypatch, cpus)
    out = tmp_path / "out"
    assert main(["verify", "--domain", square_json, "--samples", "200", *argv,
                 "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


@needs_fork
def test_verify_sweep_error_stops_a_running_chain(square_json, tmp_path, monkeypatch, capsys,
                                                 no_child_left):
    # the sweep fails while the child still anneals a 256-wide grid: the child
    # is killed and reaped, and the sweep's error is the one reported
    def fail(*args, **kwargs):
        raise SamplerInfeasibleError("sweep failed")
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(orc, "verify_minimality", fail)
    assert main(["verify", "--domain", square_json, "--volume", "0.9", "--anneal", "256",
                 "--out", str(tmp_path / "out")]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == "error: sweep failed\n"


@needs_fork
def test_verify_chains_child_without_a_result(square_json, tmp_path, monkeypatch, capsys,
                                              no_child_left):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "_best_chain", lambda *args: os._exit(1))
    assert main(["verify", "--domain", square_json, "--volume", "0.9", "--samples", "200",
                 "--anneal", "16", "--out", str(tmp_path / "out")]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == ("error: annealing chains ended without a result "
                                       "(exit status 1)\n")


@needs_fork
def test_verify_chains_child_error_keeps_its_frames(square_json, tmp_path, monkeypatch, capsys,
                                                   no_child_left):
    # an unexpected exception in the child is re-raised with the child's
    # traceback text as its cause, which names the frame that raised it
    def raising_in_the_child(*args, **kwargs):
        raise RuntimeError("chain broke")
    _cpus(monkeypatch, 2)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(orc, "anneal_discrete", raising_in_the_child)
    with pytest.raises(RuntimeError, match="chain broke") as info:
        main(["verify", "--domain", square_json, "--volume", "0.9", "--samples", "200",
              "--anneal", "8", "--out", str(tmp_path / "out")])
    assert forks == [1]
    cause = str(info.value.__cause__)
    assert isinstance(info.value.__cause__, cli._RemoteTraceback)
    assert "in raising_in_the_child" in cause and "in _best_chain" in cause
    assert cause.rstrip('"\n').endswith("RuntimeError: chain broke")


@needs_fork
def test_verify_chains_child_typed_error_prints_one_line(square_json, tmp_path, monkeypatch,
                                                        capsys, no_child_left):
    def infeasible(*args, **kwargs):
        raise SamplerInfeasibleError("no chain today")
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(orc, "anneal_discrete", infeasible)
    assert main(["verify", "--domain", square_json, "--volume", "0.9", "--samples", "200",
                 "--anneal", "8", "--out", str(tmp_path / "out")]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == "error: no chain today\n"


@pytest.mark.parametrize("argv", [
    ["minimizer", "--volume", "0.9"],
    ["family", "--sweep", "0.2:0.9:8"],
    ["rearrange", "--levels", "16"],
    ["verify", "--volume", "0.9", "--samples", "100", "--anneal", "8"],
], ids=lambda argv: argv[0])
def test_json_text_is_formatted_once(square_json, tmp_path, monkeypatch, capsys, no_child_left,
                                     argv):
    # --json prints the very text the JSON output file holds
    grid_path = tmp_path / "cone.grid"
    iio.write_grid(cone_grid(validate_polygon(SQUARE), 32), str(grid_path))
    calls = []
    json_text = iio.json_text
    monkeypatch.setattr(iio, "json_text", lambda obj: calls.append(1) or json_text(obj))
    out = tmp_path / "out"
    extra = ["--grid", str(grid_path)] if argv[0] == "rearrange" else []
    assert main([*argv, *extra, "--domain", square_json, "--json", "--out", str(out)]) == 0
    assert len(calls) == 1
    printed = capsys.readouterr().out
    written = {"minimizer": "shape.json", "rearrange": "report.json", "verify": "verify.json"}
    if argv[0] in written:
        assert (out / written[argv[0]]).read_text() == printed


@pytest.mark.parametrize("fraction", ["1e-31", "1e-40", "1e-100"])
def test_verify_rejects_volumes_below_the_floor(square_json, tmp_path, capsys, fraction):
    # a half-plane cut this small cannot be placed in absolute coordinates
    floor = orc._volume_floor(validate_polygon(SQUARE))
    out = tmp_path / "out"
    code = main(["verify", "--domain", square_json, "--volume-fraction", fraction,
                 "--samples", "200", "--out", str(out)])
    assert code == cli.EXIT_VOLUME
    assert capsys.readouterr().err.strip() == (
        f"error: verification needs v of at least {floor:.6g} = (2^13 eps max|x|)^2 on "
        f"this domain: a smaller half-plane cut is not resolved in absolute coordinates")
    assert not out.exists()


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_verify_volume_floor_follows_the_coordinates(offset):
    # the floor is (2^13 eps max|x|)^2; at the floor every competitor is drawn
    domain = validate_polygon(np.array(SQUARE) + offset)
    family = build_family(domain)
    floor = orc._volume_floor(domain)
    assert floor == (2 ** 13 * np.finfo(float).eps * (1.0 + offset)) ** 2
    with pytest.raises(VolumeOutOfRangeError, match="at least"):
        orc.verify_minimality(family, np.nextafter(floor, 0.0), 10, seed=0)
    assert orc.verify_minimality(family, floor, 2000, seed=0).n_samples == 2000


@pytest.mark.parametrize("flag,value,message", [
    ("--samples", "0", "--samples must be at least 1, got 0"),
    ("--samples", "-5", "--samples must be at least 1, got -5"),
    ("--samples", "1000001", "--samples must be at most 1000000, got 1000001"),
    ("--samples", "10000000000000",
     "--samples must be at most 1000000, got 10000000000000"),
    ("--anneal", "-4", "--anneal must be 0 (off) or a grid width from 1 to 256, got -4"),
    ("--anneal", "257", "--anneal must be 0 (off) or a grid width from 1 to 256, got 257"),
])
def test_verify_rejects_bad_counts(square_json, tmp_path, capsys, flag, value, message):
    out = tmp_path / "out"
    code = main(["verify", "--domain", square_json, "--volume", "0.9",
                 flag, value, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not out.exists()  # rejected before any work


def test_outputs_deterministic(square_json, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["verify", "--domain", square_json, "--volume", "0.9",
                     "--samples", "150", "--seed", "9", "--out", out]) == 0
        outs.append(open(os.path.join(out, "verify.json"), "rb").read())
    assert outs[0] == outs[1]
    shapes = []
    for name in ("c", "d"):
        out = str(tmp_path / name)
        assert main(["minimizer", "--domain", square_json, "--volume", "0.9",
                     "--out", out]) == 0
        shapes.append(open(os.path.join(out, "shape.json"), "rb").read())
        shapes.append(open(os.path.join(out, "shape.svg"), "rb").read())
    assert shapes[0] == shapes[2] and shapes[1] == shapes[3]


# -- the CLI contract on generated inputs ---------------------------------------

_CODES = {0, cli.EXIT_CHECK} | {code for _, code in cli._EXIT_CODES}
_MALFORMED = ["", "{", "{not json", "[]", "null", '{"vertices": 3}', '{"vertices": "abc"}',
              '{"vertices": [[0, 0], [1]]}', '{"points": [[0, 0], [1, 0], [0, 1]]}',
              '{"vertices": [[NaN, 0], [1, 0], [0, 1]]}', "\udcff"]
_FRACTIONS = ["0", "1", "-0.5", "1.5", "nan", "inf", "-inf", "5e-324", "0.9999999999999999"]


def _grid(poly, n, rng):
    u = GridFunction.for_domain(poly, n)
    return u.with_values(np.where(u.inside_mask, rng.uniform(0.0, 1.0, u.values.shape), 0.0))


@st.composite
def _cli_calls(draw):
    """(argv, {file name: text or grid}, whether the call must succeed)."""
    command = draw(st.sampled_from(["minimizer", "family", "rearrange", "verify"]))
    verts = draw(valid_vertices())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    poly = validate_polygon(verts)
    files = {"domain.json": json.dumps({"vertices": verts.tolist()}),
             "u.grid": _grid(poly, draw(st.integers(4, 24)), rng)}
    domain = draw(st.sampled_from(["valid"] * 4 + ["malformed", "truncated", "short",
                                                   "non-convex", "crossed"]))
    if domain == "malformed":
        files["domain.json"] = draw(st.sampled_from(_MALFORMED))
    elif domain == "truncated":
        text = files["domain.json"]
        files["domain.json"] = text[:draw(st.integers(0, len(text) - 1))]
    elif domain == "short":
        files["domain.json"] = json.dumps({"vertices": verts[:draw(st.integers(0, 2))].tolist()})
    elif domain != "valid":
        i = draw(st.integers(0, len(verts) - 2))
        if domain == "non-convex":   # the centroid between two neighbours is a reflex vertex
            bad = np.insert(verts, i + 1, verts.mean(axis=0), axis=0)
        else:
            bad = verts.copy()
            bad[[i, i + 1]] = bad[[i + 1, i]]
        files["domain.json"] = json.dumps({"vertices": bad.tolist()})
    area = poly.area
    in_range = draw(st.booleans())
    if command in ("minimizer", "verify"):
        lo, hi = (1e-6, 0.999999) if command == "minimizer" else (0.05, 0.95)
        if in_range and draw(st.booleans()):
            volume = [f"--volume-fraction={draw(st.floats(lo, hi))!r}"]
        elif in_range:
            volume = [f"--volume={draw(st.floats(lo, hi)) * area!r}"]
        elif draw(st.booleans()):
            volume = [f"--volume-fraction={draw(st.sampled_from(_FRACTIONS))}"]
        else:
            factor = draw(st.sampled_from([0.0, -1.0, 1.0, 1.0 + 1e-12, 2.0, np.nan, np.inf]))
            volume = [f"--volume={factor * area!r}"]
        argv = [command, *volume]
        if command == "verify":
            argv += [f"--samples={draw(st.integers(1, 40))}", f"--seed={draw(st.integers(0, 99))}",
                     f"--anneal={draw(st.sampled_from([0, 0, 0, 6]))}"]
    elif command == "family":
        if in_range:
            a, b = sorted(draw(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=2,
                                        unique=True)))
            a, b, n = a * area, b * area, draw(st.integers(2, 40))
        else:
            a = draw(st.sampled_from([0.0, -1.0, 5e-324, 0.5 * area]))
            b = draw(st.sampled_from([area, area * (1.0 + 1e-12), 1.5 * area, np.inf, np.nan]))
            n = draw(st.sampled_from([1, 2, 10001]))
        argv = [command, f"--sweep={a!r}:{b!r}:{n}"]
    else:
        levels = draw(st.sampled_from([16, 32] if in_range else [15, 4097]))
        argv = [command, "--grid=u.grid", f"--levels={levels}"]
    if draw(st.booleans()):
        argv.append("--json")
    return argv, files, domain == "valid" and in_range and command in ("minimizer", "family")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cli_calls())
@example((["verify", "--volume-fraction=1e-100", "--samples=200", "--seed=0", "--anneal=0"],
          {"domain.json": json.dumps({"vertices": SQUARE})}, False))
def test_cli_contract_on_generated_inputs(call):
    # every run exits with a documented code, prints at most one error line
    # and leaks no traceback or warning; minimizer and family succeed on every
    # valid domain and volume
    argv, files, must_succeed = call
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            if isinstance(text, GridFunction):
                iio.write_grid(text, os.path.join(tmp, name))
            else:
                Path(tmp, name).write_text(text, errors="surrogateescape")
        argv = [a.replace("u.grid", os.path.join(tmp, "u.grid")) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            code = main(argv + ["--domain", os.path.join(tmp, "domain.json"),
                                "--out", os.path.join(tmp, "out")])
    err = err.getvalue()
    errors = [line for line in err.splitlines() if "error:" in line]
    assert code in _CODES, (code, err)
    assert len(errors) == (code not in (0, cli.EXIT_CHECK)), err
    assert "Traceback" not in err and "Warning" not in err
    if must_succeed:
        assert code == 0, err
