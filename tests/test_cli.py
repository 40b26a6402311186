import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from isoperim import cli
from isoperim import io as iio
from isoperim.cli import _parse_sweep, main
from isoperim.errors import (DegenerateError, DomainMismatchError, GeometryError,
                             NonConvexError, RadiusTooLargeError,
                             SamplerInfeasibleError, ScheduleInvalidError,
                             VolumeOutOfRangeError)
from isoperim.geometry import validate_polygon

from conftest import SQUARE, RECT21, cone_grid

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


def test_import_and_minimizer_load_no_scipy(square_json, tmp_path):
    # every subcommand, each in a fresh interpreter, runs without loading scipy
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    grid_path = str(tmp_path / "cone.grid")
    iio.write_grid(cone_grid(validate_polygon(SQUARE), 40), grid_path)
    code = ("import json, sys\n"
            "import isoperim\n"
            "from isoperim.cli import main\n"
            "assert main(json.loads(sys.argv[1])) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    for argv in (["minimizer", "--volume", "0.9"],
                 ["family", "--sweep", "0.2:0.9:8"],
                 ["rearrange", "--grid", grid_path, "--levels", "32"],
                 ["verify", "--volume", "0.9", "--samples", "300"]):
        argv += ["--domain", square_json, "--out", str(tmp_path / argv[0])]
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]", argv[0]


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
    (RadiusTooLargeError("r"), 3),
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
    (_MINIMIZER, {"domain.json": _domain_text([[0, 0], [2, 0], [1, 0.5], [2, 2], [0, 2]])},
     3, "vertex chain is not strictly convex"),
    (_MINIMIZER, {"domain.json": _domain_text([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]])},
     3, "duplicate consecutive vertices"),
    (["family", "--sweep=0.1:inf:10"], {}, 2, "sweep ends must be finite"),
    (["family", "--sweep=nan:0.5:10"], {}, 2, "sweep ends must be finite"),
    (["family", "--sweep=-1e308:1e308:10"], {}, 4, "sweep outside (0, |domain|]"),
    (["verify", "--volume", "0.9", "--seed", "-1"], {}, 2, "--seed must be nonnegative, got -1"),
], ids=["dx-inf", "dx-nan", "x0-nan", "y0-minus-inf", "value-nan", "value-inf",
        "value-negative", "ragged-body", "short-body", "no-body", "dx-overflow",
        "value-overflow", "bad-json", "non-convex",
        "coincident-vertices", "sweep-inf", "sweep-nan", "sweep-overflow", "seed-negative"])
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
