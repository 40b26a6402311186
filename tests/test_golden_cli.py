"""Pinned CLI outputs of the minimizer, family and rearrange subcommands.

The hashes cover every regime of the family: the disk on the unit
square, the stadium and a rounded shape with a segment-like core on the
2x1 rectangle, a rounded shape with a polygon core on a 64-gon ellipse,
and a rectangle sweep that crosses both seams.  Any change in the
shape record, its JSON form or its SVG path shows up as a changed hash.

The rearrange hashes cover six Gaussian bumps on the unit square, once
where max u_tilde < max u (the report integrates u_tilde's contour
lengths on u's threshold grid past max u_tilde, up to max u) and once
where the maxima are equal (bv_ut is then bv_norm_estimate(u_tilde)),
and four wider bumps on the 64-gon ellipse, a domain other than the
square.

The verify hashes cover the competitor sweep's report and the annealing
oracle's best grid on the unit square.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from isoperim import io
from isoperim.cli import main
from isoperim.family import build_family
from isoperim.geometry import _shoelace, validate_polygon
from isoperim.rearrange import GridFunction, convex_rearrangement

from conftest import RECT21, SQUARE, cone_grid
from oracles import write_grid_per_cell

# 2:1 ellipse sampled at 64 equally spaced angles, rounded so that the
# domain file does not depend on the last bit of the platform's cos / sin
_T = 2.0 * np.pi * np.arange(64) / 64
ELLIPSE64 = [[round(2.0 * float(np.cos(t)), 12), round(float(np.sin(t)), 12)]
             for t in _T]
ELLIPSE64_AREA = _shoelace(validate_polygon(ELLIPSE64).vertices)

DOMAINS = {"square": SQUARE, "rect21": RECT21, "ellipse64": ELLIPSE64}

MINIMIZER_GOLDEN = {
    ("square", 0.5): ("disk", {
        "shape.json": "ab59b9e5e12edffa16de2c91270f1235881ad3f6243d0ca01df515159b8dae6a",
        "shape.svg": "c72c78726cca0d79892e0a93f697a5cd42941fd2b13758b231d0630290b1b696"}),
    ("rect21", 1.2): ("stadium", {
        "shape.json": "2c6c516a278d07f0bb8a587b9f45595880a6defe1c074c44984d1f531f0b4d8a",
        "shape.svg": "75e69fbdeca7329bbd9da9d228e46e541537dbc2e88de32db0e34cc64dc8cc6d"}),
    ("rect21", 1.9): ("rounded", {
        "shape.json": "fbb33c994dd591730c0b3d4b07dfa2ccf1473083d615d4c602526e2dfc434724",
        "shape.svg": "0e217709d3b7a889131dc3c1e27b8548bdb28f673acaabcacca091cdb157af3b"}),
    ("ellipse64", 0.9 * ELLIPSE64_AREA): ("rounded", {
        "shape.json": "aba8944d593190905787f50b2d2e4c93650e495e7250ffef9651513972f38767",
        "shape.svg": "292fc88a08858e016da2e0ddddd063ff82133c0abd4e04f0f0f9970647587ad5"}),
}

FAMILY_GOLDEN = {
    "family.csv": "c1b9acd3cd19614325486dda47613d7021068f8c9bf7abfb2826918d021bb366",
    "family.svg": "c51dd33fe40eebe16136548e0f70c70790b909959d8253e3f4d6872c55d17c7e",
}

# six bumps of width 0.08, as in perfbench's bump_grid: a jittered 3 x 2
# lattice has one top sample, which no cell center near the incenter
# reaches, while the plain lattice is mirror symmetric, so its top
# sample comes in pairs and u_tilde reaches it at every even grid width
LATTICE = [(x, y) for y in (0.3, 0.7) for x in (0.2, 0.5, 0.8)]
JITTERED = [(0.172, 0.31), (0.455, 0.285), (0.768, 0.297),
            (0.183, 0.723), (0.476, 0.675), (0.838, 0.728)]

# four bumps of width 0.25 inside the 64-gon ellipse, none on an axis of symmetry
ELLIPSE_BUMPS = [(-1.13, 0.12), (-0.31, -0.37), (0.46, 0.29), (1.22, -0.06)]

# bump set name: (domain name, centers, width)
BUMPS = {"jittered": ("square", JITTERED, 0.08),
         "lattice": ("square", LATTICE, 0.08),
         "ellipse": ("ellipse64", ELLIPSE_BUMPS, 0.25)}

REARRANGE_GOLDEN = {
    (48, "jittered"): (False, {
        "u_tilde.grid": "a37aadef6c726535f522e993434fe625673e725af365ad001ee9c6f939804d51",
        "report.json": "10df9c39af8fa00ca0b7a8011a3a63b7646580c19d44bb24bbf5f4ad1b89efb4",
        "report.csv": "be0ac31bf39bb51f31e305ef3f796a4099181c96511c4ce8bd1804a04035b551",
        "levels.svg": "c6a8b05f670bd13f57efd966c2ad2b16c8ac79cfded09cfe240767a80c6db7b8"}),
    (64, "lattice"): (True, {
        "u_tilde.grid": "130d80851a743a92b721f5a279231a27f72a9f37057a0048937364049a73a13a",
        "report.json": "b781cf9fb7a37bfa0e1a5d7ac61ace8e90eeb15c31ace030b0753df0f894709f",
        "report.csv": "1eb49b0bda21200bb8e67a3b70690a60593fe4c987313576d4a84e1131ad21f0",
        "levels.svg": "6db0567a34087c707b20517f1264e30212590c0e9a789b0e8014780310814905"}),
    (64, "ellipse"): (True, {
        "u_tilde.grid": "e515c8d6f0b18bcdbd1fc8eba13c41439d95fff5b4a524c7c80b3a1f217fdfdc",
        "report.json": "39c7347d39d42df580b90371894a6f8be3162c4f9cabcdc80b05a8da5e01e937",
        "report.csv": "510e7bc7254762f83b238b0debfd4510c3561156f0e733e4e77152c25e7c6061",
        "levels.svg": "0f67eecf043b6b5849b341f49dec93341505f2a572ea21c0573a18c1b02ad19b"}),
}

VERIFY_GOLDEN = {
    "verify.json": "87d2094daa89d99e7cd2072b12d18fafd9645f858ea317bc71b8348747bff59a",
    "anneal.pgm": "4aba332a71150b23043a4283be6f23cc90468c2c6baf3f62308e8f97f1039d15",
}


def _bump_grid(n, bumps):
    """Sum of the named bump set on the for_domain(domain, n) grid, rounded
    to 12 decimals so that the grid file does not depend on the last bit
    of exp."""
    domain, centers, width = BUMPS[bumps]
    frame = GridFunction.for_domain(validate_polygon(DOMAINS[domain]), n)
    c = frame.centers()
    values = np.zeros(c.shape[:2])
    for center in centers:
        values += np.exp(-np.sum((c - center) ** 2, axis=-1) / (2.0 * width ** 2))
    values[~frame.inside_mask] = 0.0
    return frame.with_values(np.round(values, 12))


def _domain_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"vertices": DOMAINS[name]}))
    return str(path)


def _hashes(out, names):
    return {name: hashlib.sha256(open(os.path.join(out, name), "rb").read()).hexdigest()
            for name in names}


@pytest.mark.parametrize("domain,volume", list(MINIMIZER_GOLDEN),
                         ids=[f"{d}-{v:.4g}" for d, v in MINIMIZER_GOLDEN])
def test_minimizer_outputs_pinned(tmp_path, domain, volume):
    kind, golden = MINIMIZER_GOLDEN[(domain, volume)]
    out = str(tmp_path / "out")
    assert main(["minimizer", "--domain", _domain_file(tmp_path, domain),
                 "--volume", repr(volume), "--out", out]) == 0
    assert json.load(open(os.path.join(out, "shape.json")))["type"] == kind
    assert _hashes(out, golden) == golden


def test_family_sweep_outputs_pinned(tmp_path):
    out = str(tmp_path / "out")
    assert main(["family", "--domain", _domain_file(tmp_path, "rect21"),
                 "--sweep", "0.2:1.99:60", "--out", out]) == 0
    rows = open(os.path.join(out, "family.csv")).read().splitlines()[1:]
    assert {row.split(",")[1] for row in rows} == {"disk", "stadium", "rounded"}
    assert _hashes(out, FAMILY_GOLDEN) == FAMILY_GOLDEN


@pytest.mark.parametrize("n,centers", list(REARRANGE_GOLDEN),
                         ids=[f"{c}-{n}" for n, c in REARRANGE_GOLDEN])
def test_rearrange_outputs_pinned(tmp_path, n, centers):
    maxima_equal, golden = REARRANGE_GOLDEN[(n, centers)]
    u = _bump_grid(n, centers)
    grid = str(tmp_path / "u.grid")
    io.write_grid(u, grid)
    out = str(tmp_path / "out")
    assert main(["rearrange", "--domain", _domain_file(tmp_path, BUMPS[centers][0]),
                 "--grid", grid, "--levels", "64", "--out", out]) == 0
    ut = io.read_grid(os.path.join(out, "u_tilde.grid"), u.domain)
    assert bool(ut.values.max() == u.values.max()) is maxima_equal
    assert ut.values.max() <= u.values.max()
    assert _hashes(out, golden) == golden


def _writer_case(name):
    square = validate_polygon(SQUARE)
    if name == "golden-u-tilde":
        return convex_rearrangement(_bump_grid(48, "jittered"), build_family(square))
    if name == "all-distinct":
        frame = GridFunction.for_domain(square, 64)
        values = np.random.default_rng(5).random(frame.values.shape)
        return frame.with_values(np.where(frame.inside_mask, values, 0.0))
    u = cone_grid(square, 16)
    values = u.values.copy()
    if name == "signed-zeros":
        values[~u.inside_mask] = -0.0
        values[5, 3:9] = 0.0
    else:   # the smallest subnormal and a large normal value
        values[4, 4:8] = 5e-324
        values[9, 6:10] = 1e300
    return u.with_values(values)


@pytest.mark.parametrize("case", ["golden-u-tilde", "all-distinct", "signed-zeros",
                                  "extremes"])
def test_grid_writer_matches_per_cell_repr(tmp_path, case):
    """One repr per distinct bit pattern writes the bytes of one repr per
    cell, and the file reads back bit for bit."""
    u = _writer_case(case)
    path, ref = str(tmp_path / "u.grid"), str(tmp_path / "ref.grid")
    io.write_grid(u, path)
    write_grid_per_cell(u, ref)
    assert open(path, "rb").read() == open(ref, "rb").read()
    back = io.read_grid(path, u.domain)
    assert np.array_equal(back.values.view(np.uint64), u.values.view(np.uint64))
    assert np.array_equal(back.origin, u.origin) and np.array_equal(back.spacing, u.spacing)


def test_verify_outputs_pinned(tmp_path):
    out = str(tmp_path / "out")
    assert main(["verify", "--domain", _domain_file(tmp_path, "square"),
                 "--volume", "0.9", "--samples", "2000", "--seed", "1",
                 "--anneal", "16", "--out", out]) == 0
    assert json.load(open(os.path.join(out, "verify.json")))["ok"] is True
    assert _hashes(out, VERIFY_GOLDEN) == VERIFY_GOLDEN
