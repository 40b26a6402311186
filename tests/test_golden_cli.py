"""Pinned CLI outputs of the minimizer and family subcommands.

The hashes cover every regime of the family: the disk on the unit
square, the stadium and a rounded shape with a segment-like core on the
2x1 rectangle, a rounded shape with a polygon core on a 64-gon ellipse,
and a rectangle sweep that crosses both seams.  Any change in the
shape record, its JSON form or its SVG path shows up as a changed hash.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from isoperim.cli import main
from isoperim.geometry import polygon_measures, validate_polygon

from conftest import RECT21, SQUARE

# 2:1 ellipse sampled at 64 equally spaced angles, rounded so that the
# domain file does not depend on the last bit of the platform's cos / sin
_T = 2.0 * np.pi * np.arange(64) / 64
ELLIPSE64 = [[round(2.0 * float(np.cos(t)), 12), round(float(np.sin(t)), 12)]
             for t in _T]
ELLIPSE64_AREA = polygon_measures(validate_polygon(ELLIPSE64))[0]

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
