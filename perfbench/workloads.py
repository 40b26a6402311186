"""Seeded workload inputs and the CLI calls that make up one pass.

Every workload is closed loop with a single client: one process, one
thread, each CLI call starts when the previous one returns.  Inputs are
generated from the benchmark seed and written as the files the program
reads (domain JSON, grid text); the program sees nothing else.
"""

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
VERIFY_VOLUME = 0.9

# Sizes of the full workloads and of the tiny smoke-test variants.
SIZES = {
    "rearrange-square": {"grid": 256, "bumps": 6, "levels": 256},
    "exact-ngon": {"vertices": 256, "aspect": 2.0, "sweep_lo": 0.01,
                   "sweep_hi": 0.999, "sweep_steps": 200,
                   "minimizer_calls": 100, "grid": 128, "bumps": 6,
                   "levels": 32},
    "verify-square": {"volume": VERIFY_VOLUME, "samples": 2000, "anneal": 16},
}
TINY_SIZES = {
    "rearrange-square": {"grid": 32, "bumps": 6, "levels": 16},
    "exact-ngon": {"vertices": 16, "aspect": 2.0, "sweep_lo": 0.01,
                   "sweep_hi": 0.999, "sweep_steps": 200,
                   "minimizer_calls": 5, "grid": 24, "bumps": 6, "levels": 16},
    "verify-square": {"volume": VERIFY_VOLUME, "samples": 50, "anneal": 8},
}


@dataclass
class Op:
    """One CLI call: its argv, output directory and what the check needs."""

    command: str
    argv: list
    out: Path
    expect: dict = field(default_factory=dict)


@dataclass
class Plan:
    """The generated inputs of one workload and the ops of one pass."""

    sizes: dict
    domain: Path
    inputs: dict
    ops: list


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode()), seed])


def _write_domain(vertices, path: Path):
    path.write_text(json.dumps({"vertices": np.asarray(vertices).tolist()}))


def _shoelace(vertices) -> float:
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def jittered_ellipse(rng, n: int, aspect: float) -> np.ndarray:
    """n vertices on the ellipse x^2 + (aspect y)^2 = 1 at jittered angles."""
    theta = 2.0 * np.pi * (np.arange(n) + rng.uniform(-0.4, 0.4, n)) / n
    return np.stack([np.cos(theta), np.sin(theta) / aspect], axis=1)


def bump_grid(domain_vertices, n: int, centers):
    """Sum of equal Gaussian bumps on the GridFunction.for_domain(domain, n) grid.

    Widths (0.08 of the domain extent) and heights are fixed so that the
    cost of a call varies little between seeds; the seed moves the centers.
    Samples whose center lies outside the closed domain are zero, as the
    grid format requires.
    """
    from isoperim.geometry import validate_polygon
    from isoperim.rearrange import GridFunction

    frame = GridFunction.for_domain(validate_polygon(domain_vertices), n)
    width = 0.08 * float(np.max(np.ptp(domain_vertices, axis=0)))
    c = frame.centers()
    values = np.zeros(c.shape[:2])
    for center in centers:
        values += np.exp(-np.sum((c - center) ** 2, axis=-1) / (2.0 * width * width))
    values[~frame.inside_mask] = 0.0
    return frame.origin, frame.spacing, values


def write_grid(origin, spacing, values, path: Path):
    """Grid text file: header ``nx ny x0 y0 dx dy`` then rows, smallest y first."""
    ny, nx = values.shape
    head = " ".join(repr(float(x)) for x in (*origin, *spacing))
    rows = "\n".join(" ".join(map(repr, row)) for row in values.tolist())
    path.write_text(f"{nx} {ny} {head}\n{rows}\n")


def _rearrange_op(domain, grid, shape, levels, out):
    argv = ["rearrange", "--domain", str(domain), "--grid", str(grid),
            "--levels", str(levels), "--out", str(out)]
    return Op("rearrange", argv, out, {"shape": shape})


def plan_rearrange_square(seed, work: Path, sizes) -> Plan:
    rng = _rng("rearrange-square", seed)
    sq = np.array(SQUARE)
    domain = work / "square.json"
    _write_domain(sq, domain)
    # a jittered 3 x 2 lattice keeps the bumps apart, so that the report's
    # contour work (which grows with overlap and with max u) varies little
    # between seeds
    lattice = np.array([(x, y) for y in (0.3, 0.7) for x in (0.2, 0.5, 0.8)])
    centers = lattice[:sizes["bumps"]] + rng.uniform(-0.05, 0.05, (sizes["bumps"], 2))
    origin, spacing, values = bump_grid(sq, sizes["grid"], centers)
    grid = work / "u.grid"
    write_grid(origin, spacing, values, grid)
    op = _rearrange_op(domain, grid, values.shape, sizes["levels"],
                       work / "out-rearrange")
    return Plan(sizes, domain,
                {"domain": domain.name, "grid": grid.name,
                 "grid_shape": list(values.shape),
                 "inside_cells": int(np.count_nonzero(values > 0.0))}, [op])


def plan_exact_ngon(seed, work: Path, sizes) -> Plan:
    rng = _rng("exact-ngon", seed)
    verts = jittered_ellipse(rng, sizes["vertices"], sizes["aspect"])
    area = _shoelace(verts)
    domain = work / "ngon.json"
    _write_domain(verts, domain)

    lo, hi, steps = sizes["sweep_lo"] * area, sizes["sweep_hi"] * area, sizes["sweep_steps"]
    ops = [Op("family", ["family", "--domain", str(domain), "--sweep",
                         f"{lo!r}:{hi!r}:{steps}", "--out", str(work / "out-family")],
              work / "out-family", {"rows": steps})]
    volumes = rng.uniform(sizes["sweep_lo"], sizes["sweep_hi"],
                          sizes["minimizer_calls"]) * area
    for v in volumes.tolist():
        ops.append(Op("minimizer", ["minimizer", "--domain", str(domain),
                                    "--volume", repr(v), "--out",
                                    str(work / "out-minimizer")],
                      work / "out-minimizer", {"volume": v}))

    rho = np.sqrt(rng.uniform(0.0, 0.5, sizes["bumps"]))
    phi = rng.uniform(0.0, 2.0 * np.pi, sizes["bumps"])
    centers = np.stack([rho * np.cos(phi), rho * np.sin(phi) / sizes["aspect"]], axis=1)
    origin, spacing, values = bump_grid(verts, sizes["grid"], centers)
    grid = work / "u.grid"
    write_grid(origin, spacing, values, grid)
    ops.append(_rearrange_op(domain, grid, values.shape, sizes["levels"],
                             work / "out-rearrange"))
    return Plan(sizes, domain,
                {"domain": domain.name, "grid": grid.name, "area": area,
                 "grid_shape": list(values.shape),
                 "inside_cells": int(np.count_nonzero(values > 0.0)),
                 "minimizer_volumes": volumes.tolist()}, ops)


def plan_verify_square(seed, work: Path, sizes) -> Plan:
    rng = _rng("verify-square", seed)
    domain = work / "square.json"
    _write_domain(np.array(SQUARE), domain)
    verify_seed = int(rng.integers(0, 2**31 - 1))
    out = work / "out-verify"
    argv = ["verify", "--domain", str(domain), "--volume", repr(sizes["volume"]),
            "--samples", str(sizes["samples"]), "--anneal", str(sizes["anneal"]),
            "--seed", str(verify_seed), "--out", str(out)]
    op = Op("verify", argv, out, {"volume": sizes["volume"],
                                  "samples": sizes["samples"]})
    return Plan(sizes, domain,
                {"domain": domain.name, "verify_seed": verify_seed}, [op])


PLANNERS = {
    "rearrange-square": plan_rearrange_square,
    "exact-ngon": plan_exact_ngon,
    "verify-square": plan_verify_square,
}


def make_plan(workload: str, seed: int, work: Path, tiny: bool = False) -> Plan:
    sizes = (TINY_SIZES if tiny else SIZES)[workload]
    work.mkdir(parents=True, exist_ok=True)
    return PLANNERS[workload](seed, work, dict(sizes))
