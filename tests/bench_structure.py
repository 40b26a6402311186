"""Hand-run timing of the erosion-structure build and of ``shape_svg``.

    PYTHONPATH=src python tests/bench_structure.py [--repeats 15]

pytest does not collect this file.  Each case is run by the library and
by its reference in alternating runs, and the medians are printed with
their ratio:

- build: ``ErosionStructure`` against ``oracles.sequential_structure``
  on the unit square (n = 4, the structure each ``rearrange-square`` and
  ``verify-square`` call builds) and on 2:1 ellipses at jittered angles
  with n = 64, 256 and 1024 (the ``exact-ngon`` domain is n = 256).
  The library forms its Steiner polynomials on their first read and the
  reference in the build, so each size is also timed as the build plus a
  first ``area_of_opening``, which forms them on both sides; the event
  counts of each input's loop (one-edge / multi-edge) are printed;
- minimizer: ``build_family`` and ``minimizer``, one build per volume as
  in a ``minimizer`` CLI call, at the 100 volumes of the seed-1
  ``exact-ngon`` workload, against the same family on the sequential
  build; the regime counts are printed;
- shape_svg: ``svgout.shape_svg`` against the same document built from
  the per-vertex paths of ``oracles``, for the minimizers of the 256-gon
  at 100 volumes drawn from 1 % to 99.9 % of its area, as the
  ``exact-ngon`` workload asks for them;
- exit_radius: ``ErosionStructure.exit_radius`` against
  ``oracles.dense_exit_radius`` on the cell centers that ``rank`` hands
  it, on the seed-1 ``exact-ngon`` domain and grid (128 cells across),
  and the 256-wide unit-square grid of ``rearrange-square``, and on
  4096 points of the edges of a regular 256-gon: its vertices all die
  at r*, so only the edge midpoints, which reach r*, retire early, and
  the other points pay for every chunk;
- inside_mask: ``ConvexPolygon.contains_lattice`` against
  ``contains_point`` at every cell center, on the ``exact-ngon`` grid,
  the same domain on a 1024-wide grid and the 256-wide square grid;
- block size: ``ErosionStructure.distance_to_core`` at r = 0.05 and
  ``ConvexPolygon.contains_point`` on the inside cells of the
  ``exact-ngon`` grid, each against itself run in blocks of 65,536
  pairs (``geometry.CHUNK_ENTRIES``); set the reference size in
  ``BLOCK_REFERENCE`` to time another.  They run before the large
  cases: timed after them in one process, both sizes of
  ``distance_to_core`` took 65 ms, probably because the allocator then
  reuses freed memory instead of mapping fresh pages for the
  temporaries of each block.
"""

import argparse
import os
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from isoperim import geometry, svgout                        # noqa: E402
from isoperim.family import MinimizerFamily, build_family   # noqa: E402
from isoperim.geometry import ErosionStructure, validate_polygon   # noqa: E402
from isoperim.rearrange import GridFunction                  # noqa: E402
import oracles                                               # noqa: E402
from conftest import (SQUARE, ellipse_polygon, event_counts, exact_ngon,   # noqa: E402
                      regular_polygon)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import workloads                                             # noqa: E402

BLOCK_REFERENCE = 1 << 16


def reference_shape_svg(domain, shape):
    body = (f'<path d="{oracles.polygon_path(domain.vertices)}" stroke="#888"/>\n'
            f'<path d="{oracles.rounded_boundary_path(shape.body)}" stroke="#c02" />')
    return svgout._document(domain, body)


def sequential_family(domain):
    """build_family on the sequential structure, whose Steiner sums are formed eagerly."""
    return MinimizerFamily(oracles.sequential_structure(domain))


def minimizers(build, domain, volumes):
    """E(v) of a freshly built family per volume, as the minimizer CLI asks for it."""
    return [build(domain).minimizer(v) for v in volumes]


def rounded_cells(family, n):
    """The cell centers of the n-wide grid that ``family.rank`` passes to exit_radius."""
    u = GridFunction.for_domain(family.domain, n)
    seen, s = [], family.structure
    exit_radius = s.exit_radius
    s.exit_radius = lambda pts: seen.append(pts) or exit_radius(pts)
    try:
        family.rank(u.centers()[u.inside_mask])
    finally:
        del s.exit_radius
    return seen[0]


def in_blocks_of(entries, fn):
    """fn, run with geometry.CHUNK_ENTRIES set to entries."""
    def run(*args):
        saved, geometry.CHUNK_ENTRIES = geometry.CHUNK_ENTRIES, entries
        try:
            return fn(*args)
        finally:
            geometry.CHUNK_ENTRIES = saved
    return run


def _time(fn, inputs, loops):
    t0 = time.perf_counter()
    for _ in range(loops):
        for args in inputs:
            fn(*args)
    return (time.perf_counter() - t0) / loops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    polys = {4: validate_polygon(SQUARE)}
    polys.update((n, validate_polygon(ellipse_polygon(n, n))) for n in (64, 256, 1024))
    cases = {}
    for n, p in polys.items():
        loops = max(1, 4096 // n)
        cases[f"build n={n}"] = (oracles.sequential_structure, ErosionStructure, [(p,)], loops)
        cases[f"build + area_of_opening n={n}"] = (
            lambda p: oracles.sequential_structure(p).area_of_opening(0.0),
            lambda p: ErosionStructure(p).area_of_opening(0.0), [(p,)], loops)
    family = build_family(polys[256])
    rng = np.random.default_rng(2024)
    volumes = rng.uniform(0.01, 0.999, 100) * family.v_max
    shapes = [(family.domain, family.minimizer(v)) for v in volumes]
    cases["shape_svg (100 shapes, n=256)"] = (reference_shape_svg, svgout.shape_svg, shapes, 1)

    sizes = workloads.SIZES["exact-ngon"]
    verts, volumes = exact_ngon(1)
    ngon = build_family(validate_polygon(verts))
    kinds = [s.kind for s in minimizers(build_family, ngon.domain, volumes)]
    cases[f"minimizer exact-ngon ({len(volumes)} volumes)"] = (
        lambda *args: minimizers(sequential_family, *args),
        lambda *args: minimizers(build_family, *args), [(ngon.domain, volumes)], 1)
    # before the large cases (see the module docstring)
    u = GridFunction.for_domain(ngon.domain, sizes["grid"])
    inside = u.centers()[u.inside_mask]
    for name, fn, call in (
            ("distance_to_core", ErosionStructure.distance_to_core,
             (ngon.structure, inside, 0.05)),
            ("contains_point", geometry.ConvexPolygon.contains_point, (ngon.domain, inside))):
        cases[f"{name} exact-ngon ({len(inside)} pts)"] = (
            in_blocks_of(BLOCK_REFERENCE, fn), fn, [call], 1)
    regular = ErosionStructure(validate_polygon(regular_polygon(256)))
    V = regular.polygon.vertices
    t = (np.arange(4096) % 16 / 16.0)[:, None]
    edges = V.repeat(16, 0) + t * (np.roll(V, -1, axis=0) - V).repeat(16, 0)
    for name, s, pts in (("exact-ngon", ngon.structure, rounded_cells(ngon, sizes["grid"])),
                         ("square", ErosionStructure(polys[4]),
                          rounded_cells(build_family(polys[4]), 256)),
                         ("256-gon edges", regular, edges)):
        cases[f"exit_radius {name} ({len(pts)} pts)"] = (
            oracles.dense_exit_radius, ErosionStructure.exit_radius, [(s, pts)], 1)
    for name, domain, n in (("exact-ngon", ngon.domain, sizes["grid"]),
                            ("exact-ngon", ngon.domain, 1024), ("square", polys[4], 256)):
        u = GridFunction.for_domain(domain, n)
        cases[f"inside_mask {name} {u.nx}x{u.ny}"] = (
            lambda u: u.domain.contains_point(u.centers()),
            lambda u: u.domain.contains_lattice(*u._axes()), [(u,)], 1)

    for n, p in polys.items():
        one, multi = event_counts(p)
        print(f"events n={n}: {one} one-edge, {multi} multi-edge")
    print("minimizer exact-ngon regimes:",
          ", ".join(f"{k} {kinds.count(k)}" for k in dict.fromkeys(kinds)))
    print(f"{'case':40s} {'reference ms':>13s} {'library ms':>11s} {'ratio':>6s}")
    for name, (ref_fn, lib_fn, inputs, loops) in cases.items():
        ref, new = [], []
        for _ in range(args.repeats):
            ref.append(_time(ref_fn, inputs, loops))
            new.append(_time(lib_fn, inputs, loops))
        r, k = statistics.median(ref), statistics.median(new)
        print(f"{name:40s} {1e3 * r:13.3f} {1e3 * k:11.3f} {k / r:6.2f}")


if __name__ == "__main__":
    main()
