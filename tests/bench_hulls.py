"""Hand-run timing of ``geometry.convex_hulls`` against its reference.

    PYTHONPATH=src python tests/bench_hulls.py [--repeats 15]

pytest does not collect this file.  Each input is hulled by the kernel
and by ``oracles.quickhull_sorted`` in alternating runs, and the
medians are printed with their ratio.  Beside them, from one more untimed
run, go the kernel's chain phases per input: the phases that finished
their hulls, the chain passes of all phases, and the stalled phases that
handed their points back to quickhull rounds.  The inputs are the ones
the kernel serves:

- report: the ``march_levels`` blocks of the convex rearrangement of six
  Gaussian bumps (width 0.08) on the 256-wide unit-square grid at 256
  levels, as in the ``rearrange-square`` benchmark workload;
- sweep: blocks of 85 sets of 192 uniform points from the square's
  triangle fan, as a ``verify`` sweep hulls its first rungs;
- window: 6 calls of 12 sets of 384 points, as the sweep's windows of
  four blocks hull the second rungs of their short hulls;
- arc: one set that neither caller makes, on which the monotone chains
  would drop one point per pass: see ``cut_arc``.

Then, per sweep of ``oracle.verify_minimality`` on the unit square (at
v = 0.9 with 2,000 competitors and at v = 0.99 with 1,000), the median
time over the repeats and the number of ``convex_hulls`` calls.
"""

import argparse
import os
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from isoperim import geometry, oracle as orc            # noqa: E402
from isoperim.family import build_family                # noqa: E402
from isoperim.geometry import convex_hulls, validate_polygon   # noqa: E402
from isoperim.rearrange import (GridFunction, _threshold_grid,   # noqa: E402
                                convex_rearrangement, march_levels)
from conftest import cut_arc, square_points              # noqa: E402
from oracles import quickhull_sorted                    # noqa: E402

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
JITTERED = [(0.172, 0.31), (0.455, 0.285), (0.768, 0.297),
            (0.183, 0.723), (0.476, 0.675), (0.838, 0.728)]


def report_blocks(n=256, levels=256):
    square = validate_polygon(SQUARE)
    frame = GridFunction.for_domain(square, n)
    c = frame.centers()
    values = sum(np.exp(-np.sum((c - m) ** 2, axis=-1) / (2.0 * 0.08 ** 2)) for m in JITTERED)
    u = frame.with_values(np.where(frame.inside_mask, values, 0.0))
    ut = convex_rearrangement(u, build_family(square))
    ts = _threshold_grid(u.values, levels)[1]
    return [(pts, counts) for _, pts, counts in march_levels(ut.values, ut.origin, ut.spacing, ts)]


def sweep_blocks(rng, blocks=24, sets=85, k=192):
    return [(square_points(rng, sets * k), np.full(sets, k)) for _ in range(blocks)]


def window_sets(rng, windows=6, sets=12, k=384):
    return [(square_points(rng, sets * k), np.full(sets, k)) for _ in range(windows)]


def _time(fn, inputs):
    t0 = time.perf_counter()
    for pts, counts in inputs:
        fn(pts, counts)
    return time.perf_counter() - t0


def chain_traffic(inputs):
    """(finishes, passes, hand-backs) of the kernel's chain phases on inputs."""
    passes, phases = [], []
    chain_pass, hull_chains = geometry._chain_pass, geometry._hull_chains

    def count_pass(*args):
        passes.append(1)
        return chain_pass(*args)

    def count_phase(*args):
        out = hull_chains(*args)
        phases.append(out[0] is None)
        return out

    geometry._chain_pass, geometry._hull_chains = count_pass, count_phase
    try:
        _time(convex_hulls, inputs)
    finally:
        geometry._chain_pass, geometry._hull_chains = chain_pass, hull_chains
    return phases.count(False), len(passes), phases.count(True)


def _time_sweep(family, v, n, seed):
    t0 = time.perf_counter()
    orc.verify_minimality(family, v, n, seed=seed)
    return time.perf_counter() - t0


def sweep_hull_calls(family, v, n, seed=0):
    """``convex_hulls`` calls of one sweep."""
    calls = []
    hulls = orc.convex_hulls

    def count(points, counts):
        calls.append(1)
        return hulls(points, counts)

    orc.convex_hulls = count
    try:
        orc.verify_minimality(family, v, n, seed=seed)
    finally:
        orc.convex_hulls = hulls
    return len(calls)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(2024)
    cases = {"report (11 blocks)": report_blocks(),
             "sweep (24 blocks of 85 x 192)": sweep_blocks(rng),
             "window (6 x 12 sets of 384)": window_sets(rng),
             "arc (1 set of 65,539)": [(cut_arc(), [65539])]}
    print(f"{'input':32s} {'reference ms':>13s} {'kernel ms':>10s} {'ratio':>6s}"
          f" {'finishes':>9s} {'passes':>7s} {'hand-backs':>11s}")
    for name, inputs in cases.items():
        for pts, counts in inputs:   # same output before any timing
            want, got = quickhull_sorted(pts, counts), convex_hulls(pts, counts)
            assert all(np.array_equal(w, g) for w, g in zip(want, got)), name
        ref, new = [], []
        for _ in range(args.repeats):
            ref.append(_time(quickhull_sorted, inputs))
            new.append(_time(convex_hulls, inputs))
        r, k = statistics.median(ref), statistics.median(new)
        finishes, passes, backs = chain_traffic(inputs)
        print(f"{name:32s} {1e3 * r:13.2f} {1e3 * k:10.2f} {k / r:6.2f}"
              f" {finishes:9d} {passes:7d} {backs:11d}")
    family = build_family(validate_polygon(SQUARE))
    print(f"\n{'sweep':32s} {'median ms':>10s} {'hull calls':>11s}")
    for v, n in ((0.9, 2000), (0.99, 1000)):
        times = [_time_sweep(family, v, n, seed) for seed in range(args.repeats)]
        print(f"{f'square, v = {v}, {n} competitors':32s}"
              f" {1e3 * statistics.median(times):10.1f} {sweep_hull_calls(family, v, n):11d}")


if __name__ == "__main__":
    main()
