"""Hand-run timing of ``oracle.anneal_discrete``, the cost per anneal move.

    PYTHONPATH=src python tests/bench_anneal.py [--repeats 7]

pytest does not collect this file.  Each case runs the three seeded
chains of one ``verify --anneal N`` call (seeds 0, 1 and 2, v = 0.9 on
the unit square, the default schedule of 400 sweeps) on the 16-wide grid
of the ``verify-square`` benchmark workload and on a 64-wide grid.  Per
case it prints the median wall time of the three chains over the
repeats, that time per sweep and per accepted swap, and the share of it
spent in ``_Chain.flush``, which prices the logged swaps in batches of
``CHUNK_ENTRIES // 64``, with the number of flushes.  Then it prints the
median time to build a chain's start state (``_Chain``) on the seed-0
start block at widths 16, 64 and 256.
"""

import argparse
import statistics
import time

import numpy as np

from isoperim import oracle as orc
from isoperim.geometry import validate_polygon

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
SEEDS = (0, 1, 2)


def run_chains(domain, grid_n):
    """(wall s, flush s, flushes, sweeps, accepted) of the three chains."""
    flush, spent = orc._Chain.flush, []

    def timed(chain):
        t0 = time.perf_counter()
        flush(chain)
        spent.append(time.perf_counter() - t0)

    orc._Chain.flush = timed
    try:
        t0 = time.perf_counter()
        results = [orc.anneal_discrete(domain, 0.9, grid_n, seed=s) for s in SEEDS]
        wall = time.perf_counter() - t0
    finally:
        orc._Chain.flush = flush
    return (wall, sum(spent), len(spent), sum(len(r.energy_trace) for r in results),
            sum(r.accepted for r in results))


def build_time(domain, grid_n, repeats):
    """Median wall time of building the chain of the seed-0 start block."""
    _, mask, grid, h, _ = orc._anneal_start(domain, 0.9, grid_n, 0)
    trace = np.empty(orc.AnnealSchedule().sweeps)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        orc._Chain(grid, mask, h, trace)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    square = validate_polygon(SQUARE)
    print(f"{'case':26s} {'chains ms':>10s} {'ms/sweep':>9s} {'us/swap':>8s}"
          f" {'flush %':>8s} {'flushes':>8s} {'accepted':>9s}")
    for grid_n in (16, 64):
        runs = [run_chains(square, grid_n) for _ in range(args.repeats)]
        wall = statistics.median(r[0] for r in runs)
        share = statistics.median(r[1] / r[0] for r in runs)
        _, _, flushes, sweeps, accepted = runs[0]
        print(f"{f'square {grid_n}-wide, 3 chains':26s} {1e3 * wall:10.1f}"
              f" {1e3 * wall / sweeps:9.4f} {1e6 * wall / accepted:8.2f}"
              f" {100 * share:8.1f} {flushes:8d} {accepted:9d}")
    print(f"\n{'chain build':26s} {'ms':>10s}")
    for grid_n in (16, 64, 256):
        print(f"{f'square {grid_n}-wide':26s} {1e3 * build_time(square, grid_n, 5 * args.repeats):10.3f}")


if __name__ == "__main__":
    main()
