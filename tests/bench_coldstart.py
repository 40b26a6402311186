"""Hand-run timing of cold processes: ``import isoperim`` and one
``python -m isoperim.cli`` call per subcommand, each in a fresh interpreter.

    PYTHONPATH=src python tests/bench_coldstart.py [--repeats 11] [--src DIR ...]

pytest does not collect this file.  The cases are ``import isoperim``, then
``minimizer`` (half the area), a 200-step ``family`` sweep, ``rearrange`` of
a 64-wide grid (default levels) and ``verify`` (300 competitors, no
annealing), each on the unit square and on a 256-gon on a 2:1 ellipse (the
``exact-ngon`` domain at seed 1).  Each process is timed from start to exit
by the wall clock of this script; processes run one at a time, never in a
batch.  With several ``--src`` trees (say a copy of the parent commit and
this one), each repeat runs every tree in turn, so the trees see the same
drift of a shared host; the median and quartiles are printed per tree,
and for each tree after the first the median of its per-repeat ratios to
the first and the number of repeats in which it was faster.

The figure depends on whether the sources are byte-compiled at every start,
so the header says whether ``PYTHONDONTWRITEBYTECODE`` is set and whether
each tree has a ``__pycache__``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from isoperim import io                                      # noqa: E402
from isoperim.geometry import validate_polygon               # noqa: E402
from isoperim.rearrange import GridFunction                  # noqa: E402
from conftest import SQUARE, exact_ngon                      # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"


def bump_grid(domain, n):
    """A Gaussian bump about the domain's centroid on an n-wide grid."""
    u0 = GridFunction.for_domain(domain, n)
    c = u0.centers() - domain.vertices.mean(axis=0)
    vals = np.exp(-4.0 * (c ** 2).sum(axis=-1))
    vals[~u0.inside_mask] = 0.0
    return u0.with_values(vals)


def cases(work):
    """(label, argv after ``python``) for every timed process."""
    out = [("import isoperim", ["-c", "import isoperim"])]
    for label, verts in (("square", SQUARE), ("256-gon", exact_ngon(1)[0])):
        domain = validate_polygon(verts)
        domain_path, grid_path = work / f"{label}.json", work / f"{label}.grid"
        domain_path.write_text(json.dumps({"vertices": np.asarray(verts).tolist()}))
        io.write_grid(bump_grid(domain, 64), grid_path)
        area = domain.area
        common = ["--domain", str(domain_path), "--out", str(work / "out")]
        for argv in (["minimizer", "--volume-fraction", "0.5"],
                     ["family", "--sweep", f"{0.01 * area!r}:{0.99 * area!r}:200"],
                     ["rearrange", "--grid", str(grid_path)],
                     ["verify", "--volume-fraction", "0.5", "--samples", "300"]):
            out.append((f"{argv[0]} {label}", ["-m", "isoperim.cli", *argv, *common]))
    return out


def run_once(src, argv):
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode not in (0, 6):          # 6: a failed check still ran to the end
        raise RuntimeError(f"{argv} exited {proc.returncode}:\n{proc.stderr}")
    return elapsed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--repeats", type=int, default=11)
    p.add_argument("--src", type=Path, action="append",
                   help="a source tree holding isoperim/ (repeatable; default: this repo's)")
    args = p.parse_args(argv)
    trees = [s.resolve() for s in args.src or [SRC]]
    print(f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '(unset)')}")
    for k, src in enumerate(trees):
        cached = (src / "isoperim" / "__pycache__").is_dir()
        print(f"tree {k}: {src}  __pycache__ {'present' if cached else 'absent'}")
    with tempfile.TemporaryDirectory() as tmp:
        for label, child in cases(Path(tmp)):
            times = [[] for _ in trees]
            for _ in range(args.repeats):
                for k, src in enumerate(trees):
                    times[k].append(run_once(src, child))
            for k, ts in enumerate(times):
                q1, med, q3 = statistics.quantiles(ts, n=4)
                line = (f"{label:20s} tree {k}: median {1e3 * med:7.1f} ms "
                        f"[{1e3 * q1:.1f}-{1e3 * q3:.1f}]")
                if k:
                    ratios = [t / t0 for t, t0 in zip(ts, times[0])]
                    line += (f"  x{statistics.median(ratios):.3f} of tree 0, lower in "
                             f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}")
                print(line)


if __name__ == "__main__":
    main()
