"""Hand-run timing of the ``rearrange`` report's stages, with a JSON record.

    PYTHONPATH=src python tests/bench_report.py [--repeats 21]
        [--src DIR --label NAME ...] [--json BENCH_report.json]

pytest does not collect this file.  The input is the ``rearrange-square``
grid of the perfbench seed 1: six Gaussian bumps on the 256-wide
unit-square grid, 256 levels.  Each repeat times, one after another:

- rank: ``MinimizerFamily.rank`` on the inside cell centres, in the
  blocks and with the arguments ``convex_rearrangement`` passes;
- u sweep: ``march_levels`` of u on the report's thresholds, as the
  report asks for it (lengths only where the tree supports it);
- u_tilde sweep: ``march_levels`` of u_tilde with its crossings;
- hulls: ``_hull_areas`` of every u_tilde block, from crossings marched
  beforehand;
- report: ``rearrangement_report(u, u_tilde)``.

Each ``--src`` tree (default: this repo's) runs in a worker process of its
own, and every repeat runs each tree in turn, so that trees such as a copy
of the parent commit and this one see the same drift of a shared host.
The median and quartiles of each stage are printed per tree, and for each
tree after the first the median of its per-repeat ratios to the first.
``--json PATH`` stores each tree's figures under its ``--label`` in PATH,
beside the records already there, with the line count of each module of
the tree, its git commit (null outside a checkout) and whether its sources
differ from that commit, ``PYTHONDONTWRITEBYTECODE`` and whether the
package had a ``__pycache__`` before the run.
"""

import argparse
import inspect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("rank", "u sweep", "u_tilde sweep", "hulls", "report")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=21)
    p.add_argument("--src", type=Path, action="append",
                   help="a source tree holding isoperim/ (repeatable; default: this repo's)")
    p.add_argument("--label", action="append", help="each tree's record name (repeatable)")
    p.add_argument("--json", type=Path, help="the record file to write")
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    args.src = [s.resolve() for s in args.src or [ROOT / "src"]]
    args.label = args.label or [str(s) for s in args.src]
    if len(args.label) != len(args.src):
        p.error("give one --label per --src")
    return args


def stages(src):
    """(name, thunk) per timed stage, on the seed-1 rearrange-square input."""
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np
    import workloads
    from isoperim import rearrange as rr
    from isoperim.family import build_family
    from isoperim.geometry import CHUNK_ENTRIES, validate_polygon

    sizes = workloads.SIZES["rearrange-square"]
    domain = validate_polygon(workloads.SQUARE)
    rng = workloads._rng("rearrange-square", 1)
    lattice = np.array([(x, y) for y in (0.3, 0.7) for x in (0.2, 0.5, 0.8)])
    centers = lattice[:sizes["bumps"]] + rng.uniform(-0.05, 0.05, (sizes["bumps"], 2))
    origin, spacing, values = workloads.bump_grid(workloads.SQUARE, sizes["grid"], centers)
    u = rr.GridFunction(origin, spacing, values, domain)
    family = build_family(domain)
    ut = rr.convex_rearrangement(u, family)
    _, ts = rr._threshold_grid(u.values, sizes["levels"])
    pts = u.centers()[u.inside_mask]
    # trees from before the inside and crossings keywords take the old paths
    rank_kw = {"inside": True} if "inside" in inspect.signature(family.rank).parameters else {}
    sweep_kw = ({"crossings": False}
                if "crossings" in inspect.signature(rr.march_levels).parameters else {})
    blocks = [(p, c) for _, p, c in rr.march_levels(ut.values, ut.origin, ut.spacing, ts)]

    def rank():
        for s in range(0, len(pts), CHUNK_ENTRIES):
            family.rank(pts[s:s + CHUNK_ENTRIES], **rank_kw)

    def sweep(f, **kw):
        return lambda: [b for b, _, _ in rr.march_levels(f.values, f.origin, f.spacing,
                                                         ts, **kw)]

    return [("rank", rank), ("u sweep", sweep(u, **sweep_kw)), ("u_tilde sweep", sweep(ut)),
            ("hulls", lambda: [rr._hull_areas(p, c) for p, c in blocks]),
            ("report", lambda: rr.rearrangement_report(u, ut, sizes["levels"]))]


def tree_state(src):
    """Line count per module, git commit and .pyc state of a source tree."""
    pkg = src / "isoperim"

    def git(*args):
        proc = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    changed = git("status", "--porcelain", "--", ".")
    return {"src.loc": {p.stem: p.read_bytes().count(b"\n") for p in sorted(pkg.glob("*.py"))},
            "commit": git("rev-parse", "HEAD"),
            "dirty": None if changed is None else bool(changed),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "__pycache__": (pkg / "__pycache__").is_dir()}


def worker(src):
    """Time every stage once per line read on stdin; answer with a JSON list."""
    timed = stages(src)
    assert [name for name, _ in timed] == list(STAGES)
    for _ in sys.stdin:
        times = []
        for _, fn in timed:
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        print(json.dumps(times), flush=True)


def main(argv=None):
    args = _parse(argv)
    if args.worker:
        return worker(args.worker)
    states = [tree_state(src) for src in args.src]   # before the workers compile
    workers = [subprocess.Popen([sys.executable, __file__, "--worker", str(src)],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for src in args.src]
    times = [[] for _ in workers]
    for _ in range(args.repeats):
        for proc, out in zip(workers, times):
            proc.stdin.write("\n")
            proc.stdin.flush()
            out.append(json.loads(proc.stdout.readline()))
    for proc in workers:
        proc.stdin.close()
        proc.wait()
    print(f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '(unset)')}")
    records = json.loads(args.json.read_text()) if args.json and args.json.exists() else {}
    for k, (label, state, runs) in enumerate(zip(args.label, states, times)):
        print(f"tree {k}: {label} ({args.src[k]}), __pycache__ "
              f"{'present' if state['__pycache__'] else 'absent'}")
        figures = {}
        for i, name in enumerate(STAGES):
            ts = [run[i] for run in runs]
            q1, med, q3 = statistics.quantiles(ts, n=4)
            figures[name] = {"median_ms": 1e3 * med, "q1_ms": 1e3 * q1, "q3_ms": 1e3 * q3}
            line = f"  {name:14s} median {1e3 * med:8.2f} ms  [{1e3 * q1:.2f}-{1e3 * q3:.2f}]"
            if k:
                ratios = [t / run[i] for t, run in zip(ts, times[0])]
                line += (f"  x{statistics.median(ratios):.3f} of tree 0, lower in "
                         f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}")
            print(line)
        records[label] = {"input": "rearrange-square seed 1", "repeats": args.repeats,
                          "nproc": len(os.sched_getaffinity(0)), "stages": figures, **state}
    if args.json:
        args.json.write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    main()
