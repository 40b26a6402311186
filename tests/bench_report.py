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

The trees, the repeats and the ``--json`` record are those of
``tests/benchrecord.py``: each ``--src`` tree (default: this repo's) runs
in a worker process of its own, the trees alternate per repeat, and the
median and quartiles of each stage are printed per tree, with paired
ratios to the first tree.
"""

import inspect
import sys

from benchrecord import ROOT, main

STAGES = ("rank", "u sweep", "u_tilde sweep", "hulls", "report")


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


if __name__ == "__main__":
    main(__file__, __doc__, STAGES, stages, "rearrange-square seed 1")
