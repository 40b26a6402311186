"""Hand-run timing of ``verify``'s competitor sweep and annealing chains,
with a JSON record.

    PYTHONPATH=src python tests/bench_verify.py [--repeats 21]
        [--src DIR --label NAME ...] [--json BENCH_verify.json]

pytest does not collect this file.  The input is the ``verify-square`` call
of the perfbench seed 1: v = 0.9 on the unit square, 2,000 competitors and
three chains on a 16-wide grid, with the seed that perfbench draws.  Each
repeat times, one after another:

- sweep: ``oracle.verify_minimality`` of the 2,000 competitors;
- chains: ``oracle.anneal_discrete`` of the three seeds, one after another;
- verify: the whole ``cli.main(["verify", ...])`` call, outputs included,
  which runs the chains beside the sweep where the tree does so and the
  process may use two CPUs.

Run it under ``taskset -c 0`` to time the one-CPU path.  The trees, the
repeats and the ``--json`` record are those of ``tests/benchrecord.py``:
each ``--src`` tree (default: this repo's) runs in a worker process of its
own, the trees alternate per repeat, and the median and quartiles of each
stage are printed per tree, with paired ratios to the first tree.
"""

import atexit
import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

from benchrecord import ROOT, main

STAGES = ("sweep", "chains", "verify")


def stages(src):
    """(name, thunk) per timed stage, on the seed-1 verify-square call."""
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from isoperim import cli, oracle
    from isoperim import io as iio
    from isoperim.family import build_family

    sizes = workloads.SIZES["verify-square"]
    work = Path(tempfile.mkdtemp(prefix="bench_verify-"))
    atexit.register(shutil.rmtree, work)
    plan = workloads.plan_verify_square(1, work, sizes)
    seed, v = plan.inputs["verify_seed"], sizes["volume"]
    domain = iio.load_domain(plan.domain)
    family = build_family(domain)
    argv = plan.ops[0].argv

    def verify():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0

    return [("sweep", lambda: oracle.verify_minimality(family, v, sizes["samples"], seed=seed)),
            ("chains", lambda: [oracle.anneal_discrete(domain, v, sizes["anneal"], seed=seed + s)
                                for s in range(3)]),
            ("verify", verify)]


if __name__ == "__main__":
    main(__file__, __doc__, STAGES, stages, "verify-square seed 1")
