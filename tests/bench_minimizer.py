"""Hand-run timing of the stages of one ``minimizer`` call, with a JSON record.

    PYTHONPATH=src python tests/bench_minimizer.py [--repeats 21]
        [--src DIR --label NAME ...] [--json BENCH_minimizer.json]

pytest does not collect this file.  The input is the ``exact-ngon``
256-gon of the perfbench seed 1 (a jittered 2:1 ellipse), at two volumes:
half the largest-ball measure (``disk``, a point core) and halfway from
the hull measure to the area (``rounded``, an eroded polygon core).  For
each volume, each repeat times, one after another and on what the stage
before it made, as a ``minimizer`` call runs them:

- parse: ``cli.build_parser(argv).parse_args(argv)``;
- load_domain: ``io.load_domain`` of the domain file;
- build_family: ``build_family`` of that domain, erosion structure included;
- minimizer: ``MinimizerFamily.minimizer`` of the volume;
- json: ``io.dump_json`` of the shape's dict to ``shape.json``;
- svg: ``svgout.shape_svg`` written to ``shape.svg``;
- main: the whole ``cli.main(argv)`` call, outputs included.

The trees, the repeats and the ``--json`` record are those of
``tests/benchrecord.py``: each ``--src`` tree (default: this repo's) runs
in a worker process of its own, the trees alternate per repeat, and the
median and quartiles of each stage are printed per tree, with paired
ratios to the first tree.
"""

import atexit
import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

from benchrecord import ROOT, main

VOLUMES = ("disk", "rounded")
STEPS = ("parse", "load_domain", "build_family", "minimizer", "json", "svg", "main")
STAGES = tuple(f"{step} {tag}" for tag in VOLUMES for step in STEPS)


def stages(src):
    """(name, thunk) per timed stage, on the seed-1 exact-ngon domain."""
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from isoperim import cli, svgout
    from isoperim import io as iio
    from isoperim.family import build_family

    work = Path(tempfile.mkdtemp(prefix="bench_minimizer-"))
    atexit.register(shutil.rmtree, work)
    plan = workloads.plan_exact_ngon(1, work, workloads.SIZES["exact-ngon"])
    path = str(plan.domain)
    family = build_family(iio.load_domain(path))
    balls = family.balls
    volumes = {"disk": 0.5 * balls.ball_measure,
               "rounded": 0.5 * (balls.hull_measure + family.v_max)}
    out = work / "out"
    out.mkdir()
    made = {}

    def timed(tag):
        v = volumes[tag]
        assert family.minimizer(v).kind == tag
        argv = ["minimizer", "--domain", path, "--volume", repr(v), "--out", str(out)]

        def load():
            made["domain"] = iio.load_domain(path)

        def build():
            made["family"] = build_family(made["domain"])

        def minimizer():
            made["shape"] = made["family"].minimizer(v)

        def svg():
            with open(out / "shape.svg", "w") as fh:
                fh.write(svgout.shape_svg(made["domain"], made["shape"]))

        def whole():
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0

        return [(f"parse {tag}", lambda: cli.build_parser(argv).parse_args(argv)),
                (f"load_domain {tag}", load), (f"build_family {tag}", build),
                (f"minimizer {tag}", minimizer),
                (f"json {tag}", lambda: iio.dump_json(made["shape"].as_dict(),
                                                      out / "shape.json")),
                (f"svg {tag}", svg), (f"main {tag}", whole)]

    return [stage for tag in VOLUMES for stage in timed(tag)]


if __name__ == "__main__":
    main(__file__, __doc__, STAGES, stages, "exact-ngon seed 1, 256-gon")
