"""The shared driver and ``--json`` record of the hand-run stage benchmarks.

A script (``tests/bench_report.py``, ``tests/bench_verify.py``) names its
stages and gives a function that builds, for one source tree, one thunk
per stage.  ``main`` parses the common options:

    --repeats N                   how many times every stage is timed
    --src DIR --label NAME ...    the trees to compare (default: this repo's)
    --json PATH                   the record file to write

Each ``--src`` tree runs in a worker process of its own (the script again,
with ``--worker DIR``), and every repeat runs each tree in turn, so that
trees such as a copy of the parent commit and this one see the same
drift of a shared host.  The median and quartiles of each stage are
printed per tree, and for each tree after the first the median of its
per-repeat ratios to the first and the number of repeats in which it was
lower.  ``--json PATH`` stores each tree's figures under its ``--label``
in PATH, beside the records already there, with the line count of each
module of the tree, its git commit (null outside a checkout) and whether
its sources differ from that commit, ``PYTHONDONTWRITEBYTECODE``, whether
the package had a ``__pycache__`` before the run, and the number of CPUs
the process may use (``os.sched_getaffinity``).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(doc, repeats, argv):
    p = argparse.ArgumentParser(description=doc.splitlines()[0])
    p.add_argument("--repeats", type=int, default=repeats)
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


def _serve(timed, names):
    """Time every stage once per line read on stdin; answer with a JSON list."""
    assert [name for name, _ in timed] == list(names)
    for _ in sys.stdin:
        times = []
        for _, fn in timed:
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        print(json.dumps(times), flush=True)


def main(script, doc, names, stages, input_name, repeats=21, argv=None):
    """Run the benchmark of ``script``: ``stages(src)`` gives one (name, thunk)
    per stage name in ``names``, on the input that ``input_name`` describes."""
    args = _parse(doc, repeats, argv)
    if args.worker:
        return _serve(stages(args.worker), names)
    states = [tree_state(src) for src in args.src]   # before the workers compile
    workers = [subprocess.Popen([sys.executable, script, "--worker", str(src)],
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
    nproc = len(os.sched_getaffinity(0))
    print(f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '(unset)')}, "
          f"{nproc} CPUs")
    records = json.loads(args.json.read_text()) if args.json and args.json.exists() else {}
    width = max(14, *map(len, names))
    for k, (label, state, runs) in enumerate(zip(args.label, states, times)):
        print(f"tree {k}: {label} ({args.src[k]}), __pycache__ "
              f"{'present' if state['__pycache__'] else 'absent'}")
        figures = {}
        for i, name in enumerate(names):
            ts = [run[i] for run in runs]
            q1, med, q3 = statistics.quantiles(ts, n=4)
            figures[name] = {"median_ms": 1e3 * med, "q1_ms": 1e3 * q1, "q3_ms": 1e3 * q3}
            line = f"  {name:{width}s} median {1e3 * med:8.2f} ms  [{1e3 * q1:.2f}-{1e3 * q3:.2f}]"
            if k:
                ratios = [t / run[i] for t, run in zip(ts, times[0])]
                line += (f"  x{statistics.median(ratios):.3f} of tree 0, lower in "
                         f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}")
            print(line)
        records[label] = {"input": input_name, "repeats": args.repeats, "nproc": nproc,
                          "stages": figures, **state}
    if args.json:
        args.json.write_text(json.dumps(records, indent=1) + "\n")
