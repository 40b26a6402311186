"""Benchmark of the isoperim command line, driven in-process.

Run from the repository root:

    python3 perfbench/run.py --workload exact-ngon --seed 1 --seconds 20 --trace 0

Each run generates the workload's inputs from ``--seed`` and repeats
passes of the workload's CLI calls through ``isoperim.cli.main(argv)``
until ``--seconds`` have passed; between passes it times fresh
interpreters doing ``import isoperim`` + ``load_domain`` + ``build_family``
(``setup_s``).  Untraced call times and set-up times are rescaled by
the machine speed measured around them (``speed.py``); raw wall times
are kept beside them.  Every call's outputs are checked.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.  A human-readable table goes to stdout,
followed by one JSON line; the full run record (environment, per-call
times, sha256 of every output file) is written under ``.perfbench/``.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("rearrange-square", "exact-ngon", "verify-square")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = {0: 7, 1: 3}
SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import isoperim
from isoperim import io
t1 = time.perf_counter()
isoperim.build_family(io.load_domain(sys.argv[2]))
t2 = time.perf_counter()
print(json.dumps({"file": isoperim.__file__, "import_s": t1 - t0, "setup_s": t2 - t0}))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure passes until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs and one set-up repeat (self-test)")
    return p.parse_args(argv)


# -- run record ---------------------------------------------------------------

def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_loc() -> int:
    return sum(p.read_bytes().count(b"\n") for p in sorted(SRC.rglob("*.py")))


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = None
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
            "platform": platform.platform(), "git_commit": git_commit(),
            "src_loc": src_loc()}


# -- measurement --------------------------------------------------------------

def setup_sample(domain: Path):
    """One fresh interpreter: import isoperim, load the domain, build the family.

    ``setup_s`` is the child's own time, rescaled by the reference
    interpreter timed right before and after it (``speed.py``); the raw
    time is kept as ``setup_wall_s``.
    """
    from speed import INTERPRETER_REFERENCE_S, interpreter_reference

    env = dict(os.environ, PYTHONHASHSEED="0")
    before = interpreter_reference(env)
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(domain)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    after = interpreter_reference(env)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(res["file"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up imported isoperim from {res['file']}")
    ref = (before + after) / 2
    res["setup_wall_s"] = res["setup_s"]
    res["setup_s"] = res["setup_wall_s"] * INTERPRETER_REFERENCE_S / ref
    res["reference_s"] = ref
    return res


def _clear(out: Path):
    if out.is_dir():
        for entry in out.iterdir():
            entry.unlink()


def _hashes(out: Path):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def _call(cli, argv):
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv), None
    except Exception:   # a crash is a failed op; the run goes on
        return None, traceback.format_exc()


def run_op(cli, checks, op, tracer, probe, keep_hashes):
    """One timed CLI call, then its output check (untimed).

    With a probe (untraced passes) ``seconds`` is the speed-normalised time
    and ``wall`` the raw one; without (traced passes) both are wall time.
    """
    _clear(op.out)
    if tracer is not None:
        tracer.op += 1
    if probe is not None:
        (code, crash), wall, seconds, ref = probe.timed(lambda: _call(cli, op.argv))
    else:
        t0 = perf_counter()
        code, crash = _call(cli, op.argv)
        wall = seconds = perf_counter() - t0
        ref = None
    error, info = (crash, {}) if crash else checks.check(op, code)
    res = {"command": op.command, "seconds": seconds, "wall": wall,
           "probe_s": ref, "exit": code, "error": error, "info": info}
    if keep_hashes:
        res["argv"] = op.argv
        res["sha256"] = _hashes(op.out) if op.out.is_dir() else {}
    return res


def measure(plan, seconds: float, traced_mode: bool, setup_repeats: int):
    """Closed-loop passes until `seconds` have passed, two at least (one
    untraced and one traced when tracing), so that no run's figures rest
    on a single pass.

    Set-up samples are taken one before each pass, the rest after the last,
    so that they spread over the run like the passes do: on a shared host
    the CPU speed can drift over seconds.
    """
    from isoperim import cli
    import checks
    from speed import Probe
    from tracing import Tracer

    tracer = Tracer() if traced_mode else None
    passes, setup = [], []
    start = perf_counter()
    with Probe() as probe:
        while True:
            if len(setup) < setup_repeats:
                setup.append(setup_sample(plan.domain))
            traced = traced_mode and len(passes) % 2 == 1
            gc.collect()
            lo = len(tracer.spans) if tracer else 0
            with tracer if traced else contextlib.nullcontext():
                ops = [run_op(cli, checks, op, tracer if traced else None,
                              None if traced_mode else probe, keep_hashes=not passes)
                       for op in plan.ops]
            passes.append({"traced": traced,
                           "seconds": sum(o["seconds"] for o in ops),
                           "wall": sum(o["wall"] for o in ops), "ops": ops,
                           "spans": (lo, len(tracer.spans)) if traced else None})
            if perf_counter() - start >= seconds and len(passes) >= 2:
                break
        while len(setup) < setup_repeats:
            setup.append(setup_sample(plan.domain))
    return passes, tracer, setup


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 0, -1):
        k = -(-pct * n // 100)       # nearest-rank index, 1-based
        if n - k >= 10:
            return pct, ordered[k - 1]
    return None, None


def subcommand_summary(passes):
    """Median time per subcommand and the minimizer tail (informational, not gated)."""
    by = {}
    for p in passes:
        if not p["traced"]:
            for o in p["ops"]:
                by.setdefault(o["command"], []).append(o["seconds"])
    out = {}
    for name, key in (("rearrange", "rearrange_s"), ("family", "family_s"),
                      ("verify", "verify_s")):
        if name in by:
            out[key] = {"value": statistics.median(by[name]), "unit": "s",
                        "calls": len(by[name])}
    if "minimizer" in by:
        ms = [1e3 * s for s in by["minimizer"]]
        out["minimizer_p50_ms"] = {"value": statistics.median(ms), "unit": "ms",
                                   "calls": len(ms)}
        pct, value = tail(ms)
        out["minimizer_tail_ms"] = {"value": value, "unit": "ms", "percentile": pct,
                                    "calls": len(ms)}
    return out


def wall_summary(passes, setup):
    """Raw wall-clock counterparts of the gated times and the reference
    speeds (informational, not gated)."""
    untraced = [p for p in passes if not p["traced"]]
    ops = [o for p in untraced for o in p["ops"]]
    return {
        "pass_wall_s": {"value": statistics.median(p["wall"] for p in untraced),
                        "unit": "s"},
        "call_p50_wall_ms": {"value": 1e3 * statistics.median(o["wall"] for o in ops),
                             "unit": "ms"},
        "setup_wall_s": {"value": statistics.median(r["setup_wall_s"] for r in setup),
                         "unit": "s"},
        "probe_p50_ms": {"value": 1e3 * statistics.median(o["probe_s"] for o in ops),
                         "unit": "ms"},
        "reference_interpreter_s": {"value": statistics.median(
            r["reference_s"] for r in setup), "unit": "s"},
    }


def end_to_end(passes, setup):
    untraced = [p for p in passes if not p["traced"]]
    calls = [o["seconds"] for p in untraced for o in p["ops"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in setup),
        "pass_s": statistics.median(p["seconds"] for p in untraced),
        "call_p50_ms": 1e3 * statistics.median(calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(passes, tracer, setup, loc):
    from tracing import layer_metrics

    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    rows = [layer_metrics(tracer.spans, *p["spans"], [o["info"] for o in p["ops"]])
            for p in traced]
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    out["trace.overhead_s"] = (statistics.median(p["seconds"] for p in traced)
                               - statistics.median(p["seconds"] for p in untraced))
    out["import_s"] = statistics.median(r["import_s"] for r in setup)
    out["src.loc"] = loc
    return out


# -- entry point --------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isoperim" / "__init__.py").is_file():
        print(f"error: no isoperim sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:                  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import isoperim
    from workloads import make_plan

    if not Path(isoperim.__file__).resolve().is_relative_to(SRC):
        print(f"error: isoperim imported from {isoperim.__file__}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    plan = make_plan(args.workload, args.seed, run_dir / "inputs", tiny=args.tiny)
    repeats = 1 if args.tiny else SETUP_REPEATS[args.trace]
    passes, tracer, setup = measure(plan, args.seconds, bool(args.trace), repeats)

    env = environment()
    if args.trace:
        values = per_layer(passes, tracer, setup, env["src_loc"])
    else:
        values = end_to_end(passes, setup)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    ops = [o for p in passes for o in p["ops"]]
    failed = [o for o in ops if o["error"]]
    summary = subcommand_summary(passes)
    if not args.trace:
        summary.update(wall_summary(passes, setup))
    summary["fail_frac"] = {"value": len(failed) / len(ops), "unit": "ratio",
                            "ops": len(ops)}

    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    record = {"workload": args.workload, "why": why,
              "loop": "closed, 1 client, 1 thread", "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
              "sizes": plan.sizes, "inputs": plan.inputs, "environment": env,
              "setup": setup, "metrics": metrics, "subcommands": summary,
              "attempted": len(ops), "failed": len(failed),
              "failures": [{"command": o["command"], "error": o["error"]}
                           for o in failed[:20]],
              "passes": [{"traced": p["traced"], "seconds": p["seconds"],
                          "wall": p["wall"],
                          "calls": [o["seconds"] for o in p["ops"]],
                          "call_walls": [o["wall"] for o in p["ops"]]}
                         for p in passes],
              "first_pass_ops": passes[0]["ops"]}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(tracer.spans))

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, {len(ops)} calls, {len(failed)} failed")
    for name, m in list(metrics.items()) + list(summary.items()):
        print(f"{name:36s} {m['value']!r:>24} {m['unit']}")
    for f in record["failures"]:
        print(f"FAILED {f['command']}: {f['error']}")
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
