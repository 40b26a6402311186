"""Command-line front end.

Subcommands: ``minimizer`` (one shape), ``family`` (a volume sweep),
``rearrange`` (convex rearrangement of a grid function plus its report),
``verify`` (competitor sweep and optional annealing oracle).

Exit codes: 0 success, 2 parse or usage error (sampler and annealing
schedule failures included), 3 geometry error, 4 volume out of range,
5 domain mismatch, 6 verification failure.
Outputs are deterministic for a fixed config and seed; numbers are
pinned to 9 significant digits.
"""

import argparse
import os
import pickle
import sys

import numpy as np

from . import io, svgout
from .errors import DomainMismatchError, GeometryError, VolumeOutOfRangeError
from .family import KINDS, build_family

EXIT_PARSE = 2
EXIT_GEOMETRY = 3
EXIT_VOLUME = 4
EXIT_MISMATCH = 5
EXIT_CHECK = 6
# the first entry whose class matches gives the exit code: most specific first
_EXIT_CODES = ((VolumeOutOfRangeError, EXIT_VOLUME), (DomainMismatchError, EXIT_MISMATCH),
               (GeometryError, EXIT_GEOMETRY), ((OSError, ValueError), EXIT_PARSE))

ANNEAL_BAND = 0.05
SWEEP_MAX_STEPS = 10_000
SAMPLES_MAX = 10 ** 6
LEVELS_MIN, LEVELS_MAX = 16, 4096
SUBCOMMANDS = ("minimizer", "family", "rearrange", "verify")


def _volume_from_args(args, v_max) -> float:
    if args.volume is not None:
        v = args.volume
    else:
        if not 0.0 < args.volume_fraction < 1.0:
            raise VolumeOutOfRangeError("--volume-fraction must be in (0, 1)")
        v = args.volume_fraction * v_max
    if not 0.0 < v <= v_max:
        raise VolumeOutOfRangeError(f"volume {v} outside (0, {v_max}]")
    return float(v)


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_minimizer(args) -> int:
    domain = io.load_domain(args.domain)
    family = build_family(domain)
    v = _volume_from_args(args, family.v_max)
    shape = family.minimizer(v)
    out = _outdir(args)
    text = io.dump_json(shape.as_dict(), os.path.join(out, "shape.json"))
    with open(os.path.join(out, "shape.svg"), "w") as fh:
        fh.write(svgout.shape_svg(domain, shape))
    if args.json:
        print(text)
    else:
        print(f"case={shape.kind} v={shape.volume:.9g} "
              f"P={shape.perimeter:.9g} k={shape.curvature:.9g}")
    return 0


def _parse_sweep(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("sweep must be 'a:b:n'")
    a, b = float(parts[0]), float(parts[1])
    n = int(parts[2])
    if not 2 <= n <= SWEEP_MAX_STEPS:
        raise ValueError(f"--sweep needs 2 to {SWEEP_MAX_STEPS} steps, got {n}")
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("sweep ends must be finite")
    if not a < b:
        raise ValueError("sweep needs a < b")
    return a, b, n


def cmd_family(args) -> int:
    a, b, n = _parse_sweep(args.sweep)
    domain = io.load_domain(args.domain)
    family = build_family(domain)
    if a <= 0.0 or b > family.v_max:
        raise VolumeOutOfRangeError("sweep outside (0, |domain|]")
    vs = np.linspace(a, b, n)
    # every row from one classification of the whole sweep; only the drawn
    # shapes are built
    vs = family._check_volume(vs)
    regime, rho, half = family._classify(vs)
    perimeter = family._perimeter(regime, rho, half)
    with np.errstate(divide="ignore"):
        curvature = np.where(rho > 0.0, 1.0 / rho, np.inf)
    rows = list(zip(vs.tolist(), [KINDS[k] for k in regime], rho.tolist(),
                    perimeter.tolist(), curvature.tolist()))
    out = _outdir(args)
    io.write_family_csv(rows, os.path.join(out, "family.csv"))
    keep = [family.minimizer(v) for v in vs[:: max(1, n // 24)]]
    with open(os.path.join(out, "family.svg"), "w") as fh:
        fh.write(svgout.family_svg(domain, keep))
    if args.json:
        print(io.json_text([{"v": r[0], "case": r[1], "r": r[2],
                             "perimeter": r[3],
                             "curvature": None if not np.isfinite(r[4]) else r[4]}
                            for r in rows]))
    else:
        print(f"{n} volumes in [{a:.9g}, {b:.9g}]; "
              f"cases: {' '.join(sorted(set(r[1] for r in rows)))}")
    return 0


def cmd_rearrange(args) -> int:
    from . import rearrange
    if not LEVELS_MIN <= args.levels <= LEVELS_MAX:
        raise ValueError(f"--levels must be from {LEVELS_MIN} to {LEVELS_MAX}, "
                         f"got {args.levels}")
    domain = io.load_domain(args.domain)
    family = build_family(domain)
    u = io.read_grid(args.grid, domain)
    ut = rearrange.convex_rearrangement(u, family)
    report = rearrange.rearrangement_report(u, ut, args.levels)
    out = _outdir(args)
    io.write_grid(ut, os.path.join(out, "u_tilde.grid"))
    text = io.dump_json(report.as_dict(), os.path.join(out, "report.json"))
    io.write_report_csv(report, os.path.join(out, "report.csv"))
    _, levels = rearrange._threshold_grid(ut.values, 12)
    blocks = rearrange.march_levels(ut.values, ut.origin, ut.spacing, levels)
    contour_sets = [s for _, pts, n in blocks for s in np.split(pts, np.cumsum(n)[:-1])]
    with open(os.path.join(out, "levels.svg"), "w") as fh:
        fh.write(svgout.contours_svg(domain, contour_sets))
    if args.json:
        print(text)
    else:
        gap = report.bv_u[2] - report.bv_ut[2]
        print(f"equimeasurable={'PASS' if report.equimeasurable_pass else 'FAIL'} "
              f"bv={'PASS' if report.bv_pass else 'FAIL'} "
              f"bv_u={report.bv_u[2]:.9g} bv_ut={report.bv_ut[2]:.9g} "
              f"gap={gap:.9g}")
    return 0 if report.passed else EXIT_CHECK


def _check_verify_counts(args):
    from . import oracle
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if args.samples > SAMPLES_MAX:
        raise ValueError(f"--samples must be at most {SAMPLES_MAX}, got {args.samples}")
    if not 0 <= args.anneal <= oracle.ANNEAL_MAX_GRID:
        raise ValueError(f"--anneal must be 0 (off) or a grid width from 1 to "
                         f"{oracle.ANNEAL_MAX_GRID}, got {args.anneal}")


def _best_chain(domain, v, grid_n, seed):
    """The annealing chain of seeds seed, seed + 1, seed + 2 with the least
    perimeter, the first of them on a tie."""
    from . import oracle
    best = None
    for s in range(3):
        res = oracle.anneal_discrete(domain, v, grid_n, seed=seed + s)
        if best is None or res.perimeter < best.perimeter:
            best = res
    return best


class _Chains:
    """``_best_chain`` in a forked child that runs while the caller sweeps, where
    fork exists and the process may use at least two CPUs; elsewhere it runs
    in-process when ``result`` is called.

    The child pickles (True, result) or (False, the exception it raised) into
    a pipe and leaves only through ``os._exit``, with status 0 once the whole
    record is written, so it flushes no inherited stdio buffer and runs none
    of the parent's clean-up.  ``result`` and ``cancel`` both reap the child.
    """

    def __init__(self, domain, v, grid_n, seed):
        self._args, self._pid = (domain, v, grid_n, seed), None
        if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                and len(os.sched_getaffinity(0)) >= 2):
            return
        r, w = os.pipe()
        try:
            self._pid = os.fork()
        except OSError:   # no process to spare: run in-process
            os.close(r)
            os.close(w)
            return
        if self._pid == 0:
            status = 1
            try:
                os.close(r)
                try:
                    record = (True, _best_chain(*self._args))
                except BaseException as exc:
                    record = (False, exc)
                with open(w, "wb") as fh:
                    pickle.dump(record, fh)
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        self._pipe = open(r, "rb")

    def result(self):
        """The best chain, or the exception the chains raised, raised here."""
        if self._pid is None:
            return _best_chain(*self._args)
        try:
            data = self._pipe.read()
        except BaseException:
            self.cancel()
            raise
        self._pipe.close()
        _, status = os.waitpid(self._pid, 0)
        if status:
            raise ChildProcessError(f"annealing chains ended without a result (exit "
                                    f"status {os.waitstatus_to_exitcode(status)})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    def cancel(self):
        """Kill the child, if there is one, and reap it."""
        if self._pid is not None:
            import signal
            os.kill(self._pid, signal.SIGKILL)
            self._pipe.close()
            os.waitpid(self._pid, 0)


def cmd_verify(args) -> int:
    from . import oracle
    _check_verify_counts(args)
    domain = io.load_domain(args.domain)
    family = build_family(domain)
    v = _volume_from_args(args, family.v_max)
    if v >= family.v_max:
        raise VolumeOutOfRangeError("verification needs v strictly below |domain|")
    # the chains run beside the sweep; a sweep error still wins over theirs
    chains = _Chains(domain, v, args.anneal, args.seed) if args.anneal else None
    try:
        report = oracle.verify_minimality(family, v, args.samples, seed=args.seed)
    except BaseException:
        if chains is not None:
            chains.cancel()
        raise
    result = report.as_dict()
    ok = report.passed
    if args.anneal:
        best = chains.result()
        ratio = best.perimeter / report.minimizer_perimeter
        result["anneal"] = {"grid_n": args.anneal, "perimeter": best.perimeter,
                            "ratio": ratio, "seed": best.seed}
        ok = ok and abs(ratio - 1.0) <= ANNEAL_BAND
    result["ok"] = ok
    out = _outdir(args)
    if args.anneal:
        io.write_pgm(best.grid, os.path.join(out, "anneal.pgm"))
    text = io.dump_json(result, os.path.join(out, "verify.json"))
    if args.json:
        print(text)
    else:
        line = (f"competitors={report.n_samples} violations={len(report.violations)} "
                f"min_gap={report.min_gap:.9g}")
        if args.anneal:
            line += f" anneal_ratio={result['anneal']['ratio']:.9g}"
        print(line)
    return 0 if ok else EXIT_CHECK


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for argv.  If argv starts with a subcommand name, only that
    subcommand gets its arguments (and their imports); argparse hands it the rest
    of argv alone, so every parse, help text and error line is the full parser's."""
    top = argparse.ArgumentParser(prog="isoperim", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    only = argv[0] if argv and argv[0] in SUBCOMMANDS else None

    def command(name, func, help, volume=False, grid=False):
        p = sub.add_parser(name, help=help)
        if only not in (None, name):
            return None
        p.set_defaults(func=func)
        p.add_argument("--domain", required=True, help="domain JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--json", action="store_true",
                       help="machine-readable stdout")
        if volume:
            g = p.add_mutually_exclusive_group(required=True)
            g.add_argument("--volume", type=float)
            g.add_argument("--volume-fraction", type=float)
        if grid:
            p.add_argument("--grid", required=True, help="grid text file")
        return p

    command("minimizer", cmd_minimizer, "construct one minimizer shape", volume=True)
    if p := command("family", cmd_family, "sweep the family over volumes"):
        p.add_argument("--sweep", required=True, metavar="a:b:n")
    if p := command("rearrange", cmd_rearrange, "convex rearrangement of a grid function",
                    grid=True):
        from .rearrange import DEFAULT_LEVELS
        p.add_argument("--levels", type=int, default=DEFAULT_LEVELS)
    if p := command("verify", cmd_verify, "competitor sweep and annealing oracle", volume=True):
        p.add_argument("--samples", type=int, default=10000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--anneal", type=int, default=0, metavar="N",
                       help="also run the annealing oracle on an N^2 grid")
    return top


def main(argv=None) -> int:
    parser = build_parser(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:   # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
