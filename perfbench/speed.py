"""Machine-speed probe: a fixed reference computation timed during the run.

On a shared host the CPU speed one thread gets drifts by tens of percent
in phases of seconds to minutes, so raw wall times of the same code differ
more between runs than the changes the benchmark has to resolve.  The
probe times a fixed reference computation right before and after every
timed call and, from a 0.1 s interval timer, during it.  The reference is
the kind of code the program's slow loops run: numpy scalar indexing and
single draws from a numpy generator (the annealer, the bisections) and
interpreter-heavy dict, string and json work.  A bare integer loop or
small vectorised numpy calls slow down less than the program does when
the host is busy, so they under-correct.  A call's time is its wall
time, less the probes that ran inside it, rescaled to the speed at which
one reference computation takes ``REFERENCE_S``:

    normalised = (wall - probe time inside) * REFERENCE_S / mean(probe durations)

The rescaling changes the unit of time, not what is timed: a change to
the program moves the normalised time by the same share as the wall time
on a machine whose speed holds still.  Raw wall times are kept beside the
normalised ones in the run record.

Set-up time (a fresh interpreter importing the program) does not follow
the in-process probe: it is mostly interpreter start-up, file reads and
page faults.  It is rescaled the same way by a reference interpreter
that starts, imports numpy and exits, timed right before and after each
set-up child (``interpreter_reference``).
"""

import json
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0012    # nominal duration of one reference computation
PERIOD_S = 0.1          # interval of the in-call probes
INTERPRETER_REFERENCE_S = 0.18  # nominal duration of one reference interpreter


def _numpy_scalars():
    g = np.zeros((16, 16), dtype=bool)
    for k in range(1600):
        j, i = k % 16, (k * 7) % 16
        g[j, i] = not g[j, i]


def _numpy_draws():
    r = np.random.default_rng(0)
    s = 0.0
    for k in range(160):
        s += int(r.integers(16)) + float(np.exp(-k / 160.0)) + r.random()


def _interpreter():
    d = {}
    for i in range(400):
        k = "k%d" % (i % 97)
        d[k] = d.get(k, 0.0) + i * 0.5
    text = json.dumps(d)
    json.loads(text)
    sorted((v, k) for k, v in d.items())
    [float(i) ** 0.5 for i in range(600)]


def reference() -> float:
    """Seconds taken by one fixed reference computation."""
    t0 = perf_counter()
    _numpy_scalars()
    _numpy_draws()
    _interpreter()
    return perf_counter() - t0


def interpreter_reference(env) -> float:
    """Seconds taken by a fresh interpreter that imports numpy and exits."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                   timeout=120)
    return perf_counter() - t0


class Probe:
    """Times calls and rescales them by the reference speed around them.

    Use it as a context manager: it owns the SIGALRM handler for its
    lifetime and arms the timer only inside ``timed``.  Signal handlers run
    only in the main thread between bytecodes, so an in-call probe waits
    for a running C call to return; the probes before and after the call
    cover calls that never yield.
    """

    def __init__(self):
        self.durations = []     # every probe of the run, in order
        self._old = None

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def sample(self) -> float:
        d = reference()
        self.durations.append(d)
        return d

    def _on_alarm(self, signum, frame):
        self.sample()

    def timed(self, fn):
        """``(result, wall_s, normalised_s, mean probe s)`` of ``fn()``."""
        lo = len(self.durations)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            t1 = perf_counter()
            hi = len(self.durations)
        self.sample()
        wall = t1 - t0 - sum(self.durations[lo + 1:hi])
        mean = statistics.fmean(self.durations[lo:])
        return result, wall, wall * REFERENCE_S / mean, mean
