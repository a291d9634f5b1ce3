"""Fixed references that measure how fast the host is right now.

The benchmark was set on a 2-vCPU Intel Xeon (2.1 GHz) virtual machine
whose neighbours slow the same work by up to 1.9x, in bursts of a fraction
of a second and in stretches of minutes.  Medians and minima of raw times
then measure the neighbours: runs of identical work on it spread by 25-45%.
So while a timed section runs, a :class:`Sampler` interrupts it every
``SAMPLE_INTERVAL_S`` of wall time and runs :func:`probe`, work shaped like
one statistic evaluation, and each timed unit is reported at the probe's
uncontended speed:

    normalized = sum over the stretches of the unit between two probes of
                 stretch * PROBE_REFERENCE_S / mean of those two probe times

counting the last probe before the unit and the first one after it; the
probes' own time is left out.  Contention that slows the unit and the probe
alike cancels out; raw times are printed alongside.

The probe is kept out of hactest's reach: it runs with the garbage
collector off (so heap that hactest keeps alive cannot trigger a collection
inside it), after one untimed pass over its own data (so the cache state
hactest leaves does not count), and the sampler records how many threads
the process has at each probe, which the worker checks: a thread of
hactest's left running while the probe runs would slow the probe and
flatter hactest.

Process start-up slows less than compute under the same contention (1.3x
against the probe's 1.75x), so set-up is scaled instead by a bare
interpreter that imports numpy, started just before each set-up process:
over eight runs of nine such pairs the median ratio spread by 2% (quartile
spread), the raw set-up median by 15%.
"""
from __future__ import annotations

import bisect
import gc
import os
import signal
import threading
import time

import numpy as np

#: the probe's time on an uncontended core of that host (Python 3.11, numpy 2.4)
PROBE_REFERENCE_S = 1.5e-3
#: wall time between two probes while a timed section runs
SAMPLE_INTERVAL_S = 0.05
#: the set-up reference: a bare interpreter that imports numpy and says so
BARE_START = "import numpy; print('READY', flush=True)"
#: its time to READY on that host when uncontended
BARE_START_REFERENCE_S = 0.11

_rng = np.random.default_rng(1)
_X = _rng.standard_normal((40, 4))
_ANNIHILATOR = np.eye(40) - _X @ np.linalg.solve(_X.T @ _X, _X.T)
_SORTED = np.sort(_rng.standard_normal(100))


def _evaluation(i: int) -> None:
    """One miniature statistic evaluation.

    Seeds a generator, draws an AR(1) path in a Python loop, projects out a
    40 x 4 design, fits a VAR(1) to the scores (SVD rank check, normal
    equations), runs a Python lag loop, a kernel-weighted lag sum and a
    Cholesky factorization, then a quantile and a searchsorted: the same
    numpy entry points and Python overhead as the real thing, so
    neighbours slow it the way they slow hactest.
    """
    rng = np.random.default_rng(np.random.SeedSequence((i, 7)))
    prev, path = 0.0, []
    for z in rng.standard_normal(40).tolist():
        prev = 0.5 * prev + 0.8 * z
        path.append(prev)
    V = _X.T * (_ANNIHILATOR @ np.array(path))
    V1, Vp = V[:, :-1], V[:, 1:]
    np.linalg.svd(V1, compute_uv=False)
    Z = Vp - np.linalg.solve(V1 @ V1.T, V1 @ Vp.T).T @ V1
    s = Z.sum(axis=0)
    [float(s[j:] @ s[: s.size - j]) for j in range(20)]
    psi = Z @ Z.T
    for j in range(1, 6):
        g = Z[:, j:] @ Z[:, :-j].T
        psi += (1.0 - j / 6.0) * (g + g.T)
    np.linalg.cholesky(psi + np.eye(4))
    np.searchsorted(_SORTED, np.quantile(_SORTED, 0.9))


def probe() -> float:
    """Seconds taken now by ten miniature statistic evaluations (after one untimed)."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        _evaluation(10)
        t0 = time.perf_counter()
        for i in range(10):
            _evaluation(i)
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def thread_count() -> int:
    """Operating-system threads of this process (Python threads where /proc is absent)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


class Sampler:
    """Runs :func:`probe` every ``interval`` seconds of wall time (SIGALRM).

    ``starts``/``ends`` bracket each probe, ``probes`` holds its time and
    ``threads`` the process's thread count when it ran.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        self.interval = interval
        self.starts, self.ends, self.probes, self.threads = [], [], [], []
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a signal that lands while a probe runs is dropped
            return
        self._busy = True
        try:
            self.threads.append(thread_count())
            start = time.perf_counter()
            self.probes.append(probe())
            self.starts.append(start)
            self.ends.append(time.perf_counter())
        finally:
            self._busy = False

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        return False

    def _window(self, t0: float, t1: float) -> range:
        """Indices of the probes from the last one before t0 to the first one after t1."""
        lo = max(bisect.bisect_right(self.starts, t0) - 1, 0)
        return range(lo, min(bisect.bisect_left(self.starts, t1) + 1, len(self.starts)))

    def raw(self, t0: float, t1: float) -> float:
        """The unit timed from t0 to t1, less the probes inside it."""
        return t1 - t0 - sum(max(0.0, min(self.ends[j], t1) - max(self.starts[j], t0))
                             for j in self._window(t0, t1))

    def normalized(self, t0: float, t1: float) -> float:
        """The unit timed from t0 to t1, less its probes, at the probe's reference speed.

        Each stretch of the unit between two probes is scaled by the mean of
        those two, so contention that changes within a long unit is followed.
        """
        window = self._window(t0, t1)
        seconds, at = 0.0, t0
        for j in window[1:]:
            end = min(self.starts[j], t1)
            if end > at:
                seconds += (end - at) / (0.5 * (self.probes[j - 1] + self.probes[j]))
            at = max(at, self.ends[j])
        return seconds * PROBE_REFERENCE_S


def normalized_start(seconds: float, bare_start_seconds: float) -> float:
    return seconds * BARE_START_REFERENCE_S / bare_start_seconds
