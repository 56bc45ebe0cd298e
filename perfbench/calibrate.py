"""Host-speed probe: a fixed pure-Python kernel timed between jobs.

The host of the development sandbox is shared, and its speed flips between
states about 1.6x apart within fractions of a second, while the share of
time spent in each state drifts from minute to minute: the same wprep job
list ran at 9 jobs/s in one run and at 21 jobs/s half a minute later.  No
statistic of wall times alone is steady under that.  The worker therefore
times this kernel just before and just after every job, and the benchmark
reports each job's time rescaled to a host on which the kernel takes
``REFERENCE_S``:

    scaled = elapsed * REFERENCE_S / probe

where ``probe`` is the mean of the two bracketing probes.  The kernel is a
schoolbook product of two 60-term integer lists mod 3^24, the kind of
arithmetic iwkit spends its time in, and uses none of iwkit's code, so no
change to the program can move it.

Start-up work (reading and unmarshalling modules, loading shared libraries)
follows the host differently from that kernel, so ``setup_s`` has a probe of
its own: a fresh interpreter that imports NumPy and nothing of iwkit
(``START_SCRIPT``), timed alternately with the iwkit start-ups and rescaled
to ``REFERENCE_START_S`` the same way.
"""

from __future__ import annotations

import time

# Probe time of the development sandbox host in its slower, more common
# state (Intel Xeon, 2.1 GHz, Python 3); a fixed constant, so that scaled
# times stay comparable between runs, commits and hosts.
REFERENCE_S = 0.00045

# Typical time of START_SCRIPT, interpreter start to the end of its import,
# on the same host.
REFERENCE_START_S = 0.15
START_SCRIPT = "import time, numpy; print(repr(time.monotonic()))"

_Q = 3 ** 24
_A = [i * 7919 % _Q for i in range(60)]
_B = [i * 104729 % _Q for i in range(60)]
_REPEATS = 3


def _kernel() -> list[int]:
    out = [0] * (len(_A) + len(_B))
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            out[i + j] += x * y
    return [c % _Q for c in out]


def probe() -> float:
    """Seconds the kernel takes now: the fastest of a few back-to-back
    runs, so that one interrupt does not count as a slow host."""
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(elapsed: float, probe_s: float, reference_s: float = REFERENCE_S) -> float:
    """``elapsed`` seconds measured while the probe took ``probe_s``,
    rescaled to a host on which it takes ``reference_s``."""
    return elapsed * reference_s / probe_s
