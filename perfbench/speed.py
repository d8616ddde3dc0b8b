"""Host-speed probe: scales measured times to one fixed host speed.

On a shared machine the speed of the host changes by up to 1.7x over seconds
to minutes, in phases longer than a run, because of other tenants.  A short
fixed pure-Python loop (a list convolution and lookups in a dict keyed by
pairs: the kinds of work of hgfq's ``Cyclo`` products and field tables) is
timed right before and right after every timed piece of work, and every
0.1 s while the benchmark waits for a child process.  That piece's time is
multiplied by ``PROBE_REF_S`` over the mean of the probes taken from its
start to its end: the time it would have taken at the host speed at which
the probe takes ``PROBE_REF_S``.  A slower or faster program still shows in
full, since the probe runs none of hgfq.  Raw times are kept beside the
scaled ones.
"""

from __future__ import annotations

import time

PROBE_REF_S = 0.0008

_X = list(range(1, 61))
_TABLE = {(a, b): a * b % 31 for a in range(31) for b in range(31)}


def _work():
    r = [0] * 120
    for i, u in enumerate(_X):
        for j, v in enumerate(_X):
            r[i + j] += u * v
    s = 0
    for a in range(31):
        for b in range(31):
            s = _TABLE[_TABLE[a, b], s]
    return r, s


def probe() -> float:
    """Seconds the fixed loop takes now (about 0.6 to 1.2 ms): the least of
    three timings, so that an interrupt in one of them does not count."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best


def at_ref_speed(seconds: float, probe_s: float) -> float:
    return seconds * PROBE_REF_S / probe_s


SAMPLES: list[float] = []


def sample() -> int:
    """Time the probe now, keep the time, and return its index in SAMPLES."""
    SAMPLES.append(probe())
    return len(SAMPLES) - 1


def scaled_since(seconds: float, first: int) -> float:
    """``seconds`` at the reference speed, the host speed being the mean of the
    samples from index ``first`` on."""
    recent = SAMPLES[first:]
    return at_ref_speed(seconds, sum(recent) / len(recent))
