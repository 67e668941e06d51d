"""Host-speed reference: a short fixed piece of work, timed on each side of
every timed pavekit call, so that the call's time can be given at a fixed
host speed.

On the shared 2-vCPU VM the bounds were set on, the speed of a vCPU
swings between a fast and a slow phase about 1.6x apart, in phases that last
from under a second to minutes, and process CPU time follows wall time.  No
statistic of raw wall time over a 32 s run is steady there: the median of
the same jobs moved by a third from one run to the next.  The reference
work is a JSON round trip with a SHA-256 plus a batch of small eigensolves,
the same mix of Python, JSON and LAPACK work that pavekit does, and it slows
down with the host as pavekit does.  Over 60 s of repeated wide-frames and
pave-search calls, the median call time in six-second windows varied with a
standard deviation of 9-14%; the median of call time / reference time
varied by 2-4%.

Names are bound at import, before a traced segment wraps numpy.linalg and
hashlib, so the reference never runs traced code.
"""

from __future__ import annotations

from hashlib import sha256
from json import dumps, loads
from time import perf_counter

import numpy as np
from numpy.linalg import eigvalsh

# About the reference's time on a fast phase of the host above, so that
# scaled times read as seconds there.  Its value only sets the unit.
NOMINAL_S = 0.0015

_DOC = {"rows": 20, "cols": 15, "field": "complex",
        "entries": [[float(i), 0.5 * i] for i in range(300)]}
_SYM = np.add.outer(np.arange(8.0), np.arange(8.0)) % 5.0


def _once():
    start = perf_counter()
    for _ in range(3):
        text = dumps(_DOC)
        loads(text)
        sha256(text.encode()).digest()
    for _ in range(60):
        eigvalsh(_SYM)
    return perf_counter() - start


def measure():
    """The faster of two timings of the reference work, in seconds."""
    return min(_once(), _once())


def scale(seconds, before, after):
    """`seconds` of wall time, taken between reference timings `before` and
    `after`, expressed at the nominal host speed."""
    return seconds * NOMINAL_S * 2.0 / (before + after)
