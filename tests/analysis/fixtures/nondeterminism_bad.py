"""Known-bad fixture for the determinism lint.

Every function here exhibits exactly one nondeterminism hazard class the
lint must flag.  The module is deliberately *valid* Python that passes the
style checks (ruff) — only ``python -m repro.analysis lint`` complains —
so CI can assert the lint fails on it for the right reason.  It is never
imported by tests; it is linted as text.
"""

import random
import time
from datetime import datetime


def jitter():
    """unseeded-random: the process-global RNG ignores experiment seeds."""
    return random.random()


def stamp():
    """wall-clock: real time leaking into what should be simulated time."""
    return time.time()


def started():
    """wall-clock: datetime.now() is just as nondeterministic."""
    return datetime.now()


def drain(pending):
    """unordered-iteration: materializes hash order into a list."""
    return list({1, 2, 3} | pending)


def walk(switches):
    """unordered-iteration: for-loop over a set visits in hash order."""
    for switch in {name for name in switches}:
        switch.poll()


def due(now, deadline):
    """float-eq: exact equality between computed timestamps."""
    return now == deadline


def trace(tracer):
    """wall-clock: trace timestamps must come from sim time."""
    tracer.event("boot", time=time.time())
