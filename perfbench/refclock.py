"""A reference clock that takes the host's current speed out of timings.

On a shared host the same code runs up to about 1.9x slower for stretches of
seconds to minutes, and its CPU time slows with it, so neither wall time
nor CPU time repeats between runs.  The benchmark therefore times rounds of
a fixed reference kernel between operations and, every ``INTERVAL_S`` of
CPU time, inside them, and scales an operation's time by ``NOMINAL_S`` over
the mean round time around and during it: a timing is reported in seconds
on a host where one reference round takes ``NOMINAL_S``.  A change to the
engine moves the scaled times exactly as it moves the raw ones; a change in
host speed moves the reference with them.

The kernel is the engine's kind of work, written here so that no engine
change can speed it up: products of sparse bivariate polynomials held as
dicts from exponent pairs to ``Fraction`` coefficients.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

#: Seconds one reference round takes on the host the figures are scaled to.
NOMINAL_S = 0.001
#: Rounds per measurement between operations.
ROUNDS = 3
#: CPU seconds between two rounds taken inside an operation.
INTERVAL_S = 0.01
#: Factor polynomial 1 + x/2 - 2y/3 and the number of times it is applied.
_FACTOR = {(0, 0): Fraction(1), (1, 0): Fraction(1, 2),
           (0, 1): Fraction(-2, 3)}
_POWER = 7


def round_time() -> float:
    """Seconds one reference round takes now."""
    t0 = time.perf_counter()
    acc = {(0, 0): Fraction(1)}
    for _ in range(_POWER):
        out: dict = {}
        for (a, b), c in acc.items():
            for (d, e), f in _FACTOR.items():
                key = (a + d, b + e)
                out[key] = out.get(key, 0) + c * f
        acc = out
    return time.perf_counter() - t0


def measure() -> list[float]:
    """``ROUNDS`` reference round times, now."""
    return [round_time() for _ in range(ROUNDS)]


def scale(rounds: list[float]) -> float:
    """Factor from raw seconds to reference seconds for work done while
    these reference rounds were taken around and inside it."""
    return NOMINAL_S * len(rounds) / sum(rounds)


class Sampler:
    """Reference rounds taken inside an operation.

    While entered, a SIGVTALRM handler runs one round every ``INTERVAL_S``
    of the process's CPU time.  ``rounds`` holds their times and ``spent``
    the handler's own wall time, which the caller takes off the operation's.
    """

    def __init__(self):
        self.rounds: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGVTALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.rounds.append(round_time())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self.rounds, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
