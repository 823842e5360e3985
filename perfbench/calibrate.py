"""The calibration kernel: a fixed piece of pure-Python work that measures
how fast the machine runs the interpreter at a given moment.

The machine the benchmark was built on runs the same work up to 1.8x
slower in spells that last from under a second to minutes, and a whole
run can fall inside one.  The kernel is timed after every batch and
every set-up, at most every SPACING seconds.  The time of each batch
and set-up is then scaled by REF_SECONDS over the fastest kernel time
within WINDOW seconds of it: a spell slows the kernel and the measured
work alike, so it drops out.
The window is wide enough that it almost always holds a kernel sample
from the machine's fastest moments when there are any, so work timed in
a brief slow moment is not scaled down (the per-input minimum then
drops it), and narrow enough to follow the spells that last seconds.

The kernel does the kind of work the library does (tuple slices, set
and dict lookups, a list used as a stack) on data of its own.  It never
calls the library, so no change to the library moves it.  Changing it
changes every scaled figure: it is part of the benchmark's definition.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter
from typing import List, Tuple

# A kernel call takes about this long on the machine the benchmark was
# built on, in its fast spells; scaled figures are seconds on a machine
# where the kernel takes exactly this long.
REF_SECONDS = 0.001
REPS = 5  # kernel calls per sample; the fastest counts
WINDOW = 2.5  # seconds either side of the timed work
SPACING = 0.2  # seconds at least between samples

_rng = random.Random(20090612)
_WORD = tuple(_rng.randrange(4) for _ in range(2400))
_INVERSE = (1, 0, 3, 2)
_LHS = frozenset(tuple(_rng.randrange(4) for _ in range(n)) for n in (2, 3) for _ in range(6))


def kernel() -> int:
    stack = []
    for x in _WORD:
        if stack and _INVERSE[stack[-1]] == x:
            stack.pop()
        else:
            stack.append(x)
    seen = {}
    w = _WORD
    for n in (2, 3):
        for i in range(len(w) - n + 1):
            s = w[i:i + n]
            if s in _LHS:
                seen[s] = seen.get(s, 0) + 1
    return len(stack) + len(seen)


def kernel_seconds() -> float:
    """The fastest of REPS kernel calls."""
    best = float("inf")
    for _ in range(REPS):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


class Clock:
    """The kernel's times over a run, and the scale they give to work
    done at a given time."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []  # (when, kernel seconds)

    def sample(self) -> None:
        """Time the kernel, unless it was timed less than SPACING ago."""
        now = perf_counter()
        if not self.samples or now - self.samples[-1][0] >= SPACING:
            self.samples.append((now, kernel_seconds()))

    def factor(self, start: float, end: float, typical: bool = False) -> float:
        """REF_SECONDS over the fastest kernel time (or, if typical, the
        median one) within WINDOW seconds of the interval [start, end].
        Fastest goes with fastest-call figures, median with median ones."""
        near = [k for t, k in self.samples if start - WINDOW <= t <= end + WINDOW]
        return REF_SECONDS / (statistics.median(near) if typical else min(near))
