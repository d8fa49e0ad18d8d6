"""Machine-speed gauge: a fixed reference computation timed between ops.

On a shared machine the CPU speed a process gets drifts by +-20 % over
seconds to minutes, and every op slows by the same factor: the ratio of an
op's time to a nearby run of the reference stays within a few percent while
the raw times do not.  Times are therefore reported at the reference speed,
raw * REF_NOMINAL_S / (median reference time around the op).  The reference
is plain Python over ints, like the library's pure lane, and uses no
library code, so a change to the library never moves it.
"""
from __future__ import annotations

import random
import statistics
from time import perf_counter

# median reference() time, in seconds, on the machine the benchmark was
# written on (2 vCPUs, Python 3.11); it only fixes the scale of reported times
REF_NOMINAL_S = 0.001
WINDOW = 16  # reference samples on each side of an op

_rng = random.Random(0)
_MATS = [
    (q, [[_rng.randrange(q) for _ in range(10)] for _ in range(10)])
    for q in (3**200, 3**9)  # a pure-lane modulus and a compiled-lane-sized one
]


def reference() -> int:
    """Square two 10 x 10 matrices mod q with plain int arithmetic."""
    check = 0
    for q, M in _MATS:
        for row in M:
            for j in range(10):
                acc = 0
                for k in range(10):
                    acc = (acc + row[k] * M[k][j]) % q
                check ^= acc
    return check


class Gauge:
    def __init__(self):
        self.samples = []

    def tick(self) -> int:
        """Time one reference run; returns its sample index."""
        t0 = perf_counter()
        reference()
        self.samples.append(perf_counter() - t0)
        return len(self.samples) - 1

    def factor(self, i: int) -> float:
        """REF_NOMINAL_S over the median reference time around sample i."""
        window = self.samples[max(0, i - WINDOW) : i + WINDOW + 1]
        return REF_NOMINAL_S / statistics.median(window)

    def overall(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.samples)
