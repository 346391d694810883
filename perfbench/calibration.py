"""A fixed pure-Python workload that measures how fast the machine runs now.

Shared machines change speed by tens of percent from one minute to the next.
The benchmark runs this calibration before and after every stretch of
operations and scales the stretch's times by ``REFERENCE_S`` over the
calibration's time, so reported times read as on a machine that runs the
calibration in ``REFERENCE_S``.  The work is a walk-sign set DP, close in
kind to the program's own (small tuples, sets, integer arithmetic), and it
shares no code with the program, so a change to the program never moves it.

Changing this file rescales every reported time: keep it fixed.
"""

from __future__ import annotations

import time

#: Calibration time of the reference machine, in seconds.
REFERENCE_S = 0.010

_ORDER = 10
# d1 of order 10: the Hamiltonian cycle plus the chord 9 -> 1, arc 10 -> 1
# negative; its singleton bases run to 172 steps.
_OUT = {v: [(v % _ORDER + 1, -1 if v == _ORDER else 1)] for v in range(1, _ORDER + 1)}
_OUT[_ORDER - 1].append((1, 1))


def calibrate() -> float:
    """Seconds taken by the fixed calibration work (about REFERENCE_S)."""
    start = time.perf_counter()
    full = 2 * _ORDER
    for x in list(range(1, _ORDER + 1)) * 2:
        cur = {(x, 1)}
        while True:
            cur = {(w, s * a) for v, s in cur for w, a in _OUT[v]}
            if len(cur) == full:
                break
    return time.perf_counter() - start
