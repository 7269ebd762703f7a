"""Scaling measured times to a fixed reference machine speed.

This benchmark runs on machines whose cores are shared with other work, and
that work slows a pure-Python program by up to a third for seconds or
minutes at a time.  Wall times taken minutes apart are then not comparable.
So a run takes calibrations as it goes: each is the best of a few timings
of a fixed pure-Python loop that never touches harmonia.  A time t measured
while calibrations c_1..c_n were taken around it is reported as

    t * REFERENCE_S / median(c_1..c_n)

that is, as the time the same work takes on a reference machine on which
the calibration loop takes ``REFERENCE_S``.  Harmonia getting faster moves
t and leaves the calibration alone; the machine getting slower moves both.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 100e-6
BEST_OF = 7


def _calibration_loop() -> complex:
    # the kind of work harmonia does: dict accumulation keyed by exponent
    # pairs, complex powers, a few function calls
    acc: dict = {}
    z = 0.7 + 0.3j
    total = 0j
    for _ in range(4):
        for k in range(-6, 7):
            for m in range(3):
                key = (k, m)
                acc[key] = acc.get(key, 0j) + complex(k, m) * 0.1
        for (k, m), c in acc.items():
            total += c * z**k * (0.3 + 0.1j) ** m
    return total


def calibration() -> float:
    """Best of BEST_OF timings of the calibration loop, in seconds."""
    best = float("inf")
    for _ in range(BEST_OF):
        t0 = perf_counter()
        _calibration_loop()
        best = min(best, perf_counter() - t0)
    return best


def factor(calibrations: list) -> float:
    """Multiplier taking times measured while these calibrations were taken
    to the reference speed."""
    return REFERENCE_S / statistics.median(calibrations)
