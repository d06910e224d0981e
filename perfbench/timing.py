"""The timed loop, with timings scaled to a reference speed of the machine.

On a 2-vCPU virtual machine (Intel Xeon, 2.1 GHz) whose cores are shared
with other machines, the same pure-Python loop ran up to 1.6 times faster or
slower from one quarter second to the next, and the unscaled throughput of
one commit moved by 25 to 45 % between runs.  So while operations run, a
SIGALRM handler times ``reference_work`` (fixed code of the program's kind: complex
powers and Fraction products) every PERIOD_S, and each operation's latency
is scaled by REFERENCE_S over the mean time of the probes around it: a
scaled second is the time in which ``reference_work`` runs 1 / REFERENCE_S
times.  Probe time that falls inside an operation is taken out of its
latency.
"""

from __future__ import annotations

import cmath
import math
import signal
import time
from array import array
from fractions import Fraction

PERIOD_S = 0.025
REFERENCE_S = 8.0e-4


def reference_work() -> None:
    """Fixed pure-Python work like the program's own: complex powers as in
    an Euler-Maclaurin head, and a product of Fraction polynomials."""
    s, acc = complex(2.5, 3.0), 0j
    for k in range(8):
        for n in range(25):
            acc += (n + 0.7 + k) ** -s
        acc += cmath.exp(-s * math.log(25.7 + k))
    p = [Fraction(1, j + 2) for j in range(12)]
    q = [Fraction(0)] * 23
    for i, x in enumerate(p):
        for j, y in enumerate(p):
            q[i + j] += x * y


def calibrate(repeats: int = 8) -> float:
    """Mean seconds of one reference_work run, now."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        reference_work()
    return (time.perf_counter() - t0) / repeats


def scale(seconds: float, calibration: float) -> float:
    """Seconds measured while reference_work took ``calibration`` seconds,
    scaled to the reference speed."""
    return seconds * REFERENCE_S / calibration


def scaled_span(fn) -> tuple[float, float, object]:
    """Run fn(); return its scaled and unscaled seconds, scaled by
    calibrations made just before and just after it, and its value."""
    before = calibrate()
    t0 = time.perf_counter()
    value = fn()
    raw = time.perf_counter() - t0
    return scale(raw, (before + calibrate()) / 2.0), raw, value


class Speedometer:
    """Times reference_work every PERIOD_S from a SIGALRM handler."""

    def __init__(self):
        self.at = array("d")
        self.cost = array("d")

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.cost.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def latencies(self, starts, ends) -> tuple[array, array]:
        """(scaled, unscaled) seconds of each [start, end) operation.

        The probes that ran inside an operation are taken out of its time:
        a probe runs between two bytecodes, so it lies wholly inside an
        operation or wholly outside.  The speed during an operation is the
        mean of those probes and of the last probe before it and the first
        after it."""
        at, cost = self.at, self.cost
        if not cost:  # shorter than PERIOD_S: measure the speed once now
            at.append(ends[-1])
            cost.append(calibrate(1))
        scaled, raw = array("d"), array("d")
        j = 0
        for start, end in zip(starts, ends):
            while j < len(at) and at[j] < start:
                j += 1
            k = j
            while k < len(at) and at[k] < end:
                k += 1
            near = cost[max(j - 1, 0):k + 1]
            raw.append(end - start - sum(cost[j:k]))
            scaled.append(raw[-1] * REFERENCE_S * len(near) / sum(near))
        return scaled, raw


def run_ops(ops, errors, record, starts, ends) -> None:
    """Run each (op, tag) of ``ops`` in turn, appending its start and end
    times to ``starts`` and ``ends``; call record(tag, result or exception)
    after each operation, outside its span."""
    clock = time.perf_counter
    for op, tag in ops:
        start = clock()
        try:
            result = op()
        except errors as exc:
            result = exc
        ends.append(clock())
        starts.append(start)
        record(tag, result)


def run_rounds(rounds, errors, record, seconds):
    """Run whole rounds in a closed loop until ``seconds`` of scaled time
    have passed or the rounds run out.

    Returns (scaled latencies, unscaled latencies, rounds done), in seconds.
    """
    starts, ends = array("d"), array("d")
    clock = time.perf_counter
    n = 0
    with Speedometer() as speed:
        t0 = clock()
        for ops in rounds:
            run_ops(ops, errors, record, starts, ends)
            n += 1
            if speed.cost and (
                    (clock() - t0) * REFERENCE_S * len(speed.cost) / sum(speed.cost) >= seconds):
                break
    scaled, raw = speed.latencies(starts, ends)
    return scaled, raw, n
