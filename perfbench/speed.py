"""Machine-speed correction for the benchmark's timings.

On a shared host the same code can run 1.5x slower for seconds or tens
of seconds at a time, because of load in neighbouring machines.  During
a measured pass a SIGALRM timer runs calibrate(), about a millisecond of
fixed pure-Python work, every PROBE_PERIOD_S of wall time.  Each run
gives the machine's speed at that moment, relative to the machine the
bounds were set on.  A case's corrected time is its time without the
handler's, times the mean speed sampled during and right around it.

calibrate() calls no frobtrace code.  A change to the library therefore
moves corrected and raw times alike, while a slow spell of the machine
moves neither.
"""

from __future__ import annotations

import gc
import signal
import time

# calibrate()'s time on the machine the bounds were set on (Intel Xeon,
# 2 vCPUs, Python 3.11); it only fixes the scale of the corrected times.
CAL_REF_S = 0.00080
PROBE_PERIOD_S = 0.02

class _Elem:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def mul(self, other):
        return _Elem(self.field, ((a * b) % 7 for a, b in zip(self.coeffs, other.coeffs)))


def calibrate() -> float:
    """The machine's speed now, relative to the reference machine.

    Times a fixed mix of the kinds of work frobtrace does: dict updates
    keyed by tuples, list convolution mod p, and small slotted objects
    built and multiplied.  No frobtrace code runs here."""
    t0 = time.perf_counter()
    table = {}
    for i in range(700):
        key = ((i * 7919) % 997, i % 13)
        table[key] = table.get(key, 0) + (i * i) % 65521
    a = [(i * 7) % 5 for i in range(12)]
    b = [(i * 3 + 1) % 5 for i in range(12)]
    for _ in range(14):
        out = [0] * 23
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % 5
        a = out[:12]
        a[0] = 1
    x, y = _Elem(1, (1, 2)), _Elem(1, (3, 4))
    for _ in range(250):
        x = x.mul(y)
        if x.coeffs[0] == 0:
            x = _Elem(1, (1, 2))
    return CAL_REF_S / (time.perf_counter() - t0)


class SpeedProbe:
    """Samples calibrate() every PROBE_PERIOD_S from a SIGALRM handler,
    which runs in this thread between bytecodes.  ``spent`` is the time
    taken by the handler, to be left out of measured work.

    The garbage collector is off inside the handler: otherwise the
    calibration's allocations could start a collection of the library's
    heap, which would read as a slow machine and take the library's
    collection time out of its measured time."""

    def __init__(self):
        self.speeds = []
        self.spent = 0.0

    def clock(self) -> float:
        """perf_counter() with the handler's time taken out."""
        return time.perf_counter() - self.spent

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.speeds.append(calibrate())
        finally:
            if enabled:
                gc.enable()
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
