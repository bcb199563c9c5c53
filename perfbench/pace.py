"""Machine-speed pacing: time operations in units of a fixed reference loop.

On a shared host the same Python code runs up to twice as slow for
seconds or minutes at a time, switching within a second (NOTES.md, "Noise
on a 2-core box"), and a slow spell slows interpreted code of one kind
nearly alike.  So while a run measures, a timer signal interrupts it every
``EVERY_S`` seconds and the handler runs a fixed pure-Python reference
loop of the kind of work the workload does, inside operations as well as
between them.  A stretch of wall time between two reference samples is
scaled by ``NOMINAL_S`` over the mean of the two samples' times, and the
samples themselves are left out.  The paced duration of an operation is
then its time on a machine where the reference loop takes exactly
``NOMINAL_S``: still a time, in seconds, but one that a slow spell hardly
moves.  The reference does not call pamscan, so a change to pamscan moves
paced times as much as wall times.
"""

from __future__ import annotations

import argparse
import bisect
import io
import signal
import time
from fractions import Fraction

NOMINAL_S = 0.002  # a reference loop's time, by definition, in paced time
EVERY_S = 0.05  # wall time between the end of one sample and the next
# Reference loops by the kind of work a workload does: (Fraction rounds,
# argument parsers).  Each takes 1.3-2 ms on a quiet 2-core box.  Over 90 s
# of interleaved runs (NOTES.md), the Fraction loop tracked the slow
# spells of trace, normalize and dense best, and the mix tracked cli's.
REFERENCES = {"compute": (600, 0), "cli": (400, 4)}


def reference(fraction_rounds, parsers):
    """Fixed interpreted work of the kinds pamscan does: Fraction
    arithmetic with tuple keys in a dict, like the compute layers, and
    building and running small argument parsers and formatting text, like
    the command line."""
    acc = Fraction(0)
    seen = {}
    parts = []
    for i in range(1, fraction_rounds):
        a = Fraction(i % 7 + 1, i % 5 + 2)
        acc += a
        key = (i % 13, i % 11, acc.denominator % 17)
        seen[key] = seen.get(key, 0) + 1
        if i % 8 == 0:
            parts.append("%d/%d" % (a.numerator, a.denominator))
    for i in range(parsers):
        ap = argparse.ArgumentParser(prog="ref%d" % i)
        ap.add_argument("--alpha", type=int, default=i)
        ap.add_argument("name")
        ns = ap.parse_args(["n%d" % i, "--alpha", str(i * 7)])
        buf = io.StringIO()
        buf.write("%s=%d;" % (ns.name, ns.alpha))
        parts.append(buf.getvalue().upper())
    return len(seen), sorted(seen)[:3], ",".join(parts).count("/")


class Pace:
    """Reference samples taken on SIGALRM while the context is entered.

    Every stretch to be paced must lie inside the ``with`` block: a sample
    is taken on entry and on exit, so each moment in between has a sample
    before and after it.
    """

    def __init__(self, kind):
        self.work = REFERENCES[kind]
        self.starts = []  # start of each reference sample
        self.ends = []  # its end
        self.times = []  # its duration
        self._old = None
        for _ in range(20):  # warm the interpreter's specialised code
            reference(*self.work)

    def _sample(self):
        t0 = time.perf_counter()
        reference(*self.work)
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.times.append(t1 - t0)

    def _on_alarm(self, signum, frame):
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S)

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        return False

    def paced(self, t0, t1):
        """Paced duration of the wall-time stretch [t0, t1], samples left out."""
        total = 0.0
        i = max(0, bisect.bisect_right(self.ends, t0) - 1)
        while i + 1 < len(self.starts) and self.ends[i] < t1:
            lo, hi = max(t0, self.ends[i]), min(t1, self.starts[i + 1])
            if hi > lo:
                total += (hi - lo) * 2 * NOMINAL_S / (self.times[i] + self.times[i + 1])
            i += 1
        return total
