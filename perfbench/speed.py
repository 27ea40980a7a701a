"""The machine's speed at a moment, and op times scaled to a fixed speed.

On a shared host the speed at which one core runs Python drifts by up to
2x within minutes as other tenants load the machine (measured on a 2-vCPU
x86-64 VM).  A raw time mixes the program's cost with that drift.  So every
worker times `reference()`, a fixed piece of pure-Python work that does not
touch branchbox, after its import and after every op, and the runner turns
each raw time into a cost at a fixed speed:

* an op's time is divided by the median reference time of the WINDOW
  references on each side of it (the machine's speed at that moment), and
  multiplied by REFERENCE_SECONDS;
* of an op's repeats, only those taken while the machine ran at least as
  fast as its median speed over the run count, when there are any.  Other
  tenants do not slow all code alike, so a scaled time is most exact when
  the machine is least loaded.

Of the kernels tried (partitions, Fraction sums, dict lookups and mixes of
them), a Fraction sum, call-heavy as the library is, tracked the slowdown
of the workloads best.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_TERMS = 200
REFERENCE_SECONDS = 0.0005  # reference() at full speed: 2-vCPU x86-64 VM, Python 3.11
WINDOW = 5  # reference samples on each side of an op that give its speed
SETUP_REFERENCES = 5


def reference() -> Fraction:
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(i, i + 7)
    return total


def timed_references(count: int) -> list[float]:
    out = []
    for _ in range(count):
        start = time.perf_counter()
        reference()
        out.append(time.perf_counter() - start)
    return out


def scale(seconds: float, refs: list[float]) -> float:
    return seconds * REFERENCE_SECONDS / statistics.median(refs)


def _speeds(ref_seconds: list[float]) -> list[float]:
    """The median reference time around each op of one repeat."""
    return [statistics.median(ref_seconds[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(len(ref_seconds))]


def op_costs(by_round: list[list[dict]]) -> list[float]:
    """Scaled time of every op of a run, round by round.

    by_round[k] holds the repeats of round k, each with the raw
    `op_seconds` and the `ref_seconds` timed after each op.
    """
    speeds = [[_speeds(r["ref_seconds"]) for r in samples] for samples in by_round]
    cut = statistics.median(c for per_k in speeds for per_r in per_k for c in per_r)
    out = []
    for samples, per_k in zip(by_round, speeds):
        for i in range(len(samples[0]["op_seconds"])):
            timed = [(r["op_seconds"][i] * REFERENCE_SECONDS / c[i], c[i])
                     for r, c in zip(samples, per_k)]
            fast = [t for t, c in timed if c <= cut] or [t for t, _ in timed]
            out.append(statistics.median(fast))
    return out
