"""How fast this host runs Python right now.

The benchmark's hosts are shared: the speed of a virtual CPU changes by
up to ~1.5x within seconds and in phases of tens of seconds, longer than
one operation, so the medians of two runs of the same code can differ by
more than any useful bound.  :func:`calibrate` is a fixed piece of pure
Python (dict and tuple traffic, small calls, list growth, ``str`` and
``hash``: interpreter paths the program's own hot loops also take) that
does not depend on the program.  Timed right next to each operation, it
tells how fast the host ran at that moment.

:func:`corrected` scales a time by the kernel's slowdown raised to a
fixed power per metric, giving seconds of the reference machine at its
usual speed.  A set-up (parsing, small working set, like the kernel)
follows the kernel fully; a search or a closing ladder holds a larger
heap and moves by about 0.7 of the kernel's relative change (log-log
slopes over phases of the reference machine were 0.6 to 0.8).  The
raw wall times are kept next to the corrected ones in
``perfbench/out/``.  A change to this file changes every reported time:
it is a change of the benchmark, measured again before any claim rests
on it.
"""

from __future__ import annotations

#: Median seconds of one :func:`calibrate` on the reference machine
#: (2 vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7).
REFERENCE_S = 0.17

#: How strongly each end-to-end time follows the kernel's slowdown.
EXPONENTS = {"setup_s": 1.0, "verdict_s": 0.7}

#: Rounds of one :func:`calibrate`, ~0.1-0.2 s: long enough to time
#: well, short enough to sit next to each operation.
ROUNDS = 180_000


def corrected(metric: str, elapsed: float, kernel_s: float) -> float:
    """``elapsed`` seconds of ``metric``, measured next to a
    :func:`calibrate` that took ``kernel_s``, in seconds of the
    reference machine."""
    return elapsed * (REFERENCE_S / kernel_s) ** EXPONENTS[metric]


def _mix(acc: int, i: int) -> int:
    return (acc * 31 + i) & 0xFFFF


def calibrate(rounds: int = ROUNDS) -> int:
    """The fixed kernel; returns a checksum so that nothing is skipped."""
    table: dict[tuple[int, int], list[int]] = {}
    acc = 0
    for i in range(rounds):
        key = (i & 255, i % 7)
        bucket = table.get(key)
        if bucket is None:
            table[key] = bucket = [i]
        else:
            bucket.append(i)
            if len(bucket) > 8:
                del bucket[:4]
        acc = _mix(acc, i)
        acc ^= hash(str(acc)) & 0xFF
    return acc
