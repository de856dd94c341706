"""The result one run reports, the timed phase's slices, and memory probes."""

from __future__ import annotations

import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

#: length of one slice of a timed phase
SLICE_S = 0.5
#: ``reference_seconds()`` on the 2-vCPU VM the benchmark was sized on, at
#: its faster speed; wall figures are scaled to it
REF_NOMINAL_S = 0.013


@dataclass
class Outcome:
    #: metric name -> value, in the units ``spec`` declares
    metrics: dict[str, float]
    #: checked operations and how many of them failed or read wrong data
    attempted: int
    failed: int
    #: extra figures printed for people, not part of the result line
    detail: dict = field(default_factory=dict)


def _cpu_part(n: int = 15_000) -> None:
    """Interpreter-bound: small dict, int and bytes operations."""
    d: dict[int, int] = {}
    s = 0
    key = b"user000000000000"
    for i in range(n):
        k = i & 1023
        d[k] = d.get(k, 0) + i
        s += len(key[:i & 15]) + i * 7 % 13


_rng = random.Random(0)
_KEYS = [_rng.randbytes(16) for __ in range(100_000)]
_TABLE = {k: i for i, k in enumerate(_KEYS)}
_PROBES = [_rng.randrange(len(_KEYS)) for __ in range(10_000)]


def _memory_part() -> None:
    """Memory-bound: random probes into a 100k-key dict (about 12 MB, built
    at import, before any memory baseline is taken), then a sort."""
    s = 0
    keys, table = _KEYS, _TABLE
    for i in _PROBES:
        k = keys[i]
        s += table[k] + len(k[2:9])
    sorted(keys[:3000])


def reference_seconds() -> float:
    """Time of two fixed pure-Python loops: how fast the machine runs now.

    One part is interpreter-bound, one memory-bound; neither uses anything
    from ``repro``, so a change to the program does not change them.
    """
    t0 = time.perf_counter()
    _cpu_part()
    _memory_part()
    return time.perf_counter() - t0


def speed(ref_s: float) -> float:
    """Machine speed relative to nominal (below 1: slower) for a reference
    measurement of ``ref_s``."""
    return REF_NOMINAL_S / ref_s


class ScaledTimer:
    """Wall time of a task run in sections, each section's time scaled to
    nominal machine speed by a reference measurement taken just before it
    (``split`` ends one section and starts the next)."""

    def __init__(self) -> None:
        self.raw = self.scaled = 0.0

    def start(self) -> None:
        self._speed = speed(reference_seconds())
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        took = time.perf_counter() - self._t0
        self.raw += took
        self.scaled += took * self._speed

    def split(self) -> None:
        self.stop()
        self.start()


@dataclass
class Slices:
    """Wall throughput and median latency of each slice of a timed phase.

    The machine the benchmark was sized on changes speed by up to 2x from
    one second to the next.  So a timed phase runs as slices of about
    ``SLICE_S``, each after a ``reference_seconds()`` measurement, and
    each slice's figures are scaled to nominal machine speed; the run
    reports medians over the slices.  The raw figures are kept for the
    printed details.
    """

    rates: list[float] = field(default_factory=list)
    p50s: list[float] = field(default_factory=list)
    raw_rates: list[float] = field(default_factory=list)
    raw_p50s: list[float] = field(default_factory=list)

    def add(self, ops: int, seconds: float, latencies, ref_s: float) -> None:
        """Record one slice: ``ops`` done in ``seconds`` after a reference
        measurement of ``ref_s``."""
        s = speed(ref_s)
        self.raw_rates.append(ops / seconds)
        self.rates.append(ops / seconds / s)
        if ops:
            p50 = statistics.median(latencies)
            self.raw_p50s.append(p50)
            self.p50s.append(p50 * s)

    @property
    def ops_per_s(self) -> float:
        return statistics.median(self.rates)

    @property
    def p50_us(self) -> float:
        return statistics.median(self.p50s) * 1e6

    def raw(self) -> dict[str, float]:
        """Unscaled medians, for the printed details."""
        return {"raw_ops_per_s": statistics.median(self.raw_rates),
                "raw_op_p50_us": statistics.median(self.raw_p50s) * 1e6}


def rss_baseline() -> int:
    """The process's RSS now, after resetting its peak RSS to it.

    Without the reset (Linux ``clear_refs``), ``peak_rss_bytes`` would also
    count earlier peaks, such as the input generation's temporaries.
    """
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError as exc:
        print(f"perfbench: cannot reset the peak RSS ({exc}); mem_mb may count "
              f"earlier peaks", file=sys.stderr)
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes() -> int:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
