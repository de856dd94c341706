"""Parametric SSD device cost model.

Turns the I/O counters accumulated by a :class:`~repro.env.iostats.IOStats`
into modelled device time.  The defaults approximate the SATA SSD class used
in the paper's testbed (hundreds of MB/s sequential, ~10k-100k IOPS random):

* sequential read        ~ 500 MB/s
* sequential write       ~ 400 MB/s
* random read            ~ 80 us setup per op + streaming at seq-read rate
* random write (unused by the log-structured engines here, kept for
  completeness) ~ 100 us per op + streaming at seq-write rate

Background work (compaction, GC, flush) and batched parallel reads (UniKV's
32-thread scan value fetch, RocksDB's multi-threaded compaction) are modelled
by dividing a tag's time by a parallelism factor, mirroring how those designs
overlap device time in the real systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

from repro.env.iostats import IOStats, RAND, READ

_MB = 1024 * 1024


@dataclass
class TimeBreakdown:
    """Modelled time split by tag, in seconds.

    ``by_tag`` holds foreground device time.  When a store runs its
    maintenance scheduler in overlapped mode the runner additionally fills
    ``stall_seconds`` (backpressure stalls injected into the foreground —
    part of the phase's elapsed time) and ``background_seconds`` (device
    time spent on background lanes — overlapped, informational only).
    """

    by_tag: dict[str, float] = field(default_factory=dict)
    stall_seconds: float = 0.0
    background_seconds: float = 0.0

    @property
    def foreground(self) -> float:
        return sum(self.by_tag.values())

    @property
    def total(self) -> float:
        return self.foreground + self.stall_seconds

    def tag(self, tag: str) -> float:
        return self.by_tag.get(tag, 0.0)


@dataclass(frozen=True)
class DeviceCostModel:
    """Maps accounted I/O to modelled seconds of device time.

    Frozen, with a read-only ``parallelism`` mapping: the scheduler's
    virtual clock caches prices per model object, so a model must not
    change in place.  Derive a new one with :meth:`with_parallelism`.
    """

    seq_read_mb_s: float = 500.0
    seq_write_mb_s: float = 400.0
    rand_read_op_us: float = 80.0
    rand_write_op_us: float = 100.0
    #: per-tag parallelism: a tag's time is divided by this factor.
    parallelism: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parallelism",
                           MappingProxyType(dict(self.parallelism)))

    def record_seconds(self, op: str, pattern: str, tag: str, ops: int,
                       nbytes: int) -> float:
        """Modelled time of one ``(op, pattern, tag)`` record, after the
        tag's parallelism factor: the one place I/O is priced."""
        if op == READ:
            t = nbytes / (self.seq_read_mb_s * _MB)
            if pattern == RAND:
                t += ops * self.rand_read_op_us * 1e-6
        else:
            t = nbytes / (self.seq_write_mb_s * _MB)
            if pattern == RAND:
                t += ops * self.rand_write_op_us * 1e-6
        return t / self.parallelism.get(tag, 1.0)

    def breakdown(self, stats: IOStats) -> TimeBreakdown:
        """Modelled time per tag, after applying parallelism factors."""
        out = TimeBreakdown()
        for (op, pattern, tag), rec in stats.records.items():
            t = self.record_seconds(op, pattern, tag, rec.ops, rec.bytes)
            out.by_tag[tag] = out.by_tag.get(tag, 0.0) + t
        return out

    def seconds(self, stats: IOStats) -> float:
        """Total modelled device seconds for the accounted I/O."""
        return self.breakdown(stats).total

    def with_parallelism(self, **factors: float) -> "DeviceCostModel":
        """A copy of this model with extra per-tag parallelism factors."""
        return replace(self, parallelism={**self.parallelism, **factors})
