"""I/O accounting.

Every read and write issued against the :class:`~repro.env.storage.SimulatedDisk`
is recorded here, keyed by three dimensions:

* ``op``      — ``"read"`` or ``"write"``
* ``pattern`` — ``"seq"`` (append / full-file streaming) or ``"rand"``
  (positioned block access)
* ``tag``     — a free-form purpose label supplied by the engine
  (``"wal"``, ``"flush"``, ``"compaction"``, ``"gc"``, ``"lookup"``,
  ``"scan_value"``, ...).  Tags let the cost model charge background work
  with a parallelism factor and let the harness compute read/write
  amplification per purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

READ = "read"
WRITE = "write"
SEQ = "seq"
RAND = "rand"


@dataclass
class IORecord:
    """Aggregated counters for one (op, pattern, tag) combination."""

    ops: int = 0
    bytes: int = 0
    #: the owning :attr:`IOStats.version` at this record's last change
    version: int = field(default=0, compare=False, repr=False)


@dataclass
class IOStats:
    """Mutable aggregate of all I/O issued against one disk."""

    records: dict[tuple[str, str, str], IORecord] = field(default_factory=dict)
    #: change counter, bumped by every mutation and stamped on the records
    #: it touched: a reader that caches a function of the counters (the
    #: scheduler's virtual clock) revisits only records newer than it saw
    version: int = field(default=0, compare=False, repr=False)

    def record(self, op: str, pattern: str, tag: str, nbytes: int) -> None:
        key = (op, pattern, tag)
        rec = self.records.get(key)
        if rec is None:
            rec = IORecord()
            self.records[key] = rec
        rec.ops += 1
        rec.bytes += nbytes
        self.version += 1
        rec.version = self.version

    # -- aggregation helpers -------------------------------------------------

    def bytes_for(self, op: str | None = None, pattern: str | None = None,
                  tag: str | None = None) -> int:
        """Total bytes matching the given filters (None matches anything)."""
        return sum(
            rec.bytes for (o, p, t), rec in self.records.items()
            if (op is None or o == op)
            and (pattern is None or p == pattern)
            and (tag is None or t == tag)
        )

    def ops_for(self, op: str | None = None, pattern: str | None = None,
                tag: str | None = None) -> int:
        """Total operation count matching the given filters."""
        return sum(
            rec.ops for (o, p, t), rec in self.records.items()
            if (op is None or o == op)
            and (pattern is None or p == pattern)
            and (tag is None or t == tag)
        )

    @property
    def read_bytes(self) -> int:
        return self.bytes_for(op=READ)

    @property
    def write_bytes(self) -> int:
        return self.bytes_for(op=WRITE)

    @property
    def read_ops(self) -> int:
        return self.ops_for(op=READ)

    @property
    def write_ops(self) -> int:
        return self.ops_for(op=WRITE)

    def tags(self) -> set[str]:
        return {t for (_, _, t) in self.records}

    def snapshot(self) -> "IOStats":
        """An independent copy, useful for before/after deltas."""
        copy = IOStats()
        for key, rec in self.records.items():
            copy.records[key] = IORecord(rec.ops, rec.bytes)
        return copy

    def delta_since(self, before: "IOStats") -> "IOStats":
        """Counters accumulated since ``before`` was snapshotted."""
        out = IOStats()
        for key, rec in self.records.items():
            prior = before.records.get(key)
            ops = rec.ops - (prior.ops if prior else 0)
            nbytes = rec.bytes - (prior.bytes if prior else 0)
            if ops or nbytes:
                out.records[key] = IORecord(ops, nbytes)
        return out

    def merge(self, other: "IOStats") -> None:
        """Fold another stats object into this one (in place)."""
        self.version += 1
        for key, rec in other.records.items():
            mine = self.records.get(key)
            if mine is None:
                mine = self.records[key] = IORecord()
            mine.ops += rec.ops
            mine.bytes += rec.bytes
            mine.version = self.version

    def reset(self) -> None:
        # A new dict, not clear(): a cached reader sees the records it
        # priced are gone.
        self.records = {}
        self.version += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows = ", ".join(
            f"{o}/{p}/{t}={rec.bytes}B" for (o, p, t), rec in sorted(self.records.items())
        )
        return f"IOStats({rows})"
