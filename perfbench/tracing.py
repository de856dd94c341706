"""Span recording for the traced run, from the benchmark's own files.

The program is not edited: :func:`install` wraps public functions of each
layer in place and returns a function that restores them.  Rules:

* A name imported with ``from ... import`` is patched in every module that
  looks it up (``merge_sorted`` lives in ``repro.engine.iterators`` but
  ``repro.core.store`` calls its own binding).
* A generator function is timed across its iteration: each resume is one
  segment of the same span, and the span's duration is the sum of its
  segments, not the near-zero cost of creating the generator.
* Only synchronous functions are wrapped.  An ``async`` function would
  interleave with other tasks at every ``await`` and break nesting.

Every span has a name, start, end, parent and op id; spans under one root
call share the op id.  Spans stay in columnar arrays in memory and are
written out once, by :meth:`Recorder.dump`, when the run ends.  A span's
self time is its duration minus the durations of its children
(:func:`self_times`).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array
from pathlib import Path

_perf = time.perf_counter


class Recorder:
    """In-memory span store plus named event counters."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("I")
        self.start = array("d")
        self.end = array("d")
        #: seconds spent inside the span (sum of segments for generators)
        self.active = array("d")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self._seg_start: list[float] = []
        self._next_op = 0
        self.counts: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def find(self, name: str) -> int:
        """The id of ``name``, or -1 when no span has used it."""
        return self._name_ids.get(name, -1)

    def begin(self, nid: int) -> int:
        now = _perf()
        stack = self._stack
        if stack:
            parent = stack[-1]
            op = self.op[parent]
        else:
            parent = -1
            op = self._next_op
            self._next_op += 1
        sid = len(self.start)
        self.name.append(nid)
        self.start.append(now)
        self.end.append(now)
        self.active.append(0.0)
        self.parent.append(parent)
        self.op.append(op)
        stack.append(sid)
        self._seg_start.append(now)
        return sid

    def resume(self, sid: int) -> None:
        self._stack.append(sid)
        self._seg_start.append(_perf())

    def suspend(self, sid: int) -> None:
        """End the current segment of ``sid`` (for a call: the span)."""
        now = _perf()
        self._stack.pop()
        self.active[sid] += now - self._seg_start.pop()
        self.end[sid] = now

    def rename(self, sid: int, name: str) -> None:
        self.name[sid] = self.name_id(name)

    def bump(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def dump(self, path: Path) -> None:
        """Write every span as a gzip TSV row:
        ``id name start end active parent op``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart\tend\tactive\tparent\top\n")
            for sid in range(len(self.start)):
                out.write(f"{sid}\t{names[self.name[sid]]}\t{self.start[sid]:.9f}\t"
                          f"{self.end[sid]:.9f}\t{self.active[sid]:.9f}\t"
                          f"{self.parent[sid]}\t{self.op[sid]}\n")


def self_times(rec: Recorder) -> array:
    """Per span: its duration minus the part its children cover."""
    out = array("d", rec.active)
    parent = rec.parent
    active = rec.active
    for sid in range(len(out)):
        p = parent[sid]
        if p >= 0:
            out[p] -= active[sid]
    return out


class SpanStats:
    """Per-name aggregates: calls, total duration, total self time."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        selfs = self_times(rec)
        n = len(rec.names)
        self._count = [0] * n
        self._total = [0.0] * n
        self._self = [0.0] * n
        for sid in range(len(rec)):
            nid = rec.name[sid]
            self._count[nid] += 1
            self._total[nid] += rec.active[sid]
            self._self[nid] += selfs[sid]

    def _nid(self, name: str) -> int | None:
        nid = self.rec.find(name)
        return nid if 0 <= nid < len(self._count) else None

    def count(self, name: str) -> int:
        nid = self._nid(name)
        return 0 if nid is None else self._count[nid]

    def total(self, name: str) -> float:
        nid = self._nid(name)
        return 0.0 if nid is None else self._total[nid]

    def self_time(self, name: str) -> float:
        nid = self._nid(name)
        return 0.0 if nid is None else self._self[nid]

    def mean_us(self, name: str) -> float:
        calls = self.count(name)
        return self.total(name) / calls * 1e6 if calls else 0.0

    def names(self, prefix: str) -> list[str]:
        return [n for n in self.rec.names if n.startswith(prefix)]


# -- wrappers -------------------------------------------------------------------------


def _wrap_call(rec: Recorder, fn, name: str, post=None):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        sid = rec.begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.suspend(sid)
        if post is not None:
            post(rec, sid, args, result)
        return result

    return wrapper


def _wrap_gen(rec: Recorder, fn, name: str):
    nid = rec.name_id(name)
    items_key = name + ".items"

    def traced(inner):
        sid = -1
        while True:
            if sid < 0:
                sid = rec.begin(nid)
            else:
                rec.resume(sid)
            try:
                item = next(inner)
            except StopIteration:
                rec.suspend(sid)
                return
            except BaseException:
                rec.suspend(sid)
                raise
            rec.suspend(sid)
            rec.bump(items_key)
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        return traced(inner) if rec.enabled else inner

    return wrapper


# -- result hooks ---------------------------------------------------------------------


def _path_name(rec, sid, args, result):
    rec.rename(sid, "partition.get." + result[1])


def _count_hit(rec, sid, args, result):
    if result is not None:
        rec.bump("unsorted.hits")


def _job_name(rec, sid, args, result):
    rec.rename(sid, f"maint.{result.kind}" if result.ran else "maint.idle")


def _count_scan_items(rec, sid, args, result):
    rec.bump(rec.names[rec.name[sid]] + ".items", len(result))


def _count_batch_items(rec, sid, args, result):
    rec.bump(rec.names[rec.name[sid]] + ".items", len(args[1]))


def _count_frames(rec, sid, args, result):
    rec.bump("protocol.frames", len(result))


# -- patch sets ---------------------------------------------------------------------------
# (module, attribute path, span name, "call" | "gen" | "classmethod", result hook)

_MERGE_SORTED_USERS = ("repro.engine.iterators", "repro.core.store",
                       "repro.core.merge", "repro.core.split")

STORE_PATCHES = (
    ("repro.core.store", "UniKV.get", "store.get", "call", None),
    ("repro.core.store", "UniKV.put", "store.put", "call", None),
    ("repro.core.store", "UniKV.scan", "store.scan", "call", _count_scan_items),
    ("repro.core.store", "UniKV.write_batch", "store.write_batch", "call",
     _count_batch_items),
    ("repro.core.partition", "Partition.get_with_path", "partition.get", "call",
     _path_name),
    ("repro.core.hash_index", "HashIndex.lookup", "hash_index.lookup", "call", None),
    ("repro.core.hash_index", "HashIndex.insert", "hash_index.insert", "call", None),
    ("repro.core.unsorted_store", "UnsortedStore.get", "unsorted.get", "call", _count_hit),
    ("repro.core.sorted_store", "SortedStore.get", "sorted.get", "call", None),
    ("repro.core.sorted_store", "SortedStore.resolve_pointer", "sorted.resolve_pointer",
     "call", None),
    ("repro.core.sorted_store", "SortedStore.entries_from", "sorted.entries_from",
     "gen", None),
    ("repro.engine.memtable", "MemTable.put", "memtable.put", "call", None),
    ("repro.engine.memtable", "MemTable.get", "memtable.get", "call", None),
    ("repro.engine.memtable", "MemTable.entries_from", "memtable.entries_from",
     "gen", None),
    ("repro.engine.wal", "WalWriter.append", "wal.append", "call", None),
    ("repro.engine.wal", "WalWriter.append_batch", "wal.append", "call", None),
    ("repro.engine.sstable", "SSTableReader.get", "sstable.get", "call", None),
    ("repro.engine.sstable", "SSTableReader.entries_from", "sstable.entries_from",
     "gen", None),
    ("repro.engine.sstable", "SSTableBuilder.add", "sstable_builder.add", "call", None),
    ("repro.engine.block", "Block.decode", "block.decode", "classmethod", None),
    ("repro.engine.vlog", "VLogReader.read_value", "vlog.read_value", "call", None),
    *((module, "merge_sorted", "merge_sorted", "gen", None)
      for module in _MERGE_SORTED_USERS),
    ("repro.runtime.scheduler", "MaintenanceScheduler.submit", "maint.submit", "call",
     _job_name),
    ("repro.runtime.scheduler", "MaintenanceScheduler.foreground_clock",
     "scheduler.foreground_clock", "call", None),
    ("repro.obs.registry", "MetricsRegistry.counter", "obs.lookup", "call", None),
    ("repro.obs.registry", "MetricsRegistry.gauge", "obs.lookup", "call", None),
    ("repro.obs.registry", "MetricsRegistry.histogram", "obs.lookup", "call", None),
    ("repro.obs.histogram", "LogHistogram.record", "obs.record", "call", None),
    ("repro.env.iostats", "IOStats.snapshot", "iostats.snapshot", "call", None),
    ("repro.env.iostats", "IOStats.delta_since", "iostats.delta_since", "call", None),
    ("repro.env.cost_model", "DeviceCostModel.breakdown", "cost_model.breakdown",
     "call", None),
)

SERVER_PATCHES = (
    ("repro.service.router", "ShardRouter.get", "router.get", "call", None),
    ("repro.service.router", "ShardRouter.put", "router.put", "call", None),
    ("repro.service.router", "ShardRouter.scan", "router.scan", "call", None),
    ("repro.service.router", "ShardRouter.write_batch", "router.write_batch", "call", None),
    ("repro.service.protocol", "FrameDecoder.feed", "protocol.feed", "call", _count_frames),
    ("repro.service.protocol", "decode_request", "protocol.decode_request", "call", None),
)

CLIENT_PATCHES = (
    *(("repro.service.protocol", f"encode_{op}", "client.encode", "call", None)
      for op in ("get", "put", "scan", "batch")),
    ("repro.service.protocol", "decode_response", "client.decode", "call", None),
    ("repro.service.client", "_unpack", "client.unpack", "call", None),
)


def install(rec: Recorder, patches) -> callable:
    """Wrap every target of ``patches``; returns the undo function."""
    undo = []
    for module_name, path, name, kind, post in patches:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if kind == "gen":
            wrapped = _wrap_gen(rec, original, name)
        elif kind == "classmethod":
            wrapped = classmethod(_wrap_call(rec, original.__func__, name, post))
        else:
            wrapped = _wrap_call(rec, original, name, post)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
