"""Crash recovery: rebuilding a UniKV store from its durable state.

Recovery replays three sources, exactly the paper's scheme:

1. **Manifest** — partition layout, table lists, value-log references and
   index checkpoints are reconstructed by replaying the metadata log.  Any
   data file on disk that the replayed state does not reference is an
   orphan from an uncommitted operation (a crash between data write and
   commit) and is deleted — the old state those operations were replacing
   is still fully intact, which is what makes every merge/GC/split redoable.
2. **Hash-index checkpoints** — each partition's index is loaded from its
   latest checkpoint when that checkpoint still matches the current table
   set, and the tables flushed since are re-read to fill in the gap; if the
   table set changed (a merge ran after the checkpoint), the index is
   rebuilt from the current tables.
3. **WAL** — buffered writes are replayed into a fresh memtable; a torn
   final record (mid-append crash) is discarded.
"""

from __future__ import annotations

import struct

from repro.engine.errors import CorruptionError
from repro.engine.sstable import TableMeta
from repro.engine.wal import WalReader, WalWriter
from repro.core.context import StoreContext
from repro.core.hash_index import HashIndex
from repro.core.manifest import Manifest, meta_from_json
from repro.core.partition import Partition
from repro.env.storage import ReadFault, SimulatedDisk


class _PartitionState:
    """Mutable replay accumulator for one partition."""

    def __init__(self, lower: bytes) -> None:
        self.lower = lower
        self.unsorted: dict[int, TableMeta] = {}
        self.sorted: list[TableMeta] = []
        self.logs: set[int] = set()
        self.live_value_bytes = 0


def recover_store(store, disk: SimulatedDisk) -> None:
    """Populate ``store`` (an in-construction UniKV) from ``disk``."""
    manifest = Manifest(disk, create=False)
    parts: dict[int, _PartitionState] = {}
    checkpoints: dict[int, tuple[str, list[int]]] = {}
    wal_names: dict[int, str] = {}  # partition id -> current WAL file
    max_table = max_log = max_pid = max_wal = max_ckpt = -1

    def see_tables(metas: list[TableMeta]) -> None:
        nonlocal max_table
        for meta in metas:
            max_table = max(max_table, int(meta.name.rsplit("-", 1)[1]))

    def install_run(state: _PartitionState, tables: list[dict], run: dict) -> None:
        """Make a committed merge/GC/split run ``state``'s SortedStore."""
        nonlocal max_log
        state.sorted = [meta_from_json(m) for m in tables]
        if run["new_log"] is not None:
            state.logs.add(run["new_log"])
            max_log = max(max_log, run["new_log"])
        state.live_value_bytes = run["live_value_bytes"]
        see_tables(state.sorted)

    for record in manifest.replay():
        rtype = record["type"]
        if rtype == "init":
            pid = record["partition"]
            parts[pid] = _PartitionState(bytes.fromhex(record["lower"]))
            max_pid = max(max_pid, pid)
        elif rtype == "flush":
            state = parts[record["partition"]]
            meta = meta_from_json(record["meta"])
            state.unsorted[record["table_id"]] = meta
            see_tables([meta])
        elif rtype == "scan_merge":
            state = parts[record["partition"]]
            meta = meta_from_json(record["meta"])
            state.unsorted = {record["table_id"]: meta}
            see_tables([meta])
            checkpoints.pop(record["partition"], None)
        elif rtype in ("merge", "gc"):
            state = parts[record["partition"]]
            state.logs -= set(record.get("released_logs", []))
            install_run(state, record["added_tables"], record)
            if rtype == "merge":
                state.unsorted = {}
                checkpoints.pop(record["partition"], None)
        elif rtype == "split":
            del parts[record["old_partition"]]
            for info in record["parts"]:
                new = parts[info["id"]] = _PartitionState(bytes.fromhex(info["lower"]))
                new.logs = set(record["shared_logs"])
                install_run(new, info["tables"], info)
                max_pid = max(max_pid, info["id"])
            checkpoints.pop(record["old_partition"], None)
            # The old partition's WAL is retired: its memtable entries were
            # folded into the split output tables.
            wal_names.pop(record["old_partition"], None)
        elif rtype == "checkpoint":
            checkpoints[record["partition"]] = (record["file"], record["covered"])
            max_ckpt = max(max_ckpt, int(record["file"].rsplit("-", 1)[1]))
        elif rtype == "wal":
            wal_names[record["partition"]] = record["name"]
            max_wal = max(max_wal, int(record["name"].rsplit("-", 1)[1]))

    # A torn manifest tail (power failure mid-commit) must be cut before
    # anything appends new records: appends after garbage bytes would be
    # unreachable, since replay stops at the tear.
    manifest.repair()

    # -- orphan cleanup: delete uncommitted data files -----------------------------
    referenced: set[str] = {manifest.name}
    for state in parts.values():
        referenced.update(m.name for m in state.unsorted.values())
        referenced.update(m.name for m in state.sorted)
        referenced.update(StoreContext.log_name(n) for n in state.logs)
    referenced.update(file for file, __ in checkpoints.values())
    referenced.update(name for pid, name in wal_names.items() if pid in parts)
    for prefix in ("sst-", "vlog-", "ckpt-", "wal-"):
        for name in disk.list(prefix):
            if name not in referenced:
                disk.delete(name)

    # -- rebuild runtime objects ------------------------------------------------------
    ctx = StoreContext(disk, store.config, manifest)
    ctx.next_table = max_table + 1
    ctx.next_log = max_log + 1
    ctx.next_partition = max_pid + 1
    store.ctx = ctx

    partitions: list[Partition] = []
    for pid, state in sorted(parts.items(), key=lambda kv: kv[1].lower):
        partition = Partition(ctx, pid, state.lower)
        partition.unsorted.tables = dict(state.unsorted)
        partition.sorted.replace_tables(state.sorted)
        partition.sorted.live_value_bytes = state.live_value_bytes
        for log_number in state.logs:
            partition.add_log(log_number)
        _rebuild_hash_index(ctx, partition, checkpoints.get(pid))
        partitions.append(partition)
    store.partitions = partitions
    store._rebuild_boundaries()
    store._checkpoints = {
        pid: ckpt for pid, ckpt in checkpoints.items()
        if any(p.id == pid for p in partitions)
    }
    store._next_ckpt = max_ckpt + 1
    store._next_wal = max_wal + 1

    # -- per-partition WAL replay ---------------------------------------------------------
    if store.config.wal_enabled:
        for partition in partitions:
            name = wal_names.get(partition.id)
            if name is not None and disk.exists(name):
                reader = WalReader(disk, name)
                records = list(reader.replay())
                for key, kind, value in records:
                    partition.mem._insert(key, kind, value)
                if reader.tail_corrupt:
                    _relog_wal(store, partition, name, records)
                else:
                    partition.wal = WalWriter(disk, name, tag="wal", append=True)
            else:
                store._rotate_wal(partition)


def _relog_wal(store, partition: Partition, old_name: str,
               records: list[tuple[bytes, int, bytes]]) -> None:
    """Replace a WAL with a torn tail by a fresh log of its intact prefix.

    Appending past the tear would strand the new records (replay stops at
    the damage), and truncating in place isn't an append-only operation —
    so recovery re-logs the surviving records into a new file, commits the
    switch, and only then deletes the damaged log.  A crash before the
    commit leaves the old WAL authoritative (the new file is an orphan); a
    crash after it leaves the new WAL authoritative (the old one is).
    """
    ctx = store.ctx
    new_name = f"wal-{store._next_wal:06d}"
    store._next_wal += 1
    new_wal = WalWriter(ctx.disk, new_name, tag="wal")
    for key, kind, value in records:
        new_wal.append(key, kind, value)
    ctx.manifest.append({"type": "wal", "partition": partition.id,
                         "name": new_name})
    ctx.disk.delete(old_name)
    partition.wal = new_wal


def _rebuild_hash_index(ctx: StoreContext, partition: Partition,
                        checkpoint: tuple[str, list[int]] | None) -> None:
    """Load the checkpointed index and replay tables flushed after it."""
    tables = partition.unsorted.tables
    rebuilt_from_ckpt = False
    if checkpoint is not None:
        file, covered = checkpoint
        usable = (ctx.disk.exists(file)
                  and all(tid in tables for tid in covered))
        if usable:
            # A checkpoint that reads back damaged (torn clone, media
            # fault) is never fatal: the index is an acceleration
            # structure and can always be rebuilt from the tables.
            try:
                buf = ctx.disk.read_full(file, tag="checkpoint_load")
                partition.unsorted.index = HashIndex.decode(buf)
                rebuilt_from_ckpt = True
                to_replay = [tid for tid in sorted(tables) if tid not in covered]
            except (CorruptionError, ReadFault, struct.error):
                to_replay = sorted(tables)
        else:
            to_replay = sorted(tables)
    else:
        to_replay = sorted(tables)
    if not rebuilt_from_ckpt:
        partition.unsorted.index = HashIndex(
            ctx.config.hash_buckets, ctx.config.hash_functions)
    for table_id in to_replay:
        reader = ctx.table_reader(tables[table_id].name)
        for key, __, ___ in reader.entries(tag="index_rebuild"):
            partition.unsorted.index.insert(key, table_id)
    partition.unsorted.flushes_since_checkpoint = len(to_replay)
