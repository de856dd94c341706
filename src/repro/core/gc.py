"""Value-log garbage collection for one partition's SortedStore.

Follows the paper's four-step redo protocol:

1. identify the valid values — a sequential scan of the partition's
   SortedStore keys+pointers is sufficient, because the SortedStore holds
   exactly the live key set (no LSM queries, unlike WiscKey's GC);
2. read the valid values and write them back to a newly created log file;
3. write new pointers (with their keys) into fresh SortedStore SSTables;
4. commit — one manifest record acts as the ``GC_done`` mark, after which
   the old tables are deleted and the old logs' references dropped.

A crash before step 4 leaves the old state fully intact (the new files are
orphans removed at recovery); a crash after step 4 is already durable.

Because GC rewrites every *live* value into logs owned by this partition,
it doubles as the paper's **lazy value split**: the first GC after a range
split migrates the values out of the logs shared with the sibling partition
and releases them.
"""

from __future__ import annotations

from repro.engine.keys import KIND_VALUE, KIND_VPTR
from repro.engine.sstable import write_run
from repro.engine.vlog import ValuePointer
from repro.core.context import StoreContext, ValueSink
from repro.core.manifest import meta_to_json
from repro.core.partition import Partition


def run_gc(ctx: StoreContext, partition: Partition) -> None:
    """Collect all garbage in ``partition``'s value logs."""
    ctx.crash_point("gc:start")

    # Step 1: the SortedStore's keys+pointers are exactly the live set.
    # Inline records (selective KV separation) have no log bytes to
    # reclaim but must be carried into the rewritten tables in key order.
    live: list[tuple[bytes, int, object]] = []  # key, kind, ptr|inline bytes
    wanted: dict[int, set[int]] = {}  # log number -> live offsets
    for key, kind, payload in partition.sorted.all_entries(tag="gc"):
        if kind == KIND_VALUE:
            live.append((key, KIND_VALUE, payload))
            continue
        ptr = ValuePointer.decode(payload)
        live.append((key, KIND_VPTR, ptr))
        wanted.setdefault(ptr.log_number, set()).add(ptr.offset)

    # Step 2a: read the valid values out of every referenced log
    # (one sequential pass per log file).
    values: dict[tuple[int, int], bytes] = {}
    for log_number in sorted(partition.log_numbers):
        offsets = wanted.get(log_number)
        if not offsets:
            continue
        for key, value, offset, __ in ctx.log_reader(log_number).scan(tag="gc"):
            if offset in offsets:
                values[(log_number, offset)] = value

    # Step 2b/3: write values to a new log and new pointers+keys to new tables.
    sink = ValueSink(ctx, partition.id, tag="gc")

    def rewritten():
        for key, kind, item in live:
            if kind == KIND_VPTR:
                item = sink.separate(key, values[(item.log_number, item.offset)])
            yield key, kind, item

    new_tables = write_run(rewritten(), lambda: ctx.new_table("gc"),
                           ctx.config.sstable_size)
    sink.close()

    ctx.crash_point("gc:before_commit")

    # Step 4: the GC_done commit.
    old_tables = [m.name for m in partition.sorted.tables]
    released = sorted(partition.log_numbers)
    ctx.manifest.append({
        "type": "gc",
        "partition": partition.id,
        "removed_tables": old_tables,
        "added_tables": [meta_to_json(m) for m in new_tables],
        "new_log": sink.log_number,
        "released_logs": released,
        "live_value_bytes": sink.live_value_bytes,
    })
    ctx.crash_point("gc:after_commit")

    partition.sorted.replace_tables(new_tables)
    partition.sorted.live_value_bytes = sink.live_value_bytes
    for log_number in released:
        partition.release_log(log_number)
    if sink.log_number is not None:
        partition.add_log(sink.log_number)
    for name in old_tables:
        ctx.drop_table(name)
