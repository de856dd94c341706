"""UnsortedStore → SortedStore merge with partial KV separation.

When a partition's UnsortedStore reaches UnsortedLimit, its tables are
merge-sorted with the existing SortedStore run:

* values arriving from the UnsortedStore (stored inline there) are appended
  to a **freshly created value log** and replaced by pointers;
* values already separated (pointers from the old SortedStore) are carried
  through **without rewriting the value** — this is the "partial" in partial
  KV separation, and the reason merges stay cheap: only keys and pointers
  are re-sorted, never the bulk of the cold values;
* tombstones annihilate here (nothing is older than the SortedStore).

Superseded pointers leave dead bytes behind in the old logs; GC reclaims
them (see :mod:`repro.core.gc`).  The merge commits atomically via one
manifest record after all data files are durable.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.engine.iterators import merge_sorted
from repro.engine.keys import KIND_VALUE, KIND_VPTR
from repro.engine.sstable import write_run
from repro.engine.vlog import ValuePointer
from repro.core.context import StoreContext, ValueSink
from repro.core.manifest import meta_to_json
from repro.core.partition import Partition

Record = tuple[bytes, int, bytes]


def separate_values(ctx: StoreContext, sink: ValueSink, records: Iterable[Record],
                    old_values: dict[tuple[int, int], bytes] | None = None,
                    ) -> Iterator[Record]:
    """Partial KV separation of one run's records (merge and split).

    Inline values move to the sink's new log unless they are below the
    inline threshold; pointers are carried without touching their values —
    or, given ``old_values`` (the full re-separation ablation), rewritten
    into the new log too.
    """
    inline_below = ctx.config.inline_value_threshold
    for key, kind, payload in records:
        if kind == KIND_VALUE:
            # Selective KV separation (extension): small values are
            # cheaper to keep inline than to chase through a log.
            if len(payload) >= inline_below:
                # Hot value migrating to the cold layer: separate it now.
                kind, payload = KIND_VPTR, sink.separate(key, payload)
        elif old_values is None:
            # Already separated: carry the pointer, leave the value put.
            sink.carry(payload)
        else:
            # Ablation: full re-separation — rewrite the old value into the
            # new log (what partial KV separation is designed to avoid).
            old = ValuePointer.decode(payload)
            payload = sink.separate(key, old_values[(old.log_number, old.offset)])
        yield key, kind, payload


def merge_partition(ctx: StoreContext, partition: Partition) -> None:
    """Drain the UnsortedStore into the SortedStore (one merge operation)."""
    ctx.crash_point("merge:start")
    sources = partition.unsorted.all_entry_sources(tag="merge")
    sources.append(partition.sorted.all_entries(tag="merge"))

    partial = ctx.config.partial_kv_separation
    old_values: dict[tuple[int, int], bytes] | None = None
    if not partial:
        # Ablation (full re-separation): stream every referenced log once,
        # as a value-rewriting merge would, so old values can be copied
        # into the new log below.
        old_values = {}
        for old_log in sorted(partition.log_numbers):
            for key, value, offset, __ in ctx.log_reader(old_log).scan(tag="merge"):
                old_values[(old_log, offset)] = value

    sink = ValueSink(ctx, partition.id, tag="merge")
    records = separate_values(
        ctx, sink, merge_sorted(sources, drop_tombstones=True), old_values)
    new_tables = write_run(records, lambda: ctx.new_table("merge"),
                           ctx.config.sstable_size)
    sink.close()

    ctx.crash_point("merge:after_data")

    old_unsorted = [m.name for m in partition.unsorted.tables.values()]
    old_sorted = [m.name for m in partition.sorted.tables]
    # Under full re-separation every old log is dead for this partition.
    released_logs = sorted(partition.log_numbers) if not partial else []
    ctx.manifest.append({
        "type": "merge",
        "partition": partition.id,
        "removed_unsorted": old_unsorted,
        "removed_sorted": old_sorted,
        "added_tables": [meta_to_json(m) for m in new_tables],
        "new_log": sink.log_number,
        "released_logs": released_logs,
        "live_value_bytes": sink.live_value_bytes,
    })
    ctx.crash_point("merge:after_commit")

    # Apply in memory and reclaim the replaced files.
    partition.unsorted.drain()
    partition.sorted.replace_tables(new_tables)
    partition.sorted.live_value_bytes = sink.live_value_bytes
    if sink.log_number is not None:
        partition.add_log(sink.log_number)
    for log in released_logs:
        partition.release_log(log)
    for name in old_unsorted + old_sorted:
        ctx.drop_table(name)
