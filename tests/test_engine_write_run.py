"""write_run: the one table-cut rule shared by merge, GC, split and compaction."""

from repro.engine import SSTableBuilder, SSTableReader
from repro.engine.keys import KIND_VALUE
from repro.engine.sstable import write_run
from repro.env.storage import SimulatedDisk


def _records(n: int) -> list[tuple[bytes, int, bytes]]:
    return [(f"key-{i:04d}".encode(), KIND_VALUE, bytes([i % 251]) * 40)
            for i in range(n)]


def _factory(disk: SimulatedDisk):
    names = iter(f"t{i:03d}" for i in range(1000))
    return lambda: SSTableBuilder(disk, next(names), tag="test", block_size=128)


def test_empty_input_creates_no_file():
    disk = SimulatedDisk()
    assert write_run(iter(()), _factory(disk), target_bytes=512) == []
    assert disk.list() == []
    assert disk.stats.records == {}


def test_table_is_cut_at_first_record_reaching_target():
    records = _records(60)
    # The size a table reaches after each record, measured on a shadow
    # builder; a target equal to one of these sizes must cut right there.
    shadow = SSTableBuilder(SimulatedDisk(), "shadow", tag="test", block_size=128)
    sizes = []
    for record in records:
        shadow.add(*record)
        sizes.append(shadow.estimated_size)
    cut = 9
    target = sizes[cut]
    assert sizes[cut - 1] < target

    disk = SimulatedDisk()
    metas = write_run(records, _factory(disk), target_bytes=target)
    assert metas[0].num_entries == cut + 1
    assert metas[0].largest == records[cut][0]
    assert sum(m.num_entries for m in metas) == len(records)
    assert [m.name for m in metas] == disk.list()
    # Tables partition the stream in order; the tail holds the remainder.
    got = [entry for m in metas
           for entry in SSTableReader(disk, m.name).entries(tag="test")]
    assert got == records


def test_single_record_run_finishes_its_tail_table():
    disk = SimulatedDisk()
    metas = write_run(_records(1), _factory(disk), target_bytes=1 << 20)
    assert len(metas) == 1 and metas[0].num_entries == 1
