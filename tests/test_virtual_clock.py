"""The scheduler's cached virtual clock equals its definition, bit for bit.

``MaintenanceScheduler.foreground_clock`` stamps every metrics span, so it
runs twice per op.  It caches its value and reprices only the I/O records
that changed since the previous call.  Its definition is kept here, and
only here: price the whole foreground diff of the disk counters, then add
the stall seconds.  Every check below compares with ``==``, not
``approx``: a clock one ulp off would move the pinned metric snapshots.
"""

import random

import pytest

from repro.bench.runner import effective_cost_model
from repro.core import UniKV
from repro.env.cost_model import DeviceCostModel
from repro.env.storage import SimulatedDisk
from tests.conftest import tiny_unikv_config


def defining_clock(store) -> float:
    scheduler = store.scheduler
    foreground = store.disk.stats.delta_since(scheduler.background_io)
    return (scheduler.cost_model.seconds(foreground)
            + scheduler.stats.stall_seconds)


def assert_clock_exact(store) -> None:
    assert store.scheduler.foreground_clock() == defining_clock(store)


def run_mixed(store, rng: random.Random, n_ops: int) -> None:
    """Seeded puts, gets, deletes, scans and batches; checks after each."""
    for _ in range(n_ops):
        key = f"key-{rng.randrange(300):05d}".encode()
        r = rng.random()
        if r < 0.45:
            store.put(key, rng.randbytes(rng.randrange(8, 90)))
        elif r < 0.7:
            store.get(key)
        elif r < 0.8:
            store.delete(key)
        elif r < 0.9:
            store.scan(key, rng.randrange(1, 30))
        else:
            store.write_batch([
                ("put", f"key-{rng.randrange(300):05d}".encode(),
                 rng.randbytes(rng.randrange(8, 90)))
                for _ in range(rng.randrange(1, 6))])
        assert_clock_exact(store)


def check_around_jobs(store) -> list[tuple[str, ...]]:
    """Check the clock before and after every job, nested ones included;
    returns the stack of running job kinds at each submission."""
    scheduler = store.scheduler
    submit = scheduler.submit
    running: list[str] = []
    stacks: list[tuple[str, ...]] = []

    def checked_submit(job):
        assert_clock_exact(store)
        running.append(job.kind)
        stacks.append(tuple(running))
        try:
            return submit(job)
        finally:
            running.pop()
            assert_clock_exact(store)

    scheduler.submit = checked_submit
    return stacks


@pytest.mark.parametrize("background_threads", [0, 1, 2])
def test_clock_equals_definition_after_every_op(background_threads):
    store = UniKV(config=tiny_unikv_config(
        background_threads=background_threads, scan_parallelism=4.0))
    stacks = check_around_jobs(store)
    rng = random.Random(background_threads)
    run_mixed(store, rng, 1500)
    # Swap the model mid-run, as run_workload does; this one divides the
    # scan-value tag by scan_parallelism.
    store.scheduler.cost_model = effective_cost_model(store, DeviceCostModel())
    assert store.scheduler.cost_model.parallelism["scan_value"] == 4.0
    assert_clock_exact(store)
    run_mixed(store, rng, 1500)
    ran = store.scheduler.stats.job_counts
    assert {"flush", "merge", "gc", "scan_merge", "split"} <= set(ran)
    # merge and gc run nested inside the flush that triggered them
    assert ("flush", "merge") in stacks and ("flush", "gc") in stacks
    if background_threads:
        assert store.scheduler.stats.stall_events > 0


def test_clock_exact_on_recovered_store():
    disk = SimulatedDisk(sync_tracking=True)
    store = UniKV(disk=disk, config=tiny_unikv_config(background_threads=1))
    rng = random.Random(7)
    run_mixed(store, rng, 800)
    recovered = UniKV(disk=disk.crash_clone(7),
                      config=tiny_unikv_config(background_threads=1))
    assert_clock_exact(recovered)
    check_around_jobs(recovered)
    run_mixed(recovered, rng, 800)


def test_clock_follows_a_disk_stats_reset():
    store = UniKV(config=tiny_unikv_config(background_threads=1))
    rng = random.Random(5)
    run_mixed(store, rng, 400)
    assert store.scheduler.background_io.records
    store.disk.stats.reset()
    assert_clock_exact(store)
    run_mixed(store, rng, 400)


def test_metric_spans_match_the_definition():
    """Snapshots from the cached clock equal those from the definition."""
    cached = UniKV(config=tiny_unikv_config(background_threads=1))
    defined = UniKV(config=tiny_unikv_config(background_threads=1))
    defined.metrics.clock = lambda: defining_clock(defined)
    for store in (cached, defined):
        run_mixed(store, random.Random(11), 1200)
    assert cached.metrics_snapshot() == defined.metrics_snapshot()


def test_unchanged_state_reprices_nothing(monkeypatch):
    store = UniKV(config=tiny_unikv_config(background_threads=1))
    run_mixed(store, random.Random(3), 600)
    priced = []
    record_seconds = DeviceCostModel.record_seconds

    def counting(model, *args):
        priced.append(args[:3])
        return record_seconds(model, *args)

    monkeypatch.setattr(DeviceCostModel, "record_seconds", counting)
    scheduler = store.scheduler
    before = scheduler.foreground_clock()
    priced.clear()
    # no new I/O, stall or model: a cache hit
    assert scheduler.foreground_clock() == before
    assert priced == []
    # a stall alone moves the clock without repricing
    scheduler.stats.stall_seconds += 0.25
    now = scheduler.foreground_clock()
    assert priced == []
    assert now == defining_clock(store) > before
    # new I/O reprices just the record it touched
    priced.clear()
    store.disk.stats.record("read", "rand", "lookup", 4096)
    now = scheduler.foreground_clock()
    assert priced == [("read", "rand", "lookup")]
    assert now == defining_clock(store)
    # a new model reprices every record with foreground I/O
    priced.clear()
    scheduler.cost_model = DeviceCostModel(rand_read_op_us=90.0)
    now = scheduler.foreground_clock()
    foreground = store.disk.stats.delta_since(scheduler.background_io)
    assert sorted(priced) == sorted(foreground.records)
    assert now == defining_clock(store)
