"""Unit tests for IOStats aggregation and the device cost model."""

import dataclasses

import pytest

from repro.env import DeviceCostModel, IOStats
from repro.env.iostats import RAND, READ, SEQ, WRITE

_MB = 1024 * 1024


def test_iostats_delta_and_merge():
    s = IOStats()
    s.record(WRITE, SEQ, "a", 100)
    before = s.snapshot()
    s.record(WRITE, SEQ, "a", 50)
    s.record(READ, RAND, "b", 10)
    d = s.delta_since(before)
    assert d.bytes_for(tag="a") == 50
    assert d.bytes_for(tag="b") == 10
    merged = IOStats()
    merged.merge(before)
    merged.merge(d)
    assert merged.bytes_for(tag="a") == s.bytes_for(tag="a")


def test_iostats_reset():
    s = IOStats()
    s.record(READ, SEQ, "x", 5)
    s.reset()
    assert s.read_bytes == 0 and not s.records


def test_iostats_version_counts_changes_and_stamps_records():
    s = IOStats()
    s.record(WRITE, SEQ, "a", 100)
    s.record(READ, RAND, "b", 10)
    assert s.version == 2
    assert s.records[(WRITE, SEQ, "a")].version == 1
    assert s.records[(READ, RAND, "b")].version == 2
    other = IOStats()
    other.record(WRITE, SEQ, "a", 1)
    s.merge(other)
    assert s.version == 3 and s.records[(WRITE, SEQ, "a")].version == 3
    assert s.records[(READ, RAND, "b")].version == 2
    s.reset()
    assert s.version == 4
    # the counter is bookkeeping, not content
    copy = IOStats()
    copy.record(WRITE, SEQ, "a", 101)
    assert copy.snapshot() == copy and copy.version != copy.snapshot().version


def test_seq_write_time_matches_bandwidth():
    model = DeviceCostModel(seq_write_mb_s=400.0)
    s = IOStats()
    s.record(WRITE, SEQ, "flush", 400 * _MB)
    assert model.seconds(s) == pytest.approx(1.0)


def test_seq_read_time_matches_bandwidth():
    model = DeviceCostModel(seq_read_mb_s=500.0)
    s = IOStats()
    s.record(READ, SEQ, "compaction", 500 * _MB)
    assert model.seconds(s) == pytest.approx(1.0)


def test_rand_read_pays_per_op_latency():
    model = DeviceCostModel(seq_read_mb_s=500.0, rand_read_op_us=80.0)
    s = IOStats()
    for _ in range(1000):
        s.record(READ, RAND, "lookup", 4096)
    t = model.seconds(s)
    stream = 1000 * 4096 / (500.0 * _MB)
    assert t == pytest.approx(stream + 1000 * 80e-6)


def test_rand_write_pays_per_op_latency():
    model = DeviceCostModel(seq_write_mb_s=400.0, rand_write_op_us=100.0)
    s = IOStats()
    s.record(WRITE, RAND, "inplace", 4096)
    assert model.seconds(s) == pytest.approx(4096 / (400.0 * _MB) + 100e-6)


def test_parallelism_divides_tag_time():
    base = DeviceCostModel()
    par = base.with_parallelism(compaction=4.0)
    s = IOStats()
    s.record(WRITE, SEQ, "compaction", 100 * _MB)
    s.record(WRITE, SEQ, "wal", 100 * _MB)
    b_base = base.breakdown(s)
    b_par = par.breakdown(s)
    assert b_par.tag("compaction") == pytest.approx(b_base.tag("compaction") / 4.0)
    assert b_par.tag("wal") == pytest.approx(b_base.tag("wal"))


def test_with_parallelism_does_not_mutate_original():
    base = DeviceCostModel()
    base.with_parallelism(gc=8.0)
    assert "gc" not in base.parallelism


def test_cost_model_is_frozen():
    """The virtual clock caches prices per model object, so a model must
    not change in place."""
    factors = {"gc": 2.0}
    model = DeviceCostModel(parallelism=factors)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.rand_read_op_us = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.parallelism = {}
    with pytest.raises(TypeError):
        model.parallelism["gc"] = 4.0
    factors["gc"] = 4.0  # the caller's dict is copied, not shared
    assert model.parallelism == {"gc": 2.0}
    assert model.with_parallelism(gc=4.0).parallelism == {"gc": 4.0}


def test_record_seconds_prices_breakdown():
    model = DeviceCostModel().with_parallelism(gc=4.0)
    s = IOStats()
    s.record(READ, RAND, "gc", 4096)
    s.record(READ, RAND, "gc", 4096)
    expected = (8192 / (500.0 * _MB) + 2 * 80.0 * 1e-6) / 4.0
    assert model.record_seconds(READ, RAND, "gc", 2, 8192) == expected
    assert model.breakdown(s).tag("gc") == expected


def test_breakdown_total_sums_tags():
    model = DeviceCostModel()
    s = IOStats()
    s.record(WRITE, SEQ, "a", _MB)
    s.record(READ, RAND, "b", 4096)
    b = model.breakdown(s)
    assert b.total == pytest.approx(b.tag("a") + b.tag("b"))
