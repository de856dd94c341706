"""The benchmark's own tests.  Run: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time

import pytest

from repro.bench.runner import run_workload
from repro.core import UniKV, UniKVConfig
from repro.service.router import ShardRouter, default_boundaries

import gen
import inproc
import outcome
import served
import tracing
from model import model_pass
from spec import BENCH_DIR, END_TO_END, PER_LAYER, ROOT, WORKLOADS, benchmark_json

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- inputs -------------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda seed: gen.load_update(seed, 500, 2000),
    lambda seed: gen.zipf_read(seed, 500, 2000),
    lambda seed: gen.served_mixed(seed, 500, 300),
])
def test_same_seed_same_ops_other_seed_other_ops(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_every_write_carries_a_distinct_value():
    inputs = gen.load_update(3, 1000, 5000)
    values = [v for __, v in inputs.load] + [v for __, v in inputs.ops]
    assert len(set(values)) == len(values)


# -- model metrics ---------------------------------------------------------------------


def _inproc_model(workload: str, seed: int) -> dict:
    inputs = inproc.make_inputs(workload, seed, 0.01, 0.05)
    db, samples = inproc.build(workload, inputs.load)
    n = inproc.sizes(workload, 0.05)["model_ops"]
    metrics, failed = inproc._model_metrics(workload, db, samples, inputs, n,
                                            dict(inputs.load))
    assert failed == 0
    return metrics


@pytest.mark.parametrize("workload", ["load_update", "zipf_read"])
def test_model_metrics_bit_identical_for_one_seed(workload):
    first = _inproc_model(workload, 11)
    assert first == _inproc_model(workload, 11)
    assert first != _inproc_model(workload, 12)


def test_served_model_metrics_bit_identical_for_one_seed():
    def once(seed):
        metrics, checked, failed = served._model_metrics(
            served.make_inputs(seed, 0.01, 0.05), 1000)
        assert checked == 1000 and failed == 0
        return metrics

    assert once(5) == once(5)
    assert once(5) != once(6)


def test_model_pass_matches_run_workload_definition():
    """Same per-op pricing as run_workload(collect_latencies=True)."""
    inputs = gen.load_update(4, 2000, 3000)
    config = dict(background_threads=1, memtable_size=2048, unsorted_limit_bytes=8192,
                  partition_size_limit=65536)
    ours = UniKV(config=UniKVConfig(**config))
    theirs = UniKV(config=UniKVConfig(**config))
    for key, value in inputs.load:
        ours.put(key, value)
        theirs.put(key, value)
    result = model_pass([ours], inputs.ops, lambda op: ours.put(*op))
    reference = run_workload(theirs, [("update", k, v) for k, v in inputs.ops],
                             collect_latencies=True)
    assert result.ops == reference.num_ops
    assert result.seconds == pytest.approx(reference.modelled_seconds, rel=1e-9)
    assert theirs.scheduler.stats.stall_events > 0  # the stall path was priced


# -- metric declarations --------------------------------------------------------------------


def test_metric_names_and_units_are_well_formed_and_unique():
    names = [m.name for m in END_TO_END] + [m.name for m in PER_LAYER]
    assert len(names) == len(set(names))
    for metric in (*END_TO_END, *PER_LAYER):
        assert NAME.fullmatch(metric.name), metric.name
        assert UNIT.fullmatch(metric.unit), metric.unit
        assert metric.better in ("higher", "lower")
    assert {"setup_s"} <= {m.name for m in END_TO_END}
    assert max(m.bound for m in END_TO_END) == next(
        m.bound for m in END_TO_END if m.name == "setup_s") <= 0.25


def test_every_per_layer_metric_declares_target_metric_and_workload():
    e2e = {m.name for m in END_TO_END}
    for metric in PER_LAYER:
        assert metric.targets, metric.name
        for target, workload in metric.targets:
            assert target in e2e and workload in WORKLOADS, (metric.name, target)


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == benchmark_json()
    for workload in benchmark_json()["workloads"]:
        assert NAME.fullmatch(workload["name"])
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


# -- tracing --------------------------------------------------------------------------------


class _Layer:
    def outer(self):
        time.sleep(0.002)
        return self.inner()

    def inner(self):
        time.sleep(0.004)
        return 1

    def items(self):
        for i in range(3):
            time.sleep(0.002)
            yield i


def test_self_time_excludes_children_and_generators_time_iteration():
    rec = tracing.Recorder()
    patches = [(__name__, "_Layer.outer", "outer", "call", None),
               (__name__, "_Layer.inner", "inner", "call", None),
               (__name__, "_Layer.items", "items", "gen", None)]
    restore = tracing.install(rec, patches)
    try:
        rec.enabled = True
        layer = _Layer()
        layer.outer()
        it = layer.items()  # creating the generator costs ~nothing
        time.sleep(0.01)    # consumer time between resumes is not the layer's
        assert list(it) == [0, 1, 2]
        rec.enabled = False
    finally:
        restore()
    stats = tracing.SpanStats(rec)
    assert stats.total("outer") >= 0.006
    assert 0.002 <= stats.self_time("outer") < 0.004
    assert stats.self_time("inner") == stats.total("inner")
    assert 0.006 <= stats.total("items") < 0.009
    assert rec.counts["items.items"] == 3
    outer, inner = rec.find("outer"), rec.find("inner")
    parents = {rec.name[s]: rec.parent[s] for s in range(len(rec))}
    assert rec.name[parents[inner]] == outer
    assert rec.op[0] == rec.op[1] != rec.op[2]  # spans of one op share an id
    assert _Layer.outer.__name__ == "outer" and not hasattr(_Layer.outer, "__wrapped__")


def test_from_imports_are_patched_where_looked_up():
    import repro.core.merge
    import repro.core.store
    import repro.engine.iterators

    originals = (repro.core.store.merge_sorted, repro.core.merge.merge_sorted)
    rec = tracing.Recorder()
    restore = tracing.install(rec, tracing.STORE_PATCHES)
    try:
        assert repro.core.store.merge_sorted is not originals[0]
        assert repro.core.merge.merge_sorted is not originals[1]
        rec.enabled = True
        db = UniKV()
        for i in range(50):
            db.put(gen.key_of(i), b"v")
        assert len(db.scan(b"", 10)) == 10
        rec.enabled = False
    finally:
        restore()
    assert repro.core.store.merge_sorted is originals[0]
    stats = tracing.SpanStats(rec)
    assert stats.count("merge_sorted") == 1 and rec.counts["merge_sorted.items"] == 10
    assert stats.count("store.scan") == 1 and rec.counts["store.scan.items"] == 10


# -- timed phase ----------------------------------------------------------------------------


def test_timed_phase_outgrows_its_op_list_in_every_round():
    inputs = gen.zipf_read(1, 200, 50)
    model = dict(inputs.load)
    expected = inproc.expected_results("zipf_read", inputs.ops, model)
    db, __ = inproc.build("zipf_read", inputs.load)
    phase = inproc.Phase(len(inputs.ops))
    counts = [inproc.timed_phase(db, "zipf_read", inputs.ops, expected, 0.05, phase)
              for __ in range(3)]
    assert all(n > 2 * len(inputs.ops) for n in counts)  # each round wraps the list
    assert phase.ops == sum(counts) and phase.failed == 0
    assert len(phase.slices.rates) == 3 and phase.slices.ops_per_s > 0


def test_slices_scale_to_nominal_machine_speed():
    slices = outcome.Slices()
    nominal = outcome.REF_NOMINAL_S
    slices.add(100, 0.5, [1e-3] * 100, nominal)
    slices.add(50, 0.5, [2e-3] * 50, 2 * nominal)  # machine at half speed
    slices.add(0, 0.5, [], nominal)  # one op outlasted the slice
    assert slices.rates == [200.0, 200.0, 0.0] and slices.p50s == [1e-3, 1e-3]
    assert slices.raw() == {"raw_ops_per_s": 100.0, "raw_op_p50_us": 1500.0}
    assert outcome.reference_seconds() > 0


# -- correctness checks ---------------------------------------------------------------------


def test_readback_counts_lost_and_stale_writes():
    db, __ = inproc.build("zipf_read", [(gen.key_of(i), b"v%d" % i) for i in range(100)])
    model = {gen.key_of(i): b"v%d" % i for i in range(100)}
    assert inproc._check_readback("zipf_read", db, model) == 0
    model[gen.key_of(500)] = b"acked but never written"
    model[gen.key_of(1)] = b"newer value"
    assert inproc._check_readback("zipf_read", db, model) == 2


def _serial_logs(inputs: gen.ServedInputs):
    """Responses of a legal execution: client 0's ops, then client 1's."""
    router = ShardRouter.create(2, boundaries=[inputs.boundary])
    for batch in inputs.batches:
        router.write_batch(batch)
    logs = []
    for ops in inputs.clients:
        log = []
        for op in ops:
            if op[0] == gen.GET:
                result = router.get(op[1])
            elif op[0] == gen.PUT:
                router.put(op[1], op[2])
                result = 1
            elif op[0] == gen.SCAN:
                result = router.scan(op[1], op[2])
            else:
                router.write_batch(op[1])
                result = len(op[1])
            log.append((1e-4, result))
        logs.append(log)
    return logs, router.scan(b"", 1 << 30)


def test_served_verify_counts_wrong_answers_errors_and_lost_writes():
    inputs = gen.served_mixed(2, 300, 200)
    logs, final = _serial_logs(inputs)
    checked, failed = served.verify(inputs, logs, final)
    assert failed == 0 and checked == 400 + 300
    get0, get1 = (next(i for i, op in enumerate(ops) if op[0] == gen.GET)
                  for ops in inputs.clients)
    logs[0][get0] = (1e-4, b"wrong")
    logs[1][get1] = (1e-4, served.TransientError("gave up"))
    assert served.verify(inputs, logs, final)[1] == 2
    assert served.verify(inputs, logs, final[:-1])[1] == 3  # a lost acked write


def test_default_boundaries_would_send_every_key_to_one_shard():
    router = ShardRouter.create(2, boundaries=default_boundaries(2))
    assert {router.shard_index(gen.key_of(i)) for i in range(0, 20_000, 97)} == {0}
    inputs = gen.served_mixed(1, 1000, 10)
    midpoint = ShardRouter.create(2, boundaries=[inputs.boundary])
    assert {midpoint.shard_index(gen.key_of(i)) for i in range(0, 1000, 7)} == {0, 1}


# -- smoke runs -------------------------------------------------------------------------------


def _run(workload: str, trace: int, cwd=ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.6", "--trace", str(trace), "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_scale_smoke_run(workload, trace):
    code, out = _run(workload, trace)
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [m.name for m in specs]
    for m in specs:
        assert result["metrics"][m.name]["unit"] == m.unit
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
    elif workload == "served_mixed":
        assert 0.5 <= values["router.shard_op_share_max"] < 0.9  # both shards serve
        assert values["client.encode_us"] > 0 and values["protocol.decode_request_us"] > 0
    else:
        assert values["store.get_self_us"] + values["store.put_self_us"] > 0
        assert values["recovery.open_ms"] > 0


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zipf_read", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
