"""The in-process workloads: load_update and zipf_read.

One caller drives a ``UniKV`` through its public API.  An untraced run:

1. generates the inputs (``gen``);
2. three rounds of: build the starting state (timed; ``setup_s`` is the
   median), run a third of the timed phase on it (ops back to back, in
   slices with a reference-loop measurement between them:
   ``outcome.Slices``), check its results;
3. builds the state once more, untimed, for the fixed-size model pass
   (``model.py``).

A traced run builds the state twice: once for an untraced half-length
phase, once, with the span wrappers installed, for a traced one.
"""

from __future__ import annotations

import gc
import statistics
import time
from array import array

from repro.core import UniKV, UniKVConfig

import gen
import layers
import tracing
from model import SAMPLE_EVERY, model_pass
from outcome import (SLICE_S, Outcome, ScaledTimer, Slices, peak_rss_bytes,
                     reference_seconds, rss_baseline)

SETUP_REPEATS = 3
#: a timed build runs in this many sections, each after a reference
#: measurement (``outcome.ScaledTimer``)
SETUP_SECTIONS = 8

#: records loaded, ops in the model pass, op-list length per timed second
SIZES = {
    "load_update": {"records": 30_000, "model_ops": 60_000, "rate": 45_000},
    "zipf_read": {"records": 30_000, "model_ops": 30_000, "rate": 30_000},
}


def config_for(workload: str) -> UniKVConfig:
    if workload == "load_update":
        # Background lanes: the only workload that drives the scheduler's
        # overlapped mode (slowdown/stop stalls, stall attribution).
        return UniKVConfig(background_threads=1)
    return UniKVConfig()


def sizes(workload: str, scale: float) -> dict[str, int]:
    return gen.scaled(SIZES[workload], scale)


def make_inputs(workload: str, seed: int, seconds: float, scale: float) -> gen.InProcInputs:
    size = sizes(workload, scale)
    num_ops = max(size["model_ops"], int(size["rate"] * seconds))
    if workload == "load_update":
        return gen.load_update(seed, size["records"], num_ops)
    return gen.zipf_read(seed, size["records"], num_ops)


def build(workload: str, load) -> tuple[UniKV, list[int]]:
    """The starting state, plus ``index_memory_bytes()`` sampled every
    ``SAMPLE_EVERY`` puts (about 0.1% of the build time)."""
    db = UniKV(config=config_for(workload))
    put = db.put
    samples = []
    for i, (key, value) in enumerate(load):
        put(key, value)
        if i % SAMPLE_EVERY == 0:
            samples.append(db.index_memory_bytes())
    return db, samples


def timed_build(workload: str, load) -> tuple[UniKV, ScaledTimer]:
    """The starting state, built in ``SETUP_SECTIONS`` timed sections."""
    timer = ScaledTimer()
    step = -(-len(load) // SETUP_SECTIONS)
    timer.start()
    db = UniKV(config=config_for(workload))
    put = db.put
    for i, (key, value) in enumerate(load):
        if i and i % step == 0:
            timer.split()
        put(key, value)
    timer.stop()
    return db, timer


class Phase:
    """Per-op latency and pass/fail slots, allocated before the timed
    phase so that recording adds nothing to the measured memory, plus the
    per-slice wall figures of every round."""

    def __init__(self, capacity: int) -> None:
        self.latencies = array("d", bytes(8 * capacity))
        self.ok = bytearray(capacity)
        self.ops = 0
        self.seconds = 0.0
        self.slices = Slices()

    @property
    def failed(self) -> int:
        return self.ok[:self.ops].count(0)


def applied(ops: list, n: int) -> list:
    """The first ``n`` ops of the cycled op list."""
    return [ops[i % len(ops)] for i in range(n)]


def expected_results(workload: str, ops: list, model: dict) -> list:
    """What each timed op must return (gets see no writes)."""
    if workload == "load_update":
        return [None] * len(ops)
    return [model[key] for key in ops]


def timed_phase(db: UniKV, workload: str, ops: list, expected: list, seconds: float,
                phase: Phase) -> int:
    """One timed round on a fresh ``db``: slices of about ``SLICE_S``,
    each after a reference-loop measurement (``outcome.Slices``).  Returns
    the round's op count."""
    if workload == "load_update":
        put = db.put
        call = lambda kv: put(kv[0], kv[1])  # noqa: E731
    else:
        call = db.get
    n = max(1, round(seconds / SLICE_S))
    first = phase.ops
    for __ in range(n):
        ref_s = reference_seconds()
        begin = phase.ops
        elapsed = _slice(call, ops, expected, (begin - first) % len(ops),
                         seconds / n, phase)
        phase.seconds += elapsed
        phase.slices.add(phase.ops - begin, elapsed, phase.latencies[begin:phase.ops],
                         ref_s)
    return phase.ops - first


def _slice(call, ops: list, expected: list, pos: int, seconds: float,
           phase: Phase) -> float:
    """Apply ops back to back from ``ops[pos]`` until ``seconds`` pass,
    recording each op's latency and whether it returned ``expected``.
    Returns the elapsed seconds.

    The op list is sized for about twice today's throughput and is cycled
    if a faster program runs past its end, so the slice always lasts
    ``seconds``.  The slots grow by one op list's worth whenever they are
    full.
    """
    perf = time.perf_counter
    latencies, ok = phase.latencies, phase.ok
    i = phase.ops
    start = perf()
    deadline = start + seconds
    while True:
        if i == len(ok):
            latencies.extend(array("d", bytes(8 * len(ops))))
            ok.extend(bytes(len(ops)))
        t0 = perf()
        if t0 >= deadline:
            phase.ops = i
            return t0 - start
        got = call(ops[pos])
        latencies[i] = perf() - t0
        ok[i] = got == expected[pos]
        i += 1
        pos += 1
        if pos == len(ops):
            pos = 0


def _check_readback(workload: str, db: UniKV, model: dict) -> int:
    """Reopen a copy of the device and read every acknowledged key back.

    Streams ``items()`` over the recovered store: a key that is missing,
    stale, out of order or unexpected each counts as one failure.
    """
    reopened = UniKV(disk=db.disk.clone(), config=config_for(workload))
    pairs = list(reopened.items())
    got = dict(pairs)
    failed = sum(1 for a, b in zip(pairs, pairs[1:]) if a[0] >= b[0])
    failed += sum(1 for key, value in model.items() if got.get(key) != value)
    failed += sum(1 for key in got if key not in model)
    return failed


def _model_metrics(workload: str, db: UniKV, index_samples: list[int],
                   inputs: gen.InProcInputs, num_ops: int,
                   model: dict) -> tuple[dict, int]:
    """Model metrics on ``db`` right after setup; returns (metrics, failures)."""
    ops = inputs.ops[:num_ops]
    user_bytes = sum(len(k) + len(v) for k, v in inputs.load)
    failed = 0
    sample = lambda: index_samples.append(db.index_memory_bytes())  # noqa: E731
    if workload == "load_update":
        result = model_pass([db], ops, lambda op: db.put(op[0], op[1]), sample)
        user_bytes += sum(len(k) + len(v) for k, v in ops)
        live = dict(model)
        live.update(ops)
    else:
        got = []
        # Gets leave the index as the load left it: no samples needed.
        result = model_pass([db], ops, lambda key: got.append(db.get(key)))
        failed = sum(1 for key, value in zip(ops, got) if model[key] != value)
        live = model
    live_bytes = sum(len(k) + len(v) for k, v in live.items())
    return {
        "model_kops": result.kops,
        "model_tail_us": result.tail_mean(0.01) * 1e6,
        "write_amp": db.disk.stats.write_bytes / user_bytes,
        "dev_reads_per_op": result.read_ops / result.ops,
        "space_amp": db.disk.total_bytes() / live_bytes,
        "index_mem_kb": statistics.fmean(index_samples) / 1024,
    }, failed


def _readback(workload: str, db: UniKV, inputs: gen.InProcInputs, num_ops: int,
              model: dict) -> tuple[int, int]:
    """(keys checked, failures) after ``num_ops`` timed ops on ``db``.

    Only writes need it: each get was checked as it returned.
    """
    if workload != "load_update":
        return 0, 0
    final = dict(model)
    final.update(applied(inputs.ops, num_ops))
    return len(final), _check_readback(workload, db, final)


def run(workload: str, seed: int, seconds: float, scale: float = 1.0) -> Outcome:
    inputs = make_inputs(workload, seed, seconds, scale)
    model = dict(inputs.load)
    expected = expected_results(workload, inputs.ops, model)
    phase = Phase(len(inputs.ops))
    gc.collect()
    rss0 = rss_baseline()
    setups = []
    attempted = failed = 0
    # Each build gets a third of the timed phase, so the measurement is
    # spread over the whole run instead of one stretch of machine time.
    for __ in range(SETUP_REPEATS):
        db, setup = timed_build(workload, inputs.load)
        setups.append(setup)
        num_ops = timed_phase(db, workload, inputs.ops, expected,
                              seconds / SETUP_REPEATS, phase)
        checked, wrong = _readback(workload, db, inputs, num_ops, model)
        attempted += checked
        failed += wrong
        del db
        gc.collect()
    mem_mb = (peak_rss_bytes() - rss0) / 1e6
    # The model pass gets its own untimed build of the same starting state.
    db, index_samples = build(workload, inputs.load)
    num_model = sizes(workload, scale)["model_ops"]
    model_metrics, model_failed = _model_metrics(workload, db, index_samples, inputs,
                                                 num_model, model)
    if workload == "zipf_read":
        attempted += num_model
        failed += model_failed
    metrics = {
        "ops_per_s": phase.slices.ops_per_s,
        "op_p50_us": phase.slices.p50_us,
        "setup_s": statistics.median(t.scaled for t in setups),
        "mem_mb": mem_mb,
        **model_metrics,
    }
    return Outcome(metrics, attempted + phase.ops, failed + phase.failed,
                   detail={**phase.slices.raw(),
                           "raw_setup_s": statistics.median(t.raw for t in setups)})


def run_traced(workload: str, seed: int, seconds: float, scale: float = 1.0,
               dump_path=None) -> Outcome:
    inputs = make_inputs(workload, seed, seconds, scale)
    model = dict(inputs.load)
    expected = expected_results(workload, inputs.ops, model)
    half = seconds / 2
    db, __ = build(workload, inputs.load)
    base = Phase(len(inputs.ops))
    timed_phase(db, workload, inputs.ops, expected, half, base)
    attempted, failed = _readback(workload, db, inputs, base.ops, model)
    del db
    gc.collect()

    rec = tracing.Recorder()
    restore = tracing.install(rec, tracing.STORE_PATCHES)
    try:
        db, __ = build(workload, inputs.load)
        traced = Phase(len(inputs.ops))
        before = layers.probe([db])
        rec.enabled = True
        timed_phase(db, workload, inputs.ops, expected, half, traced)
        rec.enabled = False
        after = layers.probe([db])
    finally:
        rec.enabled = False
        restore()
    checked, wrong = _readback(workload, db, inputs, traced.ops, model)
    values = layers.store_layers(tracing.SpanStats(rec), before, after,
                                 traced.ops, traced.seconds)
    clone = db.disk.clone()
    t0 = time.perf_counter()
    UniKV(disk=clone, config=config_for(workload))
    values["recovery.open_ms"] = (time.perf_counter() - t0) * 1e3
    values["recovery.read_kb"] = clone.stats.read_bytes / 1024
    values["trace.overhead_frac"] = 1.0 - traced.slices.ops_per_s / base.slices.ops_per_s
    if dump_path is not None:
        rec.dump(dump_path)
    return Outcome(layers.complete(values),
                   attempted + checked + base.ops + traced.ops,
                   failed + wrong + base.failed + traced.failed,
                   detail={"spans": len(rec)})
