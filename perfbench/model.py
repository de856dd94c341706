"""The deterministic "model" pass: device time priced from I/O counters.

This is the E15 definition of ``repro.bench.runner.run_workload(...,
collect_latencies=True)``: after every op, the delta of each store's
``disk.stats`` (minus I/O the scheduler moved to background lanes) is
priced by the store's effective ``DeviceCostModel``, plus the op's stall
seconds, plus 2 us of CPU.  It is extended to several stores (the served
shards) and to batch ops, and it runs apart from the timed loop: a per-op
snapshot costs about 70 us and would distort wall-clock numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.bench.runner import DEFAULT_CPU_US_PER_OP, effective_cost_model
from repro.env.cost_model import DeviceCostModel
from repro.env.iostats import READ


@dataclass
class ModelResult:
    ops: int
    seconds: float
    latencies: list[float]
    read_ops: int

    @property
    def kops(self) -> float:
        return self.ops / self.seconds / 1000.0

    def tail_mean(self, frac: float) -> float:
        """Mean latency of the slowest ``frac`` of ops.

        Used in place of a plain quantile: modelled latencies take few
        distinct values (a fixed count of seeks plus near-fixed transfer),
        so a quantile sits on a plateau and barely moves when the I/O
        pattern changes.
        """
        ordered = sorted(self.latencies)
        tail = ordered[len(ordered) - max(1, int(len(ordered) * frac)):]
        return math.fsum(tail) / len(tail)


class _Cursor:
    """Per-store counters as of the previous op."""

    def __init__(self, store) -> None:
        self.store = store
        self.model = effective_cost_model(store, DeviceCostModel())
        self.scheduler = store.scheduler if store.scheduler.overlapped else None
        self.io = store.disk.stats.snapshot()
        self.first_io = self.io
        self.bg = self.scheduler.background_io.snapshot() if self.scheduler else None
        self.stall = self.scheduler.stats.stall_seconds if self.scheduler else 0.0

    def advance(self) -> float:
        """Modelled seconds since the previous call."""
        now = self.store.disk.stats.snapshot()
        delta = now.delta_since(self.io)
        self.io = now
        stall = 0.0
        if self.scheduler is not None:
            bg_now = self.scheduler.background_io.snapshot()
            delta = delta.delta_since(bg_now.delta_since(self.bg))
            self.bg = bg_now
            stall = self.scheduler.stats.stall_seconds - self.stall
            self.stall = self.scheduler.stats.stall_seconds
        return self.model.seconds(delta) + stall


SAMPLE_EVERY = 100


def model_pass(stores, ops, execute, sample=None) -> ModelResult:
    """Apply ``ops`` one by one with ``execute(op)``, pricing each.

    ``sample()``, if given, runs after every ``SAMPLE_EVERY``-th op.
    """
    cursors = [_Cursor(s) for s in stores]
    cpu = DEFAULT_CPU_US_PER_OP * 1e-6
    latencies = []
    for i, op in enumerate(ops):
        execute(op)
        latencies.append(sum(c.advance() for c in cursors) + cpu)
        if sample is not None and i % SAMPLE_EVERY == 0:
            sample()
    read_ops = sum(c.store.disk.stats.ops_for(op=READ) - c.first_io.ops_for(op=READ)
                   for c in cursors)
    return ModelResult(len(latencies), math.fsum(latencies), latencies, read_ops)
