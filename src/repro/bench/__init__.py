"""Benchmark harness.

Drives workloads against the engines, collects I/O-accounting deltas, and
converts them into paper-style metrics (throughput on the modelled device,
write/read amplification, index memory) and formatted tables.
"""

from repro.bench.metrics import RunMetrics
from repro.bench.report import format_series, format_table
from repro.bench.runner import effective_cost_model, execute_ops, run_workload

__all__ = [
    "RunMetrics",
    "run_workload",
    "execute_ops",
    "effective_cost_model",
    "format_table",
    "format_series",
]
