"""What the benchmark measures: workloads, metrics and the layer -> metric map.

This module is the single source for every metric name, unit and direction.
``BENCHMARK.json`` at the repository root repeats the end-to-end and
per-layer lists; ``tests/test_perfbench.py`` checks that the two agree.

It imports nothing from ``repro``, so ``run.py`` can call
:func:`require_src` before the package is importable.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("load_update", "zipf_read", "served_mixed")


def require_src() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``, or exit 2.

    The benchmark measures the code of the checkout it sits in, never an
    installed copy of ``repro``.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from a full "
              f"checkout", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    bound: float
    clock: str  # "wall" | "model"
    meaning: str


#: Reported by every workload's untraced run (``--trace 0``).  "model"
#: metrics come from a separate deterministic pass (see ``inproc.model_pass``)
#: and repeat bit-exactly for one seed.
END_TO_END = (
    EndToEnd("ops_per_s", "1/s", "higher", 0.25, "wall",
             "median over 0.5-s slices of the timed phase of ops / slice seconds "
             "(a batch counts as 1 op), each slice scaled to nominal machine speed "
             "by a reference loop timed before it (outcome.Slices)"),
    EndToEnd("op_p50_us", "us", "lower", 0.25, "wall",
             "median over the slices of the slice's median op latency, scaled "
             "the same way"),
    EndToEnd("setup_s", "s", "lower", 0.25, "wall",
             "median of 3 builds of the starting state, each timed in 8 sections "
             "scaled to nominal machine speed (outcome.ScaledTimer)"),
    EndToEnd("mem_mb", "MB", "lower", 0.25, "wall",
             "peak RSS growth of the process that holds the store"),
    EndToEnd("model_kops", "kop/s", "higher", 0.05, "model",
             "ops / (modelled device seconds + 2 us CPU per op), in thousands"),
    EndToEnd("model_tail_us", "us", "lower", 0.1, "model",
             "mean modelled latency of the slowest 1% of ops, stalls included"),
    EndToEnd("write_amp", "x", "lower", 0.05, "model",
             "device bytes written / user bytes written, load included"),
    EndToEnd("dev_reads_per_op", "reads/op", "lower", 0.05, "model",
             "device read ops of the measured phase / its ops"),
    EndToEnd("space_amp", "x", "lower", 0.05, "model",
             "disk.total_bytes() / live user bytes at the end"),
    EndToEnd("index_mem_kb", "KiB", "lower", 0.05, "model",
             "index_memory_bytes() (the paper's memory cost), mean of samples "
             "every 100 ops over load and model pass"),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    #: (end-to-end metric, workload) pairs this metric should move
    targets: tuple[tuple[str, str], ...]


def _L(name, unit, better, layer, *targets):
    return PerLayer(name, unit, better, layer, tuple(targets))


_GET = ("op_p50_us", "zipf_read")
_PUT = ("op_p50_us", "load_update")
_LOAD_TPUT = ("ops_per_s", "load_update")
_READ_TPUT = ("ops_per_s", "zipf_read")
_SERVED_TPUT = ("ops_per_s", "served_mixed")
_SERVED_P50 = ("op_p50_us", "served_mixed")
_SERVED_SETUP = ("setup_s", "served_mixed")
_PATHS = ("memtable", "unsorted", "sorted", "miss")
_JOBS = ("flush", "merge", "gc", "scan_merge", "split")

#: Reported by every workload's traced run (``--trace 1``); a layer a
#: workload never reaches reports 0.
PER_LAYER = (
    # core.store
    *(_L(f"store.get_share.{p}", "frac", "higher" if p in ("memtable", "unsorted")
         else "lower", "core.store", _GET, ("dev_reads_per_op", "zipf_read"))
      for p in _PATHS),
    *(_L(f"store.get_us.{p}", "us", "lower", "core.store", _GET,
         ("dev_reads_per_op", "zipf_read")) for p in _PATHS),
    _L("store.get_self_us", "us", "lower", "core.store", _GET),
    _L("store.put_self_us", "us", "lower", "core.store", _PUT),
    _L("store.scan_us_per_item", "us", "lower", "core.store", _SERVED_TPUT),
    _L("store.batch_us_per_item", "us", "lower", "core.store", _SERVED_SETUP),
    # core read structures
    _L("hash_index.lookup_us", "us", "lower", "core.hash_index", _GET),
    _L("hash_index.lookups_per_get", "1/get", "lower", "core.hash_index", _GET),
    _L("hash_index.insert_us", "us", "lower", "core.hash_index", _LOAD_TPUT),
    _L("hash_index.inserts_per_put", "1/put", "lower", "core.hash_index", _LOAD_TPUT),
    _L("unsorted.probe_hit_ratio", "frac", "higher", "core.unsorted_store",
       ("dev_reads_per_op", "zipf_read"), ("model_tail_us", "zipf_read")),
    _L("sorted.get_us", "us", "lower", "core.sorted_store", _GET),
    _L("sorted.resolve_pointer_us", "us", "lower", "core.sorted_store", _SERVED_TPUT),
    # engine
    _L("memtable.put_us", "us", "lower", "engine.memtable", _PUT),
    _L("memtable.get_us", "us", "lower", "engine.memtable", _GET),
    _L("wal.append_us", "us", "lower", "engine.wal", _PUT),
    _L("sstable.get_us", "us", "lower", "engine.sstable", _GET, _READ_TPUT),
    _L("block.decode_us", "us", "lower", "engine.block", _GET, _READ_TPUT),
    _L("block.decodes_per_get", "1/get", "lower", "engine.block", _GET, _READ_TPUT),
    _L("block_cache.hit_ratio", "frac", "higher", "engine.block_cache", _GET,
       ("model_kops", "zipf_read")),
    _L("table_cache.hit_ratio", "frac", "higher", "engine.table_cache", _GET,
       ("model_kops", "zipf_read")),
    _L("vlog.read_us", "us", "lower", "engine.vlog", _GET),
    _L("vlog.reads_per_get", "1/get", "lower", "engine.vlog", _GET),
    _L("sstable_builder.add_us", "us", "lower", "engine.sstable", _LOAD_TPUT),
    _L("sstable_builder.adds_per_put", "1/put", "lower", "engine.sstable", _LOAD_TPUT),
    _L("merge_sorted.us_per_record", "us", "lower", "engine.iterators",
       _SERVED_TPUT, _LOAD_TPUT),
    # runtime.scheduler
    *(_L(f"maint.jobs_per_kop.{k}", "1/kop", "lower", "runtime.scheduler",
         _LOAD_TPUT, _SERVED_TPUT) for k in _JOBS),
    *(_L(f"maint.wall_ms.{k}", "ms", "lower", "runtime.scheduler",
         _LOAD_TPUT, _SERVED_TPUT) for k in _JOBS),
    _L("maint.wall_share", "frac", "lower", "runtime.scheduler", _LOAD_TPUT),
    *(_L(f"maint.write_mb.{t}", "MB/kop", "lower", "runtime.scheduler",
         ("write_amp", "load_update")) for t in (*_JOBS, "wal")),
    _L("stall.events_per_kop", "1/kop", "lower", "runtime.scheduler",
       ("model_tail_us", "load_update")),
    _L("stall.model_ms", "ms/kop", "lower", "runtime.scheduler",
       ("model_tail_us", "load_update")),
    _L("stall.queue_depth_high_water", "jobs", "lower", "runtime.scheduler",
       ("model_tail_us", "load_update")),
    _L("scheduler.clock_calls_per_op", "1/op", "lower", "runtime.scheduler", _READ_TPUT),
    _L("scheduler.clock_us_per_op", "us", "lower", "runtime.scheduler", _READ_TPUT),
    # obs
    _L("obs.us_per_op", "us", "lower", "obs", _READ_TPUT),
    _L("obs.share_of_get", "frac", "lower", "obs", _READ_TPUT),
    # env
    _L("iostats.us_per_op", "us", "lower", "env.iostats", _READ_TPUT),
    _L("cost_model.us_per_op", "us", "lower", "env.cost_model", _READ_TPUT),
    _L("disk.read_kb_per_get", "KiB/get", "lower", "env.storage",
       ("model_tail_us", "zipf_read")),
    _L("disk.appends_per_put", "1/put", "lower", "env.storage", _PUT),
    # service (served_mixed only)
    _L("client.encode_us", "us", "lower", "service.client", _SERVED_P50),
    _L("client.decode_us", "us", "lower", "service.client", _SERVED_P50),
    _L("client.retries_per_kop", "1/kop", "lower", "service.client", _SERVED_TPUT),
    _L("protocol.feed_us_per_frame", "us", "lower", "service.protocol",
       _SERVED_TPUT, _SERVED_SETUP),
    _L("protocol.frames_per_feed", "1/feed", "higher", "service.protocol",
       _SERVED_TPUT, _SERVED_SETUP),
    _L("protocol.decode_request_us", "us", "lower", "service.protocol",
       _SERVED_TPUT, _SERVED_SETUP),
    _L("server.request_p50_us", "us", "lower", "service.server", _SERVED_P50),
    _L("server.self_us", "us", "lower", "service.server", _SERVED_P50),
    _L("server.delayed_writes_per_kop", "1/kop", "lower", "service.server", _SERVED_P50),
    _L("server.shed_writes_per_kop", "1/kop", "lower", "service.server", _SERVED_P50),
    _L("server.errors_per_kop", "1/kop", "lower", "service.server", _SERVED_TPUT),
    _L("router.us_per_op", "us", "lower", "service.router", _SERVED_TPUT),
    _L("router.shard_op_share_max", "frac", "lower", "service.router", _SERVED_TPUT),
    _L("router.scan_shards_per_scan", "1/scan", "lower", "service.router", _SERVED_TPUT),
    # core.recovery (diagnostics only: recovery time swings too much run to run)
    _L("recovery.open_ms", "ms", "lower", "core.recovery", _LOAD_TPUT),
    _L("recovery.read_kb", "KiB", "lower", "core.recovery", _LOAD_TPUT),
    # tracing itself
    _L("trace.overhead_frac", "frac", "lower", "perfbench.tracing",
       _READ_TPUT, _LOAD_TPUT, _SERVED_TPUT),
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document these specs describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


RUN_SECONDS = 12

WHY = {
    "load_update": "write path and every maintenance job kind on background "
                   "lanes with write stalls; Zipfian overwrites, no reads",
    "zipf_read": "read path: Zipfian point gets over a data set 170x the "
                 "block cache, no maintenance in the timed phase",
    "served_mixed": "service layer, scans and writes beside reads: 2-shard "
                    "KVServer over localhost TCP, 2 closed-loop clients, "
                    "cache-resident data",
}
