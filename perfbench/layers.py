"""Per-layer metrics of a traced window, from spans plus store counters.

Counts come from the stores' own public counters, read before and after
the window (:func:`probe`); times come from spans (:mod:`tracing`).  Every
rate is normalized per op of the window, so the workloads compare.
"""

from __future__ import annotations

from repro.env.iostats import IOStats, READ, WRITE

from spec import PER_LAYER
from tracing import SpanStats

JOB_KINDS = ("flush", "merge", "gc", "scan_merge", "split")
PATHS = ("memtable", "unsorted", "sorted", "miss")


CACHE_COUNTERS = ("block_cache_hits_total", "block_cache_misses_total",
                  "table_cache_hits_total", "table_cache_misses_total")


def probe(stores) -> dict:
    """Cumulative counters of ``stores``; call with the recorder off."""
    io = IOStats()
    out = {"io": io, "stall_events": 0, "stall_seconds": 0.0, "queue_hw": 0,
           "fp_probes": 0, **dict.fromkeys(CACHE_COUNTERS, 0)}
    for store in stores:
        io.merge(store.disk.stats)
        stall = store.scheduler.stats
        out["stall_events"] += stall.stall_events
        out["stall_seconds"] += stall.stall_seconds
        out["queue_hw"] = max(out["queue_hw"], stall.queue_depth_high_water)
        out["fp_probes"] += store.stats.hash_false_positive_probes
        for name in CACHE_COUNTERS:
            out[name] += store.metrics.counter(name).value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _maint_self(stats: SpanStats) -> tuple[dict[str, float], float]:
    """Wall per job kind excluding nested jobs, and top-level job wall."""
    rec = stats.rec
    maint = {rec.find(f"maint.{k}"): k for k in JOB_KINDS}
    own = {k: 0.0 for k in JOB_KINDS}
    top = 0.0
    for sid in range(len(rec)):
        kind = maint.get(rec.name[sid])
        if kind is None:
            continue
        own[kind] += rec.active[sid]
        p = rec.parent[sid]
        while p >= 0 and rec.name[p] not in maint:
            p = rec.parent[p]
        if p >= 0:
            own[maint[rec.name[p]]] -= rec.active[sid]
        else:
            top += rec.active[sid]
    return own, top


def _get_overhead(stats: SpanStats) -> float:
    """Seconds of clock + obs spans under a ``store.get`` span."""
    rec = stats.rec
    get_id = rec.find("store.get")
    wanted = {rec.find("scheduler.foreground_clock"), rec.find("obs.lookup"),
              rec.find("obs.record")}
    total = 0.0
    for sid in range(len(rec)):
        if rec.name[sid] not in wanted:
            continue
        p = rec.parent[sid]
        while p >= 0 and rec.name[p] != get_id and rec.name[p] not in wanted:
            p = rec.parent[p]
        if p >= 0 and rec.name[p] == get_id:  # nested clock/obs spans count once
            total += rec.active[sid]
    return total


def store_layers(stats: SpanStats, before: dict, after: dict, ops: int,
                 wall_s: float) -> dict[str, float]:
    """core / engine / scheduler / obs / env metrics of one window."""
    counts = stats.rec.counts
    gets = stats.count("store.get")
    puts = stats.count("store.put") + counts.get("store.write_batch.items", 0)
    io = after["io"].delta_since(before["io"])
    kop = ops / 1000.0
    out: dict[str, float] = {}

    path_calls = {p: stats.count(f"partition.get.{p}") for p in PATHS}
    answered = sum(path_calls.values())
    for p in PATHS:
        out[f"store.get_share.{p}"] = _ratio(path_calls[p], answered)
        out[f"store.get_us.{p}"] = stats.mean_us(f"partition.get.{p}")
    out["store.get_self_us"] = _ratio(stats.self_time("store.get"), gets) * 1e6
    out["store.put_self_us"] = _ratio(stats.self_time("store.put"),
                                      stats.count("store.put")) * 1e6
    out["store.scan_us_per_item"] = _ratio(stats.total("store.scan"),
                                           counts.get("store.scan.items", 0)) * 1e6
    out["store.batch_us_per_item"] = _ratio(
        stats.total("store.write_batch"), counts.get("store.write_batch.items", 0)) * 1e6

    out["hash_index.lookup_us"] = stats.mean_us("hash_index.lookup")
    out["hash_index.lookups_per_get"] = _ratio(stats.count("hash_index.lookup"), gets)
    out["hash_index.insert_us"] = stats.mean_us("hash_index.insert")
    out["hash_index.inserts_per_put"] = _ratio(stats.count("hash_index.insert"), puts)
    hits = counts.get("unsorted.hits", 0)
    out["unsorted.probe_hit_ratio"] = _ratio(
        hits, hits + after["fp_probes"] - before["fp_probes"])
    out["sorted.get_us"] = stats.mean_us("sorted.get")
    out["sorted.resolve_pointer_us"] = stats.mean_us("sorted.resolve_pointer")

    out["memtable.put_us"] = stats.mean_us("memtable.put")
    out["memtable.get_us"] = stats.mean_us("memtable.get")
    out["wal.append_us"] = stats.mean_us("wal.append")
    out["sstable.get_us"] = stats.mean_us("sstable.get")
    out["block.decode_us"] = stats.mean_us("block.decode")
    out["block.decodes_per_get"] = _ratio(stats.count("block.decode"), gets)
    for cache in ("block_cache", "table_cache"):
        hit = after[f"{cache}_hits_total"] - before[f"{cache}_hits_total"]
        miss = after[f"{cache}_misses_total"] - before[f"{cache}_misses_total"]
        out[f"{cache}.hit_ratio"] = _ratio(hit, hit + miss)
    out["vlog.read_us"] = stats.mean_us("vlog.read_value")
    out["vlog.reads_per_get"] = _ratio(stats.count("vlog.read_value"), gets)
    out["sstable_builder.add_us"] = stats.mean_us("sstable_builder.add")
    out["sstable_builder.adds_per_put"] = _ratio(stats.count("sstable_builder.add"), puts)
    out["merge_sorted.us_per_record"] = _ratio(
        stats.self_time("merge_sorted"), counts.get("merge_sorted.items", 0)) * 1e6

    own, top = _maint_self(stats)
    for k in JOB_KINDS:
        jobs = stats.count(f"maint.{k}")
        out[f"maint.jobs_per_kop.{k}"] = _ratio(jobs, kop)
        out[f"maint.wall_ms.{k}"] = _ratio(own[k], jobs) * 1e3
    out["maint.wall_share"] = _ratio(top, wall_s)
    for tag in (*JOB_KINDS, "wal"):
        out[f"maint.write_mb.{tag}"] = _ratio(io.bytes_for(op=WRITE, tag=tag) / 1e6, kop)
    out["stall.events_per_kop"] = _ratio(after["stall_events"] - before["stall_events"], kop)
    out["stall.model_ms"] = _ratio(
        (after["stall_seconds"] - before["stall_seconds"]) * 1e3, kop)
    out["stall.queue_depth_high_water"] = float(after["queue_hw"])
    clock = "scheduler.foreground_clock"
    out["scheduler.clock_calls_per_op"] = _ratio(stats.count(clock), ops)
    out["scheduler.clock_us_per_op"] = _ratio(stats.total(clock), ops) * 1e6

    obs = stats.total("obs.lookup") + stats.total("obs.record")
    out["obs.us_per_op"] = _ratio(obs, ops) * 1e6
    out["obs.share_of_get"] = _ratio(_get_overhead(stats), stats.total("store.get"))

    out["iostats.us_per_op"] = _ratio(
        stats.self_time("iostats.snapshot") + stats.self_time("iostats.delta_since"),
        ops) * 1e6
    out["cost_model.us_per_op"] = _ratio(stats.self_time("cost_model.breakdown"), ops) * 1e6
    out["disk.read_kb_per_get"] = _ratio(io.bytes_for(op=READ) / 1024, gets)
    out["disk.appends_per_put"] = _ratio(io.ops_for(op=WRITE), puts)
    return out


def complete(values: dict[str, float]) -> dict[str, float]:
    """Every declared per-layer metric, 0 where a layer was not reached."""
    unknown = set(values) - {m.name for m in PER_LAYER}
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {m.name: float(values.get(m.name, 0.0)) for m in PER_LAYER}
