"""The served_mixed workload: a 2-shard KVServer behind TCP.

Each round builds a fresh ``KVServer`` over a ``ShardRouter`` with an
explicit midpoint shard boundary and an 8 MiB block cache per shard, then
drives it through ``AsyncKVClient`` connections on localhost:

* set-up starts the server and bulk-loads the records with pipelined
  BATCH frames (8 in flight); ``setup_s`` is the median of the 3 rounds'
  set-ups, each timed in sections (``outcome.ScaledTimer``);
* the timed phase is a closed loop: 2 connections, each with 1 request
  outstanding (two callers that each wait for their reply), over the mix
  in ``gen.MIX_BLOCK``; each round runs a third of it, as slices with a
  reference-loop measurement between them (``outcome.Slices``);
* every response is checked (``_check_client``), then a full scan checks
  the final state against the acknowledged writes.

Server and clients share this process's event loop.  With the server in
a process of its own, ``ops_per_s`` spread by 115% (quartile distance
over median, 10 seeds) on a 2-vCPU VM, because each request then waits
for two cross-process wake-ups that the host schedules erratically.

Model metrics come from replaying a fixed serial interleaving of the two
clients' ops on an in-process ``ShardRouter`` with the same shards.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import itertools
import statistics
import time
from dataclasses import dataclass

from repro.core import UniKVConfig
from repro.obs import LogHistogram
from repro.service.client import AsyncKVClient, ServerError, TransientError
from repro.service.protocol import ProtocolError
from repro.service.router import ShardRouter
from repro.service.server import KVServer

import gen
import layers
import tracing
from inproc import SETUP_REPEATS, SETUP_SECTIONS, applied
from model import model_pass
from outcome import (SLICE_S, Outcome, ScaledTimer, Slices, peak_rss_bytes,
                     reference_seconds, rss_baseline)

CACHE_BYTES = 8 * 1024 * 1024
CLIENTS = 2
LOAD_WINDOW = 8
#: records loaded, ops in the model pass, op-list length per client per second
SIZES = {"records": 20_000, "model_ops": 20_000, "rate": 4_000}
CLIENT_ERRORS = (TransientError, ServerError, ProtocolError, asyncio.TimeoutError,
                 OSError)


def config() -> UniKVConfig:
    return UniKVConfig(block_cache_bytes=CACHE_BYTES)


def sizes(scale: float) -> dict[str, int]:
    return gen.scaled(SIZES, scale)


def make_inputs(seed: int, seconds: float, scale: float) -> gen.ServedInputs:
    size = sizes(scale)
    per_client = max(size["model_ops"] // CLIENTS, int(size["rate"] * seconds))
    return gen.served_mixed(seed, size["records"], per_client, CLIENTS)


# -- load generation --------------------------------------------------------------------


async def _bulk_load(port: int, batches, timer: ScaledTimer) -> int:
    """Pipelined BATCH frames, timed in ``SETUP_SECTIONS`` sections (the
    reference runs while no frame is in flight); returns the number of
    failed batches."""
    failed = 0
    step = -(-len(batches) // (LOAD_WINDOW * SETUP_SECTIONS)) * LOAD_WINDOW
    async with AsyncKVClient(port=port) as client:
        for i in range(0, len(batches), LOAD_WINDOW):
            if i and i % step == 0:
                timer.split()
            chunk = batches[i:i + LOAD_WINDOW]
            results = await asyncio.gather(
                *(client.write_batch(b) for b in chunk), return_exceptions=True)
            failed += sum(1 for b, r in zip(chunk, results) if r != len(b))
    return failed


async def _closed_loop(client: AsyncKVClient, ops, deadline: float, log: list) -> None:
    """Issue ``ops`` (an iterator) one at a time until ``deadline``."""
    perf = time.perf_counter
    while (t0 := perf()) < deadline:
        op = next(ops)
        kind = op[0]
        try:
            if kind == gen.GET:
                result = await client.get(op[1])
            elif kind == gen.PUT:
                result = await client.put(op[1], op[2])
            elif kind == gen.SCAN:
                result = await client.scan(op[1], op[2])
            else:
                result = await client.write_batch(op[1])
        except CLIENT_ERRORS as exc:
            result = exc
        log.append((perf() - t0, result))


async def _timed_phase(port: int, clients, seconds: float, slices: Slices):
    """Slices of about ``SLICE_S``, each after a reference-loop measurement
    taken while no request is in flight (``outcome.Slices``).  Returns
    (per-client logs, elapsed seconds, client retries)."""
    conns = [AsyncKVClient(port=port) for __ in clients]
    logs: list[list] = [[] for __ in clients]
    iters = [itertools.cycle(ops) for ops in clients]
    n = max(1, round(seconds / SLICE_S))
    elapsed = 0.0
    try:
        for conn in conns:
            await conn.connect()
        for __ in range(n):
            ref_s = reference_seconds()
            begin = [len(log) for log in logs]
            start = time.perf_counter()
            await asyncio.gather(*(_closed_loop(conn, it, start + seconds / n, log)
                                   for conn, it, log in zip(conns, iters, logs)))
            took = time.perf_counter() - start
            elapsed += took
            latencies = [lat for log, b in zip(logs, begin) for lat, __ in log[b:]]
            slices.add(len(latencies), took, latencies, ref_s)
    finally:
        for conn in conns:
            await conn.close()
    return logs, elapsed, sum(conn.total_retries for conn in conns)


async def _read_all(port: int, chunk: int = 1000) -> list[tuple[bytes, bytes]]:
    out: list[tuple[bytes, bytes]] = []
    async with AsyncKVClient(port=port) as client:
        start = b""
        while True:
            page = await client.scan(start, chunk)
            out.extend(page)
            if len(page) < chunk:
                return out
            start = page[-1][0] + b"\x00"


# -- correctness -----------------------------------------------------------------------------


def _owner(key: bytes) -> int:
    return int(key[4:]) % CLIENTS


def _expected_scan(keys: list[bytes], start: bytes, count: int) -> list[bytes]:
    i = bisect.bisect_left(keys, start)
    return keys[i:i + count]


def _check_client(c: int, ops, log, initial: dict, keys: list[bytes],
                  legal: list[dict]) -> tuple[dict, int]:
    """Replay client ``c``'s ops against its own key model.

    Own keys must read exactly as this client last wrote them; another
    client's keys in a scan must hold a value that client's ops could have
    left there.  Returns (own final values, failures).
    """
    own: dict[bytes, bytes] = {}
    failed = 0
    for op, (__, result) in zip(ops, log):
        kind = op[0]
        if isinstance(result, Exception):
            failed += 1
        elif kind == gen.GET:
            failed += result != own.get(op[1], initial[op[1]])
        elif kind == gen.PUT:
            if result == 1:
                own[op[1]] = op[2]
            else:
                failed += 1
        elif kind == gen.BATCH:
            if result == len(op[1]):
                own.update((k, v) for __, k, v in op[1])
            else:
                failed += 1
        else:
            ok = [k for k, __ in result] == _expected_scan(keys, op[1], op[2])
            for k, v in result if ok else ():
                owner = _owner(k)
                if owner == c:
                    ok = ok and v == own.get(k, initial[k])
                else:
                    ok = ok and (v == initial[k] or v in legal[owner].get(k, ()))
            failed += not ok
    return own, failed


def _legal_values(ops, log) -> dict[bytes, set]:
    out: dict[bytes, set] = {}
    for op, __ in zip(ops, log):
        if op[0] == gen.PUT:
            out.setdefault(op[1], set()).add(op[2])
        elif op[0] == gen.BATCH:
            for __, k, v in op[1]:
                out.setdefault(k, set()).add(v)
    return out


def verify(inputs: gen.ServedInputs, logs, final_pairs) -> tuple[int, int]:
    """(checks attempted, checks failed): every response, then final state."""
    initial = {k: v for batch in inputs.batches for __, k, v in batch}
    keys = sorted(initial)
    issued = [applied(ops, len(log)) for ops, log in zip(inputs.clients, logs)]
    legal = [_legal_values(ops, log) for ops, log in zip(issued, logs)]
    final = dict(initial)
    failed = 0
    for c, (ops, log) in enumerate(zip(issued, logs)):
        own, wrong = _check_client(c, ops, log, initial, keys, legal)
        final.update(own)
        failed += wrong
    failed += sum(1 for k, v in final_pairs if final.get(k) != v)
    failed += abs(len(final) - len(final_pairs))
    return sum(len(log) for log in logs) + len(final), failed


# -- model pass ---------------------------------------------------------------------------


def _model_metrics(inputs: gen.ServedInputs, model_ops: int) -> tuple[dict, int, int]:
    """Model metrics of a serial replay; returns (metrics, checks, failures)."""
    router = ShardRouter.create(CLIENTS, boundaries=[inputs.boundary], config=config())
    stores = router.stores
    index_samples = []

    def sample() -> None:
        index_samples.append(sum(s.index_memory_bytes() for s in stores))

    for batch in inputs.batches:  # one batch is model.SAMPLE_EVERY puts
        router.write_batch(batch)
        sample()
    live = {k: v for batch in inputs.batches for __, k, v in batch}
    keys = sorted(live)
    user_bytes = sum(len(k) + len(v) for k, v in live.items())
    ops = gen.interleave(inputs.clients, model_ops // CLIENTS)
    failed = 0

    def execute(op) -> None:
        nonlocal failed, user_bytes
        kind = op[0]
        if kind == gen.GET:
            failed += router.get(op[1]) != live[op[1]]
        elif kind == gen.PUT:
            router.put(op[1], op[2])
            live[op[1]] = op[2]
            user_bytes += len(op[1]) + len(op[2])
        elif kind == gen.SCAN:
            want = [(k, live[k]) for k in _expected_scan(keys, op[1], op[2])]
            failed += router.scan(op[1], op[2]) != want
        else:
            router.write_batch(op[1])
            for __, k, v in op[1]:
                live[k] = v
                user_bytes += len(k) + len(v)

    result = model_pass(stores, ops, execute, sample)
    live_bytes = sum(len(k) + len(v) for k, v in live.items())
    return {
        "model_kops": result.kops,
        "model_tail_us": result.tail_mean(0.01) * 1e6,
        "write_amp": sum(s.disk.stats.write_bytes for s in stores) / user_bytes,
        "dev_reads_per_op": result.read_ops / result.ops,
        "space_amp": sum(s.disk.total_bytes() for s in stores) / live_bytes,
        "index_mem_kb": statistics.fmean(index_samples) / 1024,
    }, len(ops), failed


# -- one round -----------------------------------------------------------------------------


@dataclass
class Round:
    setup: ScaledTimer
    #: peak RSS of the process once the set-up finished
    setup_peak_rss: int
    load_failed: int
    logs: list[list]
    seconds: float
    retries: int
    final_pairs: list[tuple[bytes, bytes]]
    server: KVServer
    #: store counters at server start and at the end of the timed phase
    before: dict
    after: dict
    #: server start to the end of the timed phase
    window_s: float

    @property
    def ops(self) -> int:
        return sum(map(len, self.logs))


async def _round(inputs: gen.ServedInputs, seconds: float, slices: Slices,
                 rec: tracing.Recorder | None = None) -> Round:
    """Start a fresh server, bulk-load it, run the closed loop, read back."""
    setup = ScaledTimer()
    setup.start()
    t0 = time.perf_counter()
    router = ShardRouter.create(CLIENTS, boundaries=[inputs.boundary], config=config())
    before = layers.probe(router.stores)
    if rec is not None:
        rec.enabled = True
    server = KVServer(router, port=0)
    await server.start()
    try:
        load_failed = await _bulk_load(server.port, inputs.batches, setup)
        setup.stop()
        setup_peak = peak_rss_bytes()
        logs, seconds_run, retries = await _timed_phase(
            server.port, inputs.clients, seconds, slices)
        if rec is not None:
            rec.enabled = False
        window_s = time.perf_counter() - t0
        after = layers.probe(router.stores)
        final_pairs = await _read_all(server.port)
    finally:
        if rec is not None:
            rec.enabled = False
        await server.stop()
    return Round(setup, setup_peak, load_failed, logs, seconds_run, retries,
                 final_pairs, server, before, after, window_s)


def _p50_by_kind(inputs, rounds: list[Round]) -> dict[str, float]:
    by_kind: dict[str, list[float]] = {}
    for r in rounds:
        for ops, log in zip(inputs.clients, r.logs):
            for op, (latency, __) in zip(applied(ops, len(log)), log):
                by_kind.setdefault(op[0], []).append(latency)
    return {f"raw_{k}_p50_us": statistics.median(v) * 1e6
            for k, v in sorted(by_kind.items())}


def shard_op_share_max(router: ShardRouter) -> float:
    """Share of store-level ops served by the busiest shard."""
    ops = [sum(h["count"] for h in store.metrics_snapshot()["histograms"]
               if h["name"] == "unikv_op_seconds") for store in router.stores]
    return max(ops) / max(1, sum(ops))


def _service_layers(stats: tracing.SpanStats, server: KVServer,
                    requests: int) -> dict[str, float]:
    """Protocol, server and router metrics of one traced round."""
    rec = stats.rec
    out: dict[str, float] = {}
    frames = rec.counts.get("protocol.frames", 0)
    feeds = stats.count("protocol.feed")
    out["protocol.feed_us_per_frame"] = (stats.total("protocol.feed") / frames * 1e6
                                         if frames else 0.0)
    out["protocol.frames_per_feed"] = frames / feeds if feeds else 0.0
    out["protocol.decode_request_us"] = stats.mean_us("protocol.decode_request")
    hist = LogHistogram()
    for h in server.metrics.snapshot()["histograms"]:
        if h["name"] == "server_request_seconds":
            hist.merge(LogHistogram.from_dict(h))
    router_names = stats.names("router.")
    out["server.request_p50_us"] = hist.quantile(0.5) * 1e6 if hist.count else 0.0
    out["server.self_us"] = (hist.sum - sum(stats.total(n) for n in router_names)) \
        / requests * 1e6
    for field in ("delayed_writes", "shed_writes", "errors"):
        out[f"server.{field}_per_kop"] = getattr(server.stats, field) / requests * 1000
    out["router.us_per_op"] = sum(stats.self_time(n) for n in router_names) / requests * 1e6
    out["router.shard_op_share_max"] = shard_op_share_max(server.router)
    scan_id, store_scan = rec.find("router.scan"), rec.find("store.scan")
    per_scan = sum(1 for sid in range(len(rec))
                   if rec.name[sid] == store_scan and rec.parent[sid] >= 0
                   and rec.name[rec.parent[sid]] == scan_id)
    scans = stats.count("router.scan")
    out["router.scan_shards_per_scan"] = per_scan / scans if scans else 0.0
    return out


def _checked(inputs: gen.ServedInputs, r: Round) -> tuple[int, int]:
    """(checks attempted, checks failed) of one round, bulk load included."""
    checked, failed = verify(inputs, r.logs, r.final_pairs)
    return checked + len(inputs.batches), failed + r.load_failed


# -- runs ------------------------------------------------------------------------------------


def run(seed: int, seconds: float, scale: float = 1.0) -> Outcome:
    inputs = make_inputs(seed, seconds, scale)
    gc.collect()
    rss0 = rss_baseline()
    rounds = []
    slices = Slices()
    attempted = failed = 0
    for __ in range(SETUP_REPEATS):
        r = asyncio.run(_round(inputs, seconds / SETUP_REPEATS, slices))
        checked, wrong = _checked(inputs, r)
        attempted += checked
        failed += wrong
        rounds.append(r)
    model_metrics, checked, wrong = _model_metrics(inputs, sizes(scale)["model_ops"])
    metrics = {
        "ops_per_s": slices.ops_per_s,
        "op_p50_us": slices.p50_us,
        "setup_s": statistics.median(r.setup.scaled for r in rounds),
        # The set-up's peak: client-side logs of the timed phase grow with
        # the op count and are not the server's memory.
        "mem_mb": (rounds[0].setup_peak_rss - rss0) / 1e6,
        **model_metrics,
    }
    detail = {**slices.raw(), "raw_setup_s": statistics.median(r.setup.raw for r in rounds),
              **_p50_by_kind(inputs, rounds)}
    detail["router.shard_op_share_max"] = max(
        shard_op_share_max(r.server.router) for r in rounds)
    return Outcome(metrics, attempted + checked, failed + wrong, detail=detail)


def run_traced(seed: int, seconds: float, scale: float = 1.0, dump_path=None) -> Outcome:
    inputs = make_inputs(seed, seconds, scale)
    half = seconds / 2
    base_slices, traced_slices = Slices(), Slices()
    base = asyncio.run(_round(inputs, half, base_slices))
    attempted, failed = _checked(inputs, base)

    rec = tracing.Recorder()
    restore = tracing.install(
        rec, tracing.STORE_PATCHES + tracing.SERVER_PATCHES + tracing.CLIENT_PATCHES)
    try:
        traced = asyncio.run(_round(inputs, half, traced_slices, rec))
    finally:
        restore()
    checked, wrong = _checked(inputs, traced)
    stats = tracing.SpanStats(rec)
    requests = len(inputs.batches) + traced.ops
    values = layers.store_layers(stats, traced.before, traced.after, requests,
                                 traced.window_s)
    values.update(_service_layers(stats, traced.server, requests))
    values["client.encode_us"] = stats.mean_us("client.encode")
    decodes = stats.count("client.decode")
    values["client.decode_us"] = ((stats.total("client.decode") + stats.total("client.unpack"))
                                  / decodes * 1e6 if decodes else 0.0)
    values["client.retries_per_kop"] = traced.retries / requests * 1000
    values["trace.overhead_frac"] = 1.0 - traced_slices.ops_per_s / base_slices.ops_per_s
    if dump_path is not None:
        rec.dump(dump_path)
    return Outcome(layers.complete(values), attempted + checked, failed + wrong,
                   detail={"spans": len(rec)})
