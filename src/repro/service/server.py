"""Asyncio TCP server over a :class:`~repro.service.router.ShardRouter`.

One connection is one pipelined request stream: the client may send any
number of frames without waiting; the server decodes them incrementally
(:class:`~repro.service.protocol.FrameDecoder`), executes each request in
arrival order, and writes responses back in the same order — the ordering
contract pipelining clients rely on.

**One request handler.**  :class:`RequestHandler` does everything between
a request payload and its response frame — decoding, running the op
against the router, mapping failures to statuses, the :class:`ServerStats`
counters — with no transport.  :class:`KVServer` is that handler driven
by asyncio; the chaos harness (:mod:`repro.sim.harness`) drives the same
handler from its deterministic tick loop.

**Admission control.**  Writes consult the owning shard's maintenance
backpressure (:meth:`ShardRouter.pressure`, fed by the scheduler's
:class:`~repro.runtime.scheduler.WriteStallStats` machinery from PR 1)
before touching the store:

The pressure signal is the per-shard *stall counter delta*: new
slowdown/stop events recorded by the shard's scheduler since the server's
previous write admission on that shard (plus the instantaneous background
queue depth, when a probe catches it non-zero).  Diffing the cumulative
counters matters on the virtual clock, where a stall can begin and resolve
entirely between two requests:

* ``admission="delay"`` (default): under pressure the write is *delayed* —
  a bounded cooperative sleep that yields the event loop to other
  connections — then applied.  Nothing is dropped; the store itself
  additionally charges the modelled stall seconds.
* ``admission="shed"``: under pressure the write is rejected with
  ``Status.RETRY`` so the client backs off (its retry path), but at most
  ``max_consecutive_sheds`` times in a row per connection — after that the
  server falls back to delay-and-apply, bounding client starvation.

**Graceful drain.**  :meth:`KVServer.stop` closes the listening socket,
lets every connection finish the requests it has already received, flushes
their responses, then closes the shards via :meth:`ShardRouter.close`.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import struct
from dataclasses import dataclass

from repro.core.config import UniKVConfig
from repro.env.storage import DiskCrashed
from repro.obs import MetricsRegistry
from repro.obs.render import render_periodic_dump
from repro.service import protocol
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameTooLarge,
    Op,
    ProtocolError,
    Status,
)
from repro.service.router import ShardPressure, ShardRouter

_U32 = struct.Struct("<I")


@dataclass
class ServerStats:
    """Counters the server reports inside STATS responses."""

    connections: int = 0
    requests: int = 0
    delayed_writes: int = 0
    shed_writes: int = 0
    too_large_frames: int = 0
    bad_requests: int = 0
    #: failed requests, crashed-shard rejections included
    errors: int = 0
    #: requests answered RETRY because a shard's device had crashed
    crashed_rejections: int = 0

    def as_dict(self) -> dict:
        return self.__dict__.copy()


class RequestHandler:
    """Everything between a request payload and its response frame.

    Transport-free and synchronous: :class:`KVServer` drives it from
    asyncio (adding write admission and the store lock), the chaos
    harness's ``SimServer`` drives it from a deterministic tick loop.
    """

    def __init__(self, router: ShardRouter, *,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 max_scan_items: int = 10_000) -> None:
        self.router = router
        self.max_frame_bytes = max_frame_bytes
        self.max_scan_items = max_scan_items
        self.stats = ServerStats()
        #: server-side observability, recorded by the transport on the wall
        #: clock (perf_counter), unlike the stores' registries which run on
        #: the schedulers' virtual clocks
        self.metrics = MetricsRegistry()

    def handle(self, item: bytes | FrameTooLarge) -> bytes:
        """Decode and execute one request; returns the response frame."""
        request = self.decode(item)
        if isinstance(request, bytes):
            return request
        return self.execute(request)

    def decode(self, item: bytes | FrameTooLarge) -> protocol.Request | bytes:
        """The decoded request, or the error response for an undecodable one."""
        self.stats.requests += 1
        if isinstance(item, FrameTooLarge):
            self.stats.too_large_frames += 1
            return protocol.encode_response(
                Status.TOO_LARGE,
                b"frame of %d bytes exceeds limit %d"
                % (item.declared_size, self.max_frame_bytes))
        try:
            return protocol.decode_request(item)
        except ProtocolError as exc:
            self.stats.bad_requests += 1
            return protocol.encode_response(Status.BAD_REQUEST, str(exc).encode())

    def execute(self, request: protocol.Request) -> bytes:
        """Run ``request`` against the router; failures become statuses."""
        try:
            return self._run(request)
        except Exception as exc:  # a failing request must not kill the stream
            return self.failure(exc)

    def failure(self, exc: Exception) -> bytes:
        """The response for a request that raised ``exc``."""
        self.stats.errors += 1
        if isinstance(exc, DiskCrashed):
            # A shard's device failed mid-operation.  That's transient from
            # the client's point of view — the operator (or chaos harness)
            # recovers the shard and re-attaches it — so steer the client
            # to its retry path rather than reporting a hard error.
            self.stats.crashed_rejections += 1
            return protocol.encode_response(
                Status.RETRY, f"shard device crashed: {exc}".encode())
        return protocol.encode_response(
            Status.ERROR, f"{type(exc).__name__}: {exc}".encode())

    def _run(self, request: protocol.Request) -> bytes:
        router = self.router
        op = request.op
        if op == Op.GET:
            value = router.get(request.key)
            if value is None:
                return protocol.encode_response(Status.NOT_FOUND)
            return protocol.encode_response(
                Status.OK, protocol.encode_value_body(value))
        if op == Op.SCAN:
            pairs = router.scan(request.key, min(request.count, self.max_scan_items))
            return protocol.encode_response(
                Status.OK, protocol.encode_pairs_body(pairs))
        if op == Op.PING:
            return protocol.encode_response(
                Status.OK, protocol.encode_value_body(request.key))
        if op == Op.STATS:
            return protocol.encode_response(
                Status.OK, protocol.encode_json_body(self.stats_payload()))
        if op == Op.DESCRIBE:
            return protocol.encode_response(
                Status.OK, protocol.encode_json_body(router.describe()))
        # -- writes answer with the u32 count of applied ops ---------------------------
        if op == Op.PUT:
            router.put(request.key, request.value)
            applied = 1
        elif op == Op.DELETE:
            router.delete(request.key)
            applied = 1
        elif op == Op.BATCH:
            router.write_batch(request.ops)
            applied = len(request.ops)
        else:  # pragma: no cover - decode_request only yields known ops
            return protocol.encode_response(Status.BAD_REQUEST, b"unhandled op")
        return protocol.encode_response(Status.OK, _U32.pack(applied))

    def stats_payload(self) -> dict:
        """The full STATS response body: legacy counters plus obs snapshots.

        ``obs.stores`` is the shard-merged store registry view (histograms
        merged bucket-wise, quantiles recomputed); ``obs.server`` is this
        server's own wall-clocked registry.
        """
        stats = self.router.stats()
        stats["server"] = self.stats.as_dict()
        stats["obs"] = {
            "server": self.metrics.snapshot(),
            "stores": self.router.metrics_snapshot(),
        }
        return stats


_WRITE_OPS = frozenset({Op.PUT, Op.DELETE, Op.BATCH})


class _Connection:
    """Per-connection state: shed streak + the handler task for drain."""

    def __init__(self, task: asyncio.Task) -> None:
        self.task = task
        self.consecutive_sheds = 0


class KVServer(RequestHandler):
    """Pipelined TCP front end for a sharded UniKV deployment."""

    def __init__(self, router: ShardRouter, host: str = "127.0.0.1",
                 port: int = 0, *,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 admission: str = "delay",
                 slowdown_delay_s: float = 0.0005,
                 max_delay_s: float = 0.02,
                 max_consecutive_sheds: int = 2,
                 max_scan_items: int = 10_000,
                 close_router_on_stop: bool = True) -> None:
        if admission not in ("delay", "shed"):
            raise ValueError("admission must be 'delay' or 'shed'")
        super().__init__(router, max_frame_bytes=max_frame_bytes,
                         max_scan_items=max_scan_items)
        self.host = host
        self.port = port
        self.admission = admission
        self.slowdown_delay_s = slowdown_delay_s
        self.max_delay_s = max_delay_s
        self.max_consecutive_sheds = max_consecutive_sheds
        #: per-shard stall_events watermark from the last write admission
        self._stall_marks: dict[int, int] = {}
        self.close_router_on_stop = close_router_on_stop
        self._inflight = 0
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._stopping = asyncio.Event()
        self._stopped = False
        #: single-writer discipline: shard stores are not re-entrant, so
        #: request execution is serialized across connections
        self._store_lock = asyncio.Lock()

    # -- lifecycle --------------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful drain: no new connections, finish in-flight requests,
        flush responses, close the shards.  Idempotent."""
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopping.set()
        tasks = [conn.task for conn in list(self._connections)]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if self.close_router_on_stop and not self.router.closed:
            self.router.close()

    @property
    def draining(self) -> bool:
        return self._stopping.is_set()

    # -- connection handling ----------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        conn = _Connection(asyncio.current_task())
        self._connections.add(conn)
        self.stats.connections += 1
        decoder = FrameDecoder(self.max_frame_bytes)
        stop_wait: asyncio.Task | None = None
        try:
            while not self._stopping.is_set():
                read = asyncio.ensure_future(reader.read(64 * 1024))
                stop_wait = asyncio.ensure_future(self._stopping.wait())
                done, __ = await asyncio.wait(
                    {read, stop_wait}, return_when=asyncio.FIRST_COMPLETED)
                if read not in done:
                    # Draining while idle: nothing buffered, just leave.
                    read.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await read
                    break
                stop_wait.cancel()
                data = read.result()
                if not data:
                    break
                for item in decoder.feed(data):
                    writer.write(await self._respond(item, conn))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown (e.g. a failing test harness) — exit quietly;
            # graceful drain goes through self._stopping, not cancellation.
            pass
        finally:
            if stop_wait is not None and not stop_wait.done():
                stop_wait.cancel()
            self._connections.discard(conn)
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()

    # -- request dispatch -------------------------------------------------------------

    async def _respond(self, item: bytes | FrameTooLarge,
                       conn: _Connection) -> bytes:
        start = self.metrics.clock()
        self._inflight += 1
        depth = self.metrics.gauge("server_inflight_requests_high_water")
        if self._inflight > depth.value:
            depth.set(self._inflight)
        try:
            op_name, response = await self._dispatch(item, conn)
        finally:
            self._inflight -= 1
        self.metrics.histogram("server_request_seconds", op=op_name).record(
            self.metrics.clock() - start)
        return response

    async def _dispatch(self, item: bytes | FrameTooLarge,
                        conn: _Connection) -> tuple[str, bytes]:
        """(op label for metrics, encoded response)."""
        request = self.decode(item)
        if isinstance(request, bytes):
            return "invalid", request
        op_name = request.op.name.lower()
        if request.op in _WRITE_OPS:
            try:
                rejection = await self._admit_write(request, conn)
            except Exception as exc:  # a failing request must not kill the stream
                rejection = self.failure(exc)
            if rejection is not None:
                return op_name, rejection
        async with self._store_lock:
            return op_name, self.execute(request)

    # -- admission control ------------------------------------------------------------

    def _probe_pressure(self, shard_indexes) -> tuple[ShardPressure | None, int]:
        """The most pressured shard and its severity (0 = no pressure).

        Severity is the shard's new stall events since the last write
        admission, floored at 1 when a probe catches the background queue
        at/above the slowdown trigger.  Probing consumes the delta (the
        watermark advances), so one stall burst disturbs one admission.
        """
        worst: ShardPressure | None = None
        severity = 0
        for i in shard_indexes:
            pressure = self.router.pressure(i)
            delta = pressure.stall_events - self._stall_marks.get(i, 0)
            if pressure.state != "ok":
                delta = max(delta, 1)
            self._stall_marks[i] = pressure.stall_events
            if worst is None or delta > severity:
                worst, severity = pressure, delta
        return worst, severity

    async def _admit_write(self, request: protocol.Request,
                           conn: _Connection) -> bytes | None:
        """Apply the admission policy to a write; a non-None return is the
        rejection."""
        if request.op == Op.BATCH:
            shards = sorted(self.router.split_batch(request.ops))
        else:
            shards = [self.router.shard_index(request.key)]
        pressure, severity = self._probe_pressure(shards)
        if severity <= 0:
            conn.consecutive_sheds = 0
            return None
        if (self.admission == "shed"
                and conn.consecutive_sheds < self.max_consecutive_sheds):
            conn.consecutive_sheds += 1
            self.stats.shed_writes += 1
            return protocol.encode_response(
                Status.RETRY,
                b"shard %d backpressure (%d new stall events, %d jobs in flight)"
                % (pressure.shard, severity, pressure.queue_depth))
        # Delay, never drop: a bounded cooperative pause scaled by how much
        # stall pressure the shard reported since the last admission.
        await asyncio.sleep(min(self.max_delay_s, self.slowdown_delay_s * severity))
        self.stats.delayed_writes += 1
        conn.consecutive_sheds = 0
        return None


async def _periodic_stats_dump(server: KVServer, interval: float) -> None:
    while True:
        await asyncio.sleep(interval)
        print(render_periodic_dump(server.stats_payload()), flush=True)


async def run_server(num_shards: int = 2, host: str = "127.0.0.1",
                     port: int = 7711, boundaries: list[bytes] | None = None,
                     config: UniKVConfig | None = None,
                     admission: str = "delay",
                     stats_interval: float = 0.0,
                     ready: asyncio.Event | None = None,
                     server_ref: list | None = None) -> ServerStats:
    """Serve until SIGINT/SIGTERM (or cancellation), then drain gracefully.

    ``stats_interval > 0`` prints a compact metrics line every that many
    seconds.  ``ready``/``server_ref`` let an in-process harness wait for
    startup and learn the bound port when ``port=0``.
    """
    router = ShardRouter.create(num_shards, boundaries=boundaries, config=config)
    server = KVServer(router, host, port, admission=admission)
    await server.start()
    if server_ref is not None:
        server_ref.append(server)
    print(f"repro-kv: serving {num_shards} shard(s) on "
          f"{server.host}:{server.port}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, stop.set)
    dump_task: asyncio.Task | None = None
    if stats_interval > 0:
        dump_task = asyncio.ensure_future(
            _periodic_stats_dump(server, stats_interval))
    if ready is not None:
        ready.set()
    try:
        await stop.wait()
    finally:
        if dump_task is not None:
            dump_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await dump_task
        await server.stop()
        print(f"repro-kv: shutdown complete "
              f"({server.stats.requests} requests served)", flush=True)
    return server.stats
