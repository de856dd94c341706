"""Clients for the serving layer: a blocking socket client and an
asyncio client, sharing the wire protocol and retry policy.

Both reuse one connection across requests, decode responses with the
incremental :class:`~repro.service.protocol.FrameDecoder` (no assumption
that a ``recv`` returns a whole frame), and retry transient failures —
``Status.RETRY`` backpressure responses, timeouts, dropped connections —
with exponential backoff.  The async client additionally pipelines:
concurrent requests share the connection and are matched to responses by
order, the contract the server guarantees.

Everything but the transport is written once, in ``_ClientCore``: the
connection settings, the API methods, :class:`Batcher` and the retry
accounting.  Each client adds only its request/response exchange
(``_call``), connect/close and frame reading.

Run ``python -m repro.service.client --port 7711 put greeting hello`` for
a command-line smoke client.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import random
import socket
import struct
import sys
import time
from collections import deque
from dataclasses import dataclass

from repro.service import protocol
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    RETRYABLE_STATUSES,
    FrameDecoder,
    FrameTooLarge,
    ProtocolError,
    Status,
)

_U32 = struct.Struct("<I")


class TransientError(Exception):
    """A retryable failure that outlived the retry budget."""


class ServerError(Exception):
    """A non-retryable error response from the server."""

    def __init__(self, status: Status, message: str) -> None:
        super().__init__(f"{status.name}: {message}")
        self.status = status


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter for transient errors.

    Pure ``base * mult**attempt`` backoff synchronizes every client shed at
    the same instant into a retry storm that arrives — again — at the same
    instant.  Jitter breaks the lockstep: each delay is drawn uniformly
    from ``[(1 - jitter) * d, d]`` ("equal jitter"), seeded per policy
    instance so two clients with different seeds spread out while a given
    seed reproduces its delay sequence exactly.
    """

    retries: int = 4
    backoff_base_s: float = 0.01
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 0.5
    #: fraction of each delay randomized away (0 = legacy fixed backoff)
    jitter: float = 0.5
    #: seed for the jitter stream; None draws one from system entropy
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        object.__setattr__(self, "_rng", random.Random(self.seed))

    def delay(self, attempt: int) -> float:
        base = min(self.backoff_max_s,
                   self.backoff_base_s * self.backoff_multiplier ** attempt)
        if self.jitter <= 0.0:
            return base
        return base * (1.0 - self.jitter * self._rng.random())


class Batcher:
    """Client-side write batching: buffer ops, flush as one BATCH frame.

    A context manager — leaving the block cleanly flushes the tail, under
    either client::

        with client.batcher(max_ops=64) as batch:         # KVClient
            batch.put(b"k", b"v")

        async with client.batcher(max_ops=64) as batch:   # AsyncKVClient
            await batch.put(b"k", b"v")

    ``put``/``delete``/``flush`` return what the client's calls return: the
    count of ops a flush applied (0 when nothing was flushed), awaitable
    under :class:`AsyncKVClient`.
    """

    def __init__(self, client: "_ClientCore", max_ops: int = 128) -> None:
        self._client = client
        self.max_ops = max_ops
        self.ops: list[tuple] = []
        self.flushes = 0

    def put(self, key: bytes, value: bytes):
        self.ops.append(("put", key, value))
        return self._maybe_flush()

    def delete(self, key: bytes):
        self.ops.append(("delete", key))
        return self._maybe_flush()

    def _maybe_flush(self):
        if len(self.ops) >= self.max_ops:
            return self.flush()
        return self._client._ready(0)

    def flush(self):
        if not self.ops:
            return self._client._ready(0)
        ops, self.ops = self.ops, []
        self.flushes += 1
        return self._client.write_batch(ops)

    def __enter__(self) -> "Batcher":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.flush()

    async def __aenter__(self) -> "Batcher":
        return self

    async def __aexit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            await self.flush()


# -- response unpacking shared by both clients ------------------------------------------


def _unpack(op_name: str, status: Status, body: bytes):
    if status == Status.OK:
        if op_name in ("get", "ping"):
            return protocol.decode_value_body(body)
        if op_name == "scan":
            return protocol.decode_pairs_body(body)
        if op_name in ("stats", "describe"):
            return protocol.decode_json_body(body)
        if op_name in ("put", "delete", "batch"):
            return _U32.unpack(body)[0]
        return body
    if status == Status.NOT_FOUND:
        return None
    if status in RETRYABLE_STATUSES:
        raise TransientError(body.decode("utf-8", "replace"))
    raise ServerError(status, body.decode("utf-8", "replace"))


class _ClientCore:
    """Connection settings, the API and retry accounting of both clients.

    Each API method returns what the transport's ``_call`` returns: the
    result under :class:`KVClient`, an awaitable of it under
    :class:`AsyncKVClient`.  ``_call`` retries while :func:`_unpack`
    raises :class:`TransientError` for a retryable status.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7711, *,
                 timeout: float = 5.0, retry: RetryPolicy | None = None,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_frame_bytes = max_frame_bytes
        #: transient-failure retries performed (the backoff path's odometer)
        self.total_retries = 0

    # -- retry accounting -------------------------------------------------------------

    def _backoff(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        self.total_retries += 1
        return self.retry.delay(attempt - 1)

    def _give_up(self, last: Exception | None) -> TransientError:
        return TransientError(f"gave up after {self.retry.retries} retries: {last}")

    def _ready(self, value):
        """``value`` in the form the API methods return."""
        return value

    # -- API --------------------------------------------------------------------------

    def ping(self, payload: bytes = b""):
        return self._call("ping", protocol.encode_ping(payload))

    def get(self, key: bytes):
        return self._call("get", protocol.encode_get(key))

    def put(self, key: bytes, value: bytes):
        return self._call("put", protocol.encode_put(key, value))

    def delete(self, key: bytes):
        return self._call("delete", protocol.encode_delete(key))

    def write_batch(self, ops: list[tuple]):
        return self._call("batch", protocol.encode_batch(ops))

    def scan(self, start: bytes, count: int):
        return self._call("scan", protocol.encode_scan(start, count))

    def stats(self):
        return self._call("stats", protocol.encode_stats())

    def describe(self):
        return self._call("describe", protocol.encode_describe())

    def batcher(self, max_ops: int = 128) -> Batcher:
        return Batcher(self, max_ops=max_ops)


class KVClient(_ClientCore):
    """Blocking client over one reused TCP connection."""

    _sock: socket.socket | None = None

    # -- connection management --------------------------------------------------------

    def _connect(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)
            self._decoder = FrameDecoder(self.max_frame_bytes)
            self._frames: deque = deque()
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            with contextlib.suppress(OSError):
                self._sock.close()
            self._sock = None

    def __enter__(self) -> "KVClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request plumbing -------------------------------------------------------------

    def _read_frame(self, sock: socket.socket) -> bytes:
        while not self._frames:
            data = sock.recv(64 * 1024)
            if not data:
                raise ConnectionError("server closed the connection")
            self._frames.extend(self._decoder.feed(data))
        item = self._frames.popleft()
        if isinstance(item, FrameTooLarge):
            raise ProtocolError(f"server response of {item.declared_size} "
                                f"bytes exceeds the frame limit")
        return item

    def _call(self, op_name: str, frame_bytes: bytes):
        last: Exception | None = None
        for attempt in range(self.retry.retries + 1):
            if attempt:
                time.sleep(self._backoff(attempt))
            try:
                sock = self._connect()
                sock.sendall(frame_bytes)
                status, body = protocol.decode_response(self._read_frame(sock))
                return _unpack(op_name, status, body)
            except TransientError as exc:
                last = exc
            except OSError as exc:
                self.close()
                last = exc
        raise self._give_up(last) from last


class AsyncKVClient(_ClientCore):
    """Asyncio client with request pipelining over one connection.

    Any number of coroutines may issue requests concurrently; frames are
    written in issue order and responses matched back in that order.  Use
    ``asyncio.gather`` over many calls to pipeline.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._read_task: asyncio.Task | None = None
        self._pending: deque[asyncio.Future] = deque()

    # -- connection management --------------------------------------------------------

    async def connect(self) -> None:
        if self._writer is not None:
            return
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), self.timeout)
        self._read_task = asyncio.ensure_future(self._read_loop())

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        task, self._read_task = self._read_task, None
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        if writer is not None:
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()
        self._fail_pending(ConnectionError("connection closed"))

    async def __aenter__(self) -> "AsyncKVClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def _fail_pending(self, exc: Exception) -> None:
        while self._pending:
            fut = self._pending.popleft()
            if not fut.done():
                fut.set_exception(exc)

    # -- pipelined plumbing -----------------------------------------------------------

    async def _read_loop(self) -> None:
        decoder = FrameDecoder(self.max_frame_bytes)
        try:
            while True:
                data = await self._reader.read(64 * 1024)
                if not data:
                    raise ConnectionError("server closed the connection")
                for item in decoder.feed(data):
                    if not self._pending:
                        raise ProtocolError("unsolicited response frame")
                    fut = self._pending.popleft()
                    if fut.done():
                        continue
                    if isinstance(item, FrameTooLarge):
                        fut.set_exception(ProtocolError(
                            f"oversized response ({item.declared_size} bytes)"))
                    else:
                        fut.set_result(protocol.decode_response(item))
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fail_pending(exc)

    async def _call(self, op_name: str, frame_bytes: bytes):
        last: Exception | None = None
        for attempt in range(self.retry.retries + 1):
            if attempt:
                await asyncio.sleep(self._backoff(attempt))
            try:
                if self._writer is None:
                    await self.connect()
                fut: asyncio.Future = asyncio.get_running_loop().create_future()
                # Enqueue and write with no await in between: response order
                # is exactly pending-queue order.
                self._pending.append(fut)
                self._writer.write(frame_bytes)
                await self._writer.drain()
                status, body = await asyncio.wait_for(fut, self.timeout)
                return _unpack(op_name, status, body)
            except TransientError as exc:
                last = exc
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                await self.close()
                last = exc
        raise self._give_up(last) from last

    async def _ready(self, value):
        return value


# -- command-line smoke client ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.client",
        description="Smoke client for a repro-kv server "
                    "(start one with: python -m repro serve).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7711)
    parser.add_argument("--timeout", type=float, default=5.0)
    parser.add_argument("command",
                        choices=["ping", "get", "put", "delete", "scan",
                                 "stats", "describe"])
    parser.add_argument("args", nargs="*", metavar="ARG",
                        help="get/delete: KEY; put: KEY VALUE; scan: START COUNT")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    expected = {"ping": (0, 1), "get": (1, 1), "put": (2, 2), "delete": (1, 1),
                "scan": (2, 2), "stats": (0, 0), "describe": (0, 0)}
    lo, hi = expected[args.command]
    if not lo <= len(args.args) <= hi:
        print(f"{args.command}: expected between {lo} and {hi} argument(s)",
              file=sys.stderr)
        return 2
    with KVClient(args.host, args.port, timeout=args.timeout) as client:
        try:
            if args.command == "ping":
                payload = args.args[0].encode() if args.args else b"ping"
                print(client.ping(payload).decode("utf-8", "replace"))
            elif args.command == "get":
                value = client.get(args.args[0].encode())
                if value is None:
                    print("(not found)")
                    return 1
                sys.stdout.write(value.decode("utf-8", "replace") + "\n")
            elif args.command == "put":
                client.put(args.args[0].encode(), args.args[1].encode())
                print("OK")
            elif args.command == "delete":
                client.delete(args.args[0].encode())
                print("OK")
            elif args.command == "scan":
                pairs = client.scan(args.args[0].encode(), int(args.args[1]))
                for key, value in pairs:
                    print(f"{key.decode('utf-8', 'replace')}\t"
                          f"{value.decode('utf-8', 'replace')}")
                print(f"({len(pairs)} pairs)")
            elif args.command == "stats":
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
            else:
                print(json.dumps(client.describe(), indent=2, sort_keys=True))
        except (TransientError, ServerError, ConnectionError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
