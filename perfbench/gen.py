"""Seeded input generation for the three workloads.

Everything a run feeds the system is built here, before any timer starts:
``ScrambledZipfianChooser`` draws cost about 1.5 us each, which would
otherwise be charged to the system under test.  The same seed gives the
same inputs.

Keys are YCSB-style ``user%012d``.  Every write carries a distinct value
(a 4-byte serial, then seeded filler) so a stale read cannot pass for a
fresh one, except when two writes of one key are a multiple of
``VALUE_POOL`` writes apart.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.workloads.distributions import ScrambledZipfianChooser

VALUE_SIZE = 100
VALUE_POOL = 65521  # prime, so periodic write patterns do not line up
THETA = 0.99
LOAD_ORDER_SEED = 0

GET, PUT, SCAN, BATCH = "get", "put", "scan", "batch"


def scaled(sizes: dict[str, int], scale: float) -> dict[str, int]:
    """Data-set and model-pass sizes times ``scale``; the op rate is kept."""
    return {k: v if k == "rate" else max(2, int(v * scale)) for k, v in sizes.items()}


def key_of(i: int) -> bytes:
    return b"user%012d" % i


def value_pool(rng: random.Random, size: int = VALUE_POOL) -> list[bytes]:
    filler = rng.randbytes(VALUE_SIZE)
    return [i.to_bytes(4, "big") + filler[4:] for i in range(size)]


class _Values:
    """Hands out pool values in order, so consecutive writes differ."""

    def __init__(self, rng: random.Random) -> None:
        self._pool = value_pool(rng)
        self._next = 0

    def next(self) -> bytes:
        value = self._pool[self._next % len(self._pool)]
        self._next += 1
        return value


@dataclass
class InProcInputs:
    """Load records (insertion order) and the timed-phase op list."""

    load: list[tuple[bytes, bytes]]
    #: load_update: (key, value) overwrites; zipf_read: keys to get
    ops: list


def load_records(values: _Values, num_records: int) -> list[tuple[bytes, bytes]]:
    """Every key once, in one fixed shuffled order; the values vary by seed.

    The order is the same for every seed so that the loaded layout (which
    keys end up in memtables and UnsortedStores) is too.  With a seeded
    order, whether a few of the hottest Zipfian keys landed in memory moved
    zipf_read's modelled throughput by up to 10% from seed to seed.
    """
    order = list(range(num_records))
    random.Random(LOAD_ORDER_SEED).shuffle(order)
    return [(key_of(i), values.next()) for i in order]


def load_update(seed: int, num_records: int, num_updates: int) -> InProcInputs:
    rng = random.Random(seed)
    values = _Values(rng)
    load = load_records(values, num_records)
    chooser = ScrambledZipfianChooser(num_records, THETA, seed=seed)
    keys = [key_of(i) for i in range(num_records)]
    ops = [(keys[chooser.next()], values.next()) for __ in range(num_updates)]
    return InProcInputs(load, ops)


def zipf_read(seed: int, num_records: int, num_gets: int) -> InProcInputs:
    rng = random.Random(seed)
    load = load_records(_Values(rng), num_records)
    chooser = ScrambledZipfianChooser(num_records, THETA, seed=seed)
    keys = [key_of(i) for i in range(num_records)]
    return InProcInputs(load, [keys[chooser.next()] for __ in range(num_gets)])


@dataclass
class ServedInputs:
    """Bulk-load batches plus one op list per closed-loop client.

    Client ``c`` reads and writes only keys whose number is ``c`` modulo the
    client count, so each client's view of its own keys is sequential and
    exactly checkable; scans start anywhere and see both clients' keys.
    """

    num_records: int
    batches: list[list[tuple]]
    clients: list[list[tuple]]
    boundary: bytes


#: served_mixed op mix per block of 20 ops: 60% get, 30% put, 5% scan, 5% batch.
#: Every block holds exactly this mix, in seeded order, and scan lengths
#: run through seeded permutations of 1..MAX_SCAN: the mix and the mean scan
#: length do not drift from seed to seed, only the order does.
MIX_BLOCK = (GET,) * 12 + (PUT,) * 6 + (SCAN, BATCH)
BATCH_OPS = 8
MAX_SCAN = 50
LOAD_BATCH = 100


class _Stratified:
    """Draws from ``items`` in seeded permutations, one whole pass at a time."""

    def __init__(self, rng: random.Random, items) -> None:
        self._rng = rng
        self._items = list(items)
        self._left: list = []

    def next(self):
        if not self._left:
            self._left = self._items[:]
            self._rng.shuffle(self._left)
        return self._left.pop()


def served_mixed(seed: int, num_records: int, ops_per_client: int,
                 num_clients: int = 2) -> ServedInputs:
    rng = random.Random(seed)
    values = _Values(rng)
    load = load_records(values, num_records)
    batches = [[("put", k, v) for k, v in load[i:i + LOAD_BATCH]]
               for i in range(0, len(load), LOAD_BATCH)]
    keys = [key_of(i) for i in range(num_records)]
    scan_chooser = ScrambledZipfianChooser(num_records, THETA, seed=seed + 1)
    clients = []
    for c in range(num_clients):
        own = keys[c::num_clients]
        chooser = ScrambledZipfianChooser(len(own), THETA, seed=seed * 31 + c)
        kinds = _Stratified(rng, MIX_BLOCK)
        lengths = _Stratified(rng, range(1, MAX_SCAN + 1))
        ops: list[tuple] = []
        for __ in range(ops_per_client):
            kind = kinds.next()
            if kind == GET:
                ops.append((GET, own[chooser.next()]))
            elif kind == PUT:
                ops.append((PUT, own[chooser.next()], values.next()))
            elif kind == SCAN:
                ops.append((SCAN, keys[scan_chooser.next()], lengths.next()))
            else:
                ops.append((BATCH, [("put", own[chooser.next()], values.next())
                                    for __ in range(BATCH_OPS)]))
        clients.append(ops)
    # The key-space midpoint.  default_boundaries(2) is [b"\x80"], which
    # sends every b"user..." key to shard 0.
    return ServedInputs(num_records, batches, clients, key_of(num_records // 2))


def interleave(clients: list[list[tuple]], per_client: int) -> list[tuple]:
    """A fixed serial order of the clients' first ops (the model pass)."""
    out = []
    for i in range(per_client):
        for ops in clients:
            if i < len(ops):
                out.append(ops[i])
    return out
