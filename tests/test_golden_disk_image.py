"""Golden digests: every engine's disk image, pinned across commits.

The equivalence suites compare modes *within* one commit (bg=0 vs bg=N,
metrics on vs off).  This test pins the bytes themselves: a fixed seeded
workload drives seven engine configurations through every maintenance
job kind (flush, scan-merge, merge, GC, split, LSM compaction), the
scheduler must count exactly the recorded runs of each kind, and the
SHA-256 of the resulting file names, file bytes and I/O counters must
equal the recorded constant.  A second digest pins the *order* of the
file-level calls (create, append, sync, delete, read) and of the crash
points between them: the same bytes written in another order would move
what a crash at a given point leaves behind.  A refactor of the write
path that claims to change no bytes proves it here; a change that means
to alter the on-disk format or the I/O pattern re-records the constants
and says why.

A third digest, for the UniKV configurations, pins ``metrics_snapshot()``:
the op and job latency histograms measured on the scheduler's virtual
clock, and the write-stall counters.  A clock that drifts by one ulp moves
a histogram sum, so this is where a faster clock proves it is the same
clock.
"""

import hashlib
import json
import random
import sys

import pytest

from repro.core import UniKV
from repro.env.iostats import RAND
from repro.env.storage import SimulatedDisk
from repro.lsm import HyperLevelDBStore, LevelDBStore, LSMConfig, PebblesDBStore
from tests.conftest import tiny_unikv_config


class _CallRecordingDisk(SimulatedDisk):
    """A disk that hashes the ordered sequence of its file-level calls."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = hashlib.sha256()

    def note(self, *call) -> None:
        self.calls.update(repr(call).encode())

    def create(self, name):
        self.note("create", name)
        return super().create(name)

    def delete(self, name):
        self.note("delete", name)
        super().delete(name)

    def sync(self, name):
        self.note("sync", name)
        super().sync(name)

    def _append(self, name, data, tag):
        self.note("append", name, len(data), tag)
        return super()._append(name, data, tag)

    def _read(self, name, offset, length, tag, pattern=RAND):
        self.note("read", name, offset, length, tag, pattern)
        return super()._read(name, offset, length, tag, pattern)

    def read_full(self, name, tag):
        self.note("read_full", name, tag)
        return super().read_full(name, tag)


def _lsm_config() -> LSMConfig:
    return LSMConfig(memtable_size=512, sstable_size=512, block_size=128,
                     base_level_bytes=2048, level_size_multiplier=4)


CONFIGS = {
    "unikv": lambda disk: UniKV(disk, tiny_unikv_config()),
    "unikv_inline": lambda disk: UniKV(disk, tiny_unikv_config(
        inline_value_threshold=40)),
    "unikv_full_separation": lambda disk: UniKV(disk, tiny_unikv_config(
        partial_kv_separation=False)),
    "unikv_bg2_prefix": lambda disk: UniKV(disk, tiny_unikv_config(
        background_threads=2, block_prefix_compression=True)),
    "leveldb": lambda disk: LevelDBStore(disk, _lsm_config()),
    "hyperleveldb": lambda disk: HyperLevelDBStore(disk, _lsm_config()),
    "pebblesdb": lambda disk: PebblesDBStore(disk, _lsm_config()),
}

#: the scheduler's job_counts per configuration after the workload below:
#: the run counts the experiments report (E11 merges, E14 GC runs, E16
#: jobs).  Full re-separation releases every old log at each merge, so it
#: never accumulates garbage for GC to collect.
JOB_COUNTS = {
    "unikv": {"flush": 234, "scan_merge": 68, "merge": 29, "gc": 16, "split": 3},
    "unikv_inline": {"flush": 239, "scan_merge": 71, "merge": 30, "gc": 12,
                     "split": 3},
    "unikv_full_separation": {"flush": 234, "scan_merge": 68, "merge": 29,
                              "split": 3},
    "unikv_bg2_prefix": {"flush": 235, "scan_merge": 70, "merge": 29, "gc": 16,
                         "split": 3},
    "leveldb": {"flush": 245, "compaction": 503},
    "hyperleveldb": {"flush": 245, "compaction": 490},
    "pebblesdb": {"flush": 245, "compaction": 399},
}

#: (disk image, call order) per configuration, recorded from the workload
#: below; see the module docstring before editing
GOLDEN = {
    "unikv": (
        "18de273e4881517cda5d6fea91702ac94dec72a8325e200919d30f6d58053ffe",
        "e05419d9cac0a6b91bdf4d4c86be2cd83be3b88ca24d25f99289ad3e4dd5139b"),
    "unikv_inline": (
        "88c6bee55bd3639c8157d2b13cf36b333102c3b44a5885655db6985a6eb6c036",
        "4c0bf7ddc58d63f702bba7e7cf054db11c95eab3925b27d33e798bdaacf3302d"),
    "unikv_full_separation": (
        "84e1f29e7ac5af9ecb2feed20bc095212790218015dccd7b458922640d611fa1",
        "d0019d77c44052b7464892546f6a37ca365b7d83e134473d60cbfcdf13eef1b2"),
    "unikv_bg2_prefix": (
        "2bc28afb71415aab5e62e93e6fc2afc2df78e2d3985a8513037c97aeddea1b81",
        "5e04c607a7357ab69e89e973f207a9431f109683f92bbe10a31dadba8fb7aaa9"),
    "leveldb": (
        "38a2718381bd414cd326081c3e10160a4946d752cb260aa8406c5f4a0576b642",
        "f119cd7b298c6001f5aa68b468ee050170675507b8a00e48699ecec798b92c3b"),
    "hyperleveldb": (
        "1b32a04ccd02b97a7af7d2303856dee997168d5c9ec71865e549833faf3bfd09",
        "95d02e19ac2bba5cfb193d39c6dc9f1c227d9236897fc6fc6098b373e376b311"),
    "pebblesdb": (
        "5a5df3749397d0fcc9fcf966bf2d4f148dffd628d7dee90fd1b9c636816aaec4",
        "477a2787bd23a9bc2376e0bebd1e6689c59afae22dd88002d8a86e3f1df0b692"),
}

#: SHA-256 of the JSON of metrics_snapshot() per UniKV configuration after
#: the workload below, on Python < 3.12
METRICS_GOLDEN = {
    "unikv": "7953ef87a642a22a50fc2dcdf0bddabc8b9ec461148c6cd8ed8edd5d08cbcf02",
    "unikv_inline":
        "229b1cc8144bc26fc02af8d833c25c59e8502eb5b9ac8142e95a48fb5453758d",
    "unikv_full_separation":
        "1a76366436d881b1268d821cdc1da8ee09a5991d6c263960ab2a3176f523a364",
    "unikv_bg2_prefix":
        "97b0855d2cb99d0f822b6525a31f436a108bdcf0120fd565e499d601b988ccb5",
}


def _drive(store, seed: int = 2024, n_ops: int = 2500) -> None:
    rng = random.Random(seed)
    for _ in range(n_ops):
        key = f"key-{rng.randrange(400):05d}".encode()
        r = rng.random()
        if r < 0.1:
            store.delete(key)
        elif r < 0.15:
            store.get(key)
        else:
            store.put(key, rng.randbytes(rng.randrange(8, 80)))


def _digest(store) -> str:
    disk = store.disk
    h = hashlib.sha256()
    # I/O counters first: read_full below records reads of its own.
    for (op, pattern, tag), rec in sorted(disk.stats.records.items()):
        h.update(f"{op}/{pattern}/{tag}={rec.ops},{rec.bytes};".encode())
    for name in disk.list():
        h.update(name.encode() + b"\0")
        data = disk.read_full(name, tag="digest")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_disk_image_matches_golden_digest(config):
    disk = _CallRecordingDisk()
    store = CONFIGS[config](disk)
    if isinstance(store, UniKV):
        store.ctx.crash_hook = lambda point: disk.note("crash_point", point)
    _drive(store)
    assert store.scheduler.stats.job_counts == JOB_COUNTS[config]
    calls = disk.calls.hexdigest()
    assert (_digest(store), calls) == GOLDEN[config]


# The clock sums per-tag seconds with sum(), which Python 3.12 made
# compensated (Neumaier); that moves the last bits of the clock, so the
# digests hold for the interpreters they were recorded on.
@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="sum() of floats rounds differently from 3.12 on")
@pytest.mark.parametrize("config", sorted(METRICS_GOLDEN))
def test_metrics_snapshot_matches_golden_digest(config):
    store = CONFIGS[config](SimulatedDisk())
    _drive(store)
    snapshot = json.dumps(store.metrics_snapshot(), sort_keys=True)
    assert hashlib.sha256(snapshot.encode()).hexdigest() == METRICS_GOLDEN[config]
