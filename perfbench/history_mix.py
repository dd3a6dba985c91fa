"""Workload ``history_mix``: temporal reads and writes on data far past the cache.

One in-process single-shard TSB store (WAL, strict durability, 1 KiB
pages, the default 128-page buffer pool) is preloaded with an
update-heavy history several MiB in size, so time splits have pushed
most versions to the write-once tier.  The timed phase interleaves
batched ``put_many``, current ``get``, ``get_as_of`` at a uniformly
drawn past time, short ``range_search`` and ``key_history``.  No server,
client, replication or sharding code runs: tree descent, buffer-pool
eviction, WORM reads, codecs and the WAL do the work.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, List, Tuple

import common
import layers
import probe
from model import (
    CheckError,
    HistoryModel,
    check_write_once,
    histories_from_slice,
    prove_checks_reject_altered_answers,
)

KEYS = 1000
PRELOAD_ITEMS = 10000
PRELOAD_BATCH = 16
VALUE_BYTES = (96, 224)
WRITE_BATCH = 8
SCAN_KEYS = 8
#: Operations of one round.  A run attempts a fixed number of whole
#: rounds, 0.65 per second asked for (at least enough for 1,000 writes),
#: so the store reaches the same state on every run of a seed and every
#: count repeats exactly, however fast the host is that day.  Every
#: round holds the same number of each operation, so every run of a
#: given length attempts the same calls whatever its seed.
ROUND_OPS = 1000
ROUNDS_PER_SECOND = 0.65
MIN_ROUNDS = 6
#: Percent of a round's operations, by type.
MIX = (("write", 20), ("get", 25), ("asof", 25), ("scan", 15), ("history", 15))
#: Each round also makes one call of the known-fault probe (:func:`_wide_pair`).
WIDE_VALUE_BYTES = 480
SETUPS = 3
RESTARTS_PER_SPARE_SETUP = 2
READ_OPS = ("get", "asof", "scan", "history")
MIX_OPS = ("write",) + READ_OPS

#: The generator and the store share one thread and nothing in the
#: store waits (simulated devices, inline WAL forces), so a call's cost is
#: the thread's CPU time.  It leaves out the time the host took the CPU
#: away, which on a shared machine is most of the run-to-run noise.
CLOCK = time.thread_time


def _config():
    from repro.api import StoreConfig

    return StoreConfig(engine="tsb", page_size=1024, wal=True, group_commit_size=1, cache_pages=128)


def _value(rng: random.Random) -> bytes:
    return rng.randbytes(rng.randint(*VALUE_BYTES))


def _preload_batches(seed: int) -> List[List[Tuple[int, bytes]]]:
    rng = random.Random(f"history_mix-preload-{seed}")
    return [
        [(key, _value(rng)) for key in rng.sample(range(KEYS), PRELOAD_BATCH)]
        for _ in range(PRELOAD_ITEMS // PRELOAD_BATCH)
    ]


def _set_up(batches):
    """Open the store and load the history; returns (store, stamps)."""
    from repro.api import VersionStore

    store = VersionStore.open(_config())
    return store, [store.put_many(batch) for batch in batches]


def read_back(driver: common.Driver, store, items, stamps) -> None:
    """Commit to visible, in process: the time until a read at the write's
    stamp returns the written value.  (No replica stands between the
    acknowledgement and the data here, so the read is all that remains.)"""
    (key, value), stamp = items[0], stamps[0]
    answer = driver.call("visible", store.get_as_of, key, stamp)
    if answer is None or answer.value != value or answer.timestamp != stamp:
        raise CheckError(f"write of key {key} at {stamp} not visible at its stamp")


def _restart(store):
    """Restart a closed store from its devices and log."""
    return common.restart([store], _config().cache_pages, crash=False)[0]


def _wide_pair() -> bool:
    """Two successive versions of one key, each fitting a 1 KiB page but
    not both in one: a time split would move the first to the write-once
    tier.  Returns whether the store kept both; ``False`` is the fault at
    ``core/policy.py:133`` ("node can be split neither by key nor by
    time"), written down in the README."""
    from repro.api import VersionStore

    store = VersionStore.open(_config())
    versions = [(1, bytes([fill]) * WIDE_VALUE_BYTES) for fill in (0x61, 0x62)]
    stamps = []
    try:
        for item in versions:
            stamps.extend(store.put_many([item]))
    except ValueError as exc:
        if "split neither by key nor by time" not in str(exc):
            raise
        return False
    model = HistoryModel()
    for item, stamp in zip(versions, stamps):
        model.record_writes([item], [stamp])
    model.check_history(1, store.key_history(1))
    return True


def _round(rng: random.Random, model: HistoryModel) -> List[Tuple]:
    """One round's operations, drawn up front from the workload's stream:
    the same count of each operation every round, in a shuffled order."""
    names = [name for name, share in MIX for _ in range(ROUND_OPS * share // 100)]
    rng.shuffle(names)
    ops = []
    for op in names:
        if op == "write":
            keys = rng.sample(range(KEYS), WRITE_BATCH)
            ops.append((op, [(key, _value(rng)) for key in keys]))
        elif op == "asof":
            # A uniformly drawn past time; the clock only grows, so any
            # stamp in [1, now] at draw time is in the past when it runs.
            ops.append((op, rng.randrange(KEYS), rng.randint(1, model.now)))
        elif op == "scan":
            low = rng.randrange(KEYS)
            ops.append((op, low, low + SCAN_KEYS))
        else:
            ops.append((op, rng.randrange(KEYS)))
    return ops


def run(seed: int, seconds: float, driver: common.Driver) -> Dict[str, object]:
    from repro.api import RecordView
    from repro.core.checker import check_tree

    batches = _preload_batches(seed)
    setup_times, reports = [], []
    stamps = None
    for attempt in range(SETUPS):
        (store, batch_stamps), elapsed = driver.time(_set_up, batches)
        setup_times.append(elapsed)
        if stamps is not None and batch_stamps != stamps:
            raise CheckError("two set-ups of one seed stamped differently")
        stamps = batch_stamps
        if attempt < SETUPS - 1:
            # The set-ups the timed phase does not use give the restart
            # figures: a clean shutdown, then restarts over the same
            # devices and log, on the same preloaded state every run.
            store.close()
            for _ in range(RESTARTS_PER_SPARE_SETUP):
                reports.append(driver.call("restart", _restart, store).report)
            store = None
    model = HistoryModel()
    for batch, batch_stamps in zip(batches, stamps):
        model.record_writes(batch, batch_stamps)
    altered_rejected = prove_checks_reject_altered_answers(model, RecordView)

    tree = store.backend
    magnetic_stats, historical_stats = tree.magnetic.stats, tree.historical.stats
    tracer = driver.tracer
    calls = {
        "write": store.put_many,
        "get": store.get,
        "asof": store.get_as_of,
        "scan": store.range_search,
        "history": store.key_history,
    }
    reads_by_op = {op: [0, 0] for op in MIX_OPS}
    rng = random.Random(f"history_mix-run-{seed}")
    rounds = common.rounds_for(seconds, ROUNDS_PER_SECOND, MIN_ROUNDS)
    before = probe.snapshot([store])
    before["user_bytes"] = model.user_bytes
    # The spare set-ups' stores are garbage now; collect them here rather
    # than inside whichever timed call would trigger the collection.
    gc.collect()
    reference_before = common.reference_loop_ms()
    started = time.perf_counter()
    for _ in range(rounds):
        for op, *args in _round(rng, model):
            magnetic_reads, historical_reads = magnetic_stats.reads, historical_stats.reads
            answer = driver.call(op, calls[op], *args)
            reads_by_op[op][0] += magnetic_stats.reads - magnetic_reads
            reads_by_op[op][1] += historical_stats.reads - historical_reads
            if op == "write":
                model.record_writes(args[0], answer)
                read_back(driver, store, args[0], answer)
            else:
                model.check_read(op, args, answer)
        driver.call_known_fault("wide_pair", _wide_pair)
    timed_wall = time.perf_counter() - started
    reference_after = common.reference_loop_ms()
    lifetime = probe.snapshot([store])
    lifetime["user_bytes"] = model.user_bytes
    window = probe.delta(lifetime, before)
    window["calls"] = driver.samples.count(*MIX_OPS, "visible")
    window["writes"] = driver.samples.count("write")
    window["items"] = window["writes"] * WRITE_BATCH

    # Whole-surface check and the write-once property, outside any timing.
    for key in model.keys():
        model.check_history(key, store.key_history(key))
    worm = check_write_once("history_mix", tree.historical)
    space = store.space_summary()
    height = tree.height
    latch = store.metrics.snapshot()["histograms"]

    # Durability after the run: every acknowledged write survives a clean
    # shutdown and restart.  Not timed: the figure comes from the spares.
    store.close()
    result = _restart(store)
    violations = check_tree(result.tree)
    if violations:
        raise CheckError(f"restarted tree violates invariants: {violations[:3]}")
    model.check_full_state(
        "restart", histories_from_slice(result.tree.time_slice(0, model.now + 1))
    )
    restart_times = driver.samples.times["restart"]

    samples = driver.samples
    mix_calls = samples.count(*MIX_OPS)
    e2e = {
        "setup_s": common.median(setup_times),
        "ops_per_s": mix_calls / samples.total_seconds(*MIX_OPS),
        "write_p50_ms": samples.p50_ms("write"),
        "get_p50_ms": samples.p50_ms("get"),
        "asof_p50_ms": samples.p50_ms("asof"),
        "scan_p50_ms": samples.p50_ms("scan"),
        "history_p50_ms": samples.p50_ms("history"),
        "visible_p50_ms": samples.p50_ms("visible"),
        "recover_s": common.median(restart_times),
        "io_per_op": common.ratio(
            window["magnetic_reads"] + window["historical_reads"], window["calls"]
        ),
        "space_amp": common.ratio(probe.bytes_used(lifetime), lifetime["user_bytes"]),
        "write_amp": common.ratio(probe.bytes_written(lifetime), lifetime["user_bytes"]),
        "rss_mb": common.peak_rss_mb(),
    }
    per_layer = layers.in_process(
        tracer=tracer,
        samples=samples,
        window=window,
        reads_by_op=reads_by_op,
        space=space,
        height=height,
        latch=latch,
        records_redone=[report.operations_replayed for report in reports],
        splits=0,
        split_ms=0.0,
        fanout_per_scan=1.0,
    )
    return {
        "e2e": e2e,
        "per_layer": per_layer,
        "report": {
            "rounds": rounds,
            "timed_wall_s": timed_wall,
            "reference_loop_ms": {"before": reference_before, "after": reference_after},
            "p99_ms": common.tails(samples, READ_OPS),
            "altered_answers_rejected": altered_rejected,
            "write_once": worm,
            "preload": {"items": PRELOAD_ITEMS, "user_bytes": before["user_bytes"]},
            "pages_after_preload": common.pages(before, _config().cache_pages),
            "pages_at_end": common.pages(lifetime, _config().cache_pages),
            "setup_s": setup_times,
            "restart_s": restart_times,
        },
    }

