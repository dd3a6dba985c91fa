"""Workload ``ingest_restart``: sharded ingest with splits, then a crash restart.

Each round opens a fresh in-process sharded WAL store (strict
durability, a buffer pool that holds every page: the no-steal pool
restart recovery needs), ingests a fixed seeded stream through batched
``put_many`` with a shard page budget small enough that shard splits
land in several percent of the write calls, then crashes: every shard
loses its volatile log tail and :class:`RecoveryManager` restarts it
from its devices and log.  The restart is timed as one call.  The
restarted shards are then read through a sharded façade (current,
as-of, short scans and whole histories); those reads are timed too, and
checked, with the restarted state as a whole, against the model.

Routing, shard splits (a full-history replay today), WAL append/force
and redo do the work; the cache never evicts.  Every round repeats the
same inputs, so each round's counts are identical and any round's
figures stand for the run.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import replace
from typing import Dict, List, Tuple

import common
import layers
import probe
from history_mix import read_back
from model import (
    CheckError,
    HistoryModel,
    check_write_once,
    histories_from_slice,
    prove_checks_reject_altered_answers,
)

KEYS = 2000
INITIAL_SHARDS = 2
#: Current-device pages a shard may hold before it splits: small enough
#: that about one write call in twenty grows the shard count, so the
#: write p99 sits among split calls, well clear of the boundary.
SHARD_PAGE_BUDGET = 64
ROUND_ITEMS = 8000
WRITE_BATCH = 16
VALUE_BYTES = (64, 192)
NO_STEAL_CACHE_PAGES = 1_000_000
READS = (("get", 300), ("asof", 300), ("scan", 200), ("history", 200))
#: A round takes about three seconds here; a run attempts one round per
#: three seconds asked for, and at least two (1,000 write calls).
ROUNDS_PER_SECOND = 1 / 3
MIN_ROUNDS = 2
SCAN_KEYS = 8
READ_OPS = ("get", "asof", "scan", "history")

#: The generator and the store share one thread and nothing in the
#: store waits (simulated devices, inline WAL forces), so a call's cost is
#: the thread's CPU time.  It leaves out the time the host took the CPU
#: away, which on a shared machine is most of the run-to-run noise.
CLOCK = time.thread_time


def _config():
    from repro.api import ShardSpec, StoreConfig

    return StoreConfig(
        engine="tsb",
        page_size=1024,
        wal=True,
        group_commit_size=1,
        cache_pages=NO_STEAL_CACHE_PAGES,
        shards=ShardSpec.for_int_keys(
            INITIAL_SHARDS, key_space=KEYS, shard_page_budget=SHARD_PAGE_BUDGET
        ),
    )


def _inputs(seed: int) -> List[List[Tuple[int, bytes]]]:
    rng = random.Random(f"ingest_restart-{seed}")
    return [
        [(rng.randrange(KEYS), rng.randbytes(rng.randint(*VALUE_BYTES))) for _ in range(WRITE_BATCH)]
        for _ in range(ROUND_ITEMS // WRITE_BATCH)
    ]


def _reads(seed: int, now: int) -> List[Tuple]:
    rng = random.Random(f"ingest_restart-reads-{seed}")
    names = [name for name, count in READS for _ in range(count)]
    rng.shuffle(names)
    reads = []
    for op in names:
        if op == "asof":
            reads.append((op, rng.randrange(KEYS), rng.randint(1, now)))
        elif op == "scan":
            low = rng.randrange(KEYS)
            reads.append((op, low, low + SCAN_KEYS))
        else:
            reads.append((op, rng.randrange(KEYS)))
    return reads


def _reads_of(trees) -> Tuple[int, int]:
    return (
        sum(tree.magnetic.stats.reads for tree in trees),
        sum(tree.historical.stats.reads for tree in trees),
    )


def _restarted_store(crashed, results):
    """The restarted shards behind one sharded façade, routed as before."""
    from repro.api import ShardedEngine, ShardedVersionStore, TSBEngine, VersionStore

    config = crashed.config
    inner_config = replace(config, shards=None)
    stores = [VersionStore(TSBEngine(result.tree), inner_config) for result in results]
    engine = ShardedEngine(
        stores, list(crashed.sharded_engine.boundaries), config.shards, inner_config
    )
    return ShardedVersionStore(engine, config)


def _round(seed, batches, driver, reads_by_op, split_times) -> Dict[str, object]:
    from repro.api import VersionStore
    from repro.core.checker import check_tree

    # The previous round's stores are garbage now; collect them here
    # rather than inside whichever timed call would trigger it.
    gc.collect()
    store, setup_seconds = driver.time(VersionStore.open, _config())

    model = HistoryModel()
    seen = {id(inner): inner for inner in store.shard_stores}
    trees = [inner.backend for inner in seen.values()]
    before = probe.snapshot(seen.values())
    splits = 0
    for batch in batches:
        shards = store.shard_count
        magnetic, historical = _reads_of(trees)
        stamps = driver.call("write", store.put_many, batch)
        after_magnetic, after_historical = _reads_of(trees)
        reads_by_op["write"][0] += after_magnetic - magnetic
        reads_by_op["write"][1] += after_historical - historical
        if store.shard_count > shards:
            splits += store.shard_count - shards
            split_times.append(driver.samples.times["write"][-1])
            for inner in store.shard_stores:
                if id(inner) not in seen:
                    seen[id(inner)] = inner
                    trees.append(inner.backend)
        model.record_writes(batch, stamps)
        read_back(driver, store, batch, stamps)
    ingest = probe.delta(probe.snapshot(seen.values()), before)
    # Device space from allocation counts only: space_summary() would
    # flush dirty pages between checkpoints, which a no-steal restart
    # cannot survive, so the redundancy figure is read after the restart.
    current = probe.snapshot(store.shard_stores)
    height = max(inner.backend.height for inner in store.shard_stores)
    latch = store.metrics.snapshot()["histograms"]
    for inner in seen.values():
        check_write_once("ingest_restart", inner.backend.historical)

    reads_before = _reads_of(trees)
    results = driver.call(
        "restart", common.restart, list(store.shard_stores), NO_STEAL_CACHE_PAGES
    )
    reads_after = _reads_of(trees)
    restart_reads = sum(reads_after) - sum(reads_before)
    restarted = _restarted_store(store, results)

    calls = {
        "get": restarted.get,
        "asof": restarted.get_as_of,
        "scan": restarted.range_search,
        "history": restarted.key_history,
    }
    read_trees = [result.tree for result in results]
    for op, *args in _reads(seed, model.now):
        magnetic, historical = _reads_of(read_trees)
        answer = driver.call(op, calls[op], *args)
        after_magnetic, after_historical = _reads_of(read_trees)
        reads_by_op[op][0] += after_magnetic - magnetic
        reads_by_op[op][1] += after_historical - historical
        model.check_read(op, args, answer)
    read_calls = sum(count for _, count in READS)
    all_reads = sum(_reads_of(read_trees)) - sum(reads_after) + restart_reads

    # Durability: under strict durability every acknowledged write is
    # in each shard's restarted state.  Then the structural check that
    # recover(verify=True) would have run inside the timed restart.
    histories: Dict[int, list] = {}
    for result in results:
        histories.update(histories_from_slice(result.tree.time_slice(0, model.now + 1)))
        violations = check_tree(result.tree)
        if violations:
            raise CheckError(f"restarted shard violates invariants: {violations[:3]}")
    model.check_full_state("restart", histories)
    space = restarted.space_summary()
    fanout = common.ratio(
        probe.shard_tasks(probe.inner_stores(restarted), "range_search"), dict(READS)["scan"]
    )

    ingest.update(
        calls=len(batches), writes=len(batches), items=ROUND_ITEMS, user_bytes=model.user_bytes
    )
    return {
        "setup_s": setup_seconds,
        "splits": splits,
        "shards": store.shard_count,
        "model": model,
        "ingest": ingest,
        "current": current,
        "space": space,
        "height": height,
        "latch": latch,
        "redone": sum(result.report.operations_replayed for result in results),
        "io_per_op": common.ratio(
            ingest["magnetic_reads"] + ingest["historical_reads"] + all_reads,
            len(batches) + 1 + read_calls,
        ),
        "fanout_per_scan": fanout,
    }


def run(seed: int, seconds: float, driver: common.Driver) -> Dict[str, object]:
    from repro.api import RecordView

    batches = _inputs(seed)
    reads_by_op = {op: [0, 0] for op in ("write",) + READ_OPS}
    split_times: List[float] = []
    rounds: List[Dict[str, object]] = []
    reference_before = common.reference_loop_ms()
    started = time.perf_counter()
    for _ in range(common.rounds_for(seconds, ROUNDS_PER_SECOND, MIN_ROUNDS)):
        outcome = _round(seed, batches, driver, reads_by_op, split_times)
        if rounds and outcome["ingest"] != rounds[0]["ingest"]:
            raise CheckError("two rounds of the same inputs did different work")
        rounds.append(outcome)
    timed_wall = time.perf_counter() - started
    reference_after = common.reference_loop_ms()
    first = rounds[0]
    altered_rejected = prove_checks_reject_altered_answers(first["model"], RecordView)

    samples = driver.samples
    ingest, current = first["ingest"], first["current"]
    restart_times = samples.times["restart"]
    e2e = {
        "setup_s": common.median(r["setup_s"] for r in rounds),
        "ops_per_s": samples.count("write") / samples.total_seconds("write"),
        "write_p50_ms": samples.p50_ms("write"),
        "get_p50_ms": samples.p50_ms("get"),
        "asof_p50_ms": samples.p50_ms("asof"),
        "scan_p50_ms": samples.p50_ms("scan"),
        "history_p50_ms": samples.p50_ms("history"),
        "visible_p50_ms": samples.p50_ms("visible"),
        "recover_s": common.median(restart_times),
        "io_per_op": first["io_per_op"],
        "space_amp": common.ratio(probe.bytes_used(current), ingest["user_bytes"]),
        "write_amp": common.ratio(probe.bytes_written(ingest), ingest["user_bytes"]),
        "rss_mb": common.peak_rss_mb(),
    }
    per_layer = layers.in_process(
        tracer=driver.tracer,
        samples=samples,
        window=ingest,
        reads_by_op=reads_by_op,
        space=first["space"],
        height=first["height"],
        latch=first["latch"],
        records_redone=[r["redone"] for r in rounds],
        splits=first["splits"],
        split_ms=1000.0 * common.median(split_times),
        fanout_per_scan=first["fanout_per_scan"],
    )
    return {
        "e2e": e2e,
        "per_layer": per_layer,
        "report": {
            "rounds": len(rounds),
            "timed_wall_s": timed_wall,
            "reference_loop_ms": {"before": reference_before, "after": reference_after},
            "p99_ms": common.tails(samples, READ_OPS),
            "altered_answers_rejected": altered_rejected,
            "splits_per_round": first["splits"],
            "splits_per_write_call": common.ratio(first["splits"], len(batches)),
            "shards_at_crash": first["shards"],
            "pages_at_crash": common.pages(current, NO_STEAL_CACHE_PAGES),
            "setup_s": [r["setup_s"] for r in rounds],
            "restart_s": restart_times,
        },
    }
