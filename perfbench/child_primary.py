"""Child process of ``served_replicated``: the served, replicated primary.

Serves a sharded WAL store (strict durability, no-steal buffer pools)
with :class:`ReproServer` and ships its log with
:class:`ReplicationPrimary`, each on an ephemeral port.  It prints one
JSON line with both ports, then answers JSON commands on standard input,
one per line, with one JSON line each:

* ``{"cmd": "caught_up"}`` -- waits until every subscriber has applied
  and acknowledged every shard's durable log, then answers whether it
  did and the wall-clock time it did;
* ``{"cmd": "charge", "on": B}`` -- in a traced run, charge requests to
  the ledger (the timed phase) or not;
* ``{"cmd": "counters"}`` -- the store's device, cache and log counters;
* ``{"cmd": "report", "now": T}`` -- counters, space, the write-once
  figures, peak RSS and, in a traced run, the self-time ledger; then a
  crash restart of every shard, timed, and the restarted histories up
  to ``T`` for the parent to check against its model;
* ``{"cmd": "stop"}`` -- stop shipping and exit.

After ``report`` the store has been crashed on purpose, so ``stop``
exits without the checkpoint a graceful close would take.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import common
import probe
from model import write_once_figures

KEYS = 400
SHARDS = 2
RESTARTS = 5
#: Seconds a replica may take to apply the preload on every shard.
CATCH_UP_TIMEOUT = 30.0
#: No-steal buffer pools: far more pages than the run writes, so no dirty
#: page reaches the device between checkpoints and a crash restart is valid.
CACHE_PAGES = 1_000_000


def _config():
    from repro.api import ShardSpec, StoreConfig

    # The page budget is far above what the run writes: a shard split
    # would change the topology a started replica mirrors.
    spec = ShardSpec.for_int_keys(SHARDS, key_space=KEYS, shard_page_budget=1 << 30)
    return StoreConfig(
        engine="tsb",
        page_size=1024,
        wal=True,
        group_commit_size=1,
        cache_pages=CACHE_PAGES,
        shards=spec,
    )


def _report(store, stores, primary, now: int, tracer) -> dict:
    from repro.analysis.metrics import merge_space_summaries
    from repro.api import TSBEngine
    from repro.core.checker import check_tree

    counters = probe.snapshot(stores)
    write_once = [write_once_figures(inner.backend.historical) for inner in stores]
    height = max(inner.backend.height for inner in stores)
    shard_count = store.shard_count
    rss = common.peak_rss_mb()

    # A restart is single-threaded work in this process while the server
    # idles, so it is timed on this thread's CPU clock, as the in-process
    # workloads time theirs.  Shipping stops first: its polling threads
    # would otherwise take the interpreter lock from the restart every
    # millisecond.
    primary.stop()
    restart_seconds, records_redone = [], []
    for _ in range(RESTARTS):
        started = time.thread_time()
        if tracer is not None:
            results = tracer.request("restart", common.restart, stores, CACHE_PAGES)
        else:
            results = common.restart(stores, CACHE_PAGES)
        restart_seconds.append(time.thread_time() - started)
        records_redone.append(sum(r.report.operations_replayed for r in results))
    violations = [str(v) for r in results for v in check_tree(r.tree)]
    histories = {}
    for result in results:
        for key, versions in result.tree.time_slice(0, now + 1).items():
            histories[key] = [[v.timestamp, v.value.hex()] for v in versions]
    space = merge_space_summaries(TSBEngine(r.tree).space_summary() for r in results)
    return {
        "counters": counters,
        "write_once": write_once,
        "height": height,
        "shards": shard_count,
        "rss_mb": rss,
        "restart_s": restart_seconds,
        "records_redone": records_redone,
        "violations": violations[:5],
        "histories": histories,
        "redundancy": space["redundancy_ratio"],
        "ledger": _ledger(tracer),
    }


def _ledger(tracer):
    """The traced run's self-time ledger; its kept spans go to a file."""
    if tracer is None:
        return None
    tracer.export(common.ROOT / ".perfbench_out" / "trace-served-primary.json", "primary")
    return tracer.ledger()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    common.use_source_tree()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install_program_layers()

    from repro.replication import ReplicationPrimary
    from repro.server.registry import StoreRegistry
    from repro.server.service import ReproServer

    registry = StoreRegistry({"default": _config()})
    store = registry.get("default")
    stores = list(store.shard_stores)
    server = ReproServer(registry, port=0).start()
    primary = ReplicationPrimary(store, poll_interval=0.001).start()
    common.emit({"ready": True, "port": server.port, "repl_port": primary.port})
    crashed = False
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "charge":
            if tracer is not None:
                tracer.charging = command["on"]
            common.emit({"charging": command["on"]})
        elif command["cmd"] == "caught_up":
            caught_up = primary.wait_caught_up(timeout=CATCH_UP_TIMEOUT)
            common.emit({"caught_up": caught_up, "at": time.time()})
        elif command["cmd"] == "counters":
            common.emit(dict(probe.snapshot(stores), process_cpu_s=time.process_time()))
        elif command["cmd"] == "report":
            common.emit(_report(store, stores, primary, command["now"], tracer))
            crashed = True
        elif command["cmd"] == "stop":
            break
    primary.stop()
    if not crashed:
        server.stop()
    sys.stdout.flush()
    # The server's executor threads hold no state worth a graceful close
    # once the store has been crashed; leave without joining them.
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
