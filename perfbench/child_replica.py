"""Child process of ``served_replicated``: the replica serving follower reads.

Subscribes a :class:`Replica` to the primary's replication port, serves
the follower store with :meth:`Replica.serve` and prints one JSON line
with the follower's port and the wall-clock time the replica started
(the parent times the catch-up from it to the primary's report that
every shard is applied).  It then answers the same
``charge``/``counters``/``report``/``stop`` commands as the primary's
child:
the report carries the follower's device, cache, latch and apply
figures, its write-once figures, peak RSS and, in a traced run, its
self-time ledger.
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


def _report(replica, tracer) -> dict:
    store = replica.store
    stores = probe.inner_stores(store)
    histograms = store.metrics.snapshot()["histograms"]
    replication = replica.metrics.snapshot()
    commits = sum(
        count for name, count in replication["counters"].items()
        if name.endswith(".commits_applied")
    )
    return {
        "counters": probe.snapshot(stores),
        "write_once": [write_once_figures(inner.backend.historical) for inner in stores],
        "latch": {
            name: histograms[name]
            for name in ("latch.read_wait", "latch.write_hold")
            if name in histograms
        },
        "scan_shard_tasks": probe.shard_tasks(stores, "range_search"),
        "apply": replication["histograms"].get("repl.apply_seconds", {}),
        "batch_records": replication["histograms"].get("repl.apply_batch_records", {}),
        "commits_applied": commits,
        "rss_mb": common.peak_rss_mb(),
        "ledger": _ledger(tracer),
    }


def _ledger(tracer):
    """The traced run's self-time ledger; its kept spans go to a file."""
    if tracer is None:
        return None
    tracer.export(common.ROOT / ".perfbench_out" / "trace-served-replica.json", "replica")
    return tracer.ledger()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repl-port", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    common.use_source_tree()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install_program_layers()

    from repro.replication import Replica

    started = time.time()
    replica = Replica("127.0.0.1", args.repl_port, name="bench").start()
    server = replica.serve()
    common.emit({"ready": True, "port": server.port, "started_at": started})
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "charge":
            if tracer is not None:
                tracer.charging = command["on"]
            common.emit({"charging": command["on"]})
        elif command["cmd"] == "counters":
            stores = probe.inner_stores(replica.store)
            common.emit(dict(probe.snapshot(stores), process_cpu_s=time.process_time()))
        elif command["cmd"] == "report":
            common.emit(_report(replica, tracer))
        elif command["cmd"] == "stop":
            break
    # Replica.stop() joins each tailer for up to 5 s: closing a socket
    # does not wake a thread blocked in recv.  The parent stops the
    # primary right after sending this stop, and the tailers leave on
    # the primary's end of stream instead.
    replica.stop()
    sys.stdout.flush()
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
