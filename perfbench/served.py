"""Workload ``served_replicated``: served writes read back from a replica process.

Two child processes hold the program: one serves a sharded WAL primary
(:class:`ReproServer` plus :class:`ReplicationPrimary`), the other runs
a :class:`Replica` and serves follower reads.  Neither shares a GIL with
this generator, which holds one :class:`ReproClient` connection to each.

Each step writes a small batch to the primary, waits until the
follower's watermark covers the write (commit to visible), reads the
write back from the follower as of its stamp, and finishes with a
follower ``get``, a short ``range_search`` and a ``key_history``.  The
data fits every buffer pool; this is the workload of the client, the
protocol, server dispatch, WAL shipping and replica apply.

Each timed step's batch holds keys of one shard only.  The follower's
watermark is the newest commit applied on *any* shard, so a batch
spanning two shards could be reported visible while its other shard
group is still in flight (a fault written down in the README; it shows
now and then, not on every run, so the benchmark cannot carry it as a
counted failure).  The set-up does not lean on that watermark: before
the timed phase the primary confirms that the replica has applied every
shard's whole log.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import common
import layers
import probe
from model import (
    CheckError,
    HistoryModel,
    check_write_once_figures,
    histories_from_slice,
    prove_checks_reject_altered_answers,
)
from child_primary import CACHE_PAGES, KEYS, SHARDS
from tracer import Tracer

PRELOAD_ITEMS = 2000
PRELOAD_BATCH = 40
VALUE_BYTES = (64, 192)
WRITE_BATCH = 4
SCAN_KEYS = 8
SETUPS = 3
#: A run attempts a fixed number of whole steps, 100 per second asked for
#: (about what this host completes), and at least 1,000, so the primary
#: and the replica end every run of a seed in the same state.
STEPS_PER_SECOND = 100
MIN_STEPS = 1000
READ_OPS = ("asof", "get", "scan", "history")
MIX_OPS = ("write",) + READ_OPS
#: Seconds a child may take to start, answer a command or exit.
CHILD_TIMEOUT = 60.0
#: Server-side histogram of each client operation.
SERVER_OP = {
    "write": "server.op.put_many",
    "get": "server.op.get",
    "asof": "server.op.get_as_of",
    "scan": "server.op.range",
    "history": "server.op.key_history",
}

#: Requests cross processes, so latency is wall-clock time.
CLOCK = time.perf_counter

class Child:
    """A benchmark child process spoken to in JSON lines over its pipes."""

    def __init__(self, script: str, args: List[str]) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(common.BENCH_DIR / script), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
            cwd=str(common.ROOT),
        )
        self.ready = self._read()

    def _read(self) -> Dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"child {self.process.args[1]} exited ({self.process.poll()})")
        return json.loads(line)

    def send(self, command: Dict) -> None:
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()

    def ask(self, command: Dict) -> Dict:
        self.send(command)
        return self._read()

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.send({"cmd": "stop"})
            except (BrokenPipeError, OSError):
                pass

    def wait(self) -> None:
        try:
            self.process.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except (BrokenPipeError, OSError):
                pass


class Cluster:
    """One set-up: both children and a client connection to each."""

    def __init__(self) -> None:
        self.primary: Optional[Child] = None
        self.replica: Optional[Child] = None
        self.client = None
        self.follower = None

    def start(self, batches, trace: bool) -> Tuple[List[List[int]], float]:
        from repro.client import ReproClient

        flag = ["--trace", str(int(trace))]
        self.primary = Child("child_primary.py", flag)
        self.client = ReproClient("127.0.0.1", self.primary.ready["port"], pool_size=1)
        stamps = [self.client.put_many(batch) for batch in batches]
        self.replica = Child(
            "child_replica.py", ["--repl-port", str(self.primary.ready["repl_port"]), *flag]
        )
        caught_up = self.primary.ask({"cmd": "caught_up"})
        if not caught_up["caught_up"]:
            raise CheckError("replica did not apply the preload on every shard")
        self.follower = ReproClient("127.0.0.1", self.replica.ready["port"], pool_size=1)
        return stamps, (caught_up["at"] - self.replica.ready["started_at"]) * 1000.0

    def close(self) -> None:
        """Close both clients, then stop the replica and the primary.

        The replica is told to stop first; stopping the primary then ends
        the replica's subscription streams, so its tailer joins return at
        once instead of timing out.
        """
        for client in (self.follower, self.client):
            if client is not None:
                client.close()
        for child in (self.replica, self.primary):
            if child is not None:
                child.stop()
        for child in (self.primary, self.replica):
            if child is not None:
                child.wait()


def _value(rng: random.Random) -> bytes:
    return rng.randbytes(rng.randint(*VALUE_BYTES))


def _preload(seed: int) -> List[List[Tuple[int, bytes]]]:
    rng = random.Random(f"served-preload-{seed}")
    return [
        [(key, _value(rng)) for key in rng.sample(range(KEYS), PRELOAD_BATCH)]
        for _ in range(PRELOAD_ITEMS // PRELOAD_BATCH)
    ]


def _shard_keys() -> List[range]:
    width = KEYS // SHARDS
    return [range(index * width, (index + 1) * width) for index in range(SHARDS)]


def _mean_ms(histograms: Dict[str, Dict], name: str) -> float:
    entry = histograms.get(name)
    return 1000.0 * entry["sum"] / entry["count"] if entry and entry["count"] else 0.0


def run(seed: int, seconds: float, driver: common.Driver) -> Dict[str, object]:
    trace = driver.tracer is not None
    batches = _preload(seed)
    setup_times: List[float] = []
    clusters: List[Cluster] = []
    try:
        stamps = catchup_ms = None
        for _ in range(SETUPS):
            # Only the last set-up serves the timed phase; the earlier
            # ones are closed first, outside every timed span.
            if clusters:
                clusters[-1].close()
            cluster = Cluster()
            clusters.append(cluster)
            started = time.perf_counter()
            setup_stamps, catchup_ms = cluster.start(batches, trace)
            setup_times.append(time.perf_counter() - started)
            if stamps is not None and setup_stamps != stamps:
                raise CheckError("two set-ups of one seed stamped differently")
            stamps = setup_stamps
        return _measure(seed, seconds, driver, cluster, batches, stamps, setup_times, catchup_ms)
    finally:
        for cluster in clusters:
            cluster.close()


def _measure(seed, seconds, driver, cluster, batches, stamps, setup_times, catchup_ms):
    from repro.api import RecordView

    model = HistoryModel()
    for batch, batch_stamps in zip(batches, stamps):
        model.record_writes(batch, batch_stamps)
    altered_rejected = prove_checks_reject_altered_answers(model, RecordView)
    client, follower = cluster.client, cluster.follower
    primary, replica = cluster.primary, cluster.replica

    rng = random.Random(f"served-run-{seed}")
    shard_keys = _shard_keys()
    reference_before = common.reference_loop_ms()
    primary_before = primary.ask({"cmd": "counters"})
    replica_before = replica.ask({"cmd": "counters"})
    user_before = model.user_bytes
    steps = common.rounds_for(seconds, STEPS_PER_SECOND, MIN_STEPS)
    for child in (primary, replica):
        child.ask({"cmd": "charge", "on": True})
    cpu_before = (time.process_time(), time.thread_time(), driver.cpu_in_calls)
    started = time.perf_counter()
    for step in range(steps):
        keys = rng.sample(shard_keys[step % SHARDS], WRITE_BATCH)
        items = [(key, _value(rng)) for key in keys]
        read_key, scan_low, history_key = (rng.randrange(KEYS) for _ in range(3))
        write_stamps = driver.call("write", client.put_many, items)
        model.record_writes(items, write_stamps)
        stamp = max(write_stamps)
        # ReproClient's own follower routing ignores a failed wait; here
        # a watermark that never covers the write fails the run.
        if not driver.call("visible", follower.wait_for_watermark, stamp, 10.0):
            raise CheckError(f"follower watermark never covered stamp {stamp}")
        key, value = items[0]
        answer = driver.call("asof", follower.get_as_of, key, write_stamps[0])
        if answer is None or answer.value != value:
            raise CheckError(f"follower read-back of key {key} at {write_stamps[0]} lost the write")
        model.check_as_of(key, write_stamps[0], answer)
        for op, read, args in (
            ("get", follower.get, (read_key,)),
            ("scan", follower.range_search, (scan_low, scan_low + SCAN_KEYS)),
            ("history", follower.key_history, (history_key,)),
        ):
            model.check_read(op, args, driver.call(op, read, *args))
    timed_wall = time.perf_counter() - started
    # CPU the client spent for the system: this thread inside the timed
    # calls, plus every other thread of this process (the clients' socket
    # readers); the generator's own input drawing and checks are left out.
    process_cpu, thread_cpu, calls_cpu = (
        now - before for now, before in zip(
            (time.process_time(), time.thread_time(), driver.cpu_in_calls), cpu_before
        )
    )
    client_cpu = calls_cpu + process_cpu - thread_cpu
    for child in (primary, replica):
        child.ask({"cmd": "charge", "on": False})
    primary_after = primary.ask({"cmd": "counters"})
    replica_after = replica.ask({"cmd": "counters"})
    reference_after = common.reference_loop_ms()
    follower_requests = follower.counters["client.requests"]
    busy_retries = client.counters["client.busy_retries"] + follower.counters["client.busy_retries"]

    # Both read surfaces, whole, against the model.
    for name, reader in (("primary", client), ("follower", follower)):
        model.check_full_state(name, histories_from_slice(reader.time_slice(0, model.now + 1)))
        model.check_current_state(
            name, {k: (v.timestamp, v.value) for k, v in reader.snapshot(model.now).items()}
        )
    primary_stats = client.stats()["server"]["histograms"]
    follower_server = follower.stats()["server"]
    follower_stats = follower_server["histograms"]

    # Reports last: the primary's ends with a crash restart of its store.
    follower_report = replica.ask({"cmd": "report"})
    primary_report = primary.ask({"cmd": "report", "now": model.now})
    for report in (follower_report, primary_report):
        for index, figures in enumerate(report["write_once"]):
            check_write_once_figures(f"shard {index}", figures)
    if primary_report["violations"]:
        raise CheckError(f"restarted primary violates invariants: {primary_report['violations']}")
    if primary_report["shards"] != SHARDS:
        raise CheckError("the primary split a shard the replica cannot follow")
    model.check_full_state(
        "primary restart",
        {
            int(key): [(stamp, bytes.fromhex(value)) for stamp, value in versions]
            for key, versions in primary_report["histories"].items()
        },
    )

    samples = driver.samples
    mix_calls = samples.count(*MIX_OPS)
    primary_window = probe.delta(primary_after, primary_before)
    replica_window = probe.delta(replica_after, replica_before)
    lifetime = primary_report["counters"]
    e2e = {
        "setup_s": common.median(setup_times),
        "ops_per_s": mix_calls / (
            client_cpu
            + primary_window["process_cpu_s"]
            + replica_window["process_cpu_s"]
        ),
        "write_p50_ms": samples.p50_ms("write"),
        "get_p50_ms": samples.p50_ms("get"),
        "asof_p50_ms": samples.p50_ms("asof"),
        "scan_p50_ms": samples.p50_ms("scan"),
        "history_p50_ms": samples.p50_ms("history"),
        "visible_p50_ms": samples.p50_ms("visible"),
        "recover_s": common.median(primary_report["restart_s"]),
        "io_per_op": common.ratio(
            sum(primary_window[f] + replica_window[f] for f in ("magnetic_reads", "historical_reads")),
            mix_calls,
        ),
        "space_amp": common.ratio(
            lifetime["magnetic_bytes_used"] + lifetime["historical_bytes_used"], model.user_bytes
        ),
        "write_amp": common.ratio(
            lifetime["magnetic_bytes_written"] + lifetime["historical_bytes_written"]
            + lifetime["log_bytes_written"],
            model.user_bytes,
        ),
        "rss_mb": primary_report["rss_mb"],
    }

    per_layer = layers.empty()
    writer = Tracer.from_ledger(primary_report["ledger"]) if driver.tracer else None
    reader = Tracer.from_ledger(follower_report["ledger"]) if driver.tracer else None
    layers.self_times(per_layer, writer, ("write",))
    layers.self_times(per_layer, reader, READ_OPS)
    for op in MIX_OPS:
        source = writer if op == "write" else reader
        if source is not None:
            for tier, span in (("magnetic", "MagneticDisk.read"), ("historical", "WormDisk.read")):
                per_layer[f"storage.{tier}_reads_per_op.{op}"] = source.spans_per_request(op, span)
        server = _mean_ms(primary_stats if op == "write" else follower_stats, SERVER_OP[op])
        per_layer[f"server.op_ms.{op}"] = server
        per_layer[f"server.wire_ms.{op}"] = samples.mean_ms(op) - server
    window = dict(primary_window)
    for name in ("cache_hits", "cache_misses", "cache_evictions"):
        window[name] += replica_window[name]
    window.update(
        calls=mix_calls, writes=samples.count("write"),
        items=samples.count("write") * WRITE_BATCH, user_bytes=model.user_bytes - user_before,
    )
    layers.structure(
        per_layer, window, {"redundancy_ratio": primary_report["redundancy"]}, primary_report["height"]
    )
    layers.latches(per_layer, follower_report["latch"])
    layers.restarts(per_layer, writer, primary_report["records_redone"])
    per_layer["api.fanout_per_scan"] = common.ratio(
        follower_report["scan_shard_tasks"], samples.count("scan")
    )
    batch_requests = primary_stats.get("server.batch.requests", {})
    per_layer["server.requests_per_write_batch"] = batch_requests.get("avg", 0.0)
    per_layer["server.chunks_per_scan"] = common.ratio(
        follower_server["counters"].get("server.stream.chunks", 0), samples.count("scan")
    )
    per_layer["client.requests_per_read"] = common.ratio(follower_requests, samples.count(*READ_OPS))
    per_layer["client.busy_retries"] = float(busy_retries)
    apply = follower_report["apply"]
    per_layer["replication.apply_ms_per_commit"] = common.ratio(
        1000.0 * apply.get("sum", 0.0), follower_report["commits_applied"]
    )
    per_layer["replication.records_per_batch"] = follower_report["batch_records"].get("avg", 0.0)
    per_layer["replication.catchup_ms"] = catchup_ms
    return {
        "e2e": e2e,
        "per_layer": per_layer,
        "report": {
            "steps": steps,
            "timed_wall_s": timed_wall,
            "reference_loop_ms": {"before": reference_before, "after": reference_after},
            "p99_ms": common.tails(samples, READ_OPS),
            "altered_answers_rejected": altered_rejected,
            "catchup_ms": catchup_ms,
            "setup_s": setup_times,
            "restart_s": primary_report["restart_s"],
            "replica_rss_mb": follower_report["rss_mb"],
            "pages_at_end": common.pages(lifetime, CACHE_PAGES),
        },
    }

