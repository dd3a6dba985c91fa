"""Per-layer metrics, by the names ``BENCHMARK.json`` lists under ``per_layer``.

Every workload reports every name.  A layer that does no work on a
workload reports 0 there (no server on ``history_mix``, no shard split on
``served_replicated``): the README's table says which workload each
layer metric is meant to move.

Self times come from the traced run's ledger (:mod:`tracer`); counts
come from the program's own counters, read by :mod:`probe`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import common

OPS = ("write", "get", "asof", "scan", "history")


def _per_op(tracer, layer: str, op: str) -> float:
    return tracer.self_ms_per_request(op, layer) if tracer is not None else 0.0


def _histogram(histograms: Dict[str, Dict], name: str, field: str) -> float:
    entry = histograms.get(name)
    return 1000.0 * entry[field] if entry and entry["count"] else 0.0


def empty() -> Dict[str, float]:
    """Every per-layer name at 0, for the layers a workload does not run."""
    return {name: 0.0 for name, _ in common.declared_metrics("per_layer")}


def self_times(metrics: Dict[str, float], tracer, ops: Iterable[str] = OPS) -> None:
    """``api``/``core``/``storage`` self time per call, and the write path's
    ``txn`` and WAL shares."""
    for op in ops:
        metrics[f"api.self_ms.{op}"] = _per_op(tracer, "api", op)
        metrics[f"core.self_ms.{op}"] = _per_op(tracer, "core", op)
        metrics[f"storage.self_ms.{op}"] = _per_op(tracer, "storage", op)
    if "write" in ops:
        metrics["txn.self_ms.write"] = _per_op(tracer, "txn", "write")
        metrics["recovery.wal_self_ms.write"] = _per_op(tracer, "wal", "write")


def structure(metrics: Dict[str, float], window: Dict[str, int], space: Dict, height: int) -> None:
    """Split rates, redundancy, height, cache behaviour and write volumes
    over a counted window of the workload."""
    items = window["items"]
    calls = window["calls"]
    user = window["user_bytes"]
    metrics["core.key_splits"] = common.ratio(1000.0 * window["key_splits"], items)
    metrics["core.time_splits"] = common.ratio(1000.0 * window["time_splits"], items)
    metrics["core.index_splits"] = common.ratio(1000.0 * window["index_splits"], items)
    metrics["core.redundancy"] = float(space["redundancy_ratio"])
    metrics["core.height"] = float(height)
    accesses = window["cache_hits"] + window["cache_misses"]
    metrics["storage.cache_hit_ratio"] = common.ratio(window["cache_hits"], accesses)
    metrics["storage.cache_misses_per_op"] = common.ratio(window["cache_misses"], calls)
    metrics["storage.cache_evictions_per_op"] = common.ratio(window["cache_evictions"], calls)
    metrics["storage.magnetic_bytes_written_per_user_byte"] = common.ratio(
        window["magnetic_bytes_written"], user
    )
    metrics["storage.historical_bytes_written_per_user_byte"] = common.ratio(
        window["historical_bytes_written"], user
    )
    metrics["recovery.wal_bytes_per_user_byte"] = common.ratio(window["log_bytes_written"], user)
    metrics["recovery.forces_per_write"] = common.ratio(window["log_forces"], window["writes"])


def device_reads(metrics: Dict[str, float], reads_by_op: Dict[str, List[int]], samples) -> None:
    for op, (magnetic, historical) in reads_by_op.items():
        calls = samples.count(op)
        metrics[f"storage.magnetic_reads_per_op.{op}"] = common.ratio(magnetic, calls)
        metrics[f"storage.historical_reads_per_op.{op}"] = common.ratio(historical, calls)


def latches(metrics: Dict[str, float], histograms: Dict[str, Dict]) -> None:
    metrics["storage.latch_read_wait_ms"] = _histogram(histograms, "latch.read_wait", "p99")
    metrics["storage.latch_write_hold_ms"] = _histogram(histograms, "latch.write_hold", "p50")


def restarts(metrics: Dict[str, float], tracer, records_redone: List[int]) -> None:
    """Redo work and the recovery layer's own time, per restart."""
    metrics["recovery.records_redone"] = common.median(records_redone)
    requests = tracer.requests.get("restart", 0) if tracer is not None else 0
    if requests:
        metrics["recovery.restart_self_s"] = (
            tracer.self_seconds.get(("restart", "recovery"), 0.0) / requests
        )


def in_process(
    *,
    tracer,
    samples,
    window: Dict[str, int],
    reads_by_op: Dict[str, List[int]],
    space: Dict,
    height: int,
    latch: Dict[str, Dict],
    records_redone: List[int],
    splits: int,
    split_ms: float,
    fanout_per_scan: float,
) -> Dict[str, float]:
    metrics = empty()
    self_times(metrics, tracer)
    structure(metrics, window, space, height)
    device_reads(metrics, reads_by_op, samples)
    latches(metrics, latch)
    restarts(metrics, tracer, records_redone)
    metrics["api.splits"] = float(splits)
    metrics["api.split_ms"] = split_ms
    metrics["api.fanout_per_scan"] = fanout_per_scan
    return metrics
