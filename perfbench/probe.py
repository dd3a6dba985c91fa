"""Read the program's own counters from outside, as one flat snapshot.

Every figure comes from a public attribute of a public class: the TSB
tree's devices, buffer pool and structural counters, and the WAL's log
device.  Snapshots are plain dicts, so two of them subtract into the
counts of the work done in between, and a child process can ship one
to its parent as JSON.
"""

from __future__ import annotations

from typing import Dict, Iterable

FIELDS = (
    "magnetic_reads", "historical_reads",
    "magnetic_bytes_written", "historical_bytes_written",
    "log_bytes_written", "log_forces",
    "cache_hits", "cache_misses", "cache_evictions",
    "key_splits", "time_splits", "index_splits",
    "magnetic_bytes_used", "historical_bytes_used",
)


def inner_stores(store) -> list:
    """The single-tree stores behind ``store`` (its shards, or itself)."""
    shards = getattr(store, "shard_stores", None)
    return list(shards) if shards is not None else [store]


def tree_snapshot(tree, log_device=None) -> Dict[str, int]:
    magnetic, historical = tree.magnetic, tree.historical
    cache, counters = tree.cache.stats, tree.counters
    return {
        "magnetic_reads": magnetic.stats.reads,
        "historical_reads": historical.stats.reads,
        "magnetic_bytes_written": magnetic.stats.bytes_written,
        "historical_bytes_written": historical.stats.bytes_written,
        "log_bytes_written": log_device.stats.bytes_written if log_device else 0,
        "log_forces": log_device.stats.writes if log_device else 0,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_evictions": cache.evictions,
        "key_splits": counters.data_key_splits,
        "time_splits": counters.data_time_splits,
        "index_splits": counters.index_key_splits + counters.index_time_splits,
        "magnetic_bytes_used": magnetic.bytes_used,
        "historical_bytes_used": historical.bytes_used,
    }


def snapshot(stores: Iterable) -> Dict[str, int]:
    """Summed counters of every single-tree store in ``stores``."""
    total = dict.fromkeys(FIELDS, 0)
    for store in stores:
        for name, value in tree_snapshot(store.backend, store.log_device).items():
            total[name] += value
    return total


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {name: after[name] - before.get(name, 0) for name in after}


def bytes_used(snap: Dict[str, int]) -> int:
    """Device space held: magnetic pages plus burned write-once sectors."""
    return snap["magnetic_bytes_used"] + snap["historical_bytes_used"]


def bytes_written(snap: Dict[str, int]) -> int:
    """Bytes sent to every device, the log included."""
    return (
        snap["magnetic_bytes_written"]
        + snap["historical_bytes_written"]
        + snap["log_bytes_written"]
    )


def shard_tasks(stores: Iterable, label: str) -> int:
    """Per-shard tasks a sharded façade ran for ``label`` queries: its
    fan-out, summed over every query (each shard times its own task)."""
    total = 0
    for store in stores:
        histogram = store.metrics.histograms().get(f"shard.{label}")
        total += histogram.count if histogram is not None else 0
    return total
