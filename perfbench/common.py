"""Shared plumbing for the benchmark: paths, timing samples, host diagnostics.

Nothing here touches the program under test beyond putting its source
tree on ``sys.path``; every workload imports ``repro`` only after
:func:`use_source_tree` has run.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE_TREE = ROOT / "src"

#: A p99 needs at least ten samples beyond it.
P99_MIN_SAMPLES = 1000


class SetupError(Exception):
    """The benchmark cannot run here (missing source tree, bad arguments)."""


def use_source_tree() -> None:
    """Import the program from this checkout's ``src`` tree, never an install."""
    if not (SOURCE_TREE / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program source at {SOURCE_TREE}/repro")
    path = str(SOURCE_TREE)
    if path not in sys.path:
        sys.path.insert(0, path)


def declared_metrics(section: str) -> List[tuple]:
    """``(name, unit)`` of every metric ``BENCHMARK.json`` lists in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(entry["name"], entry["unit"]) for entry in spec[section]]


def rounds_for(seconds: float, per_second: float, minimum: int) -> int:
    """Whole rounds a run of ``seconds`` attempts: fixed work, not a deadline.

    The work is set by the seconds asked for, never by how fast the host
    ran, so every run of a seed leaves the program in the same state.
    """
    return max(minimum, math.ceil(seconds * per_second))


class Samples:
    """Latency samples (seconds) per operation type, plus attempt counts."""

    def __init__(self) -> None:
        self.times: Dict[str, List[float]] = {}
        self.attempted: Dict[str, int] = {}
        self.failed: Dict[str, int] = {}

    def add(self, op: str, seconds: float) -> None:
        self.times.setdefault(op, []).append(seconds)

    def attempt(self, op: str) -> None:
        self.attempted[op] = self.attempted.get(op, 0) + 1

    def fail(self, op: str) -> None:
        self.failed[op] = self.failed.get(op, 0) + 1

    def of(self, *ops: str) -> List[float]:
        merged: List[float] = []
        for op in ops:
            merged.extend(self.times.get(op, ()))
        return merged

    def count(self, *ops: str) -> int:
        return sum(len(self.times.get(op, ())) for op in ops)

    def total_seconds(self, *ops: str) -> float:
        return sum(sum(self.times.get(op, ())) for op in ops)

    def p50_ms(self, *ops: str) -> float:
        values = self.of(*ops)
        if not values:
            raise SetupError(f"no samples for {ops}")
        return statistics.median(values) * 1000.0

    def p99_ms(self, *ops: str) -> float:
        values = sorted(self.of(*ops))
        if len(values) < P99_MIN_SAMPLES:
            raise SetupError(
                f"{len(values)} samples of {ops} cannot support a p99 "
                f"(need {P99_MIN_SAMPLES})"
            )
        return values[int(0.99 * len(values))] * 1000.0

    def mean_ms(self, *ops: str) -> float:
        values = self.of(*ops)
        return 1000.0 * sum(values) / len(values) if values else 0.0


def tails(samples: Samples, read_ops) -> Dict[str, float]:
    """Write and read p99s for the per-run report (not metrics: see README)."""
    return {"write": samples.p99_ms("write"), "read": samples.p99_ms(*read_ops)}


def reference_loop_ms() -> float:
    """Median of five runs of a fixed pure-Python loop: host speed, not a metric."""
    runs = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for index in range(200_000):
            total += index * index
        runs.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(runs)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pages(snapshot: Dict[str, int], pool: int) -> Dict[str, int]:
    """Data size in 1 KiB pages and sectors, beside the buffer pool's pages."""
    return {
        "magnetic_pages": snapshot["magnetic_bytes_used"] // 1024,
        "historical_sectors": snapshot["historical_bytes_used"] // 1024,
        "buffer_pool_pages": pool,
    }


def restart(stores, cache_pages: int, crash: bool = True) -> list:
    """Restart each single-tree store in ``stores`` from its own devices and
    log with a ``cache_pages`` buffer pool, as :class:`RecoveryManager`
    does after a crash; with ``crash`` each first loses its volatile log
    tail.  Returns the recovery results, one per store, unverified: the
    caller runs the structural check outside any timing."""
    from repro.recovery import RecoveryManager

    results = []
    for store in stores:
        if crash:
            store.log_device.lose_volatile_tail()
        manager = RecoveryManager(
            store.backend.magnetic, store.backend.historical, store.log_device,
            cache_pages=cache_pages,
        )
        results.append(manager.recover(verify=False))
    return results


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def emit(line: Dict[str, object], stream=None) -> None:
    """One JSON object per line (the child-process and result protocol)."""
    out = stream or sys.stdout
    out.write(json.dumps(line, sort_keys=True) + "\n")
    out.flush()


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Driver:
    """Times calls into the program from one closed-loop generator thread.

    Each call is one sample of its operation type, read from ``clock``.
    A call that raises counts as failed and ends the run: the model no
    longer knows what the store holds.  In a traced run the call becomes
    the outermost span of everything the program does on its behalf.
    """

    def __init__(self, tracer=None, clock=time.perf_counter) -> None:
        self.samples = Samples()
        self.tracer = tracer
        self.clock = clock
        #: This thread's CPU time inside timed calls, whatever ``clock`` is.
        self.cpu_in_calls = 0.0

    def call(self, op: str, fn, *args):
        self.samples.attempt(op)
        clock = self.clock
        try:
            cpu = time.thread_time()
            if self.tracer is not None:
                started = clock()
                result = self.tracer.request(op, fn, *args)
            else:
                started = clock()
                result = fn(*args)
            elapsed = clock() - started
            self.cpu_in_calls += time.thread_time() - cpu
        except Exception:
            self.samples.fail(op)
            raise
        self.samples.add(op, elapsed)
        return result

    def call_known_fault(self, op: str, fn, *args) -> bool:
        """One untimed call that fails while a known program fault stands.

        ``fn`` returns whether it succeeded, raising only on a wrong answer
        or an unexpected error.  A failure is counted and the run goes on.
        """
        self.samples.attempt(op)
        if fn(*args):
            return True
        self.samples.fail(op)
        return False

    def time(self, fn, *args):
        """``(result, seconds)`` of one untallied call, on the same clock."""
        started = self.clock()
        result = fn(*args)
        return result, self.clock() - started
