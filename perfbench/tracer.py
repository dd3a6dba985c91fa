"""Per-layer tracing from outside the program.

A traced run patches the public entry points of each layer, on the
classes whose instances the run uses, with a wrapper that records a span:
layer, name, start, end and parent.  Spans nest per thread.  A span's
self time is its duration minus the time of its direct children, so the
self times of one request add up to the request's own duration.

Every span is charged to the operation of the outermost span of its
thread (the benchmark's own timed call in process, a served request or a
replication batch in a child process).  Only the timed calls are
charged: in process, a program call outside the benchmark's own
:meth:`Tracer.request` runs unrecorded (set-up, preload, the
whole-surface checks); in a child process, whose requests have no such
wrapper, spans open requests only while :attr:`Tracer.charging` is set,
which the parent does for the timed phase alone.  Aggregates are folded in as each
outermost span closes; only the spans of the first few requests are kept
whole, for the Chrome trace written when the run ends.

End-to-end metrics never come from a traced run.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Façade method names -> the benchmark's operation names, for requests
#: whose outermost span is a façade call (the served child processes).
OP_OF_API_CALL = {
    "put_many": "write",
    "put_many_detailed": "write",
    "get": "get",
    "get_as_of": "asof",
    "range_search": "scan",
    "key_history": "history",
    "replay": "apply",
    "recover": "recover",
}

#: Spans kept whole for the exported Chrome trace.
EXPORTED_REQUESTS = 200


def _span_wrapper(tracer: "Tracer", layer: str, label: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        return tracer.run(layer, label, None, fn, *args, **kwargs)

    wrapper.__name__ = getattr(fn, "__name__", label)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


class _Frame:
    __slots__ = (
        "layer", "name", "op", "span_id", "parent", "start", "children",
        "selfs", "counts", "spans",
    )

    def __init__(
        self, layer: str, name: str, op: Optional[str], span_id: int, parent: Optional[int]
    ) -> None:
        self.layer = layer
        self.name = name
        self.op = op
        self.span_id = span_id
        self.parent = parent
        self.start = 0.0
        self.children = 0.0
        # Only the outermost frame carries these: its request's ledger.
        self.selfs: Optional[Dict[str, float]] = None
        self.counts: Optional[Dict[str, int]] = None
        self.spans: Optional[List[Tuple]] = None


class Tracer:
    """Span recorder and per-(operation, layer) self-time ledger."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (op, layer) -> self seconds
        self.self_seconds: Dict[Tuple[str, str], float] = defaultdict(float)
        #: (op, span name) -> spans of that name
        self.span_counts: Dict[Tuple[str, str], int] = defaultdict(int)
        #: op -> outermost spans (requests) of that op
        self.requests: Dict[str, int] = defaultdict(int)
        self.exported: List[Tuple] = []
        self._exported_requests = 0
        self._span_ids = itertools.count(1)
        #: Whether a program call outside :meth:`request` opens a request.
        self.charging = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, layer: str, name: str, op: Optional[str], fn: Callable, *args, **kwargs):
        stack = self._stack()
        if not stack and op is None and not self.charging:
            return fn(*args, **kwargs)
        frame = _Frame(
            layer, name, op, next(self._span_ids), stack[-1].span_id if stack else None
        )
        root = stack[0] if stack else frame
        if frame is root:
            frame.selfs = defaultdict(float)
            frame.counts = defaultdict(int)
            frame.spans = [] if self._exported_requests < EXPORTED_REQUESTS else None
            if frame.op is None:
                frame.op = OP_OF_API_CALL.get(name.rsplit(".", 1)[-1], name)
        stack.append(frame)
        frame.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - frame.start
            root.selfs[layer] += duration - frame.children
            root.counts[name] += 1
            if root.spans is not None:
                root.spans.append(
                    (name, layer, frame.start, end, frame.span_id, frame.parent,
                     root.span_id, threading.get_ident())
                )
            if stack:
                stack[-1].children += duration
            else:
                self._close_request(frame)

    def _close_request(self, root: _Frame) -> None:
        with self._lock:
            op = root.op
            self.requests[op] += 1
            for layer, seconds in root.selfs.items():
                self.self_seconds[(op, layer)] += seconds
            for name, count in root.counts.items():
                self.span_counts[(op, name)] += count
            if root.spans is not None and self._exported_requests < EXPORTED_REQUESTS:
                self._exported_requests += 1
                self.exported.extend(root.spans)

    def request(self, op: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as the outermost span of one benchmark operation."""
        return self.run("bench", f"bench.{op}", op, fn, *args, **kwargs)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner, layer: str, names) -> None:
        """Wrap ``owner.<name>`` (a class's own method or a module function)."""
        for name in names:
            original = vars(owner).get(name)
            if original is None or not callable(original):
                raise AttributeError(f"{owner!r} has no entry point {name!r}")
            label = f"{getattr(owner, '__name__', owner)}.{name}"
            setattr(owner, name, _span_wrapper(self, layer, label, original))

    def install_program_layers(self) -> None:
        """Wrap every layer's public entry points named by the benchmark."""
        from repro.api.sharded import ShardedVersionStore
        from repro.api.store import VersionStore
        from repro.core import tsb_tree
        from repro.core.nodes import DataNode, IndexNode
        from repro.core.tsb_tree import TSBTree
        from repro.recovery.log_manager import LogManager
        from repro.recovery.recovery_manager import RecoveryManager
        from repro.replication.apply import LogReplayer
        from repro.storage.logdevice import LogDevice
        from repro.storage.magnetic import MagneticDisk
        from repro.storage.pagecache import PageCache
        from repro.storage.worm import WormDisk
        from repro.txn.manager import TransactionManager

        self.patch(VersionStore, "api", [
            "put_many", "get", "get_as_of", "range_search", "key_history",
            "snapshot", "history_between", "watermark",
        ])
        self.patch(ShardedVersionStore, "api", [
            "put_many", "put_many_detailed", "time_slice", "watermark",
        ])
        self.patch(TransactionManager, "txn", ["run_transaction"])
        self.patch(LogManager, "wal", ["log_begin", "log_insert", "log_commit", "force"])
        self.patch(LogDevice, "wal", ["append", "force"])
        self.patch(TSBTree, "core", [
            "insert", "insert_provisional", "commit_provisional",
            "abort_provisional", "search_current", "search_as_of",
            "key_history", "history_between", "time_slice", "snapshot",
            "range_search",
        ])
        self.patch(PageCache, "storage", ["read", "write"])
        self.patch(MagneticDisk, "storage", ["read", "write"])
        self.patch(WormDisk, "storage", ["read", "append_region"])
        self.patch(DataNode, "storage", ["encode"])
        self.patch(IndexNode, "storage", ["encode"])
        self.patch(tsb_tree, "storage", ["decode_node"])
        self.patch(RecoveryManager, "recovery", ["recover"])
        self.patch(LogReplayer, "replication", ["replay"])

    # ------------------------------------------------------------------
    # Reading the ledger
    # ------------------------------------------------------------------
    def self_ms_per_request(self, op: str, layer: str) -> float:
        requests = self.requests.get(op, 0)
        if not requests:
            return 0.0
        return 1000.0 * self.self_seconds.get((op, layer), 0.0) / requests

    def spans_per_request(self, op: str, name: str) -> float:
        requests = self.requests.get(op, 0)
        if not requests:
            return 0.0
        return self.span_counts.get((op, name), 0) / requests

    def ledger(self) -> Dict[str, object]:
        """A JSON-ready copy, for a child process to hand to its parent."""
        with self._lock:
            return {
                "requests": dict(self.requests),
                "self_seconds": [[op, layer, s] for (op, layer), s in self.self_seconds.items()],
                "span_counts": [[op, name, c] for (op, name), c in self.span_counts.items()],
            }

    @classmethod
    def from_ledger(cls, ledger: Dict[str, object]) -> "Tracer":
        tracer = cls()
        tracer.requests.update(ledger["requests"])
        for op, layer, seconds in ledger["self_seconds"]:
            tracer.self_seconds[(op, layer)] += seconds
        for op, name, count in ledger["span_counts"]:
            tracer.span_counts[(op, name)] += count
        return tracer

    def export(self, path: Path, process: str) -> None:
        """Write the kept spans as a Chrome trace, plus the self-time ledger."""
        events = [
            {
                "name": name, "cat": layer, "ph": "X", "pid": process, "tid": tid,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent, "request": request},
            }
            for name, layer, start, end, span_id, parent, request, tid in self.exported
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "ledger": self.ledger()}))
