"""An independent model of every key's history, and the answer checks.

The model is built only from the generated inputs and the commit stamps
the program hands back.  Every answer the benchmark times is compared
with it after the timed call returns, so a check never sits inside a
measured interval.

Two properties of the paper's method are checked on their own, besides
plain equality with the model:

* an as-of answer is the newest version at or before the asked time
  (:meth:`HistoryModel.check_as_of`);
* the historical (write-once) tier never erases or rewrites what it
  burned (:func:`check_write_once`).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Version = Tuple[int, bytes]  # (commit stamp, value)

#: A user byte is one byte of value or of key the caller asked the store to
#: keep; integer keys are 8 bytes on the wire and in every page image.
KEY_BYTES = 8


class CheckError(AssertionError):
    """An answer disagrees with the model or with a property of the method."""


def _view(answer) -> Optional[Version]:
    if answer is None:
        return None
    return answer.timestamp, answer.value


def _show(thing) -> str:
    """A short form of an answer or model entry for a failure message."""
    if isinstance(thing, bytes):
        return f"<{len(thing)} B {thing[:6].hex()}>"
    if isinstance(thing, (tuple, list)):
        return "(" + ", ".join(_show(part) for part in thing) + ")"
    return repr(thing)


class HistoryModel:
    """``key -> [(stamp, value), ...]`` in commit order, plus the commit clock."""

    def __init__(self) -> None:
        self.versions: Dict[int, List[Version]] = {}
        self._stamps: Dict[int, List[int]] = {}
        self.now = 0
        self.user_bytes = 0

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def record_writes(self, items: Sequence[Tuple[int, bytes]], stamps: Sequence[int]) -> None:
        """Record an acknowledged batch; reject stamps that break commit order."""
        if len(stamps) != len(items):
            raise CheckError(f"{len(items)} writes acknowledged with {len(stamps)} stamps")
        previous = self.now
        for (key, value), stamp in zip(items, stamps):
            if stamp <= previous:
                raise CheckError(
                    f"write of key {key} stamped {stamp}, not after the "
                    f"latest earlier commit {previous}"
                )
            history = self.versions.setdefault(key, [])
            if history and history[-1][0] >= stamp:
                raise CheckError(f"key {key} got stamp {stamp} twice or out of order")
            history.append((stamp, value))
            self._stamps.setdefault(key, []).append(stamp)
            self.now = max(self.now, stamp)
            self.user_bytes += KEY_BYTES + len(value)

    # ------------------------------------------------------------------
    # Expected answers
    # ------------------------------------------------------------------
    def latest(self, key: int) -> Optional[Version]:
        history = self.versions.get(key)
        return history[-1] if history else None

    def as_of(self, key: int, timestamp: int) -> Optional[Version]:
        stamps = self._stamps.get(key)
        if not stamps:
            return None
        index = bisect_right(stamps, timestamp)
        return self.versions[key][index - 1] if index else None

    def scan(self, low: int, high: int) -> List[Tuple[int, int, bytes]]:
        return [
            (key, *self.versions[key][-1])
            for key in sorted(self.versions)
            if low <= key < high
        ]

    def history(self, key: int) -> List[Version]:
        return list(self.versions.get(key, ()))

    def keys(self) -> List[int]:
        return sorted(self.versions)

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def check_get(self, key: int, answer) -> None:
        expected = self.latest(key)
        if _view(answer) != expected or (answer is not None and answer.key != key):
            raise CheckError(
                f"get({key}) answered {_show(_view(answer))}, model says {_show(expected)}"
            )

    def check_as_of(self, key: int, timestamp: int, answer) -> None:
        got = _view(answer)
        if got is not None:
            stamp = got[0]
            if stamp > timestamp:
                raise CheckError(
                    f"get_as_of({key}, {timestamp}) answered a version from {stamp}, "
                    "after the asked time"
                )
            newer = [s for s, _ in self.versions.get(key, ()) if stamp < s <= timestamp]
            if newer:
                raise CheckError(
                    f"get_as_of({key}, {timestamp}) answered the version from "
                    f"{stamp}, but {newer[-1]} is newer and not after the asked time"
                )
        expected = self.as_of(key, timestamp)
        if got != expected:
            raise CheckError(
                f"get_as_of({key}, {timestamp}) answered {_show(got)}, "
                f"model says {_show(expected)}"
            )

    def check_scan(self, low: int, high: int, answer: Iterable) -> None:
        got = [(record.key, record.timestamp, record.value) for record in answer]
        expected = self.scan(low, high)
        if got != expected:
            raise CheckError(
                f"range_search({low}, {high}) answered {len(got)} records, "
                f"model has {len(expected)} (first difference: "
                f"{_first_difference(got, expected)})"
            )

    def check_history(self, key: int, answer: Iterable) -> None:
        got = [(record.timestamp, record.value) for record in answer]
        expected = self.history(key)
        if got != expected:
            raise CheckError(
                f"key_history({key}) answered {len(got)} versions, model has "
                f"{len(expected)} (first difference: {_first_difference(got, expected)})"
            )

    def check_read(self, op: str, args: Sequence, answer) -> None:
        """Check one read answer; ``args`` are the arguments the read got."""
        if op == "get":
            self.check_get(*args, answer)
        elif op == "asof":
            self.check_as_of(*args, answer)
        elif op == "scan":
            self.check_scan(*args, answer)
        elif op == "history":
            self.check_history(*args, answer)
        else:
            raise ValueError(f"no check for {op!r}")

    def check_full_state(self, label: str, histories: Dict[int, List[Version]]) -> None:
        """Every key's whole history, as one surface, equals the model."""
        if set(histories) != set(self.versions):
            missing = sorted(set(self.versions) - set(histories))[:5]
            extra = sorted(set(histories) - set(self.versions))[:5]
            raise CheckError(f"{label}: keys differ (missing {missing}, extra {extra})")
        for key, history in histories.items():
            if list(history) != self.versions[key]:
                raise CheckError(
                    f"{label}: history of key {key} differs "
                    f"({_first_difference(list(history), self.versions[key])})"
                )

    def check_current_state(self, label: str, current: Dict[int, Version]) -> None:
        expected = {key: history[-1] for key, history in self.versions.items()}
        if current != expected:
            differing = sorted(
                key for key in set(current) | set(expected)
                if current.get(key) != expected.get(key)
            )[:5]
            raise CheckError(f"{label}: current state differs at keys {differing}")


def _first_difference(got: Sequence, expected: Sequence) -> str:
    for index, (left, right) in enumerate(zip(got, expected)):
        if left != right:
            return f"at {index}: {_show(left)} != {_show(right)}"
    return f"lengths {len(got)} != {len(expected)}"


def histories_from_slice(time_slice: Dict) -> Dict[int, List[Version]]:
    """``time_slice(0, now + 1)`` answers -> ``key -> [(stamp, value)]``."""
    return {
        key: [(record.timestamp, record.value) for record in records]
        for key, records in time_slice.items()
    }


def check_write_once(label: str, historical) -> Dict[str, int]:
    """The historical device's own counters show no erase and no rewrite.

    Every byte and sector the device ever accepted must still be stored
    exactly once: a rewrite would accept bytes without growing what is
    stored, and an erase would shrink it.
    """
    figures = write_once_figures(historical)
    check_write_once_figures(label, figures)
    return figures


def write_once_figures(historical) -> Dict[str, int]:
    stats = historical.stats
    return {
        "erases": stats.erases,
        "bytes_written": stats.bytes_written,
        "bytes_stored": historical.bytes_stored,
        "sectors_written": stats.sectors_written,
        "sectors_burned": historical.sectors_burned,
    }


def check_write_once_figures(label: str, figures: Dict[str, int]) -> None:
    if figures["erases"]:
        raise CheckError(f"{label}: historical tier erased {figures['erases']} times")
    if figures["bytes_stored"] != figures["bytes_written"]:
        raise CheckError(
            f"{label}: historical tier accepted {figures['bytes_written']} bytes "
            f"but stores {figures['bytes_stored']} (rewrite or loss)"
        )
    if figures["sectors_burned"] != figures["sectors_written"]:
        raise CheckError(
            f"{label}: historical tier wrote {figures['sectors_written']} sectors "
            f"but {figures['sectors_burned']} are burned (rewrite)"
        )


def prove_checks_reject_altered_answers(model: HistoryModel, record_type) -> int:
    """Feed the checks deliberately altered answers; each must be rejected.

    Uses a key with at least two versions from the live model, so the
    altered answers are plausible ones (a real older version, a real
    value with one byte flipped), not random noise.  Returns how many
    alterations were rejected; raises :class:`CheckError` if one passes.
    """
    key = next((k for k, h in model.versions.items() if len(h) >= 2), None)
    if key is None:
        raise CheckError("model has no key with two versions to alter")
    history = model.versions[key]
    (old_stamp, old_value), (new_stamp, new_value) = history[-2], history[-1]
    flipped = bytes([new_value[0] ^ 0x01]) + new_value[1:]
    alterations = [
        ("flipped value", lambda: model.check_get(
            key, record_type(key=key, timestamp=new_stamp, value=flipped))),
        ("stale as-of version", lambda: model.check_as_of(
            key, new_stamp, record_type(key=key, timestamp=old_stamp, value=old_value))),
        ("as-of version from the future", lambda: model.check_as_of(
            key, old_stamp, record_type(key=key, timestamp=new_stamp, value=new_value))),
        ("dropped history version", lambda: model.check_history(
            key, [record_type(key=key, timestamp=s, value=v) for s, v in history[1:]])),
        ("scan missing a key", lambda: model.check_scan(key, key + 1, [])),
        ("rewritten historical tier", lambda: check_write_once_figures(
            "altered", {"erases": 0, "bytes_written": 10, "bytes_stored": 8,
                        "sectors_written": 1, "sectors_burned": 1})),
    ]
    rejected = 0
    for name, check in alterations:
        try:
            check()
        except CheckError:
            rejected += 1
            continue
        raise CheckError(f"the checks accepted an altered answer ({name})")
    return rejected
