"""Correctness checks every benchmark run must pass before it prints a number.

A failed check raises :class:`BenchmarkFailure`; the runner then exits
non-zero without a result line.
"""

from __future__ import annotations

import hashlib
import math
import zlib

import numpy as np

__all__ = [
    "BenchmarkFailure",
    "TimelineTap",
    "check_conservation",
    "check_digests",
    "check_equal",
    "check_no_violations",
    "check_ordered",
]


class BenchmarkFailure(Exception):
    """A benchmark output failed a correctness check."""


def _string_hashes(strings) -> np.ndarray:
    return np.fromiter(
        (zlib.crc32(s.encode()) for s in strings), dtype=np.uint32, count=len(strings)
    )


class TimelineTap:
    """Order check, event count and digest of one merged timeline.

    Fed every merged columnar chunk in delivery order.  The digest hashes
    timestamps and the *names* behind the UE, event and cell codes, so it
    identifies the timeline itself, not the merge's internal code layout.
    """

    def __init__(self) -> None:
        self.events = 0
        self.disorder = 0
        self._last = -math.inf
        self._hash = hashlib.blake2b(digest_size=16)
        self._tables = None
        self._ue = self._event = self._cell = np.empty(0, dtype=np.uint32)

    def _hashes(self, tables, cycle: int) -> None:
        keys = tables.ue_keys(cycle)
        if tables is not self._tables or self._ue.size != len(keys):
            self._ue = _string_hashes([f"{c}/{u}" for c, u in keys])
        if tables is not self._tables or self._event.size != len(tables.event_names):
            self._event = _string_hashes(tables.event_names)
        if tables is not self._tables and tables.cell_names is not None:
            self._cell = _string_hashes(tables.cell_names)
        self._tables = tables

    def observe(self, chunk) -> None:
        times = np.asarray(chunk.times)
        if times.size == 0:
            return
        self.disorder += int(np.count_nonzero(times[1:] < times[:-1]))
        self.disorder += int(times[0] < self._last)
        self._last = float(times[-1])
        self.events += int(times.size)
        self._hashes(chunk.tables, chunk.cycle)
        self._hash.update(np.ascontiguousarray(times, dtype=np.float64).tobytes())
        self._hash.update(self._ue[chunk.ues].tobytes())
        self._hash.update(self._event[chunk.events].tobytes())
        if chunk.cells is not None:
            self._hash.update(self._cell[chunk.cells].tobytes())

    def through(self, items):
        """Yield ``items`` unchanged, observing every merged chunk."""
        for item in items:
            if hasattr(item, "tables"):
                self.observe(item)
            yield item

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()


def check_ordered(tap: TimelineTap) -> None:
    if tap.disorder:
        raise BenchmarkFailure(
            f"merged timestamps decrease at {tap.disorder} position(s)"
        )


def check_equal(what: str, left: int, right: int) -> None:
    if left != right:
        raise BenchmarkFailure(f"{what}: {left} != {right}")


def check_conservation(merged: int, delivered: int, shed: int, pending: int) -> None:
    if merged != delivered + shed + pending:
        raise BenchmarkFailure(
            f"accounting violated: merged={merged} != delivered={delivered}"
            f" + shed={shed} + pending={pending}"
        )


def check_no_violations(violating_streams: int, streams: int) -> None:
    if violating_streams:
        raise BenchmarkFailure(
            f"oracle: {violating_streams} of {streams} streams violate the "
            "state machine (smm-1 output must be legal)"
        )


def check_digests(digests) -> None:
    if len(set(digests)) > 1:
        raise BenchmarkFailure(
            f"timeline differs between runs of one seed: {sorted(set(digests))}"
        )
