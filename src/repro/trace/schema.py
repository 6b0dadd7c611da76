"""Core data model for control-plane traffic traces.

Matches the paper's problem formulation (§3.1): a dataset is a set of
*streams*, one per UE; a stream is a UE identifier, a device type and a
time-ordered sequence of ``(timestamp, event)`` samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

__all__ = ["DeviceType", "ControlEvent", "Stream"]


class DeviceType:
    """The three device populations the paper studies (§4.1)."""

    PHONE = "phone"
    CONNECTED_CAR = "connected_car"
    TABLET = "tablet"

    ALL = (PHONE, CONNECTED_CAR, TABLET)

    @classmethod
    def validate(cls, value: str) -> str:
        if value not in cls.ALL:
            raise ValueError(f"unknown device type {value!r}; expected one of {cls.ALL}")
        return value


@dataclass(frozen=True)
class ControlEvent:
    """A single control-plane sample: an event type at a point in time."""

    timestamp: float
    event: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp):
            raise ValueError(f"non-finite timestamp: {self.timestamp}")


@dataclass
class Stream:
    """One UE's stream of control events within the capture window.

    Events must be in non-decreasing timestamp order; :meth:`validate`
    enforces this (IO paths call it on load).
    """

    ue_id: str
    device_type: str
    events: list[ControlEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        DeviceType.validate(self.device_type)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ControlEvent]:
        return iter(self.events)

    def validate(self) -> None:
        """Raise ``ValueError`` if timestamps are not non-decreasing."""
        times = self.timestamps()
        if len(times) > 1 and np.any(np.diff(times) < 0):
            raise ValueError(f"stream {self.ue_id}: timestamps out of order")

    # ------------------------------------------------------------------
    # Views used by tokenizers and metrics
    # ------------------------------------------------------------------
    def timestamps(self) -> np.ndarray:
        """All event timestamps as a float array."""
        return np.array([e.timestamp for e in self.events], dtype=np.float64)

    def event_names(self) -> list[str]:
        return [e.event for e in self.events]

    def interarrivals(self) -> np.ndarray:
        """Interarrival times: first event gets 0, then successive deltas.

        This matches CPT-GPT's training convention (§4.5): the first token
        of every stream carries an interarrival time of zero.
        """
        times = self.timestamps()
        if times.size == 0:
            return times
        deltas = np.empty_like(times)
        deltas[0] = 0.0
        np.subtract(times[1:], times[:-1], out=deltas[1:])
        return deltas

    def as_pairs(self) -> list[tuple[float, str]]:
        """``(timestamp, event)`` pairs, the replay engine's input format."""
        return [(e.timestamp, e.event) for e in self.events]

    def count(self, event: str) -> int:
        """Number of occurrences of ``event`` in this stream."""
        return sum(1 for e in self.events if e.event == event)

    def duration(self) -> float:
        """Time between first and last event (0 for streams of length < 2)."""
        if len(self.events) < 2:
            return 0.0
        return self.events[-1].timestamp - self.events[0].timestamp

    @classmethod
    def from_arrays(
        cls,
        ue_id: str,
        device_type: str,
        timestamps: Sequence[float],
        events: Sequence[str],
    ) -> "Stream":
        """Build a stream from parallel arrays (generator output format)."""
        if len(timestamps) != len(events):
            raise ValueError(
                f"length mismatch: {len(timestamps)} timestamps, {len(events)} events"
            )
        return cls(
            ue_id=ue_id,
            device_type=device_type,
            events=[ControlEvent(float(t), e) for t, e in zip(timestamps, events)],
        )
