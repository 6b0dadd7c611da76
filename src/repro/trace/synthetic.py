"""Synthetic operator trace simulator — the proprietary-data substitute.

The paper trains on a proprietary AT&T LTE control-plane trace (73M
events from 430K UEs).  That trace is not publicly available, so this
module implements the closest synthetic equivalent: a ground-truth
simulator that walks the exact 3GPP state machine (Figure 1) with

* device-type behaviour profiles (:mod:`repro.trace.device`),
* per-UE latent activity multipliers (heavy-tailed heterogeneity — the
  diversity that forced SMM to instantiate 20,216 models),
* log-normal-mixture dwell times (long-tailed interarrivals, Figure 7),
* diurnal modulation (hour-of-day drift, the paper's C5).

Every generated stream is state-machine-legal by construction, which the
test suite verifies by replay; the *learning problem* CPT-GPT faces —
recovering stateful grammar, multi-modal marginals and population
diversity from raw streams — is therefore the same as on the real trace.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..statemachine.events import LTE_EVENTS, NR_EVENTS
from ..statemachine.lte import CONNECTED, DEREGISTERED, IDLE, LTE_SPEC
from ..statemachine.nr import NR_SPEC
from .dataset import TraceDataset
from .device import DeviceProfile, get_profile
from .sampling import choice_cdf
from .schema import ControlEvent, DeviceType, Stream

__all__ = ["SyntheticTraceConfig", "generate_trace", "generate_mixed_trace", "generate_hourly_traces"]

_SECONDS_PER_HOUR = 3600.0

#: 4G -> 5G event renaming (Table 1).  TAU does not exist in 5G; its
#: probability mass is folded into the state's dominant event.
_NR_EVENT_MAP = {
    "ATCH": "REGISTER",
    "DTCH": "DEREGISTER",
    "SRV_REQ": "SRV_REQ",
    "S1_CONN_REL": "AN_REL",
    "HO": "HO",
}

#: Landing sub-states for each simulated start condition, per technology.
_START_SUBS = {
    "4G": {
        DEREGISTERED: ("DEREGISTERED", "DEREG_S"),
        CONNECTED: ("CONNECTED", "SRV_REQ_S"),
        IDLE: ("IDLE", "S1_REL_S_1"),
    },
    "5G": {
        DEREGISTERED: ("RM-DEREGISTERED", "DEREG_S"),
        CONNECTED: ("CM-CONNECTED", "SRV_REQ_S"),
        IDLE: ("CM-IDLE", "AN_REL_S"),
    },
}


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Parameters of one capture window.

    Attributes
    ----------
    num_ues:
        Number of UE streams to simulate.
    device_type:
        One of :class:`repro.trace.schema.DeviceType`.
    hour:
        Hour-of-day at the start of the capture window; drives diurnal
        modulation.
    duration:
        Window length in seconds (default one hour, the unit the paper
        trains per-hour models on).
    technology:
        ``"4G"`` (the paper's evaluated setting) or ``"5G"``.
    seed:
        Base RNG seed; every UE derives an independent child stream.
    time_resolution:
        Timestamp granularity in seconds.  Operator traces record
        second-resolution timestamps; the default of 1.0 floors event
        times accordingly (0 disables quantization).
    """

    num_ues: int
    device_type: str = DeviceType.PHONE
    hour: int = 10
    duration: float = _SECONDS_PER_HOUR
    technology: str = "4G"
    seed: int = 0
    time_resolution: float = 1.0

    def __post_init__(self) -> None:
        DeviceType.validate(self.device_type)
        if self.technology not in ("4G", "5G"):
            raise ValueError(f"technology must be 4G or 5G; got {self.technology!r}")
        if self.num_ues < 0:
            raise ValueError("num_ues must be non-negative")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.time_resolution < 0:
            raise ValueError("time_resolution must be non-negative")


class _WalkTables:
    """Sampling tables of one profile's walk, built once per trace.

    Holds the start-state table, each top-level state's event menu
    (already translated, with TAU dropped in 5G) and the flat transition
    table, so :func:`_simulate_stream` draws every event with one
    ``bisect_right`` and steps with one dict lookup.  The dwell-time
    mixtures carry their own tables.
    """

    def __init__(self, profile: DeviceProfile, technology: str) -> None:
        spec = LTE_SPEC if technology == "4G" else NR_SPEC
        subs = _START_SUBS[technology]
        self.starts = tuple(subs[name] for name in (DEREGISTERED, CONNECTED, IDLE))
        self.start_cdf = choice_cdf(profile.start_state_probs)
        self.connected = spec.connected_state
        self.idle = spec.idle_state
        self.connected_menu = _menu_table(profile.connected_event_menu(), technology)
        self.idle_menu = _menu_table(profile.idle_event_menu(), technology)
        self.deregistered_menu = _menu_table((("ATCH", 1.0),), technology)
        self.steps = spec.transition_table()


def _menu_table(
    menu: tuple[tuple[str, float], ...], technology: str
) -> tuple[tuple[str, ...], list[float]]:
    """A state's event menu as ``(event names, choice cdf)``.

    In 5G mode, TAU is removed and its probability mass renormalized over
    the remaining menu entries; names are translated to the NR
    vocabulary.
    """
    names = [name for name, _ in menu]
    probs = np.array([p for _, p in menu], dtype=np.float64)
    if technology == "5G" and "TAU" in names:
        keep = [i for i, name in enumerate(names) if name != "TAU"]
        names = [names[i] for i in keep]
        probs = probs[keep]
        probs = probs / probs.sum()
    if technology == "5G":
        names = [_NR_EVENT_MAP[name] for name in names]
    return tuple(names), choice_cdf(probs)


def _simulate_stream(
    ue_id: str,
    profile: DeviceProfile,
    tables: _WalkTables,
    config: SyntheticTraceConfig,
    rng: np.random.Generator,
) -> Stream:
    # Latent per-UE parameters, then the start state.
    idle_mult = float(np.exp(rng.normal(0.0, profile.ue_idle_sigma)))
    conn_mult = float(np.exp(rng.normal(0.0, profile.ue_connected_sigma)))
    top, sub = tables.starts[bisect_right(tables.start_cdf, rng.random())]

    window_start = config.hour * _SECONDS_PER_HOUR
    window_end = window_start + config.duration
    resolution = config.time_resolution
    steps = tables.steps

    events: list[ControlEvent] = []
    t = window_start
    # The walk starts mid-dwell: thin the very first dwell by a uniform
    # fraction so UEs are not phase-synchronized at the window edge.
    first = True
    while True:
        if top == tables.connected:
            dwell = profile.connected_dwell.sample(rng) * conn_mult
            names, cdf = tables.connected_menu
        elif top == tables.idle:
            # Busier hours shorten idle dwells (more sessions per hour).
            activity = profile.diurnal.activity((t / _SECONDS_PER_HOUR) % 24.0)
            dwell = profile.idle_dwell.sample(rng) * idle_mult / activity
            names, cdf = tables.idle_menu
        else:
            dwell = profile.deregistered_dwell.sample(rng)
            names, cdf = tables.deregistered_menu
        if first:
            dwell *= float(rng.uniform(0.0, 1.0))
            first = False
        t += dwell
        if t >= window_end:
            break
        event = names[bisect_right(cdf, rng.random())]
        landing = steps.get((top, sub, event))
        if landing is None:  # pragma: no cover - guarded by construction
            raise RuntimeError(f"simulator bug: illegal event {event} in state {top}/{sub}")
        top, sub = landing
        recorded = t
        if resolution > 0:
            recorded = (t // resolution) * resolution
        events.append(ControlEvent(timestamp=recorded, event=event))

    return Stream(ue_id=ue_id, device_type=profile.name, events=events)


def generate_trace(config: SyntheticTraceConfig) -> TraceDataset:
    """Simulate one capture window for a single device type."""
    profile = get_profile(config.device_type)
    tables = _WalkTables(profile, config.technology)
    root = np.random.default_rng(config.seed)
    seeds = root.integers(0, 2**63 - 1, size=config.num_ues)
    streams = []
    # The capture tag keeps UE IDs from different capture runs (seeds)
    # distinct — the paper treats the same UE across days as different UEs.
    capture = f"c{config.seed % 0xFFFF:04x}"
    for i in range(config.num_ues):
        ue_rng = np.random.default_rng(seeds[i])
        ue_id = f"{config.device_type}-{config.hour:02d}h-{capture}-{i:06d}"
        streams.append(_simulate_stream(ue_id, profile, tables, config, ue_rng))
    vocabulary = LTE_EVENTS if config.technology == "4G" else NR_EVENTS
    return TraceDataset(streams=streams, vocabulary=vocabulary)


def generate_mixed_trace(
    counts: dict[str, int],
    hour: int = 10,
    duration: float = _SECONDS_PER_HOUR,
    technology: str = "4G",
    seed: int = 0,
) -> TraceDataset:
    """Simulate a multi-device-type window (e.g. the §4.1 population mix).

    ``counts`` maps device type to UE count; streams of all types are
    pooled into one dataset.
    """
    combined = TraceDataset(
        streams=[],
        vocabulary=LTE_EVENTS if technology == "4G" else NR_EVENTS,
    )
    for offset, (device_type, num) in enumerate(sorted(counts.items())):
        config = SyntheticTraceConfig(
            num_ues=num,
            device_type=device_type,
            hour=hour,
            duration=duration,
            technology=technology,
            seed=seed + offset * 1_000_003,
        )
        for stream in generate_trace(config):
            combined.add(stream)
    return combined


def generate_hourly_traces(
    num_ues: int,
    hours: list[int],
    device_type: str = DeviceType.PHONE,
    technology: str = "4G",
    seed: int = 0,
) -> dict[int, TraceDataset]:
    """One dataset per hour-of-day — the transfer-learning workload (§5.5).

    Diurnal modulation makes each hour's trace statistically distinct,
    which is what the hourly fine-tuning experiments adapt to.
    """
    traces: dict[int, TraceDataset] = {}
    for i, hour in enumerate(hours):
        config = SyntheticTraceConfig(
            num_ues=num_ues,
            device_type=device_type,
            hour=hour,
            technology=technology,
            seed=seed + i * 7_919,
        )
        traces[hour] = generate_trace(config)
    return traces
