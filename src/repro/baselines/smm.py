"""Semi-Markov-model traffic generators: SMM-1 and SMM-k (§3.3).

The prior-art generator (Meng et al., IMC'23) embeds the hand-derived
3GPP state machine and fits, from a real trace:

* transition probabilities (which event fires next in each state), and
* one empirical sojourn-time CDF per (state, event) transition
  (traditional closed-form distributions do not fit; the paper quotes
  283,024 CDFs for the full SMM-20k ensemble).

``SemiMarkovModel`` is one such model.  :class:`SMM1Generator` fits a
single model per device type; :class:`SMMClusteredGenerator` (the
SMM-20k analogue) clusters UEs and fits one model per cluster, sampling
clusters by size at generation time.  Both produce zero semantic
violations by construction — the state machine is built in — which is
exactly the domain-knowledge dependence CPT-GPT removes.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from ..core.generate import random_ue_id
from ..statemachine.base import MachineSpec, StateMachine
from ..statemachine.lte import LTE_SPEC
from ..trace.dataset import TraceDataset
from ..trace.sampling import choice_cdf, is_distribution
from ..trace.schema import ControlEvent, Stream

__all__ = ["EmpiricalDistribution", "SemiMarkovModel", "SMM1Generator", "SMMClusteredGenerator"]


@dataclass
class EmpiricalDistribution:
    """Empirical CDF with inverse-transform sampling.

    Samples are stored sorted; draws interpolate between order
    statistics, which matches how SMM models per-transition sojourn-time
    CDFs without assuming a parametric family.  ``samples`` is fixed
    after construction: the interpolation grid is built once from it.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.size == 0:
            raise ValueError("empirical distribution needs at least one sample")
        self.samples = np.sort(samples)
        self._grid = np.linspace(0.0, 1.0, len(self.samples))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Inverse-CDF draw(s) with linear interpolation."""
        if size is None:
            return float(np.interp(rng.random(), self._grid, self.samples))
        return np.interp(rng.random(size), self._grid, self.samples)

    def cdf(self, values: np.ndarray) -> np.ndarray:
        """Empirical CDF evaluated at ``values``."""
        values = np.asarray(values, dtype=np.float64)
        return np.searchsorted(self.samples, values, side="right") / len(self.samples)


@dataclass
class SemiMarkovModel:
    """One fitted semi-Markov model over a :class:`MachineSpec`.

    ``transition_probs[state]`` is the event-choice distribution in
    ``state``; ``dwell[(state, event)]`` is the empirical distribution of
    the time spent in ``state`` before ``event`` fires.  The fitted
    parameters are fixed after construction: the sampling tables of
    :meth:`generate_stream` are built once from them.
    """

    spec: MachineSpec
    transition_probs: dict[str, dict[str, float]]
    dwell: dict[tuple[str, str], EmpiricalDistribution]
    initial_states: dict[str, float]
    weight: int = 0  # number of UEs this model was fitted on

    def __post_init__(self) -> None:
        for state, menu in self.transition_probs.items():
            if menu and not is_distribution(menu.values()):
                raise ValueError(f"transition probabilities of {state} must sum to 1")
        if not is_distribution(self.initial_states.values()):
            raise ValueError("initial-state probabilities must sum to 1")
        # Sampling tables: entry (top, sub) states with their choice cdf,
        # then per top-level state its menu of (events, cdf, dwell
        # distributions); states without a menu are absorbing.
        self._starts = [
            _state_for_top(self.spec, top) for top in self.initial_states
        ]
        self._start_cdf = choice_cdf(self.initial_states.values())
        self._menus = {
            state: (
                tuple(menu),
                choice_cdf(menu.values()),
                tuple(self.dwell.get((state, event)) for event in menu),
            )
            for state, menu in self.transition_probs.items()
            if menu
        }
        self._steps = self.spec.transition_table()

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    @classmethod
    def fit(cls, dataset: TraceDataset, spec: MachineSpec = LTE_SPEC) -> "SemiMarkovModel":
        """Fit transition probabilities and dwell CDFs from a trace.

        Streams are replayed through the state machine; events that
        violate it (possible when fitting on synthesized data) are
        skipped, mirroring how a practitioner would sanitize input.
        """
        transition_counts: dict[str, Counter] = defaultdict(Counter)
        dwell_samples: dict[tuple[str, str], list[float]] = defaultdict(list)
        initial_counts: Counter = Counter()

        for stream in dataset:
            machine = StateMachine(spec, state=None)
            entered_at: float | None = None
            for timestamp, event in stream.as_pairs():
                if not machine.started:
                    if machine.try_bootstrap(event):
                        initial_counts[machine.state.top] += 1
                        entered_at = timestamp
                    continue
                state = machine.state.top
                if not machine.step(event):
                    continue  # skip violating events when fitting
                transition_counts[state][event] += 1
                if entered_at is not None:
                    dwell_samples[(state, event)].append(timestamp - entered_at)
                entered_at = timestamp

        if not transition_counts:
            raise ValueError("dataset contains no replayable transitions")

        transition_probs: dict[str, dict[str, float]] = {}
        for state, counter in transition_counts.items():
            total = sum(counter.values())
            transition_probs[state] = {
                event: count / total for event, count in sorted(counter.items())
            }
        dwell = {
            key: EmpiricalDistribution(np.asarray(samples))
            for key, samples in dwell_samples.items()
            if samples
        }
        total_initial = sum(initial_counts.values())
        initial_states = {
            state: count / total_initial for state, count in sorted(initial_counts.items())
        }
        return cls(
            spec=spec,
            transition_probs=transition_probs,
            dwell=dwell,
            initial_states=initial_states,
            weight=len(dataset),
        )

    @property
    def num_cdfs(self) -> int:
        """Number of per-transition CDFs (the paper's 283,024-count unit)."""
        return len(self.dwell)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate_stream(
        self,
        rng: np.random.Generator,
        duration: float,
        device_type: str,
        start_time: float = 0.0,
    ) -> Stream:
        """Walk the semi-Markov model for ``duration`` seconds."""
        top, sub = self._starts[bisect_right(self._start_cdf, rng.random())]
        menus = self._menus
        steps = self._steps

        events: list[ControlEvent] = []
        t = start_time
        end = start_time + duration
        while True:
            menu = menus.get(top)
            if menu is None:
                break  # absorbing state in the fitted data
            names, cdf, dists = menu
            k = bisect_right(cdf, rng.random())
            event, dist = names[k], dists[k]
            if dist is None:
                break
            t += max(dist.sample(rng), 0.0)
            if t >= end:
                break
            landing = steps.get((top, sub, event))
            if landing is None:  # pragma: no cover - transitions fitted from replay
                raise RuntimeError(f"fitted SMM produced illegal event {event} in {top}")
            top, sub = landing
            events.append(ControlEvent(timestamp=t, event=event))
        return Stream(ue_id=random_ue_id(rng), device_type=device_type, events=events)


def _state_for_top(spec: MachineSpec, top: str) -> tuple[str, str]:
    """An entry ``(top, sub)`` state for ``top`` (first declared sub-state)."""
    subs = spec.sub_states[top]
    # Prefer the service-request sub-state when present: generation
    # mirrors a UE that most recently ran a data session.
    preferred = ("SRV_REQ_S", "S1_REL_S_1", "AN_REL_S", "DEREG_S")
    for name in preferred:
        if name in subs:
            return top, name
    return top, subs[0]


@dataclass
class SMM1Generator:
    """SMM-1: a single semi-Markov model per device type."""

    model: SemiMarkovModel
    device_type: str
    duration: float = 3600.0

    @classmethod
    def fit(
        cls,
        dataset: TraceDataset,
        device_type: str,
        spec: MachineSpec = LTE_SPEC,
        duration: float = 3600.0,
    ) -> "SMM1Generator":
        return cls(
            model=SemiMarkovModel.fit(dataset, spec),
            device_type=device_type,
            duration=duration,
        )

    def generate(
        self, count: int, rng: np.random.Generator, start_time: float = 0.0
    ) -> TraceDataset:
        streams = [
            self.model.generate_stream(rng, self.duration, self.device_type, start_time)
            for _ in range(count)
        ]
        return TraceDataset(streams=streams, vocabulary=None)


@dataclass
class SMMClusteredGenerator:
    """SMM-20k analogue: one semi-Markov model per UE cluster.

    Clusters are derived with k-means on replay features (flow length,
    event rate, sojourn means); generation samples a cluster
    proportionally to its UE count, then walks that cluster's model.
    """

    models: list[SemiMarkovModel]
    device_type: str
    duration: float = 3600.0

    @classmethod
    def fit(
        cls,
        dataset: TraceDataset,
        device_type: str,
        num_clusters: int = 16,
        spec: MachineSpec = LTE_SPEC,
        duration: float = 3600.0,
        seed: int = 0,
    ) -> "SMMClusteredGenerator":
        from .clustering import cluster_dataset

        clusters = cluster_dataset(dataset, spec, num_clusters, seed=seed)
        models = []
        for cluster in clusters:
            try:
                models.append(SemiMarkovModel.fit(cluster, spec))
            except ValueError:
                continue  # cluster too small to contain replayable transitions
        if not models:
            raise ValueError("no cluster produced a fittable model")
        return cls(models=models, device_type=device_type, duration=duration)

    @property
    def num_models(self) -> int:
        return len(self.models)

    @property
    def num_cdfs(self) -> int:
        return sum(m.num_cdfs for m in self.models)

    def generate(
        self, count: int, rng: np.random.Generator, start_time: float = 0.0
    ) -> TraceDataset:
        weights = np.array([m.weight for m in self.models], dtype=np.float64)
        weights /= weights.sum()
        choices = rng.choice(len(self.models), size=count, p=weights)
        streams = [
            self.models[c].generate_stream(rng, self.duration, self.device_type, start_time)
            for c in choices
        ]
        return TraceDataset(streams=streams, vocabulary=None)
