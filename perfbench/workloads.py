"""The benchmark's workloads: two batch pipelines and the always-on service.

Every workload has a ``setup`` (everything before the first timeline
event can be produced: fit captures, fitting or training, the gate's
reference) and a ``run`` (one complete timeline through the pipeline,
timed by the :class:`~perfbench.stopwatch.Stopwatch` it is handed).
``repro`` is imported inside the functions, never at module import, so
the runner can time the import as part of a cold setup.

Sizes were chosen for a 2-core machine so that three cold setups plus
the measured window of one run stay well inside a minute.  ``tiny``
sizes exist for the benchmark's own tests.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, replace

__all__ = ["Outcome", "WORKLOADS", "get"]


@dataclass(frozen=True)
class Outcome:
    """One finished timeline run."""

    events: int
    failed: int
    streams: int
    violating_streams: int
    restarts: int = 0


class _ShardEvents:
    """A streaming validator that only counts the events of every shard."""

    name = "shard-events"

    def __init__(self) -> None:
        self.events = 0

    def observe_buffer(self, times, *columns, cohort: str) -> None:
        self.events += len(times)

    def report(self) -> int:
        return self.events


def _with_captures(population, fraction: float):
    """``population`` with every cohort's fit capture resized."""
    return replace(
        population,
        cohorts=tuple(
            replace(
                cohort,
                scenario=replace(
                    cohort.scenario,
                    num_ues=max(1, round(cohort.scenario.num_ues * fraction)),
                ),
            )
            for cohort in population.cohorts
        ),
    )


@dataclass(frozen=True)
class BatchWorkload:
    """``Workload(population).run(validators=(oracle, stats), simulate=True)``
    on a preset's own backend (smm-1), whose output must be legal."""

    name: str
    why: str
    preset: str
    scale: float
    capture_fraction: float
    tiny_scale: float
    tiny_capture_fraction: float
    requires_legal: bool = True

    def population(self, tiny: bool):
        from repro.workload import get_workload

        if tiny:
            return _with_captures(
                get_workload(self.preset), self.tiny_capture_fraction
            ).scaled(self.tiny_scale)
        return _with_captures(get_workload(self.preset), self.capture_fraction).scaled(
            self.scale
        )

    def setup(self, seed: int, tiny: bool):
        from repro.workload import Workload

        population = self.population(tiny)
        engine = Workload(population, seed=seed)
        engine.planned_shards()
        return population, {c.name: engine.generator(c) for c in population.cohorts}

    def run(self, state, seed: int, tracer, taps, stopwatch) -> Outcome:
        from repro.validate import OracleValidator, StatsValidator
        from repro.workload import Workload

        population, fitted = state
        with stopwatch:
            engine = Workload(population, seed=seed, generators=fitted)
            oracle = OracleValidator(population.cohorts[0].scenario.machine_spec)
            shard_events = _ShardEvents()
            result = engine.run(
                validators=(oracle, StatsValidator(seed=seed), shard_events),
                simulate=True,
            )
        conformance = result.report("conformance")
        taps.shard_events += shard_events.events
        return Outcome(
            events=result.num_events,
            failed=result.simulation.dropped_events,
            streams=conformance.streams,
            violating_streams=conformance.violating_streams,
        )


@dataclass(frozen=True)
class ServeWorkload:
    """``TrafficService`` at ``speed=inf`` over a CPT-GPT phone cohort:
    one forked producer, the ``RollingGate`` and ``MCNSimulator`` attached."""

    name: str
    why: str
    ues: int
    capture_ues: int
    epochs: int
    tiny_ues: int
    tiny_capture_ues: int
    tiny_epochs: int
    requires_legal: bool = False

    def population(self, tiny: bool):
        from repro.api.scenario import get_scenario
        from repro.trace.device import get_profile
        from repro.workload import Cohort, UEPopulation
        from repro.workload.shapes import DiurnalShape

        scenario = get_scenario("phone-evening")
        scenario = replace(
            scenario, num_ues=self.tiny_capture_ues if tiny else self.capture_ues
        )
        return UEPopulation(
            name="phone-evening-cptgpt",
            description="one phone cohort on CPT-GPT with the phone diurnal curve",
            cohorts=(
                Cohort(
                    name="phones",
                    scenario=scenario,
                    num_ues=self.tiny_ues if tiny else self.ues,
                    backend="cpt-gpt",
                    shape=DiurnalShape(profile=get_profile(scenario.device_type).diurnal),
                ),
            ),
        )

    def setup(self, seed: int, tiny: bool):
        from repro.api.adapters import CPTGPTGenerator
        from repro.core.config import CPTGPTConfig, TrainingConfig
        from repro.tokenization import StreamTokenizer
        from repro.trace.synthetic import generate_trace
        from repro.validate import RollingGate

        population = self.population(tiny)
        cohort = population.cohorts[0]
        capture = generate_trace(cohort.scenario.trace_config())
        # A shortened schedule on a small model: the default 10 epochs
        # of the default model cost about a minute per setup.
        generator = CPTGPTGenerator(
            config=CPTGPTConfig(
                d_model=16, num_layers=1, num_heads=2, d_ff=32, head_hidden=32
            ),
            training=TrainingConfig(
                epochs=self.tiny_epochs if tiny else self.epochs, learning_rate=1e-2
            ),
            tokenizer=StreamTokenizer(cohort.scenario.vocabulary).fit(capture),
        ).fit(capture, cohort.scenario)
        gate = RollingGate(population, seed=seed)
        return population, {cohort.name: generator}, gate

    def run(self, state, seed: int, tracer, taps, stopwatch) -> Outcome:
        from repro.mcn.simulator import MCNSimulator
        from repro.service import TrafficService
        from repro.workload import Workload

        from .checks import check_conservation

        population, fitted, gate = state
        gate = copy.deepcopy(gate)
        service = TrafficService(
            Workload(population, seed=seed, generators=fitted),
            speed=float("inf"),
            num_workers=1,
            gate=gate,
            simulator=MCNSimulator(
                workers=4, cost_model=population.cost_model, seed=seed
            ),
            sleep=tracer.sleep if tracer.enabled else time.sleep,
        )
        with stopwatch:
            report = service.run()
        status = report.status
        check_conservation(
            status.merged_total, status.delivered, status.shed_total, status.pending
        )
        conformance = gate.conformance.report()
        return Outcome(
            events=status.merged_total,
            failed=status.shed_total + report.simulation.dropped_events,
            streams=conformance.streams,
            violating_streams=conformance.violating_streams,
            restarts=sum(service.supervisor.restarts),
        )


WORKLOADS = {
    w.name: w
    for w in (
        BatchWorkload(
            name="city-day-s0.05",
            why=(
                "city-day at scale 0.05 on smm-1 with quarter-size fit captures: "
                "capture synthesis is most of setup_s"
            ),
            preset="city-day",
            scale=0.05,
            capture_fraction=0.25,
            tiny_scale=0.01,
            tiny_capture_fraction=0.02,
        ),
        BatchWorkload(
            name="handover-storm-s0.25",
            why=(
                "handover-storm at scale 0.25 on smm-1: sampling, annotation, merge "
                "and regional simulation carry events_per_s"
            ),
            preset="handover-storm",
            scale=0.25,
            capture_fraction=1.0,
            tiny_scale=0.02,
            tiny_capture_fraction=0.02,
        ),
        ServeWorkload(
            name="serve-cptgpt",
            why=(
                "always-on service over 1024 CPT-GPT phones: engine sampling in a "
                "forked producer, service merge, gate tee and simulator offer"
            ),
            ues=1024,
            capture_ues=100,
            epochs=12,
            tiny_ues=24,
            tiny_capture_ues=12,
            tiny_epochs=1,
        ),
    )
}


def get(name: str):
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; have {sorted(WORKLOADS)}")
    return WORKLOADS[name]
