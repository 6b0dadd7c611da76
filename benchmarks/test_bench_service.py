"""Always-on service benchmarks: faulted soak throughput + accounting.

The tracked number (BENCH_service.json) is delivered+shed events/sec
through the full service stack — supervised forked producers, the
incremental merge, the bounded ring, the rolling fidelity gate tee —
while surviving a worker kill and a consumer stall.  The run must end
with exact accounting and a passing final scorecard or the bench fails.

The in-suite default runs city-day at ``SCALE=0.1`` (200 UEs) so tier-1
stays fast; the tracked soak (BENCH_service.json) is the same bench in
loop mode — each cycle replays the timeline with fresh cycle-tagged UE
ids, so ``SERVICE_SOAK_CYCLES`` multiplies the distinct UE streams the
service carries:

    SERVICE_SOAK_SCALE=1.0 SERVICE_SOAK_CYCLES=2 PYTHONPATH=src \
        python -m pytest benchmarks/test_bench_service.py \
        --benchmark-only -s

(2000 UEs x 2 cycles on the tracked run; ``SERVICE_SOAK_SCALE=50``
reaches a 100k-UE population per cycle on hardware with cores to spare.)
"""

from __future__ import annotations

import os
import resource

from repro.service import (
    DegradationPolicy,
    FaultPlan,
    KillWorker,
    StallConsumer,
    TrafficService,
)
from repro.validate import RollingGate
from repro.workload import Workload, get_workload

from conftest import run_once

#: city-day has 2000 UEs at scale 1.0; 50 → a 100k-UE population.
SCALE = float(os.environ.get("SERVICE_SOAK_SCALE", "0.1"))
#: Loop-mode cycles; each cycle is a fresh set of cycle-tagged UEs.
CYCLES = int(os.environ.get("SERVICE_SOAK_CYCLES", "1"))


def _faulted_soak():
    population = get_workload("city-day").scaled(SCALE)
    engine = Workload(population, seed=3)
    gate = RollingGate(population, seed=3)
    service = TrafficService(
        engine,
        speed=float("inf"),
        loop=CYCLES > 1,
        num_workers=2,
        chunk_events=4096,
        ring_events=65536,
        gate=gate,
        degradation=DegradationPolicy(degrade_after=0.5),
        # Faults are wall-clock timed, so they must land inside the run:
        # unfaulted, the whole run lasts about 0.3 s on a 2-core VM.
        faults=FaultPlan(
            faults=(
                KillWorker(at=0.05, worker=0),
                StallConsumer(at=0.1, duration=2.0),
            )
        ),
    )
    if CYCLES > 1:
        # Stop at the cycle boundary so the gate judges whole cycles.
        def stop_at_cycle(event) -> None:
            if service.cycle >= CYCLES:
                service.stop()

        service.sink = stop_at_cycle
    return service.run(status_every=10.0)


def test_bench_service_faulted_soak(benchmark):
    """Headline: service events/sec under a worker kill + consumer stall."""
    report = run_once(benchmark, _faulted_soak)
    status = report.status

    # The robustness contract, asserted on the benchmarked run itself:
    assert status.accounted, "merged != delivered + shed + pending"
    if CYCLES == 1:  # loop soaks stop at a boundary with a primed ring
        assert status.pending == 0
        assert status.merged_total == status.delivered + status.shed_total
    assert report.scorecard is not None and report.scorecard.passed
    assert any("killed worker" in line for line in status.incidents)

    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rate = status.merged_total / max(status.elapsed, 1e-9)
    print(
        f"\nservice soak: {status.merged_total} events in "
        f"{status.elapsed:.1f}s = {rate:,.0f} ev/s | "
        f"delivered {status.delivered} shed {status.shed_total} | "
        f"peak RSS {rss_mib:,.0f} MiB | restarts "
        f"{[w['restarts'] for w in status.workers]}"
    )
