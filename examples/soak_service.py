"""A faulted soak of the always-on traffic service.

Runs ``city-day`` as a supervised, paced service and injects the two
faults the robustness claims are about:

1. **worker kill** — SIGKILL producer worker 0 mid-generation; the
   supervisor restarts it from the merge cursors and the delivered
   timeline is provably unchanged;
2. **consumer stall** — the consumer stops pulling for a window; the
   bounded ring throttles producers, and once the degradation deadline
   passes the service sheds the lowest-priority cohort first, with
   every dropped event counted exactly.

Along the way every merged event tees through the rolling fidelity
gate, so the run ends with both an exact accounting check
(``merged == delivered + shed + pending``) and a full statistical
scorecard.

Run:  PYTHONPATH=src python examples/soak_service.py
"""

from __future__ import annotations

from repro.service import (
    DegradationPolicy,
    FaultPlan,
    KillWorker,
    StallConsumer,
    TrafficService,
)
from repro.validate import RollingGate
from repro.workload import Workload, get_workload

SCALE = 0.05  # keep the soak quick; crank this up for a real soak


def main() -> None:
    population = get_workload("city-day").scaled(SCALE)
    engine = Workload(population, seed=3)
    gate = RollingGate(population, seed=3)

    service = TrafficService(
        engine,
        speed=float("inf"),  # as fast as possible; use 60.0 for 1min=1h
        num_workers=2,
        chunk_events=1000,
        ring_events=2048,
        gate=gate,
        degradation=DegradationPolicy(
            degrade_after=0.3, shed_order=("cars", "tablets")
        ),
        faults=FaultPlan(
            faults=(
                # Wall-clock timed: the unfaulted run is over in well
                # under a second.
                KillWorker(at=0.05, worker=0),
                StallConsumer(at=0.1, duration=3.0),
            )
        ),
    )

    print("== soak:", population.name, f"x{SCALE} ==")
    report = service.run(
        duration=120.0,
        status_every=2.0,
        on_status=lambda snapshot: print("  ", snapshot.summary()),
    )

    status = report.status
    print("\n== outcome ==")
    print(f"state      : {status.state}")
    print(
        f"accounting : merged={status.merged_total} = "
        f"delivered={status.delivered} + shed={status.shed_total} "
        f"+ pending={status.pending}"
    )
    print(
        f"shedding   : {status.shed_by_cohort} "
        f"over {status.shed_episodes} episode(s)"
    )
    for line in status.incidents:
        print(f"incident   : {line}")
    print("\n== final scorecard ==")
    print(report.scorecard.summary())
    print("clean run:", report.clean)


if __name__ == "__main__":
    main()
