"""The benchmark's own tests, at tiny workload sizes.

Run with ``python -m pytest perfbench -q`` from the root of a checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench import bench  # noqa: E402
from perfbench.checks import (  # noqa: E402
    BenchmarkFailure,
    TimelineTap,
    check_conservation,
    check_ordered,
)
from perfbench.workloads import WORKLOADS  # noqa: E402


def _tiny(name: str, trace: bool) -> dict:
    return bench.run(name, 3, 0.0, trace, setup_runs=1, tiny=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(name):
    row = _tiny(name, trace=False)
    assert {k: unit for k, (_, unit) in row["metrics"].items()} == {
        metric: unit for metric, unit, _, _ in bench.END_TO_END
    }
    assert all(value > 0 for value, _ in row["metrics"].values())
    assert row["attempted"] > 0 and row["failed"] == 0
    assert row["missing_hooks"] == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_emits_every_layer_metric(name):
    row = _tiny(name, trace=True)
    expected = {metric: unit for metric, unit, _, _ in bench.PER_LAYER}
    expected.update({metric: unit for metric, unit, _ in bench.TRACING})
    assert {k: unit for k, (_, unit) in row["metrics"].items()} == expected
    assert row["missing_hooks"] == []
    assert row["metrics"]["tracing.coverage_frac"][0] > 0.5


def test_traced_and_untraced_runs_give_the_same_digest():
    # The service workload: its spans come back from a forked producer.
    plain = _tiny("serve-cptgpt", trace=False)
    traced = _tiny("serve-cptgpt", trace=True)
    assert plain["digest"] == traced["digest"]
    assert traced["metrics"]["sample.cpt-gpt.streams"][0] > 0


def _chunk(times):
    from repro.core.chunks import MergedChunk, MergeTables

    tables = MergeTables()
    base = tables.add_ues("phones", ["ue0", "ue1"], shard=0)
    codes = tables.event_codes(["SRV_REQ", "S1_CONN_REL"])
    n = len(times)
    return MergedChunk(
        times=np.asarray(times, dtype=np.float64),
        cohorts=np.zeros(n, dtype=np.int32),
        ues=np.full(n, base, dtype=np.int64) + np.arange(n) % 2,
        events=codes[np.arange(n) % 2],
        cells=None,
        tables=tables,
    )


def test_swapped_timestamps_fail_the_order_check():
    tap = TimelineTap()
    tap.observe(_chunk([1.0, 2.0, 3.0]))
    tap.observe(_chunk([4.0, 5.0]))
    check_ordered(tap)

    within = TimelineTap()
    within.observe(_chunk([1.0, 3.0, 2.0, 4.0]))
    with pytest.raises(BenchmarkFailure, match="decrease"):
        check_ordered(within)

    across = TimelineTap()
    across.observe(_chunk([1.0, 3.0]))
    across.observe(_chunk([2.0, 4.0]))
    with pytest.raises(BenchmarkFailure, match="decrease"):
        check_ordered(across)


def test_swapped_timestamps_in_the_merge_fail_the_run(monkeypatch):
    from repro.workload import timeline

    merge = timeline.merge_buffers

    def swapped(*args, **kwargs):
        chunks = merge(*args, **kwargs)
        times = chunks[0].times
        times[[0, -1]] = times[[-1, 0]]
        return chunks

    monkeypatch.setattr(timeline, "merge_buffers", swapped)
    with pytest.raises(BenchmarkFailure, match="decrease"):
        _tiny("city-day-s0.05", trace=False)


def test_conservation_mismatch_fails():
    check_conservation(10, 7, 2, 1)
    with pytest.raises(BenchmarkFailure, match="accounting"):
        check_conservation(10, 6, 2, 1)


def test_lost_merged_event_fails_the_run(monkeypatch):
    from repro.workload import timeline

    merge = timeline.merge_buffers

    def lossy(*args, **kwargs):
        chunks = merge(*args, **kwargs)
        return [chunks[0].slice(1, chunks[0].num_events), *chunks[1:]]

    monkeypatch.setattr(timeline, "merge_buffers", lossy)
    with pytest.raises(BenchmarkFailure, match="shard events"):
        _tiny("handover-storm-s0.25", trace=False)


def test_run_restores_every_wrapped_function():
    from repro.mcn.simulator import MCNSimulator
    from repro.trace import synthetic

    before = (MCNSimulator.run, synthetic.generate_trace)
    _tiny("city-day-s0.05", trace=True)
    assert (MCNSimulator.run, synthetic.generate_trace) == before


def test_benchmark_json_names_what_the_runner_reports():
    import json

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(entry) for entry in bench.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        entry[:3] for entry in bench.PER_LAYER
    ] + list(bench.TRACING)
