"""Benchmark entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload city-day-s0.05 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 1

Prints a readable report, then, as the last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness check exits 1 without that line.  ``--workload all`` runs
every workload in its own fresh process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Pinned before numpy loads, so BLAS never oversubscribes the cores
#: (forked producers inherit the pinned library).
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _print_row(row: dict) -> None:
    manifest = row["manifest"]
    print(f"manifest {json.dumps(manifest, sort_keys=True)}")
    print(
        f"workload {manifest['workload']} seed {manifest['seed']}: "
        f"{len(row['timeline_wall_s'])} timeline runs, "
        f"{row['timeline_events'][0]} events each, digest {row['digest']}"
    )
    for label, values in (
        ("setup wall_s", [s["wall_s"] for s in row["setups"]]),
        ("setup rescaled_s", [s["rescaled_s"] for s in row["setups"]]),
        ("timeline wall_s", row["timeline_wall_s"]),
        ("timeline rescaled_s", row["timeline_rescaled_s"]),
    ):
        print(f"{label}: " + ", ".join(f"{v:.3f}" for v in values))
    if row["missing_hooks"]:
        print("hooks not installed (layer reads 0): " + ", ".join(row["missing_hooks"]))
    if "layers" in row:
        _print_layers(row)
    for name, (value, unit) in row["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {unit}")


def _print_layers(row: dict) -> None:
    walls = [t["_root"]["wall_s"] for t in row["layers"]["timeline"]]
    median = sorted(range(len(walls)), key=walls.__getitem__)[len(walls) // 2]
    for label, totals in (
        ("setup", row["layers"]["setup"]),
        (f"traced timeline run {median} (median wall)", row["layers"]["timeline"][median]),
    ):
        root = totals["_root"]
        print(
            f"-- {label}: wall {root['wall_s']:.3f} s, layers cover "
            f"{root['covered_s'] / root['wall_s']:.1%}"
            + (
                f"; forked producer busy over {root['producer_wall_s']:.3f} s"
                if root["producer_wall_s"]
                else ""
            )
        )
        print(f"   {'layer':28s} {'calls':>7s} {'busy_s':>9s} {'self_s':>9s}  counts")
        for name, entry in sorted(totals.items(), key=lambda kv: -kv[1].get("busy_s", 0)):
            if name == "_root":
                continue
            counts = {
                k: v for k, v in entry.items() if k not in ("calls", "busy_s", "self_s")
            }
            print(
                f"   {name:28s} {entry['calls']:7d} {entry['busy_s']:9.3f} "
                f"{entry['self_s']:9.3f}  {counts or ''}"
            )


def _write(row: dict) -> None:
    manifest = row["manifest"]
    stem = (
        f"{manifest['workload']}-seed{manifest['seed']}-trace{int(manifest['trace'])}"
        f"-{manifest['run_id']}"
    )
    spans = row.pop("spans", None)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(
        json.dumps(row, indent=1, sort_keys=True), encoding="utf-8"
    )
    if spans is not None:
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        spans.dump(str(traces / f"{stem}.jsonl"))


def _run_all(args) -> int:
    from perfbench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: {name} failed", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for variable in BLAS_THREADS:
        os.environ[variable] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    if args.workload == "all":
        return _run_all(args)

    from perfbench import bench
    from perfbench.checks import BenchmarkFailure

    if args.setup_only:
        print(json.dumps(bench.setup_only(args.workload, args.seed)))
        return 0
    try:
        row = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkFailure as failure:
        print(f"perfbench: correctness check failed: {failure}", file=sys.stderr)
        return 1
    _print_row(row)
    _write(row)
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": row["attempted"],
                "failed": row["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in row["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
