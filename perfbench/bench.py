"""Runner: cold setups, the measured window, checks, metrics, manifest.

One call of :func:`run` measures one workload for one seed:

* ``setup_s`` — the median of three cold setups, each timed from the
  import of ``repro`` until the first timeline event can be produced.
  The first runs in this process (its fitted state feeds the measured
  window); the others run in fresh interpreters with empty temp
  directories, so no in-process or on-disk state makes them warm;
* the measured window — complete timeline runs of the same seed,
  repeated until ``seconds`` have passed (at least two), each checked
  for correctness; ``events_per_s`` is their events over their summed
  rescaled time;
* both time metrics are rescaled to the reference machine speed by a
  :class:`~perfbench.stopwatch.Stopwatch` that samples the machine's
  speed during every timed interval;
* with ``trace=True`` the setup runs once and is traced, and the window
  alternates traced and untraced timeline runs: the traced ones give the
  per-layer metrics, the untraced ones the tracing overhead, and all
  must share one digest.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import uuid
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from . import workloads
from .checks import (
    BenchmarkFailure,
    TimelineTap,
    check_digests,
    check_equal,
    check_no_violations,
    check_ordered,
)
from .stopwatch import Stopwatch
from .tracing import Hooks, Tracer, aggregate, install_layer_hooks, median_of

__all__ = ["END_TO_END", "PER_LAYER", "run", "setup_only"]

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"
RUN_PY = Path(__file__).resolve().parent / "run.py"

#: (name, unit, better, bound): what a user of the pipeline sees.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("events_per_s", "1/s", "higher", 0.2),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("stream_valid_frac", "ratio", "higher", 0.24),
    ("delivered_frac", "ratio", "higher", 0.05),
)


def _layer(name: str, field: str):
    return lambda totals: totals.get(name, {}).get(field, 0)


def _root(key: str):
    return lambda totals: totals["_root"].get(key, 0)


def _producer_blocked(totals) -> float:
    busy = totals.get("service.producer", {}).get("busy_s", 0.0)
    return max(0.0, totals["_root"]["producer_wall_s"] - busy)


#: (name, unit, better, value-of-totals): each value is the layer's cost
#: in one setup plus its median cost per timeline run.
PER_LAYER = (
    ("trace.synthesize.busy_s", "s", "lower", _layer("trace.synthesize", "busy_s")),
    ("trace.synthesize.events", "count", "higher", _layer("trace.synthesize", "events")),
    ("baselines.fit.busy_s", "s", "lower", _layer("baselines.fit", "busy_s")),
    ("core.train.busy_s", "s", "lower", _layer("core.train", "busy_s")),
    ("core.train.steps", "count", "lower", _layer("core.train", "steps")),
    ("sample.smm-1.busy_s", "s", "lower", _layer("sample.smm-1", "busy_s")),
    ("sample.smm-1.events", "count", "higher", _layer("sample.smm-1", "events")),
    ("sample.cpt-gpt.busy_s", "s", "lower", _layer("sample.cpt-gpt", "busy_s")),
    ("sample.cpt-gpt.events", "count", "higher", _layer("sample.cpt-gpt", "events")),
    ("sample.cpt-gpt.streams", "count", "higher", _layer("sample.cpt-gpt", "streams")),
    ("workload.shape.busy_s", "s", "lower", _layer("workload.shape", "busy_s")),
    ("workload.buffer.self_s", "s", "lower", _layer("workload.buffer", "self_s")),
    ("topology.annotate.busy_s", "s", "lower", _layer("topology.annotate", "busy_s")),
    ("topology.annotate.events_in", "count", "higher", _layer("topology.annotate", "events_in")),
    ("topology.annotate.events_out", "count", "higher", _layer("topology.annotate", "events_out")),
    ("chunks.merge.busy_s", "s", "lower", _layer("chunks.merge", "busy_s")),
    ("chunks.merge.events", "count", "higher", _layer("chunks.merge", "events")),
    ("mcn.simulate.busy_s", "s", "lower", _layer("mcn.simulate", "busy_s")),
    ("mcn.simulate.events", "count", "higher", _layer("mcn.simulate", "events")),
    ("mcn.simulate.dropped", "count", "lower", _layer("mcn.simulate", "dropped")),
    ("validate.oracle.busy_s", "s", "lower", _layer("validate.oracle", "busy_s")),
    ("validate.stats.busy_s", "s", "lower", _layer("validate.stats", "busy_s")),
    ("validate.gate_reference.busy_s", "s", "lower", _layer("validate.gate_reference", "busy_s")),
    ("validate.gate_tee.busy_s", "s", "lower", _layer("validate.gate_tee", "busy_s")),
    ("service.pump.wait_s", "s", "lower", _layer("service.pump", "self_s")),
    ("service.merge.busy_s", "s", "lower", _layer("service.merge", "busy_s")),
    ("service.offer.busy_s", "s", "lower", _layer("service.offer", "busy_s")),
    ("service.idle_s", "s", "lower", _layer("service.idle", "busy_s")),
    ("service.producer.blocked_s", "s", "lower", _producer_blocked),
    ("service.ring.depth_max", "count", "lower", _root("ring.depth_max")),
    ("service.throttle_episodes", "count", "lower", _root("throttle_episodes")),
    ("service.restarts", "count", "lower", _root("restarts")),
)

#: Derived from the traced run as a whole, not from one layer.
TRACING = (
    ("tracing.coverage_frac", "ratio", "higher"),
    ("tracing.producer_coverage_frac", "ratio", "higher"),
    ("tracing.overhead_frac", "ratio", "lower"),
)


class Taps:
    """Always-on taps (traced or not) for the current timeline run."""

    def __init__(self, spool: str) -> None:
        self.timeline: TimelineTap | None = None
        self.shard_events = 0
        #: Whether forked producers sample the machine's speed, and where
        #: they leave their samples.
        self.sampling = False
        self.spool = spool

    def producer_probes(self) -> list[float]:
        """Collect (and remove) the samples forked producers left."""
        samples: list[float] = []
        for path in sorted(glob.glob(os.path.join(self.spool, "probes-*.json"))):
            with open(path, encoding="utf-8") as handle:
                samples += json.load(handle)
            os.remove(path)
        return samples


def _sampled_task(task, spool: str, parent: int):
    """Run a forked producer's task under its own :class:`Stopwatch`.

    The service's throughput is set by its producer, which runs on the
    other core, so the producer's speed samples join the parent's.
    """

    def sampled_task(index, resume):
        if os.getpid() == parent:  # inline fallback: the parent samples
            yield from task(index, resume)
            return
        stopwatch = Stopwatch()
        try:
            with stopwatch:
                yield from task(index, resume)
        finally:
            path = os.path.join(spool, f"probes-{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(stopwatch.probe_s, handle)

    return sampled_task


def install_taps(hooks: Hooks, taps: Taps) -> None:
    """Tap the merged timeline where it leaves the merge, count the
    events entering the service's incremental merge, and let forked
    producers sample the machine's speed."""

    def make_run(fn):
        def run(self, workload, *args, **kwargs):
            if taps.timeline is not None and not hasattr(workload, "streams"):
                workload = taps.timeline.through(workload)
            return fn(self, workload, *args, **kwargs)

        return run

    def make_observe_chunk(fn):
        def observe_chunk(self, chunk):
            if taps.timeline is not None:
                taps.timeline.observe(chunk)
            return fn(self, chunk)

        return observe_chunk

    def make_add_chunk(fn):
        def add_chunk(self, chunk):
            taps.shard_events += chunk.num_events
            return fn(self, chunk)

        return add_chunk

    def make_spawn(fn):
        def spawn_stream_worker(task, *args, **kwargs):
            if taps.sampling:
                task = _sampled_task(task, taps.spool, os.getpid())
            return fn(task, *args, **kwargs)

        return spawn_stream_worker

    hooks.wrap("repro.mcn.simulator", "MCNSimulator.run", make_run)
    hooks.wrap("repro.validate.gate", "RollingGate.observe_chunk", make_observe_chunk)
    hooks.wrap("repro.service.merge", "ChunkMerger.add_chunk", make_add_chunk)
    hooks.wrap("repro.core.sharding", "spawn_stream_worker", make_spawn)


def _import_repro() -> None:
    import repro  # noqa: F401
    import repro.service  # noqa: F401
    import repro.validate  # noqa: F401
    import repro.workload  # noqa: F401


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
def _blas_threads():
    import ctypes

    import numpy

    names = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        library = ctypes.CDLL(path)
        for name in names:
            if hasattr(library, name):
                function = getattr(library, name)
                function.restype = ctypes.c_int
                return function()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def manifest(workload: str, seed: int, trace: bool, run_id: str) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "run_id": run_id,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
    }


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@contextmanager
def _scratch():
    """A fresh empty temp directory for this run, removed afterwards."""
    (STATE_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=STATE_DIR / "tmp")
    saved = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = tempfile.tempdir = path
    try:
        yield path
    finally:
        if saved[0] is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved[0]
        tempfile.tempdir = saved[1]
        shutil.rmtree(path, ignore_errors=True)


def setup_only(name: str, seed: int) -> dict:
    """One cold setup in this (fresh) process: its wall and rescaled
    seconds."""
    spec = workloads.get(name)
    with _scratch():
        with Stopwatch() as stopwatch:
            _import_repro()
            spec.setup(seed, False)
        return {"wall_s": stopwatch.wall_s, "rescaled_s": stopwatch.rescaled_s}


def _cold_setups(name: str, seed: int, count: int) -> list[dict]:
    values = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
             "--setup-only"],
            capture_output=True,
            text=True,
            timeout=150,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchmarkFailure(f"cold setup failed:\n{proc.stderr[-2000:]}")
        values.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return values


def _timeline(spec, state, seed: int, tracer: Tracer, taps: Taps, sampling: bool):
    """One checked timeline run: (outcome, stopwatch, digest, root span
    or None)."""
    taps.timeline = tap = TimelineTap()
    taps.shard_events = 0
    stopwatch = Stopwatch(sampling=sampling)
    taps.sampling = sampling
    root = tracer.begin("timeline") if tracer.enabled else None
    try:
        outcome = spec.run(state, seed, tracer, taps, stopwatch)
    finally:
        taps.timeline = None
        if root is not None:
            tracer.end(root)
    stopwatch.probe_s += taps.producer_probes()
    if root is not None:
        tracer.adopt_spooled(root)
        root.counts["restarts"] = outcome.restarts
    check_ordered(tap)
    check_equal("merged events vs shard events", outcome.events, taps.shard_events)
    check_equal("merged events vs events reaching the consumer", tap.events, outcome.events)
    if spec.requires_legal:
        check_no_violations(outcome.violating_streams, outcome.streams)
    return outcome, stopwatch, tap.digest, root


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    setup_runs: int = 3,
    tiny: bool = False,
) -> dict:
    """Measure workload ``name``; raises :class:`BenchmarkFailure` on any
    failed check.  Returns the result row (manifest, metrics, detail)."""
    spec = workloads.get(name)
    run_id = uuid.uuid4().hex[:12]
    with _scratch() as scratch:
        setup = Stopwatch(sampling=not trace)
        with setup:
            _import_repro()
        tracer = Tracer(run_id, scratch)
        hooks = Hooks(tracer)
        try:
            if trace:
                install_layer_hooks(hooks)
            taps = Taps(scratch)
            install_taps(hooks, taps)
            tracer.enabled = trace
            setup_root = tracer.begin("setup") if trace else None
            with setup:
                state = spec.setup(seed, tiny)
            if setup_root is not None:
                tracer.end(setup_root)
            setups = [{"wall_s": setup.wall_s, "rescaled_s": setup.rescaled_s}]
            if not trace:
                setups += _cold_setups(name, seed, setup_runs - 1)

            outcomes, stopwatches, digests, roots = [], [], [], []
            window = perf_counter()
            while len(outcomes) < 2 * (1 + trace) or perf_counter() - window < seconds:
                # A traced window alternates traced and untraced runs:
                # the untraced ones give the tracing overhead.
                tracer.enabled = trace and len(outcomes) % 2 == 0
                outcome, stopwatch, digest, root = _timeline(
                    spec, state, seed, tracer, taps, sampling=not trace
                )
                outcomes.append(outcome)
                stopwatches.append(stopwatch)
                digests.append(digest)
                roots.append(root)
            tracer.enabled = False
            check_digests(digests)
        finally:
            hooks.restore()

    attempted = sum(o.events for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    row = {
        "manifest": manifest(name, seed, trace, run_id),
        "digest": digests[0],
        "attempted": attempted,
        "failed": failed,
        "setups": setups,
        "timeline_wall_s": [s.wall_s for s in stopwatches],
        "timeline_rescaled_s": [s.rescaled_s for s in stopwatches],
        "timeline_probe_s": [s.probe_s for s in stopwatches],
        "timeline_events": [o.events for o in outcomes],
        "missing_hooks": hooks.missing,
    }
    if trace:
        setup_totals = aggregate(tracer, setup_root)
        rep_totals = [aggregate(tracer, root) for root in roots if root is not None]
        traced = [s.wall_s for s, root in zip(stopwatches, roots) if root is not None]
        plain = [s.wall_s for s, root in zip(stopwatches, roots) if root is None]
        row["metrics"] = _layer_metrics(setup_totals, rep_totals)
        row["metrics"]["tracing.overhead_frac"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0,
            "ratio",
        )
        row["layers"] = {"setup": setup_totals, "timeline": rep_totals}
        row["spans"] = tracer
    else:
        o = outcomes[0]
        row["metrics"] = {
            "setup_s": (statistics.median(s["rescaled_s"] for s in setups), "s"),
            "events_per_s": (attempted / sum(row["timeline_rescaled_s"]), "1/s"),
            "peak_rss_mib": (_peak_rss_mib(), "MiB"),
            "stream_valid_frac": (1.0 - o.violating_streams / max(1, o.streams), "ratio"),
            "delivered_frac": (1.0 - failed / max(1, attempted), "ratio"),
        }
    return row


def _layer_metrics(setup_totals, rep_totals) -> dict:
    metrics = {}
    for name, unit, _, value in PER_LAYER:
        metrics[name] = (
            value(setup_totals) + median_of(value(t) for t in rep_totals),
            unit,
        )
    roots = [setup_totals, *rep_totals]
    wall = sum(t["_root"]["wall_s"] for t in roots)
    covered = sum(t["_root"]["covered_s"] for t in roots)
    producer = [t["service.producer"] for t in rep_totals if "service.producer" in t]
    producer_busy = sum(p["busy_s"] for p in producer)
    producer_covered = sum(p["busy_s"] - p["self_s"] for p in producer)
    metrics["tracing.coverage_frac"] = (covered / wall, "ratio")
    metrics["tracing.producer_coverage_frac"] = (
        producer_covered / producer_busy if producer_busy else 0.0,
        "ratio",
    )
    return metrics
