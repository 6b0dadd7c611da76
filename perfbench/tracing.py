"""In-memory spans around calls into repro's public functions.

No tracing lives inside ``src/``.  :class:`Hooks` wraps module functions
and class methods from the outside for the duration of one benchmark
run and puts the originals back on :meth:`Hooks.restore`.  A wrapper
records a :class:`Span` (name, start, end, parent, per-span counts) only
while :attr:`Tracer.enabled` is set, so an untraced run pays one
attribute test per wrapped call.

The always-on service generates in a forked producer.  Its spans are
recorded in the child (the fork inherits the wrappers), written to the
run's spool directory when the producer finishes, and adopted into the
parent's span list under the timeline run that started the producer.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from time import perf_counter

__all__ = ["Hooks", "Span", "Tracer", "aggregate", "install_layer_hooks"]


class Span:
    """One timed call: ``end - start`` seconds under ``parent``."""

    __slots__ = ("sid", "parent", "name", "start", "end", "pid", "counts")

    def __init__(self, sid, parent, name, start, pid) -> None:
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.pid = pid
        self.counts: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, run_id: str) -> dict:
        return {
            "run": run_id,
            "id": self.sid,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "pid": self.pid,
            "counts": self.counts,
        }


class Tracer:
    """Spans of one benchmark run, kept in memory until the run ends."""

    def __init__(self, run_id: str, spool: str) -> None:
        self.run_id = run_id
        self.spool = spool
        self.enabled = False
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), parent, name, perf_counter(), self.pid)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        while self._stack and self._stack.pop() is not span:
            pass

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    @property
    def current(self) -> "Span | None":
        return self._stack[-1] if self._stack else None

    def root_of(self, span: Span) -> Span:
        while span.parent is not None:
            span = self.spans[span.parent]
        return span

    def sleep(self, seconds: float) -> None:
        """``time.sleep`` recorded as ``service.idle`` (the service's
        injectable ``sleep``)."""
        if not self.enabled:
            time.sleep(seconds)
            return
        with self.span("service.idle"):
            time.sleep(seconds)

    # ------------------------------------------------------------------
    # Forked producers
    # ------------------------------------------------------------------
    def producer_task(self, task):
        """Wrap a stream-worker task so its spans survive the fork."""

        def traced_task(index, resume):
            forked = os.getpid() != self.pid
            if forked:
                self.pid = os.getpid()
                self.spans = []
                self._stack = []
            items = iter(task(index, resume))
            try:
                while True:
                    span = self.begin("service.producer")
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self.end(span)
                    yield item
            finally:
                if forked:
                    self.dump(os.path.join(self.spool, f"producer-{self.pid}.jsonl"))

        return traced_task

    def adopt_spooled(self, parent: Span) -> None:
        """Move spooled producer spans under ``parent``."""
        for path in sorted(glob.glob(os.path.join(self.spool, "producer-*.jsonl"))):
            remap: dict = {}
            with open(path, encoding="utf-8") as handle:
                records = [json.loads(line) for line in handle]
            os.remove(path)
            for record in records:
                span = Span(
                    len(self.spans),
                    parent.sid if record["parent"] is None else remap[record["parent"]],
                    record["name"],
                    record["start"],
                    record["pid"],
                )
                span.end = record["end"]
                span.counts = record["counts"]
                remap[record["id"]] = span.sid
                self.spans.append(span)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict(self.run_id)) + "\n")


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def aggregate(tracer: Tracer, root: Span) -> dict:
    """Per-layer totals over every span below ``root``.

    Returns ``{name: {"calls", "busy_s", "self_s", <counts>...}}`` plus
    the root's own ``covered_s`` / ``wall_s`` (its duration minus the
    part no same-process child span covers) and, for forked producers,
    ``producer_wall_s``.  Self time subtracts only children recorded in
    the same process: a producer runs beside the parent, not inside it.
    """
    children: dict = {}
    for span in tracer.spans:
        children.setdefault(span.parent, []).append(span)
    totals: dict = {}
    stack = list(children.get(root.sid, ()))
    while stack:
        span = stack.pop()
        kids = children.get(span.sid, ())
        stack.extend(kids)
        inner = sum(k.duration for k in kids if k.pid == span.pid)
        entry = totals.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += span.duration
        entry["self_s"] += span.duration - inner
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0) + value
    own = [k for k in children.get(root.sid, ()) if k.pid == root.pid]
    producer = [k for k in children.get(root.sid, ()) if k.pid != root.pid]
    totals["_root"] = {
        "wall_s": root.duration,
        "covered_s": sum(k.duration for k in own),
        "producer_wall_s": (
            max(k.end for k in producer) - min(k.start for k in producer)
            if producer
            else 0.0
        ),
        **root.counts,
    }
    return totals


def median_of(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Hooks
# ----------------------------------------------------------------------
class Hooks:
    """Replaces repro attributes for one run; :meth:`restore` undoes it."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: list[str] = []
        self._saved: list = []

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def wrap(self, module_name: str, qualname: str, make) -> None:
        """Replace ``module.qualname`` by ``make(original)``.

        A module-level function is also replaced in every ``repro``
        module that imported it by name.  A target a refactor removed is
        recorded in :attr:`missing` rather than failing the run: its
        layer metrics then read 0.
        """
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(f"{module_name}.{qualname}")
            return
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = None if owner is None else owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{module_name}.{qualname}")
            return
        wrapper = functools.wraps(original)(make(original))
        if path:
            self._set(owner, attr, wrapper)
            return
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def timed(
        self, module_name: str, qualname: str, name: str, counts=None, outside=None
    ) -> None:
        """Record a ``name`` span around every call of the target.

        ``counts(args, result)`` returns the span's work counts.  Calls
        made directly inside an ``outside`` span are not recorded.
        """
        tracer = self.tracer

        def make(fn):
            def wrapper(*args, **kwargs):
                current = tracer.current
                if not tracer.enabled or (
                    current is not None and current.name == outside
                ):
                    return fn(*args, **kwargs)
                span = tracer.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(span)
                if counts is not None:
                    span.counts.update(counts(args, result))
                return result

            return wrapper

        self.wrap(module_name, qualname, make)


def _merged_events(args, result) -> dict:
    return {"events": sum(chunk.num_events for chunk in result)}


#: (module, qualified name, span name, counts) of every timed call.
LAYER_CALLS = (
    ("repro.trace.synthetic", "generate_trace", "trace.synthesize",
     lambda a, r: {"events": r.total_events}),
    ("repro.api.protocol", "GeneratorBase.fit", "baselines.fit", None),
    ("repro.core.train", "train", "core.train", lambda a, r: {"steps": r.steps}),
    ("repro.workload.shapes", "LoadShape.warp", "workload.shape",
     lambda a, r: {"events": len(r)}),
    ("repro.topology.runtime", "TopologyRuntime.annotate", "topology.annotate",
     lambda a, r: {"events_in": len(a[3]), "events_out": len(r[0])}),
    ("repro.workload.timeline", "Workload.chunks", "workload.buffer", None),
    ("repro.workload.timeline", "Workload.shard_chunk_stream", "workload.buffer", None),
    ("repro.core.chunks", "merge_buffers", "chunks.merge", _merged_events),
    ("repro.mcn.simulator", "MCNSimulator.run", "mcn.simulate",
     lambda a, r: {"events": r.num_events, "dropped": r.dropped_events}),
    ("repro.validate.oracle", "OracleValidator.observe_buffer", "validate.oracle", None),
    ("repro.validate.oracle", "OracleValidator.observe_chunk", "validate.oracle", None),
    ("repro.validate.stats", "StatsValidator.observe_buffer", "validate.stats", None),
    ("repro.validate.stats", "StatsValidator.observe_chunk", "validate.stats", None),
    ("repro.validate.gate", "RollingGate.__init__", "validate.gate_reference", None),
    ("repro.validate.gate", "RollingGate.observe_chunk", "validate.gate_tee", None),
    ("repro.service.supervisor", "ShardSupervisor.pump", "service.pump", None),
    ("repro.service.merge", "ChunkMerger.add_chunk", "service.merge", None),
    ("repro.service.merge", "ChunkMerger.pop_ready_chunks", "service.merge", None),
)


def install_layer_hooks(hooks: Hooks) -> None:
    """Time every layer boundary the per-layer metrics are made of."""
    tracer = hooks.tracer
    for module_name, qualname, name, counts in LAYER_CALLS:
        hooks.timed(module_name, qualname, name, counts)
    # The service offers each delivered chunk to the simulator; a batch
    # ``MCNSimulator.run`` offers its own chunks and is timed as a whole.
    hooks.timed(
        "repro.mcn.simulator",
        "SimulationRun.offer_chunk",
        "service.offer",
        lambda a, r: {"events": a[1].num_events},
        outside="mcn.simulate",
    )

    def make_generate(fn):
        # ``generate(stream=True)`` returns a lazy iterator, so sampling
        # is timed per pulled stream, inside whichever caller pulls it.
        def generate(self, *args, **kwargs):
            if not tracer.enabled:
                return fn(self, *args, **kwargs)
            name = f"sample.{self.name}"
            if not kwargs.get("stream"):
                with tracer.span(name) as span:
                    dataset = fn(self, *args, **kwargs)
                span.counts.update(
                    events=dataset.total_events, streams=len(dataset)
                )
                return dataset
            return _timed_iter(tracer, name, fn(self, *args, **kwargs))

        return generate

    hooks.wrap("repro.api.protocol", "GeneratorBase.generate", make_generate)

    def make_spawn(fn):
        def spawn_stream_worker(task, *args, **kwargs):
            if tracer.enabled:
                task = tracer.producer_task(task)
            return fn(task, *args, **kwargs)

        return spawn_stream_worker

    hooks.wrap("repro.core.sharding", "spawn_stream_worker", make_spawn)

    def make_push(fn):
        def push(self, item, events=1):
            result = fn(self, item, events)
            span = tracer.current if tracer.enabled else None
            if span is not None:
                counts = tracer.root_of(span).counts
                counts["ring.depth_max"] = max(
                    counts.get("ring.depth_max", 0), len(self)
                )
                counts["throttle_episodes"] = self.throttle_episodes
            return result

        return push

    hooks.wrap("repro.service.ring", "EventRing.push", make_push)


def _timed_iter(tracer: Tracer, name: str, iterator):
    items = iter(iterator)
    while True:
        span = tracer.begin(name)
        try:
            item = next(items)
        except StopIteration:
            return
        finally:
            tracer.end(span)
        span.counts["streams"] = 1
        span.counts["events"] = len(item)
        yield item
