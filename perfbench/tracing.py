"""Span tracer for the benchmark's traced run.

The traced run installs wrappers around public entry points of every
layer the benchmark measures (class methods and module functions of
``repro``) for every other operation of its closed loop, and removes
them again after that operation.  The timed run never imports this
module.

A span records its name, start, end, parent span, operation id and
thread.  Spans stay in memory until the run exits, when
:func:`write_chrome_trace` writes them out.  A layer's self time is
its span minus the part of that interval its child spans cover, so the
self times of one operation's tree sum back to the operation's wall
time (on one thread; the overlap executor's two stream threads may
legitimately add up to more).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Span names whose self time is reported as ``<name>_ms``.
TIMED_LAYERS = (
    "data.batch",
    "models.forward",
    "nn.attention",
    "nn.norm",
    "nn.embed_head",
    "nn.backward",
    "optim.zero_grad",
    "optim.clip",
    "optim.adam",
    "moe.layer",
    "moe.gate",
    "moe.dispatch",
    "moe.experts",
    "moe.combine",
    "parallel.forward",
    "codec.roundtrip",
    "planner.calibrate",
    "planner.score",
    "planner.validate",
    "systems.simulate_step",
    "core.schedule",
    "collectives.measure_a2a",
    "core.model_executor",
    "cluster.engine_run",
)

#: The seven ScheMoE tasks, as read from ``last_timeline``.
RUNTIME_TASKS = ("c1", "a1", "d1", "e", "c2", "a2", "d2")

#: Name of the root span the closed loop opens around each operation.
OP_SPAN = "op"

Span = Tuple[int, str, float, float, Optional[int], Optional[int], int]


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Every BufferPool seen acquiring inside a traced operation.
        self.pools: dict = {}
        #: Id of the traced operation in flight, else None.
        self.op: Optional[int] = None
        self.t0 = time.perf_counter()
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: List[Tuple[int, str]] = []
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        # Counters are bumped from the overlap executor's threads too.
        self._count_lock = threading.Lock()

    # -- spans -----------------------------------------------------------
    def _stack(self) -> List[Tuple[int, str]]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack) -> Tuple[Optional[int], Optional[str]]:
        if stack:
            return stack[-1]
        # A stream thread's outermost span hangs off whatever span the
        # driving thread is inside (the call that started the streams).
        try:
            return self._main_stack[-1]
        except IndexError:
            return (None, None)

    def call(self, name: str, fn: Callable, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        parent = self._parent(stack)[0]
        sid = next(self._ids)
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, name, start, end, parent, self.op, threading.get_ident())
            )

    def add(self, counter: str, value: float = 1.0) -> None:
        """Accumulate ``value`` into ``counter``."""
        with self._count_lock:
            self.counts[counter] += value

    # -- wrappers --------------------------------------------------------
    def patch(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until uninstall."""
        # vars() rather than getattr(): patch the class that defines
        # the method, and fail loudly if the entry point moved.
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def span(
        self,
        owner,
        attr: str,
        name: str,
        after: Optional[Callable] = None,
        under: Optional[str] = None,
    ) -> None:
        """Wrap ``owner.attr`` in a span.

        ``after(tracer, args, result)`` runs once the call returns.
        With ``under`` set, only calls made directly inside a span of
        that name are recorded; other calls stay part of their
        caller's self time.
        """
        tracer = self

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                if under is not None and (
                    tracer._parent(tracer._stack())[1] != under
                ):
                    return original(*args, **kwargs)
                result = tracer.call(name, original, args, kwargs)
                if after is not None:
                    after(tracer, args, result)
                return result

            return traced

        self.patch(owner, attr, make)

    def count(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without a span."""
        tracer = self

        def make(original):
            @functools.wraps(original)
            def counted(*args, **kwargs):
                tracer.add(counter)
                return original(*args, **kwargs)

            return counted

        self.patch(owner, attr, make)

    def uninstall(self) -> None:
        """Restore every patched entry point, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Span name -> self seconds summed over every traced operation."""
        children: Dict[Optional[int], List[Tuple[float, float]]] = (
            defaultdict(list)
        )
        for _sid, _name, start, end, parent, _op, _tid in self.spans:
            children[parent].append((start, end))
        totals: Dict[str, float] = defaultdict(float)
        for sid, name, start, end, _parent, _op, _tid in self.spans:
            covered = union_length(children.get(sid, ()), start, end)
            totals[name] += (end - start) - covered
        return totals


def union_length(
    intervals, lo: float = float("-inf"), hi: float = float("inf")
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def overlap_length(intervals, others) -> float:
    """Length of ``intervals``' union that ``others``' union also covers."""
    both = [
        (max(a0, b0), min(a1, b1))
        for a0, a1 in intervals
        for b0, b1 in others
        if min(a1, b1) > max(a0, b0)
    ]
    return union_length(both)


# -- layer hooks ---------------------------------------------------------


def _gate_stats(tracer: Tracer, _args, gate_out) -> None:
    plan = gate_out.plan
    kept = int(plan.kept_token_ids.size)
    tracer.add("gate.kept", kept)
    tracer.add("gate.routed", kept + int(plan.dropped_assignments))
    counts = plan.counts
    tracer.add("gate.imbalance", float(counts.max() / counts.mean()))
    tracer.add("gate.calls")


def _counted_acquire(tracer: Tracer):
    def make(original):
        @functools.wraps(original)
        def acquire(pool, *args, **kwargs):
            misses = pool.misses
            buf = original(pool, *args, **kwargs)
            tracer.add("pool.misses" if pool.misses > misses else "pool.hits")
            tracer.pools[id(pool)] = pool
            return buf

        return acquire

    return make


def _parallel_stats(tracer: Tracer, args, _outputs) -> None:
    group = args[0]
    comp, comm = [], []
    for task, (start, end) in group.last_timeline.items():
        tracer.add(f"runtime.{task.kind.name.lower()}", end - start)
        (comm if task.kind.is_comm else comp).append((start, end))
    everything = comp + comm
    span = max(e for _, e in everything) - min(s for s, _ in everything)
    comm_busy = union_length(comm)
    tracer.add("runtime.span", span)
    tracer.add("runtime.comp_busy", union_length(comp))
    tracer.add("runtime.comm_busy", comm_busy)
    tracer.add("runtime.comm_hidden", overlap_length(comm, comp))
    for traffic in (group.last_dispatch_traffic, group.last_combine_traffic):
        tracer.add("a2a.cross_bytes", traffic.off_diagonal_bytes)
        tracer.add("a2a.total_bytes", traffic.total_bytes)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    from repro.cluster import engine
    from repro.compression import base as codec_base
    from repro.core import model_executor, profiler, scheduler
    from repro.data import synthetic_lm
    from repro.models import gpt2_tiny
    from repro.moe import experts, gating, layer, parallel
    from repro.nn import buffer_pool, functional, modules, optim, tensor
    from repro.systems import planner, sweep

    t = tracer
    # repro.data (the workloads' batch generators predate the wrappers)
    t.span(synthetic_lm.SyntheticLM, "sample_document", "data.batch")
    # repro.models / repro.nn
    t.span(gpt2_tiny.TransformerLM, "forward", "models.forward")
    t.span(modules.MultiHeadAttention, "forward", "nn.attention")
    t.span(modules.LayerNorm, "forward", "nn.norm")
    t.span(modules.Embedding, "forward", "nn.embed_head")
    t.span(modules.Linear, "forward", "nn.embed_head", under="models.forward")
    t.span(functional, "cross_entropy", "nn.embed_head")
    t.span(tensor.Tensor, "backward", "nn.backward")
    t.span(optim.Optimizer, "zero_grad", "optim.zero_grad")
    t.span(optim, "clip_grad_norm", "optim.clip")
    t.span(optim.Adam, "step", "optim.adam")
    t.patch(buffer_pool.BufferPool, "acquire", _counted_acquire(t))
    # repro.moe (the layer module binds dispatch/combine by name)
    t.span(layer.MoELayer, "forward", "moe.layer")
    t.span(gating.TopKGate, "forward", "moe.gate", after=_gate_stats)
    t.span(layer, "dispatch_grouped", "moe.dispatch")
    t.span(experts.Experts, "run_grouped", "moe.experts")
    t.span(layer, "combine_grouped", "moe.combine")
    t.span(
        parallel.ExpertParallelGroup, "forward", "parallel.forward",
        after=_parallel_stats,
    )
    # repro.compression
    t.span(codec_base.Compressor, "roundtrip", "codec.roundtrip")
    # repro.systems / repro.core / repro.collectives / repro.cluster
    t.span(planner, "calibrate", "planner.calibrate")
    t.span(planner, "predict_step", "planner.score")
    t.span(planner, "run_sweep", "planner.validate")
    t.span(sweep, "simulate_model_step", "systems.simulate_step")
    t.span(scheduler.Scheduler, "schedule", "core.schedule")
    t.count(profiler.Profiler, "measure_a2a_seconds", "profiler.a2a_lookups")
    t.count(profiler, "measure_a2a", "collectives.a2a_calls")
    t.span(profiler, "measure_a2a", "collectives.measure_a2a")
    t.span(model_executor.ModelExecutor, "run", "core.model_executor")
    t.span(engine.Engine, "run", "cluster.engine_run")
    for constructor in ("event", "timeout", "process", "all_of", "any_of"):
        t.count(engine.Engine, constructor, "cluster.events")


def layer_metrics(tracer: Tracer, ops: int) -> Dict[str, float]:
    """Per-operation means of every per-layer metric.

    Times are mean self milliseconds per operation (means, unlike
    medians, add up: the layer times plus ``other_ms`` sum to the mean
    operation time).  Layers a workload never enters read 0.
    """
    totals = tracer.self_times()
    n = max(ops, 1)
    c = tracer.counts
    out = {f"{name}_ms": totals[name] * 1e3 / n for name in TIMED_LAYERS}
    out["other_ms"] = totals[OP_SPAN] * 1e3 / n
    for task in RUNTIME_TASKS:
        out[f"runtime.{task}_ms"] = c[f"runtime.{task}"] * 1e3 / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["moe.kept_frac"] = ratio(c["gate.kept"], c["gate.routed"])
    out["moe.load_imbalance"] = ratio(c["gate.imbalance"], c["gate.calls"])
    hits, misses = c["pool.hits"], c["pool.misses"]
    out["pool.hit_rate"] = ratio(hits, hits + misses)
    out["pool.misses_per_step"] = misses / n
    stats = [p.stats() for p in tracer.pools.values()]
    out["pool.bytes_held_mb"] = sum(s["bytes_held"] for s in stats) / 2**20
    out["pool.keys"] = float(sum(s["keys"] for s in stats))
    out["runtime.comp_idle_frac"] = ratio(
        c["runtime.span"] - c["runtime.comp_busy"], c["runtime.span"]
    )
    out["runtime.comm_hidden_frac"] = ratio(
        c["runtime.comm_hidden"], c["runtime.comm_busy"]
    )
    out["a2a.cross_bytes"] = c["a2a.cross_bytes"] / n
    out["a2a.total_bytes"] = c["a2a.total_bytes"] / n
    out["collectives.a2a_calls"] = c["collectives.a2a_calls"] / n
    out["core.profiler_a2a_hit_rate"] = ratio(
        c["profiler.a2a_lookups"] - c["collectives.a2a_calls"],
        c["profiler.a2a_lookups"],
    )
    out["cluster.events"] = c["cluster.events"] / n
    engine_s = sum(
        end - start
        for _sid, name, start, end, _p, _op, _tid in tracer.spans
        if name == "cluster.engine_run"
    )
    out["cluster.events_per_s"] = ratio(c["cluster.events"], engine_s)
    return out


def write_chrome_trace(tracer: Tracer, path, metadata: dict) -> None:
    """Write every span as a Chrome-trace (``chrome://tracing``) file."""
    threads: Dict[int, int] = {}
    events = []
    for sid, name, start, end, parent, op, tid in sorted(
        tracer.spans, key=lambda s: s[2]
    ):
        events.append(
            {
                "name": name,
                "ph": "X",
                "ts": (start - tracer.t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": threads.setdefault(tid, len(threads)),
                "args": {"span": sid, "parent": parent, "op": op},
            }
        )
    with open(path, "w") as fh:
        json.dump(
            {
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": metadata,
            },
            fh,
        )
