"""Span tracer for the traced benchmark run.

It wraps the public functions of each whatif module where their callers look
them up (a module attribute or a class attribute) and restores them on
`uninstall`. A span records its name, start, end and parent span; spans of
one repetition share the repetition id. Self time is a span's duration minus
the time covered by its child spans. Names that only need a count get a
counting wrapper, so their time stays in the caller's self time.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter, defaultdict
from time import perf_counter

import yaml

from whatif import dsl, engine, expressions, lifecycle, report, telemetry
from whatif.events import Event, EventQueue
from whatif.executors.process import ProcessExecutor
from whatif.executors.sim import SimExecutor
from whatif.trace import RunTrace


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.phase = "setup"  # set by the caller: setup | engine | save | report | check
        self.rep = 0
        self.keep_spans = False
        self.spans: list[tuple] = []  # (id, parent, rep, name, start, end)
        self.reset()

    def reset(self) -> None:
        """Start a new repetition's aggregates."""
        self.counts: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.run_self: defaultdict = defaultdict(float)  # self time outside set-up
        self.lags: list[float] = []

    # --- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn):
        """Wrap `fn` in a span; `name` may map the current phase to a name."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.phase == "check":  # the benchmark's own output checks
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name.get(tracer.phase, name["*"])
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [0.0, next(tracer._ids)]  # child time, span id
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                with tracer._lock:
                    tracer.counts[label + ".calls"] += 1
                    tracer.total[label] += duration
                    tracer.self_time[label] += duration - frame[0]
                    if tracer.phase != "setup":
                        tracer.run_self[label] += duration - frame[0]
                    if tracer.keep_spans:
                        tracer.spans.append(
                            (frame[1], parent[1] if parent else None, tracer.rep, label, start, end))

        return wrapper

    def add(self, key: str, amount=1) -> None:
        with self._lock:
            self.counts[key] += amount

    def counter(self, name: str, fn, weight=None):
        """Count calls of `fn` under `name`, plus `weight(result)` under `name.<key>`."""
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.add(name + ".calls")
            if weight is not None:
                key, amount = weight(result)
                tracer.add(f"{name}.{key}", amount)
            return result

        return wrapper

    # --- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, owners, attr: str, make) -> None:
        for owner in owners:
            self._patch(owner, attr, make(getattr(owner, attr)))

    def install(self) -> None:
        span, counter = self.span, self.counter
        wrap = self._wrap

        # engine
        wrap([engine.Engine], "reconcile", lambda f: span("engine.reconcile", f))
        wrap([engine], "ready_since", lambda f: span("engine.ready_since", f))
        wrap([engine], "dependency_satisfied", lambda f: counter("engine.dependency_satisfied", f))
        wrap([engine], "run_scenario", lambda f: span("engine.run_scenario", f))
        # lifecycle
        wrap([engine, lifecycle, expressions], "find_node", lambda f: span("lifecycle.find_node", f))
        wrap([engine, lifecycle, expressions, telemetry], "iter_nodes", self._iter_nodes)
        wrap([engine, lifecycle], "advance_to",
             lambda f: counter("lifecycle.advance_to", f, lambda hops: ("hops", len(hops))))
        wrap([engine, lifecycle, expressions], "aggregate_phase",
             lambda f: self._sized("lifecycle.aggregate_phase", "children", lambda a, r: len(a[0]), f))
        # dsl
        wrap([dsl], "parse_scenario", lambda f: span("dsl.parse_scenario", f))
        wrap([dsl], "load_templates", lambda f: span("dsl.load_templates", f))
        wrap([dsl, engine], "validate", lambda f: span("dsl.validate", f))
        wrap([dsl, engine], "instantiate_template", lambda f: span("dsl.instantiate_template", f))
        wrap([dsl, engine], "expand_targets", lambda f: counter("dsl.expand_targets", f))
        yaml_names = {"engine": "dsl.yaml_load.engine", "*": "dsl.yaml_load.setup"}
        wrap([yaml], "safe_load", lambda f: span(yaml_names, f))
        wrap([yaml], "safe_load_all", lambda f: span(yaml_names, lambda *a, **k: iter(list(f(*a, **k)))))
        # expressions
        wrap([dsl, engine], "parse_expression", lambda f: counter("expressions.parse_expression", f))
        wrap([engine], "eval_state", lambda f: span("expressions.eval_state", f))
        wrap([engine], "snapshot_scope",
             lambda f: self._sized("expressions.snapshot_scope", "jobs", lambda a, r: len(r.jobs), f))
        wrap([engine], "eval_metrics", lambda f: span("expressions.eval_metrics", f))
        wrap([expressions], "eval_reducer", lambda f: counter("expressions.eval_reducer", f))
        # telemetry: metric points read back by `load_run` count under `report`
        ingest_names = {"engine": "telemetry.ingest", "*": "report.ingest"}
        wrap([telemetry.MetricsStore], "ingest", lambda f: span(ingest_names, f))
        wrap([telemetry.MetricsStore], "query",
             lambda f: self._sized("telemetry.query", "points", lambda a, r: len(r), f))
        wrap([telemetry.MetricsStore], "save", lambda f: span("telemetry.save", f))
        # events
        wrap([EventQueue], "push", self._push)
        wrap([EventQueue], "pop_next", self._pop_next)
        wrap([EventQueue], "wait_next", self._wait_next)
        # executors
        wrap([SimExecutor], "start_job", lambda f: span("sim.start_job", f))
        wrap([SimExecutor], "inject_fault", lambda f: span("sim.inject_fault", f))
        wrap([ProcessExecutor], "start_job", lambda f: span("process.start_job", f))
        wrap([ProcessExecutor], "shutdown", lambda f: span("process.shutdown", f))
        # trace and report
        wrap([RunTrace], "append", lambda f: span("trace.append", f))
        wrap([RunTrace], "save", lambda f: span("trace.save", f))
        wrap([report], "load_run", lambda f: span("report.load_run", f))
        wrap([report], "build_report", lambda f: span("report.build_report", f))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- wrappers that record more than calls and time ------------------------

    def _iter_nodes(self, fn):
        tracer = self

        def counted(gen):
            visited = 0
            try:
                for node in gen:
                    visited += 1
                    yield node
            finally:
                tracer.add("lifecycle.nodes_visited", visited)

        def wrapper(tree):
            # Only walks that start at the root count; the walk's own
            # recursion passes child nodes back through this wrapper.
            if tree.owner is not None:
                return fn(tree)
            return counted(fn(tree))

        return wrapper

    def _sized(self, name: str, key: str, size, fn):
        """A span that also adds `size(args, result)` to `name.key`."""
        inner = self.span(name, fn)

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.add(f"{name}.{key}", size(args, result))
            return result

        return wrapper

    def _push(self, fn):
        tracer = self

        def wrapper(queue, *args, **kwargs):
            seq = fn(queue, *args, **kwargs)
            size = len(queue)
            with tracer._lock:
                tracer.counts["events.push.calls"] += 1
                if size > tracer.counts["events.queue_max"]:
                    tracer.counts["events.queue_max"] = size
            return seq

        return wrapper

    def _popped(self, popped) -> None:
        if popped is not None:
            self.add("events.pop.calls")
            if not isinstance(popped[1], Event):
                self.add("events.callbacks")

    def _pop_next(self, fn):
        def wrapper(*args, **kwargs):
            popped = fn(*args, **kwargs)
            self._popped(popped)
            return popped

        return wrapper

    def _wait_next(self, fn):
        inner = self.span("events.wait", fn)

        def wrapper(queue, clock, *args, **kwargs):
            popped = inner(queue, clock, *args, **kwargs)
            self._popped(popped)
            if popped is not None:
                with self._lock:
                    self.lags.append(clock.now() - popped[0])
            return popped

        return wrapper
