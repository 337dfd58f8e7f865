"""The benchmark's own span recorder for traced runs.

A traced run wraps a fixed list of public entry points of the program
for the length of one workload call.  Each call becomes a span (name,
layer, start, end, parent); spans stay in memory and are written out
as Chrome trace-event JSON when the run ends.  A layer's self time is
the summed duration of its spans minus the time their child spans
cover.  Nothing under ``src/`` is edited: wrappers are installed on the
loaded modules and classes and removed again afterwards.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import weakref
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: (layer, "module:qualified.name") of every wrapped entry point.
#: Module-level functions are replaced in every loaded ``repro`` module
#: that holds them, so ``from x import f`` bindings are covered too.
ENTRY_POINTS = (
    ("lang", "repro.lang.parser:parse"),
    ("lang", "repro.spec.specification:Specification.validate"),
    ("lang", "repro.refine.refiner:RefinedDesign.line_counts"),
    ("graph", "repro.graph.access_graph:AccessGraph.from_specification"),
    ("partition", "repro.partition.auto:greedy_partition"),
    ("partition", "repro.partition.auto:kl_partition"),
    ("partition", "repro.partition.auto:annealed_partition"),
    ("partition", "repro.partition.metrics:partition_cost"),
    ("estimate", "repro.estimate.cost:estimate_design_point"),
    ("estimate", "repro.estimate.profile:profile_specification"),
    ("refine", "repro.refine.refiner:Refiner.run"),
    ("sim", "repro.sim.interpreter:Simulator.run"),
    ("equivalence", "repro.sim.equivalence:compare_runs"),
    ("exec", "repro.exec.engine:ExecutionEngine.run"),
)

#: Layers whose self time is reported, in report order.
LAYERS = ("lang", "graph", "partition", "estimate", "refine", "sim",
          "equivalence", "exec")

#: Spans of these layers shape the tree (their time is not charged to
#: the parent) but are not reported: registered exec tasks, and the
#: immediate re-run of a fresh Simulator that measures compile time.
TASK_LAYER = "task"
RERUN_LAYER = "sim-rerun"


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = sys.modules.get(module_name)
    if owner is None:
        __import__(module_name)
        owner = sys.modules[module_name]
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class SpanRecorder:
    """Records spans of wrapped calls plus the counters the report
    needs.  Wrapped calls must come from one thread, like the serial
    workloads; :meth:`add_span` may be called from several."""

    def __init__(self):
        #: [name, layer, start, end, parent index or -1]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Dict[str, int] = {}
        #: summed seconds of compile-measuring re-runs; the traced
        #: workload time excludes them
        self.rerun_seconds = 0.0
        #: summed (first run - immediate re-run) over fresh Simulators
        self.compile_seconds = 0.0
        self._seen_simulators: "weakref.WeakSet" = weakref.WeakSet()
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> float:
        self._stack.pop()
        span = self.spans[index]
        span[3] = time.perf_counter()
        return span[3] - span[2]

    def add_span(self, name: str, layer: str, start: float, end: float,
                 parent: int = -1) -> int:
        """Record a finished span (thread-safe); returns its index."""
        with self._lock:
            self.spans.append([name, layer, start, end, parent])
            return len(self.spans) - 1

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, layer: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        def wrapper(*args, **kwargs):
            index = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_simulator_run(self, fn: Callable) -> Callable:
        """``Simulator.run``: counts kernel steps and, on a Simulator's
        first run, re-runs it at once to split off compile time (not for
        the profiling simulators, whose probe accumulates)."""

        def run(simulator, *args, **kwargs):
            index = self._open("Simulator.run", "sim")
            try:
                result = fn(simulator, *args, **kwargs)
            finally:
                first_seconds = self._close(index)
            self.count("sim.steps", result.steps)
            # a probe or fault injector keeps state across runs, so a
            # re-run would change what the caller reads back
            if (simulator in self._seen_simulators
                    or simulator.probe is not None
                    or kwargs.get("injector") is not None):
                return result
            self._seen_simulators.add(simulator)
            rerun_kwargs = dict(kwargs)
            metrics = rerun_kwargs.get("metrics")
            if metrics is not None:
                rerun_kwargs["metrics"] = type(metrics)()
            for key in ("tracer", "observer"):
                rerun_kwargs.pop(key, None)
            rerun = self._open("Simulator.rerun", RERUN_LAYER)
            try:
                fn(simulator, *args, **rerun_kwargs)
            finally:
                rerun_seconds = self._close(rerun)
            self.rerun_seconds += rerun_seconds
            self.compile_seconds += first_seconds - rerun_seconds
            return result

        run.__wrapped__ = fn
        return run

    # -- installation -------------------------------------------------------

    def _replacement(self, layer: str, name: str, raw):
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if name == "Simulator.run":
            wrapped = self._wrap_simulator_run(fn)
        elif name == "compare_runs":
            wrapped = self.wrap(name, layer, fn, on_result=lambda report: (
                self.count("equivalence.mismatches", len(report.mismatches))
            ))
        elif name == "RefinedDesign.line_counts":
            wrapped = self.wrap(name, layer, fn, on_result=lambda counts: (
                self.count("refine.lines_out", counts["refined"])
            ))
        else:
            wrapped = self.wrap(name, layer, fn)
        return classmethod(wrapped) if isinstance(raw, classmethod) else wrapped

    @contextmanager
    def installed(self):
        """Wrap every entry point and registered exec task; undo on exit."""
        from repro.exec import get_task, register, task_names

        undo = []
        try:
            for layer, target in ENTRY_POINTS:
                owner, attr = _resolve(target)
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    name = f"{owner.__name__}.{attr}"
                    setattr(owner, attr, self._replacement(layer, name, raw))
                    undo.append((owner, attr, raw))
                    continue
                raw = getattr(owner, attr)
                wrapped = self._replacement(layer, attr, raw)
                for module in list(sys.modules.values()):
                    if (getattr(module, "__name__", "").startswith("repro")
                            and getattr(module, attr, None) is raw):
                        setattr(module, attr, wrapped)
                        undo.append((module, attr, raw))
            for task in task_names():
                original = get_task(task)
                register(task)(self.wrap(f"task:{task}", TASK_LAYER, original))
                undo.append((None, task, original))
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                if owner is None:
                    register(attr)(raw)
                else:
                    setattr(owner, attr, raw)

    # -- queries ------------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Layer -> summed self time (span time minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for (name, layer, start, end, parent), children in zip(
            self.spans, child_time
        ):
            totals[layer] = totals.get(layer, 0.0) + (end - start) - children
        return totals

    def span_count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def chrome_trace(self) -> Dict[str, object]:
        """The spans as Chrome trace-event JSON (``ph: X`` events whose
        args carry the span's own index and its parent's)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        events: List[Dict[str, object]] = [{
            "ph": "M", "pid": 1, "tid": 1, "ts": 0,
            "name": "process_name", "args": {"name": "perfbench"},
        }]
        for index, (name, layer, start, end, parent) in enumerate(self.spans):
            events.append({
                "ph": "X", "pid": 1, "tid": 1, "name": name, "cat": layer,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": index, "parent": parent},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> int:
        """Write the trace, read it back and validate it with the
        program's own trace-schema checker; returns the event count."""
        from repro.obs.trace import validate_chrome_trace

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
        with open(path, encoding="utf-8") as handle:
            return validate_chrome_trace(json.load(handle))
