"""In-memory span tracer that times the library's layers from outside.

The tracer never edits the library: :func:`install` rebinds public
methods on the library's classes to thin wrappers that open a span on
entry and close it on exit.  Every span has a name (``layer.operation``),
a start and end on ``time.perf_counter``, the span that caused it and the
operation id of the benchmark operation it belongs to.

Aggregates are kept per ``(phase, name)``: call count, *busy* time (the
outermost span of a name, so a name nested inside itself is not counted
twice) and *self* time (duration minus the time covered by child spans).
Hot leaf calls (one simulated probe, one move peek) are aggregated only;
every other span is also kept as a record and written out at the end.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional


class _Frame:
    __slots__ = ("name", "start", "child", "op", "span_id", "parent_id")

    def __init__(self, name: str, start: float, op, span_id: int,
                 parent_id: int):
        self.name = name
        self.start = start
        self.child = 0.0
        self.op = op
        self.span_id = span_id
        self.parent_id = parent_id


class Tracer:
    """Collects spans and counters from every thread of the process."""

    #: Span records kept in memory; further spans are only aggregated.
    MAX_RECORDS = 500_000

    def __init__(self):
        self.phase = "setup"
        #: Id of the benchmark operation in progress, set by the workload
        #: before each operation.  Every span opened meanwhile, on any
        #: thread, belongs to it: the workloads run one operation at a
        #: time (one client connection, a closed loop).
        self.current_op = None
        self.records: List[tuple] = []
        self.dropped = 0
        self._stats: Dict[tuple, List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0])
        self._counters: Dict[tuple, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1
        self._origin = time.perf_counter()

    # ------------------------------------------------------------------ #

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> _Frame:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(name, time.perf_counter(), self.current_op, span_id,
                       stack[-1].span_id if stack else 0)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame, record: bool = True) -> float:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        outermost = all(f.name != frame.name for f in stack)
        if stack:
            stack[-1].child += duration
        with self._lock:
            stat = self._stats[(self.phase, frame.name)]
            stat[0] += 1
            if outermost:
                stat[1] += duration
            stat[2] += duration - frame.child
            if record:
                if len(self.records) < self.MAX_RECORDS:
                    self.records.append((
                        frame.name, frame.start - self._origin,
                        end - self._origin, frame.span_id,
                        frame.parent_id, frame.op, self.phase, outermost))
                else:
                    self.dropped += 1
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self._counters[(self.phase, name)] += amount

    # ------------------------------------------------------------------ #

    def stats(self, phase: str) -> Dict[str, tuple]:
        """``name -> (count, busy_s, self_s)`` for one phase."""
        with self._lock:
            return {name: tuple(value) for (p, name), value
                    in self._stats.items() if p == phase}

    def counters(self, phase: str) -> Dict[str, float]:
        with self._lock:
            return {name: value for (p, name), value
                    in self._counters.items() if p == phase}

    def durations(self, name: str, phase: str = "run") -> Dict[object, float]:
        """Busy time of recorded ``name`` spans per operation id."""
        out: Dict[object, float] = defaultdict(float)
        for rec in self.records:
            if rec[0] == name and rec[6] == phase and rec[7]:
                out[rec[5]] += rec[2] - rec[1]
        return out

    def write(self, path: Path) -> None:
        """Write every recorded span as JSON (one object per span)."""
        keys = ("name", "start_s", "end_s", "span", "parent", "op", "phase",
                "outermost")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"dropped": self.dropped,
                       "spans": [dict(zip(keys, rec))
                                 for rec in self.records]}, fh)


def wrap(tracer: Tracer, owner: type, attr: str, name,
         hot: bool = False, after: Optional[Callable] = None) -> None:
    """Rebind ``owner.attr`` to a span-opening wrapper.

    Args:
        name: span name, or a callable ``(args) -> name``.
        hot: aggregate only, keep no per-call record.
        after: ``(tracer, args, result)`` hook for counters.
    """
    raw = owner.__dict__[attr]
    method_type = type(raw) if isinstance(
        raw, (classmethod, staticmethod)) else None
    func = raw.__func__ if method_type is not None else raw
    name_of = name if callable(name) else (lambda _args: name)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name_of(args))
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.exit(frame, record=not hot)
        if after is not None:
            after(tracer, args, result)
        return result

    setattr(owner, attr,
            method_type(wrapper) if method_type is not None else wrapper)


# ---------------------------------------------------------------------- #
# The library's layer boundaries
# ---------------------------------------------------------------------- #

#: Registry key of each solver class the workloads run.
SOLVER_KEYS = {
    "GreedyG2": "greedy",
    "RandomSearch": "random",
    "SwapLocalSearch": "local-search",
    "SimulatedAnnealing": "annealing",
}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads touch."""
    from repro.api.schema import SolveRequest
    from repro.api.session import AdvisorSession
    from repro.cloud.provider import SimulatedCloud
    from repro.core.evaluation import CompiledProblem, DeltaEvaluator
    from repro.core.problem import DeploymentProblem
    from repro.netmeasure.estimator import MeasurementResult
    from repro.netmeasure.staged import StagedMeasurement
    from repro.serve.app import AdvisorApp
    from repro.serve.workers import WorkerPool
    from repro.solvers.base import DeploymentSolver
    from repro.store.result_cache import SQLiteResultCache

    def counted(key: str, size: Callable) -> Callable:
        return lambda tr, args, result: tr.count(key, size(args, result))

    wrap(tracer, SimulatedCloud, "mean_latency", "cloud.mean_latency",
         hot=True)
    wrap(tracer, SimulatedCloud, "sample_rtt", "cloud.sample_rtt", hot=True)
    wrap(tracer, StagedMeasurement, "measure", "netmeasure.measure",
         after=counted("netmeasure.measure.samples",
                       lambda args, result: result.num_probes))
    wrap(tracer, MeasurementResult, "to_cost_matrix",
         "netmeasure.cost_matrix")

    wrap(tracer, CompiledProblem, "__init__", "core.compile")
    wrap(tracer, CompiledProblem, "refresh_costs", "core.refresh_costs")
    wrap(tracer, CompiledProblem, "evaluate_batch", "core.evaluate_batch",
         after=counted("core.evaluate_batch.plans",
                       lambda args, result: len(result)))
    wrap(tracer, DeltaEvaluator, "peek_many", "core.peek_many",
         after=counted("core.peek_many.moves",
                       lambda args, result: len(result)))
    for attr in ("swap_cost", "relocate_cost"):
        wrap(tracer, DeltaEvaluator, attr, "core.peek", hot=True)
    for attr in ("apply_swap", "apply_relocate"):
        wrap(tracer, DeltaEvaluator, attr, "core.commit", hot=True)
    for attr in ("fingerprint", "instance_key"):
        wrap(tracer, DeploymentProblem, attr, "core.fingerprint")

    def solver_name(args) -> str:
        return "solvers." + SOLVER_KEYS.get(type(args[0]).__name__, "other")

    def solver_done(tr: Tracer, args, result) -> None:
        tr.count(solver_name(args) + ".iterations", result.iterations)

    wrap(tracer, DeploymentSolver, "solve", solver_name, after=solver_done)

    wrap(tracer, AdvisorSession, "solve", "session.solve")
    wrap(tracer, AdvisorSession, "solve_many", "session.solve")
    wrap(tracer, AdvisorSession, "prepare", "session.prepare")
    wrap(tracer, AdvisorSession, "watch", "session.watch")

    def store_get_done(tr: Tracer, args, result) -> None:
        tr.count("store.get.hits", result is not None)

    wrap(tracer, SQLiteResultCache, "get", "store.get", after=store_get_done)
    wrap(tracer, SQLiteResultCache, "put", "store.put")

    wrap(tracer, AdvisorApp, "handle", "serve.handle")
    wrap(tracer, SolveRequest, "from_dict", "serve.parse")

    def job_started(tr: Tracer, args, result) -> None:
        job = args[1]
        if job.started_at is not None:
            tr.count("serve.queue_wait_s", job.started_at - job.created_at)

    wrap(tracer, WorkerPool, "execute", "serve.worker", after=job_started)
