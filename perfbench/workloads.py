"""The four workloads: advise, solve, watch and serve.

Each workload generates its inputs from the seed, builds what it needs,
warms up once untimed, and then runs *rounds*: one round is a fixed
amount of seeded work, identical from round to round.  The loop in
``bench.py`` repeats rounds for the requested number of seconds and
reports medians over them.

Everything runs serially in one process: ``AdvisorSession`` without
worker threads or evaluation workers, ``ServeConfig(workers=1)`` and one
keep-alive client connection.  Every solve stops on an iteration cap or
its own stopping rule, never on a wall-clock budget.

A round returns :class:`Round`.  Checks run outside the timed region.
"""

from __future__ import annotations

import http.client
import json
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import inputs


@dataclass
class Round:
    """Outcome of one round of work.

    ``ops`` holds the latency of each operation in seconds, ``kinds`` its
    class (an application, a solver, a revision kind, hit or cold) and
    ``op_ids`` the ids the tracer saw it under (serve only).  ``ratios``
    are plan cost over default-plan cost, ``failed`` counts operations
    whose checks failed and ``extra`` holds per-round counters.
    """

    wall_s: float
    ops: List[float]
    kinds: List[str]
    ratios: List[float]
    failed: int = 0
    op_ids: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)


def oracle_cost(plan, problem) -> float:
    """The plan's cost through the pure-Python reference objectives."""
    from repro.core.objectives import deployment_cost
    return deployment_cost(plan, problem.graph, problem.costs,
                           problem.objective)


def default_cost(problem) -> float:
    return oracle_cost(problem.default_plan(), problem)


def plan_ok(plan, problem, cost: float) -> bool:
    """The plan passes ``check_plan`` and the oracle re-scores it to ``cost``."""
    from repro.core.errors import InvalidDeploymentError
    try:
        problem.check_plan(plan)
    except InvalidDeploymentError:
        return False
    return oracle_cost(plan, problem) == cost


def normalised(value):
    """JSON round trip, so tuples and lists compare equal."""
    return json.loads(json.dumps(value))


class Workload:
    """Common shape; subclasses fill in the inputs and the round."""

    name = ""

    def __init__(self, seed: int, tmp: Path, tracer=None):
        self.seed = seed
        self.tmp = tmp
        self.tracer = tracer
        self.digest = ""
        self.work: Dict = {}

    def mark(self, op: str) -> None:
        """Tell the tracer which operation starts now."""
        if self.tracer is not None:
            self.tracer.current_op = op

    def check_work(self) -> Optional[str]:
        """A message when the generated work differs from the expectation."""
        expected = normalised(inputs.EXPECTED_WORK[self.name])
        actual = normalised(self.work)
        if actual != expected:
            return f"work signature {actual} != expected {expected}"
        return None

    def warm_up(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int):
        """Untimed per-round preparation (fresh objects, no warm caches)."""
        return None

    def run_round(self, index: int, prepared) -> Round:
        raise NotImplementedError

    def finished(self, rounds: List[Round], elapsed: float,
                 seconds: float) -> bool:
        """Stop when the next round would overrun the measuring time."""
        median = float(np.median([r.wall_s for r in rounds]))
        return elapsed + median > seconds

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------- #


class AdviseWorkload(Workload):
    """``ClouDiA.recommend`` on the paper's three applications."""

    name = "advise"

    def __init__(self, seed: int, tmp: Path, tracer=None):
        super().__init__(seed, tmp, tracer)
        from repro.core import Objective
        self.apps = []
        for salt, (app, template, objective) in enumerate(inputs.ADVISE_APPS):
            graph = inputs.build_graph(template)
            self.apps.append((app, graph, Objective(objective),
                              inputs.cloud_seed(self.seed, 100 + salt)))
        self.digest = inputs.digest(*[(g.nodes, g.edges, obj.value, cs)
                                      for _a, g, obj, cs in self.apps])
        self.work = {
            "apps": [(app, obj.value) for app, _g, obj, _s in self.apps],
            "nodes": [g.num_nodes for _a, g, _o, _s in self.apps],
            "solver": ("local-search", inputs.ADVISE_RESTARTS,
                       inputs.ADVISE_STALL),
        }

    def _advisor(self, cloud_seed: int, objective):
        from repro.cloud import SimulatedCloud
        from repro.core.advisor import AdvisorConfig, ClouDiA
        config = AdvisorConfig(
            objective=objective, solver="local-search",
            solver_config={
                "restarts": inputs.ADVISE_RESTARTS,
                "max_moves_without_improvement": inputs.ADVISE_STALL},
            solver_time_limit_s=inputs.ADVISE_TIME_LIMIT_S,
            seed=cloud_seed,
        )
        return ClouDiA(SimulatedCloud(seed=cloud_seed), config)

    def warm_up(self) -> None:
        from repro.core import Objective
        for template, objective in (("mesh-3x3", Objective.LONGEST_LINK),
                                    ("tree-2x2", Objective.LONGEST_PATH)):
            graph = inputs.build_graph(template)
            self._advisor(self.seed, objective).recommend(graph)

    def prepare(self, index: int):
        return [self._advisor(cs, obj) for _a, _g, obj, cs in self.apps]

    def run_round(self, index: int, prepared) -> Round:
        from repro.core.problem import DeploymentProblem
        reports = []
        ops = []
        started = time.perf_counter()
        for (app, graph, _obj, _cs), advisor in zip(self.apps, prepared):
            self.mark(f"{index}.{app}")
            t0 = time.perf_counter()
            reports.append(advisor.recommend(graph))
            ops.append(time.perf_counter() - t0)
        wall = time.perf_counter() - started

        failed = 0
        ratios = []
        for (_app, graph, obj, _cs), report in zip(self.apps, reports):
            problem = DeploymentProblem(graph, report.cost_matrix, obj)
            ok = (plan_ok(report.plan, problem, report.predicted_cost)
                  and plan_ok(report.default_plan, problem,
                              report.default_predicted_cost)
                  # local search must end by its own stall rule
                  and report.search_time_s < inputs.ADVISE_TIME_LIMIT_S / 2)
            failed += not ok
            ratios.append(report.predicted_cost
                          / report.default_predicted_cost)
        return Round(wall, ops, [app for app, *_ in self.apps], ratios,
                     failed, extra={"search_s": sum(r.search_time_s
                                                    for r in reports)})


# ---------------------------------------------------------------------- #


class SolveWorkload(Workload):
    """Pre-generated problems through ``AdvisorSession.solve_many``.

    One operation is one problem's batch: the four solvers in one
    ``solve_many`` call, which compiles the problem once.
    """

    name = "solve"

    def __init__(self, seed: int, tmp: Path, tracer=None):
        super().__init__(seed, tmp, tracer)
        self.problems = [
            inputs.make_problem(template, objective, seed, 200 + salt)
            for salt, (template, objective)
            in enumerate(inputs.SOLVE_PROBLEMS)]
        self.digest = inputs.digest(*[p.costs for p in self.problems],
                                    *[p.graph.edges for p in self.problems])
        self.work = {
            "nodes": [p.graph.num_nodes for p in self.problems],
            "requests": [(key, cfg.get("num_samples"), cap)
                         for _p in self.problems
                         for key, cfg, cap in inputs.SOLVE_SOLVERS],
        }

    def _requests(self, problems, scale: float = 1.0):
        """The round's requests; ``scale`` shrinks every work cap."""
        from repro.api import SolveRequest
        from repro.solvers.base import SearchBudget
        requests = []
        for problem in problems:
            for key, config, cap in inputs.SOLVE_SOLVERS:
                config = {name: (int(value * scale)
                                 if isinstance(value, int) else value)
                          for name, value in config.items()}
                if key != "greedy":
                    config["seed"] = self.seed
                budget = None if cap is None else SearchBudget(
                    max_iterations=int(cap * scale))
                requests.append(SolveRequest(problem, key, config=config,
                                             budget=budget))
        return requests

    def warm_up(self) -> None:
        from repro.api import AdvisorSession
        small = [inputs.make_problem(template, objective, self.seed, 9)
                 for template, objective in (("mesh-3x3", "longest_link"),
                                             ("tree-2x2", "longest_path"))]
        AdvisorSession().solve_many(
            self._requests([p.build() for p in small], scale=0.05))

    def prepare(self, index: int):
        from repro.api import AdvisorSession
        return AdvisorSession(), self._requests(
            [p.build() for p in self.problems])

    def run_round(self, index: int, prepared) -> Round:
        session, requests = prepared
        per_problem = len(inputs.SOLVE_SOLVERS)
        batches = [requests[k:k + per_problem]
                   for k in range(0, len(requests), per_problem)]
        responses = []
        ops = []
        started = time.perf_counter()
        for (template, _obj), batch in zip(inputs.SOLVE_PROBLEMS, batches):
            self.mark(f"{index}.{template}")
            t0 = time.perf_counter()
            responses.extend(session.solve_many(batch))
            ops.append(time.perf_counter() - t0)
        wall = time.perf_counter() - started

        failed = 0
        ratios = []
        moves = move_s = plans = plan_s = 0.0
        for request, response in zip(requests, responses):
            if not response.ok:
                failed += 1
                ratios.append(float("nan"))
                continue
            result = response.result
            problem = request.problem
            # Capped solvers must stop on their cap, never on the clock.
            cap = (request.budget.max_iterations if request.budget
                   else request.config.get("num_samples"))
            ok = (plan_ok(result.plan, problem, result.cost)
                  and (cap is None or result.iterations == cap))
            failed += not ok
            ratios.append(result.cost / default_cost(problem))
            if request.solver in ("local-search", "annealing"):
                moves += result.iterations
                move_s += result.solve_time_s
            elif request.solver == "random":
                plans += result.iterations
                plan_s += result.solve_time_s
        stats = session.stats
        return Round(wall, ops, [t for t, _o in inputs.SOLVE_PROBLEMS],
                     ratios, failed,
                     extra={"moves": moves, "move_s": move_s,
                            "plans": plans, "plan_s": plan_s,
                            "compilations": stats.compilations,
                            "compile_hits": stats.compile_cache_hits})


# ---------------------------------------------------------------------- #


class WatchWorkload(Workload):
    """A seeded revision stream through ``AdvisorSession.watch``."""

    name = "watch"

    def __init__(self, seed: int, tmp: Path, tracer=None):
        super().__init__(seed, tmp, tracer)
        template, objective = inputs.WATCH_TEMPLATE
        self.problem = inputs.make_problem(template, objective, seed, 300)
        self.kinds, self.arrays = inputs.watch_stream(self.problem, seed)
        self.digest = inputs.digest(self.problem.costs, self.kinds,
                                    *self.arrays)
        self.work = {
            "nodes": self.problem.graph.num_nodes,
            "kinds": {k: self.kinds.count(k) for k in "jdr"},
            "move_cap": inputs.WATCH_MOVE_CAP,
        }
        self.expected = {"holds": self.kinds.count("j"),
                         "resolves": self.kinds.count("d") + 1,
                         "store_hits": self.kinds.count("r")}

    def _policy(self):
        from repro.api import WatchPolicy
        from repro.solvers.base import SearchBudget
        return WatchPolicy(
            solver="local-search",
            config={"seed": self.seed, "restarts": 1,
                    "max_moves_without_improvement": inputs.WATCH_MOVE_CAP},
            budget=SearchBudget(max_iterations=inputs.WATCH_MOVE_CAP),
            drift_threshold=inputs.DRIFT_THRESHOLD,
            degradation_threshold=inputs.DEGRADATION_THRESHOLD,
        )

    def _session(self, label: str):
        from repro.api import AdvisorSession
        from repro.store import SQLiteResultCache
        directory = self.tmp / f"watch-{label}"
        directory.mkdir()
        store = SQLiteResultCache(directory / "store.db")
        return AdvisorSession(result_cache=store), store, directory

    def warm_up(self) -> None:
        from repro.core import CostMatrix
        session, store, directory = self._session("warm")
        problem = self.problem.build()
        revisions = [CostMatrix(self.problem.ids, a.copy())
                     for a in self.arrays[:len(inputs.WATCH_BLOCK)]]
        session.watch(problem, revisions, self._policy())
        store.close()
        shutil.rmtree(directory)

    def prepare(self, index: int):
        from repro.core import CostMatrix
        session, store, directory = self._session(str(index))
        revisions = [CostMatrix(self.problem.ids, a.copy())
                     for a in self.arrays]
        return session, store, directory, self.problem.build(), revisions

    def run_round(self, index: int, prepared) -> Round:
        session, store, directory, problem, revisions = prepared
        stamps: List[float] = []

        def stream():
            for number, revision in enumerate(revisions, start=1):
                self.mark(f"{index}.{number}")
                stamps.append(time.perf_counter())
                yield revision
            stamps.append(time.perf_counter())
            self.mark(f"{index}.history")

        policy = self._policy()
        self.mark(f"{index}.initial")
        started = time.perf_counter()
        report = session.watch(problem, stream(), policy)
        wall = time.perf_counter() - started
        store.close()
        shutil.rmtree(directory)

        ops = list(np.diff(stamps))
        events = report.events[1:]
        counts = {
            "holds": sum(e.reason == "held" for e in report.events),
            "resolves": sum(e.resolved and not e.cache_hit
                            for e in report.events),
            "store_hits": sum(e.cache_hit for e in report.events),
        }
        failed = 0
        for kind, event in zip(self.kinds, events):
            expected = {"j": ("held", False), "d": ("drift", False),
                        "r": ("drift", True)}[kind]
            failed += (event.reason, event.cache_hit) != expected
        if counts != self.expected or len(events) != len(self.kinds):
            failed = len(self.kinds)
        final = report.problem
        if not plan_ok(report.plan, final, report.cost):
            failed = min(len(self.kinds), failed + 1)
        names = {"j": "hold", "d": "re-solve", "r": "store-hit"}
        stats = session.stats
        return Round(wall, ops, [names[k] for k in self.kinds],
                     [report.cost / default_cost(final)], failed,
                     extra=dict(counts, compilations=stats.compilations,
                                compile_hits=stats.compile_cache_hits))


# ---------------------------------------------------------------------- #


class ServeWorkload(Workload):
    """``AdvisorApp`` behind ``create_server``, driven over a real socket.

    One keep-alive client runs a closed loop: each request is sent only
    after the previous reply arrived, as callers of the synchronous
    ``/v1/solve`` do.  A round is one cold request (a new perturbed
    problem, solved by a worker) followed by two store hits on a hot set
    that the warm-up has solved.
    """

    name = "serve"

    def __init__(self, seed: int, tmp: Path, tracer=None):
        super().__init__(seed, tmp, tracer)
        template, objective = inputs.SERVE_TEMPLATE
        self.base = inputs.make_problem(template, objective, seed, 400)
        hot = inputs.serve_problems(self.base, seed, inputs.SERVE_HOT, 401)
        cold = inputs.serve_problems(self.base, seed, inputs.SERVE_COLD_POOL,
                                     402)
        self.hot = [self.base.build(a) for a in hot]
        self.cold = [self.base.build(a) for a in cold]
        self.hot_bodies = [self._body(p) for p in self.hot]
        self.cold_bodies = [self._body(p) for p in self.cold]
        self.digest = inputs.digest(*self.hot_bodies, *self.cold_bodies)
        self.work = {
            "nodes": self.base.graph.num_nodes,
            "hot": len(self.hot_bodies),
            "cold_pool": len(self.cold_bodies),
            "round": list(inputs.SERVE_ROUND),
        }
        self.hot_costs: List[float] = []
        self.exchanges: List[tuple] = []
        self.next_cold = 0
        self._start_server()

    @staticmethod
    def _body(problem) -> bytes:
        from repro.api import SolveRequest
        return json.dumps(SolveRequest(problem, "greedy").to_dict()).encode()

    def _start_server(self) -> None:
        from repro.serve import AdvisorApp, ServeConfig, create_server
        from repro.store import SQLiteResultCache
        self.store = SQLiteResultCache(self.tmp / "serve.db")
        self.app = AdvisorApp(self.store, ServeConfig(workers=1))
        self.server = create_server(self.app)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="bench-http", daemon=True)
        self.thread.start()
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.server_address[1], timeout=60)

    def _post(self, body: bytes, op) -> tuple:
        self.mark(op)
        started = time.perf_counter()
        self.conn.request("POST", "/v1/solve", body=body,
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - started

    def warm_up(self) -> None:
        from repro.api import SolverResponse
        for index, body in enumerate(self.hot_bodies):
            status, data, _ = self._post(body, f"warm-{index}")
            payload = json.loads(data)
            if status != 200 or payload.get("source") != "solver":
                raise RuntimeError(f"warm-up request failed: {status} {data[:200]!r}")
            result = SolverResponse.from_dict(payload["response"]).result
            self.hot_costs.append(result.cost)
        for index, body in enumerate(self.hot_bodies):
            self._post(body, f"warm-hit-{index}")
        self.session_stats = self.app.session.stats

    def run_round(self, index: int, prepared) -> Round:
        schedule = []
        hot_index = 2 * index
        for kind in inputs.SERVE_ROUND:
            if kind == "cold":
                schedule.append(("cold", self.next_cold,
                                 self.cold_bodies[self.next_cold]))
                self.next_cold += 1
            else:
                slot = hot_index % len(self.hot_bodies)
                schedule.append(("hit", slot, self.hot_bodies[slot]))
                hot_index += 1
        ops, kinds, ids = [], [], []
        started = time.perf_counter()
        for position, (kind, slot, body) in enumerate(schedule):
            op = f"{index}.{position}"
            status, data, latency = self._post(body, op)
            self.exchanges.append((op, kind, slot, status, data))
            ops.append(latency)
            kinds.append(kind)
            ids.append(op)
        wall = time.perf_counter() - started
        before, self.session_stats = (self.session_stats,
                                      self.app.session.stats)
        return Round(wall, ops, kinds, [], 0, op_ids=ids, extra={
            "compilations": (self.session_stats.compilations
                             - before.compilations),
            "compile_hits": (self.session_stats.compile_cache_hits
                             - before.compile_cache_hits)})

    def finished(self, rounds: List[Round], elapsed: float,
                 seconds: float) -> bool:
        if self.next_cold >= len(self.cold_bodies):
            return True
        colds = sum(r.kinds.count("cold") for r in rounds)
        hits = sum(r.kinds.count("hit") for r in rounds)
        enough = min(colds, hits) >= inputs.SERVE_MIN_SAMPLES
        return (elapsed >= seconds and enough) or elapsed >= 3 * seconds

    def verify(self) -> int:
        """Check every exchange (outside the timed loop); failures."""
        from repro.api import SolverResponse
        failed = 0
        for _op, kind, slot, status, data in self.exchanges:
            if status != 200:
                failed += 1
                continue
            payload = json.loads(data)
            problem = (self.cold if kind == "cold" else self.hot)[slot]
            result = SolverResponse.from_dict(payload["response"]).result
            ok = (payload.get("source") == ("solver" if kind == "cold"
                                             else "store")
                  and plan_ok(result.plan, problem, result.cost))
            if kind == "hit":
                ok = ok and result.cost == self.hot_costs[slot]
            failed += not ok
        return failed

    def cost_ratio(self) -> float:
        return float(np.mean([cost / default_cost(problem) for cost, problem
                              in zip(self.hot_costs, self.hot)]))

    def close(self) -> None:
        self.conn.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)
        self.app.close()


WORKLOADS = {cls.name: cls for cls in
             (AdviseWorkload, SolveWorkload, WatchWorkload, ServeWorkload)}
