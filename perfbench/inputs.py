"""Seeded inputs for the four workloads.

Everything the program under test receives is generated here from the
``--seed`` argument: communication graphs, cost matrices, the watch
revision stream and the serve request bodies.  Each problem gets one
:class:`~repro.cloud.SimulatedCloud` baseline (its ground-truth mean
latency matrix); variation on top of it is drawn with NumPy from
generators seeded by ``(seed, salt)``, so the same seed always yields the
same inputs, and :func:`digest` fingerprints them.

The *amount* of work is fixed by the constants below and never depends on
the seed.  Each workload measures its work signature on the generated
inputs and the benchmark compares it with the seed-independent
:data:`EXPECTED_WORK`, which shows that any two seeds make the program do
the same amount of work.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

# -- advise: the paper's three applications at paper scale ---------------- #
#: ``(name, template, objective)``; each runs through ``ClouDiA.recommend``.
ADVISE_APPS = (
    ("behavioral-simulation", "mesh-10x10", "longest_link"),
    ("aggregation-query", "tree-3x4", "longest_path"),
    ("key-value-store", "bipartite-20+80", "longest_link"),
)
#: Local search stops on its own stall rule, far inside this limit.
ADVISE_TIME_LIMIT_S = 60.0
ADVISE_RESTARTS = 1
ADVISE_STALL = 2000

# -- solve: pre-generated problems through AdvisorSession.solve_many ------- #
SOLVE_PROBLEMS = (("mesh-10x10", "longest_link"), ("tree-3x4", "longest_path"))
RANDOM_PLANS = 2000
MOVE_CAP = 20000
#: ``(solver key, config, max_iterations)`` run on every solve problem.
SOLVE_SOLVERS = (
    ("greedy", {}, None),
    ("random", {"num_samples": RANDOM_PLANS}, None),
    ("local-search", {"restarts": 1,
                      "max_moves_without_improvement": MOVE_CAP}, MOVE_CAP),
    ("annealing", {}, MOVE_CAP),
)

# -- watch: a seeded revision stream replayed through AdvisorSession.watch -- #
WATCH_TEMPLATE = ("mesh-10x10", "longest_link")
#: One block of revision kinds: ``j`` sub-threshold jitter (held), ``d``
#: drift (warm re-solve), ``r`` exact repeat of an earlier drift (store hit).
WATCH_BLOCK = "jdjjdrjdjr"
WATCH_BLOCKS = 10
WATCH_MOVE_CAP = 2000
DRIFT_THRESHOLD = 0.05
DEGRADATION_THRESHOLD = 0.02
JITTER = 0.005

# -- serve: HTTP requests against a warmed store --------------------------- #
SERVE_TEMPLATE = ("mesh-6x6", "longest_link")
SERVE_HOT = 8
SERVE_COLD_POOL = 400
#: Requests of one serve round, in order: one cold, then store hits.
SERVE_ROUND = ("cold", "hit", "hit")
SERVE_MIN_SAMPLES = 100


def build_graph(template: str):
    """The communication graph of a template name."""
    from repro.workloads import (
        AggregationQueryWorkload,
        BehavioralSimulationWorkload,
        KeyValueStoreWorkload,
    )
    if template.startswith("mesh-"):
        rows, cols = (int(x) for x in template[5:].split("x"))
        return BehavioralSimulationWorkload(
            rows=rows, cols=cols).communication_graph()
    if template.startswith("tree-"):
        branching, depth = (int(x) for x in template[5:].split("x"))
        return AggregationQueryWorkload(
            branching=branching, depth=depth).communication_graph()
    if template.startswith("bipartite-"):
        frontends, storage = (int(x) for x in template[10:].split("+"))
        return KeyValueStoreWorkload(
            num_frontends=frontends,
            num_storage=storage).communication_graph()
    raise ValueError(f"unknown template {template!r}")


def cloud_seed(seed: int, salt: int) -> int:
    """Seed of the simulated cloud behind one problem."""
    return (seed * 7919 + salt) % (2 ** 31)


def rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def baseline(graph, seed: int, salt: int) -> Tuple[tuple, np.ndarray]:
    """Instance ids and ground-truth mean costs of one allocation.

    Allocates the paper's 10 % over-allocation on a fresh simulated cloud.
    """
    from repro.cloud import SimulatedCloud
    cloud = SimulatedCloud(seed=cloud_seed(seed, salt))
    count = int(round(1.1 * graph.num_nodes))
    ids = tuple(inst.instance_id for inst in cloud.allocate(count))
    return ids, cloud.true_cost_matrix(ids).as_array().copy()


def scaled(base: np.ndarray, factors: np.ndarray) -> np.ndarray:
    out = base * factors
    np.fill_diagonal(out, 0.0)
    return out


def max_drift(old: np.ndarray, new: np.ndarray) -> float:
    """Largest per-link relative change (the watch loop's drift)."""
    mask = ~np.eye(old.shape[0], dtype=bool)
    return float(np.max(np.abs(new[mask] - old[mask]) / old[mask]))


@dataclass
class Problem:
    """One generated problem: graph, objective and cost data."""

    template: str
    objective: str
    graph: object
    ids: tuple
    costs: np.ndarray

    def build(self, costs: np.ndarray | None = None):
        """A fresh :class:`DeploymentProblem` (fresh objects, no cache)."""
        from repro.core import CostMatrix, DeploymentProblem
        from repro.core.communication_graph import CommunicationGraph
        graph = CommunicationGraph(self.graph.nodes, self.graph.edges)
        data = self.costs if costs is None else costs
        return DeploymentProblem(graph, CostMatrix(self.ids, data.copy()),
                                 objective=self.objective)


def make_problem(template: str, objective: str, seed: int,
                 salt: int) -> Problem:
    """The baseline costs with every link scaled by 0.95-1.05."""
    graph = build_graph(template)
    ids, base = baseline(graph, seed, salt)
    factors = rng(seed, salt).uniform(0.95, 1.05, base.shape)
    return Problem(template, objective, graph, ids, scaled(base, factors))


def watch_stream(problem: Problem, seed: int) -> Tuple[str, List[np.ndarray]]:
    """The revision kinds and cost arrays of one watch replay.

    Jitter scales every link of the current matrix by at most
    ``JITTER``, so neither the drift nor the incumbent's degradation can
    reach their thresholds: the loop must hold.  Drift redraws the
    baseline with 30 % of the links 1.2-1.6x slower: the loop must
    re-solve.  A repeat copies an earlier drift revision that differs
    from the current matrix by at least the drift threshold, so the loop
    re-solves and the store already holds the result.
    """
    gen = rng(seed, 500)
    kinds = WATCH_BLOCK * WATCH_BLOCKS
    base = problem.costs
    current = base
    drifts: List[int] = []
    arrays: List[np.ndarray] = []
    for index, kind in enumerate(kinds):
        if kind == "j":
            new = scaled(current, gen.uniform(1 - JITTER, 1 + JITTER,
                                              base.shape))
            if max_drift(current, new) >= DRIFT_THRESHOLD:
                raise AssertionError("jitter revision reached the drift "
                                     "threshold")
        elif kind == "d":
            slow = gen.random(base.shape) < 0.3
            factors = np.where(slow, gen.uniform(1.2, 1.6, base.shape),
                               gen.uniform(0.97, 1.03, base.shape))
            new = scaled(base, factors)
            drifts.append(index)
        else:
            choices = [k for k in drifts
                       if max_drift(current, arrays[k]) >= DRIFT_THRESHOLD]
            new = arrays[choices[int(gen.integers(len(choices)))]].copy()
        if kind != "j" and max_drift(current, new) < DRIFT_THRESHOLD:
            raise AssertionError(f"revision {index} ({kind}) stays under the "
                                 f"drift threshold")
        arrays.append(new)
        current = new
    return kinds, arrays


def serve_problems(problem: Problem, seed: int, count: int,
                   salt: int) -> List[np.ndarray]:
    """``count`` perturbed cost arrays around one serve baseline."""
    gen = rng(seed, salt)
    return [scaled(problem.costs, gen.uniform(0.9, 1.1, problem.costs.shape))
            for _ in range(count)]


def digest(*parts) -> str:
    """Short SHA-256 fingerprint of arrays, bytes and plain values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


EXPECTED_WORK = {
    "advise": {
        "apps": [(name, obj) for name, _t, obj in ADVISE_APPS],
        "nodes": [100, 121, 100],
        "solver": ("local-search", ADVISE_RESTARTS, ADVISE_STALL),
    },
    "solve": {
        "nodes": [100, 121],
        "requests": [(s, cfg.get("num_samples"), cap)
                     for _p in SOLVE_PROBLEMS for s, cfg, cap in SOLVE_SOLVERS],
    },
    "watch": {
        "nodes": 100,
        "kinds": {"j": 5 * WATCH_BLOCKS, "d": 3 * WATCH_BLOCKS,
                  "r": 2 * WATCH_BLOCKS},
        "move_cap": WATCH_MOVE_CAP,
    },
    "serve": {
        "nodes": 36,
        "hot": SERVE_HOT,
        "cold_pool": SERVE_COLD_POOL,
        "round": list(SERVE_ROUND),
    },
}
