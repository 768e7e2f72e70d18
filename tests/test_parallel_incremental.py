"""Property-style coverage for the incremental evaluation paths.

Three contracts are pinned here:

* serial batch evaluation is row-independent and agrees with the oracle on
  constrained instances, so splitting a batch never changes a cost;
* the incremental longest-path delta inside
  :class:`~repro.core.evaluation.DeltaEvaluator` stays exactly consistent
  with a from-scratch priming across long mixed swap/relocate walks, and is
  invalidated by ``cost_epoch`` like every other cost-derived cache;
* :class:`~repro.solvers.base.SearchBudget` round-trips through JSON,
  still loads payloads written before its ``workers`` field was removed,
  a budget carrying only the ``peek_block`` knob keeps each solver's
  default stopping limits, and the removed evaluation-parallelism knobs
  are rejected instead of silently accepted.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AdvisorSession
from repro.api.cache import solver_tag
from repro.core import (
    CommunicationGraph,
    CostMatrix,
    DeploymentProblem,
    Objective,
    PlacementConstraints,
    SolverError,
    compile_problem,
    deployment_cost,
)
from repro.serve import ServeConfig
from repro.solvers import (
    RandomSearch,
    SearchBudget,
    SimulatedAnnealing,
    SwapLocalSearch,
    default_limits,
)


def _random_instance(seed, n_lo=4, n_hi=10, extra=3, dag=False):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi + 1))
    m = n + int(rng.integers(1, extra + 1))
    matrix = rng.uniform(0.1, 2.0, size=(m, m))
    np.fill_diagonal(matrix, 0.0)
    costs = CostMatrix(list(range(m)), matrix)
    if dag:
        graph = CommunicationGraph.random_dag(n, 0.4, seed=seed)
    else:
        graph = CommunicationGraph.random_graph(n, 0.4, seed=seed)
    return graph, costs


# --------------------------------------------------------------------------- #
# Serial batch evaluation: row independence and constrained oracle agreement
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("objective", [Objective.LONGEST_LINK,
                                       Objective.LONGEST_PATH])
@given(seed=st.integers(0, 5000), rows=st.integers(1, 33),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_evaluate_batch_is_row_independent(objective, seed, rows, data):
    graph, costs = _random_instance(seed, dag=objective is Objective.LONGEST_PATH)
    problem = compile_problem(graph, costs)
    assignments = problem.random_assignments(rows, seed)
    whole = problem.evaluate_batch(assignments, objective)
    cuts = sorted(data.draw(st.lists(st.integers(0, rows), max_size=4)))
    pieces = [problem.evaluate_batch(part, objective)
              for part in np.split(assignments, cuts)]
    assert np.array_equal(whole, np.concatenate(pieces))


@given(seed=st.integers(0, 2000))
@settings(max_examples=25, deadline=None)
def test_evaluate_batch_matches_oracle_on_constrained_instances(seed):
    graph, costs = _random_instance(seed, n_lo=5, n_hi=9, extra=4)
    rng = np.random.default_rng(seed)
    nodes = list(graph.nodes)
    pinned = {nodes[0]: int(rng.integers(costs.num_instances))}
    forbidden = {nodes[1]: {int(rng.integers(costs.num_instances))}
                 - set(pinned.values())}
    problem = DeploymentProblem(
        graph, costs,
        constraints=PlacementConstraints(pinned=pinned, forbidden=forbidden))
    view = problem.compiled_constraints()
    engine = problem.compiled()
    assignments = view.random_assignments(23, rng)
    batch = engine.evaluate_batch(assignments, problem.objective)
    for row, cost in zip(assignments, batch):
        plan = engine.plan_from_assignment(row)
        assert problem.constraints.satisfied_by(plan)
        assert cost == deployment_cost(plan, graph, costs, problem.objective)


# --------------------------------------------------------------------------- #
# Incremental longest-path delta: state consistency and epoch invalidation
# --------------------------------------------------------------------------- #

@given(seed=st.integers(0, 3000))
@settings(max_examples=30, deadline=None)
def test_incremental_lp_state_equals_fresh_prime_after_walk(seed):
    """After a long applied walk, internal LP state matches a fresh prime."""
    graph, costs = _random_instance(seed, n_lo=5, n_hi=10, dag=True)
    problem = compile_problem(graph, costs)
    rng = np.random.default_rng(seed)
    assignment = problem.random_assignments(1, rng)[0]
    evaluator = problem.delta_evaluator(assignment, Objective.LONGEST_PATH)
    n = problem.num_nodes
    for _ in range(60):
        free = evaluator.free_instance_indices()
        if rng.random() < 0.4 and free.size:
            evaluator.apply_relocate(int(rng.integers(n)),
                                     int(free[rng.integers(free.size)]))
        elif n >= 2:
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            evaluator.apply_swap(a, b)
    fresh = problem.delta_evaluator(evaluator.indexed_plan().assignment,
                                    Objective.LONGEST_PATH)
    assert evaluator.current_cost == fresh.current_cost
    assert evaluator._lp_finish == fresh._lp_finish
    assert evaluator._lp_argmax == fresh._lp_argmax
    assert evaluator._lp_ec == fresh._lp_ec
    # Peeks from the walked evaluator keep agreeing with the fresh one.
    if n >= 2:
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        assert evaluator.swap_cost(a, b) == fresh.swap_cost(a, b)


def test_incremental_lp_stale_after_cost_refresh():
    graph, costs = _random_instance(21, dag=True)
    problem = DeploymentProblem(graph, costs,
                                objective=Objective.LONGEST_PATH)
    engine = problem.compiled()
    assignment = engine.random_assignments(1, 21)[0]
    evaluator = engine.delta_evaluator(assignment, Objective.LONGEST_PATH)
    _ = evaluator.current_cost

    rng = np.random.default_rng(22)
    matrix = costs.as_array()
    off = ~np.eye(costs.num_instances, dtype=bool)
    matrix[off] *= rng.lognormal(0.0, 0.05, size=matrix.shape)[off]
    engine.refresh_costs(CostMatrix(list(costs.instance_ids), matrix))

    with pytest.raises(SolverError):
        _ = evaluator.current_cost
    with pytest.raises(SolverError):
        evaluator.apply_swap(0, 1)

    evaluator.reprime()
    expected = engine.evaluate(assignment, Objective.LONGEST_PATH)
    assert evaluator.current_cost == expected
    # And the re-primed incremental walk still agrees with full evaluation.
    n = engine.num_nodes
    a, b = 0, n - 1
    candidate = assignment.copy()
    candidate[[a, b]] = candidate[[b, a]]
    assert evaluator.apply_swap(a, b) == \
        engine.evaluate(candidate, Objective.LONGEST_PATH)


# --------------------------------------------------------------------------- #
# Window-local peeked longest-path deltas
# --------------------------------------------------------------------------- #

@given(seed=st.integers(0, 4000),
       objective=st.sampled_from([Objective.LONGEST_LINK,
                                  Objective.LONGEST_PATH]))
@settings(max_examples=40, deadline=None)
def test_peeked_deltas_agree_with_full_eval_and_commits(seed, objective):
    """Peeked move costs == full evaluation == post-commit state, any walk.

    Drives a mostly-rejected proposal loop (the local-search/annealing
    shape the window-local peek optimises): every peek is checked against
    a from-scratch ``evaluate`` of the candidate, and occasional commits
    must leave the evaluator agreeing with a fresh prime.
    """
    graph, costs = _random_instance(
        seed, n_lo=5, n_hi=10, dag=objective is Objective.LONGEST_PATH)
    problem = compile_problem(graph, costs)
    rng = np.random.default_rng(seed)
    assignment = problem.random_assignments(1, rng)[0]
    evaluator = problem.delta_evaluator(assignment, objective)
    n = problem.num_nodes
    for _ in range(30):
        free = evaluator.free_instance_indices()
        if rng.random() < 0.35 and free.size:
            move = ("relocate", int(rng.integers(n)),
                    int(free[rng.integers(free.size)]))
            peek = evaluator.relocate_cost(move[1], move[2])
            candidate = evaluator.indexed_plan().assignment
            candidate[move[1]] = move[2]
        elif n >= 2:
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            move = ("swap", a, b)
            peek = evaluator.swap_cost(a, b)
            candidate = evaluator.indexed_plan().assignment
            candidate[[a, b]] = candidate[[b, a]]
        else:
            continue
        assert peek == problem.evaluate(candidate, objective)
        if rng.random() < 0.3:  # commit the peeked move
            if move[0] == "swap":
                committed = evaluator.apply_swap(move[1], move[2])
            else:
                committed = evaluator.apply_relocate(move[1], move[2])
            assert committed == peek
    fresh = problem.delta_evaluator(evaluator.indexed_plan().assignment,
                                    objective)
    assert evaluator.current_cost == fresh.current_cost
    if objective is Objective.LONGEST_PATH:
        assert evaluator._lp_finish == fresh._lp_finish
        assert evaluator._lp_level_max == fresh._lp_level_max


@given(seed=st.integers(0, 2000))
@settings(max_examples=20, deadline=None)
def test_peeked_lp_deltas_agree_on_constrained_instances(seed):
    graph, costs = _random_instance(seed, n_lo=5, n_hi=9, extra=4, dag=True)
    rng = np.random.default_rng(seed)
    nodes = list(graph.nodes)
    pinned = {nodes[0]: int(rng.integers(costs.num_instances))}
    problem = DeploymentProblem(
        graph, costs, objective=Objective.LONGEST_PATH,
        constraints=PlacementConstraints(pinned=pinned))
    view = problem.compiled_constraints()
    engine = problem.compiled()
    assignment = view.random_assignments(1, rng)[0]
    evaluator = engine.delta_evaluator(assignment, Objective.LONGEST_PATH,
                                       allowed_mask=view.allowed_mask)
    n = engine.num_nodes
    checked = 0
    for _ in range(40):
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        if not evaluator.swap_allowed(a, b):
            continue
        peek = evaluator.swap_cost(a, b)
        candidate = evaluator.indexed_plan().assignment
        candidate[[a, b]] = candidate[[b, a]]
        assert peek == engine.evaluate(candidate, Objective.LONGEST_PATH)
        checked += 1
        if rng.random() < 0.25:
            evaluator.apply_swap(a, b)
    if checked:
        fresh = engine.delta_evaluator(evaluator.indexed_plan().assignment,
                                       Objective.LONGEST_PATH)
        assert evaluator.current_cost == fresh.current_cost


def test_peek_window_state_invalidated_and_rebuilt_after_refresh():
    """The per-level prefix/suffix maxima die with the cost epoch."""
    graph, costs = _random_instance(41, n_lo=8, n_hi=10, dag=True)
    problem = compile_problem(graph, costs)
    rng = np.random.default_rng(41)
    assignment = problem.random_assignments(1, rng)[0]
    evaluator = problem.delta_evaluator(assignment, Objective.LONGEST_PATH)
    n = problem.num_nodes
    # Peeks extend the lazy prefix/suffix maxima over the level range.
    for _ in range(10):
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        evaluator.swap_cost(a, b)
    struct = evaluator._lp_struct
    assert (evaluator._lp_prefix_len > 0
            or evaluator._lp_suffix_start < struct.num_levels)

    matrix = costs.as_array()
    off = ~np.eye(costs.num_instances, dtype=bool)
    matrix[off] *= rng.lognormal(0.0, 0.2, size=matrix.shape)[off]
    problem.refresh_costs(CostMatrix(list(costs.instance_ids), matrix))

    with pytest.raises(SolverError):
        evaluator.swap_cost(0, 1)
    evaluator.reprime()
    # All window state was rebuilt against the new costs: lazy bounds are
    # reset, the level maxima match a fresh prime, and peeks agree with
    # full evaluation again.
    assert evaluator._lp_prefix_len == 0
    assert evaluator._lp_suffix_start == struct.num_levels
    fresh = problem.delta_evaluator(assignment, Objective.LONGEST_PATH)
    assert evaluator._lp_level_max == fresh._lp_level_max
    for _ in range(10):
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        peek = evaluator.swap_cost(a, b)
        candidate = evaluator.indexed_plan().assignment
        candidate[[a, b]] = candidate[[b, a]]
        assert peek == problem.evaluate(candidate, Objective.LONGEST_PATH)


# --------------------------------------------------------------------------- #
# SearchBudget: JSON payloads and knob-only defaulting
# --------------------------------------------------------------------------- #

def test_budget_round_trips_and_ignores_legacy_workers_key():
    budget = SearchBudget(time_limit_s=1.5, max_iterations=10, peek_block=4)
    assert SearchBudget.from_dict(budget.to_dict()) == budget
    assert "workers" not in budget.to_dict()
    # Payloads written by older versions carried an evaluation-parallelism
    # ``workers`` field; it never changed results, so it is simply dropped.
    legacy = dict(budget.to_dict(), workers=2)
    assert SearchBudget.from_dict(legacy) == budget
    assert SearchBudget.from_dict({"time_limit_s": 2.0, "workers": "procs:2"}
                                  ) == SearchBudget(time_limit_s=2.0)


def test_default_limits_keeps_peek_block_and_default_caps():
    default = SearchBudget.seconds(2.0)
    assert default_limits(None, default) is default
    folded = default_limits(SearchBudget(peek_block=3), default)
    assert folded.time_limit_s == 2.0 and folded.peek_block == 3
    explicit = SearchBudget(max_iterations=50, peek_block=2)
    assert default_limits(explicit, default) is explicit
    unlimited = SearchBudget.unlimited()
    assert default_limits(unlimited, default) is unlimited
    assert not unlimited.has_limits()
    assert explicit.has_limits()


def test_annealing_stops_under_a_knob_only_budget():
    # Annealing is purely time-bounded: if a knob-only budget replaced its
    # default time cap instead of adopting it, this solve would never end.
    graph, costs = _random_instance(31, n_lo=6, n_hi=6)
    problem = DeploymentProblem(graph, costs)
    result = SimulatedAnnealing(seed=9).solve(
        problem, budget=SearchBudget(peek_block=4))
    assert result.solve_time_s < 30.0
    assert result.iterations > 0


@pytest.mark.parametrize("legacy_workers",
                         [None, 1, 2, "auto", "procs", "procs:2"])
def test_legacy_workers_payload_loads_and_tags_like_current(legacy_workers):
    # Every value older versions could write for the removed ``workers``
    # field loads to the budget without it, and so keys the same search.
    budget = SearchBudget(time_limit_s=0.5, max_iterations=40,
                          target_cost=1.25, peek_block=8)
    legacy = SearchBudget.from_dict(dict(budget.to_dict(),
                                         workers=legacy_workers))
    assert legacy == budget
    assert solver_tag("random", {"seed": 3}, legacy) == \
        solver_tag("random", {"seed": 3}, budget)


@pytest.mark.parametrize("peek_block", [1, 7, 64])
def test_solvers_seed_identical_with_and_without_peek_block(peek_block):
    graph, costs = _random_instance(31, n_lo=6, n_hi=6)
    problem = DeploymentProblem(graph, costs)
    budget = SearchBudget(max_iterations=400)
    blocked = SearchBudget(max_iterations=400, peek_block=peek_block)
    for solver_factory in (
        lambda: RandomSearch(num_samples=300, seed=9),
        lambda: SwapLocalSearch(restarts=2, seed=9),
        lambda: SimulatedAnnealing(seed=9),
    ):
        plain = solver_factory().solve(problem, budget=budget)
        knobbed = solver_factory().solve(problem, budget=blocked)
        assert plain.cost == knobbed.cost
        assert plain.plan.as_dict() == knobbed.plan.as_dict()
        assert plain.iterations == knobbed.iterations


def test_session_without_peek_block_passes_budgets_through():
    plain = AdvisorSession()
    assert plain._effective_budget(None) is None
    untouched = SearchBudget(time_limit_s=1.0)
    assert plain._effective_budget(untouched) is untouched


@pytest.mark.parametrize("make", [
    pytest.param(lambda: SearchBudget(workers=2), id="budget-workers"),
    pytest.param(lambda: AdvisorSession(eval_workers=2),
                 id="session-eval_workers"),
    pytest.param(lambda: ServeConfig(eval_workers=2),
                 id="serve-eval_workers"),
    pytest.param(lambda: RandomSearch(parallel_factor=2),
                 id="random-parallel_factor"),
    pytest.param(lambda: RandomSearch.r2(parallel_factor=2),
                 id="r2-parallel_factor"),
])
def test_removed_parallelism_knobs_are_rejected(make):
    with pytest.raises(TypeError):
        make()
