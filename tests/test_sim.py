"""Tests for closed-loop simulation, aggregation, and trace files."""

import functools
import itertools
import json
import re
import uuid
import warnings
from bisect import bisect_right
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from covertmdp import (
    EmptyAdmissibleSet,
    MdpModel,
    MixedConfig,
    NoAdmissibleSequence,
    NominalController,
    ObservationModel,
    Observer,
    PlannerConfig,
    ProhibitedAction,
    RecedingHorizonController,
    RunSummary,
    SizeOverflow,
    admissible_actions,
    aggregate_runs,
    augmented_transition_support,
    bayes_update,
    desk_gridworld,
    example1_model,
    extract_nominal_policy,
    induced_chain,
    gridworld_model,
    nominal_value_iteration,
    plan,
    point_belief,
    run_closed_loop,
    simulate_runs,
    uniform_belief,
    write_trace_csv,
)
from covertmdp import belief, sim
from covertmdp.sim import (
    AugmentedValueController,
    _sample,
    model_fingerprint,
    rng_for_run,
    step,
    trace_metadata,
    write_belief_csv,
    write_summary_file,
    write_trace_metadata,
)
from covertmdp.augmented import (
    AugmentedValueFunction,
    action_values,
    build_simplex_grid,
    greedy_action,
    save_value_file,
    solve_augmented_vi,
)
from covertmdp.mdp import save_model_file

from _oracles import (
    closed_loop_by_definition,
    lattice_lookahead_by_definition,
    lattice_sweep_by_definition,
    pruned_prefixes_by_definition,
    random_sane_model,
    random_sparse_model,
    sequence_terms_by_path_enumeration,
)


def nominal_setup(model):
    result = nominal_value_iteration(model)
    policy = extract_nominal_policy(model, result.values)
    return induced_chain(model, policy), result.values, policy


def smoothed_example1():
    model, obs = example1_model()
    q = 0.7 * obs.likelihood + 0.3 / obs.num_observations
    return model, ObservationModel(obs.num_observations, q)


class ScriptedController:
    """Plays a fixed action schedule; handy for forcing failures."""

    def __init__(self, schedule):
        self.schedule = list(schedule)
        self.t = 0
        self.controller_id = "scripted"

    def decide(self, x, o):
        u = self.schedule[self.t]
        self.t += 1
        return u


def test_rng_for_run_is_reproducible_and_run_specific():
    a = rng_for_run(17, 3).random(8)
    b = rng_for_run(17, 3).random(8)
    c = rng_for_run(17, 4).random(8)
    d = rng_for_run(18, 3).random(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_for_run_refuses_a_negative_seed_base():
    with pytest.raises(ValueError, match=r"^seed_base must be non-negative, got -1$"):
        rng_for_run(-1, 0)


def test_step_sampling_statistics():
    model, obs = smoothed_example1()
    pa, _, _ = nominal_setup(model)
    observer = Observer(model, obs, pa)
    o = uniform_belief(3)
    rng = np.random.default_rng(5)
    draws = 20_000
    state_counts = np.zeros(3)
    obs_counts = np.zeros(obs.num_observations)
    for _ in range(draws):
        x_next, y, _ = step(observer, 0, o, 1, rng)
        state_counts[x_next] += 1
        obs_counts[y] += 1
    state_freq = state_counts / draws
    expected_states = model.transition[:, 0, 1]
    sigma = np.sqrt(expected_states * (1 - expected_states) / draws)
    assert np.all(np.abs(state_freq - expected_states) < 5 * sigma + 1e-9)
    expected_obs = obs.likelihood @ expected_states
    sigma_y = np.sqrt(expected_obs * (1 - expected_obs) / draws)
    assert np.all(np.abs(obs_counts / draws - expected_obs) < 5 * sigma_y + 1e-9)


def _cdf_cases():
    grid_model, grid_obs = gridworld_model(desk_gridworld())
    transition, reward, likelihood = random_sane_model(np.random.default_rng(4), 5, 3, 4)
    return [
        example1_model(),
        (grid_model, grid_obs),
        (MdpModel(5, 3, transition, reward, 0.9), ObservationModel(4, likelihood)),
    ]


@pytest.mark.parametrize("case", range(3), ids=["example1", "gridworld", "random"])
def test_cumulative_tables_equal_each_columns_cumsum(case):
    model, obs = _cdf_cases()[case]
    observer = Observer(model, obs, np.eye(model.num_states))
    for x in range(model.num_states):
        for u in range(model.num_actions):
            edges = observer.successor_cdf[x][u]
            assert type(edges) is list and type(edges[-1]) is float
            assert edges == np.cumsum(model.transition[:, x, u]).tolist()
        edges = observer.reading_cdf[x]
        assert type(edges) is list and type(edges[-1]) is float
        assert edges == np.cumsum(obs.likelihood[:, x]).tolist()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    m=st.integers(1, 3),
    k=st.integers(1, 4),
    sparse=st.booleans(),
)
def test_draws_from_the_cdf_lists_equal_bisect_on_each_columns_cumsum(
    seed, n, m, k, sparse
):
    # the step's draws, against bisect on the column's own cumsum fed the
    # same stream of uniforms
    rng = np.random.default_rng(seed)
    if sparse:
        transition, _, likelihood, _ = random_sparse_model(rng, n, m, k)
    else:
        transition, _, likelihood = random_sane_model(rng, n, m, k)
    model = MdpModel(n, m, transition, np.zeros((n, m)), 0.9)
    observer = Observer(model, ObservationModel(k, likelihood), np.eye(n))
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for x, u in itertools.product(range(n), range(m)):
        for _ in range(20):
            edges = np.cumsum(transition[:, x, u])
            expected = min(bisect_right(edges, theirs.random() * edges[-1]), n - 1)
            x_next = _sample(ours, observer.successor_cdf[x][u])
            assert x_next == expected
            edges = np.cumsum(likelihood[:, x_next])
            expected = min(bisect_right(edges, theirs.random() * edges[-1]), k - 1)
            assert _sample(ours, observer.reading_cdf[x_next]) == expected


class _Uniforms:
    """Stands in for a generator whose uniform draws are given."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


def test_sample_picks_the_index_searchsorted_picks():
    rng = np.random.default_rng(11)
    model, obs = gridworld_model(desk_gridworld())
    columns = [np.array([0.25, 0.0, 0.25, 0.5]), np.array([0.0, 1.0, 0.0])]
    columns += [model.transition[:, x, u] for x in range(5) for u in range(5)]
    columns += [obs.likelihood[:, x] for x in range(5)]
    columns += [rng.dirichlet(np.ones(7)) for _ in range(5)]
    on_edge = 0
    for probs in columns:
        edges = np.cumsum(probs)
        # uniforms aimed at every edge (most land on it exactly, counted
        # below), 0 and the largest below 1, then random ones: about 10k
        # values over all columns
        draws = [e / edges[-1] for e in edges[:-1]] + [0.0, 1.0 - 2.0**-53]
        draws += rng.random(10_000 // len(columns) - len(draws)).tolist()
        uniforms = _Uniforms(draws)
        picked = [_sample(uniforms, edges.tolist()) for _ in draws]
        values = np.array(draws) * edges[-1]
        expected = np.minimum(
            np.searchsorted(edges, values, side="right"), probs.size - 1
        )
        np.testing.assert_array_equal(picked, expected)
        on_edge += int(np.isin(values, edges).sum())
    assert on_edge > 50


def _counting(name, fn, counts, check=None):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        if check is not None:
            check(args)
        return fn(*args, **kwargs)

    return wrapper


def test_traced_entry_points_are_called_once_per_step(monkeypatch):
    # The benchmark's tracer times each layer by replacing these sim
    # attributes, which the closed loop must look up at call time; one it
    # stopped calling would read zero without failing anything else.
    model, obs = example1_model()
    pa, values, _ = nominal_setup(model)
    o0 = uniform_belief(3)
    config = PlannerConfig(3, 0.5, 0.5, 0.0)
    value = solve_augmented_vi(model, obs, pa, 0.5, 0.5, resolution=3, tol=1e-4).value

    def plan_args(args):
        # what the tracer reads of each planner call
        assert args[0] is model
        assert args[5].shape == (3,)
        assert isinstance(args[6], PlannerConfig)

    names = ("plan", "step", "admissible_actions", "bayes_update", "greedy_action")
    steps = 25
    for controller, decider in [
        (RecedingHorizonController(model, obs, pa, values, config), "plan"),
        (AugmentedValueController(model, obs, pa, value), "greedy_action"),
    ]:
        counts = dict.fromkeys(names, 0)
        with monkeypatch.context() as patch:
            for name in names:
                check = plan_args if name == "plan" else None
                patch.setattr(sim, name, _counting(name, getattr(sim, name), counts, check))
            run_closed_loop(model, obs, pa, controller, o0, steps, 3, 0)
        expected = {name: steps for name in names}
        expected["greedy_action" if decider == "plan" else "plan"] = 0
        assert counts == expected


def test_observer_tables_are_built_once_per_controller_and_episode(monkeypatch):
    # Each controller builds its observer once and each episode one for the
    # simulator step; a decision or a step builds no model table. The
    # lattice kernel is built on the grid-value controller's first decision,
    # and no later lattice decision builds an observer or a kernel.
    model, obs = example1_model()
    pa, values, policy = nominal_setup(model)
    value = solve_augmented_vi(model, obs, pa, 0.5, 0.5, resolution=3, tol=1e-4).value
    # the observer builds its emission support in __post_init__, and only there
    counts = {"tables": 0, "kernels": 0}
    monkeypatch.setattr(
        belief.Observer, "__post_init__",
        _counting("tables", belief.Observer.__post_init__, counts),
    )
    kernel = functools.cached_property(
        _counting("kernels", belief.Observer.kernel.func, counts)
    )
    kernel.__set_name__(belief.Observer, "kernel")
    monkeypatch.setattr(belief.Observer, "kernel", kernel)
    receding = RecedingHorizonController(
        model, obs, pa, values, PlannerConfig(3, 0.5, 0.5, 0.0)
    )
    grid_value = AugmentedValueController(model, obs, pa, value)
    assert counts == {"tables": 2, "kernels": 0}
    for controller in (NominalController(policy), receding, grid_value):
        for episode in range(2):
            counts["tables"] = counts["kernels"] = 0
            run_closed_loop(model, obs, pa, controller, uniform_belief(3), 25, 3, 0)
            first_lattice = controller is grid_value and episode == 0
            assert counts == {"tables": 1, "kernels": int(first_lattice)}
    counts["tables"] = counts["kernels"] = 0
    for x in range(3):
        grid_value.decide(x, uniform_belief(3))
    assert counts == {"tables": 0, "kernels": 0}
    # the planner never reads the lattice kernel, so it is never built, and
    # neither controller builds the simulator step's running sums
    assert "kernel" not in vars(receding.memo.observer)
    assert "kernel" in vars(grid_value.observer)
    for observer in (receding.memo.observer, grid_value.observer):
        assert "successor_cdf" not in vars(observer)
        assert "reading_cdf" not in vars(observer)


def test_step_rejects_prohibited_action():
    transition = np.zeros((2, 2, 2))
    transition[0, 0, 0] = 1.0
    transition[1, 1, 0] = 1.0
    transition[1, 0, 1] = 1.0
    transition[1, 1, 1] = 1.0
    model = MdpModel(2, 2, transition, np.zeros((2, 2)), 0.9)
    observer = Observer(model, ObservationModel(2, np.eye(2)), np.eye(2))
    rng = np.random.default_rng(0)
    with pytest.raises(ProhibitedAction) as err:
        step(observer, 0, point_belief(2, 0), 1, rng)
    assert "u=1" in str(err.value) and "x=0" in str(err.value)


def _state_entry_points():
    """Each entry point that takes the agent's state, as a call on it."""
    model, obs = example1_model()
    pa, values, policy = nominal_setup(model)
    observer = Observer(model, obs, pa)
    grid = build_simplex_grid(3, 2)
    value = AugmentedValueFunction(grid, np.zeros((3, grid.num_points)), 1.0, 1.0)
    o = uniform_belief(3)
    return {
        "admissible_actions": lambda x: admissible_actions(observer, x, o),
        "augmented_transition_support":
            lambda x: augmented_transition_support(observer, x, o, 0),
        "action_values": lambda x: action_values(observer, value, x, o),
        "greedy_action": lambda x: greedy_action(observer, value, x, o),
        "plan": lambda x: plan(model, obs, pa, values, x, o, PlannerConfig(2)),
        "run_closed_loop": lambda x: run_closed_loop(
            model, obs, pa, NominalController(policy), o, 3, 0, 0, x0=x
        ),
    }


@pytest.mark.parametrize("x", [-1, 3])
@pytest.mark.parametrize("entry", sorted(_state_entry_points()))
def test_entry_points_reject_out_of_range_states(entry, x):
    # a negative state would otherwise index from the end and answer for
    # another state
    with pytest.raises(ValueError, match=rf"state x={x} outside \[0, 3\)"):
        _state_entry_points()[entry](x)


def _index_entry_points():
    """Each entry point that takes a state, action or reading index: the
    index's name, its range and a call on it. In range, each answers as it
    does for the Python int of the same value."""
    model, obs = example1_model()
    pa, _, _ = nominal_setup(model)
    observer = Observer(model, obs, pa)
    o = uniform_belief(3)
    return {
        "Observer.check": ("state x", 3, lambda v: observer.check(v, o)),
        "point_belief": ("state x", 3, lambda v: point_belief(3, v)),
        "bayes_update": (
            "observation y", obs.num_observations, lambda v: bayes_update(observer, o, v)
        ),
        "augmented_transition_support": (
            "action u", 2, lambda v: augmented_transition_support(observer, 0, o, v)
        ),
        "step": (
            "action u", 2, lambda v: step(observer, 0, o, v, np.random.default_rng(0))
        ),
    }


@pytest.mark.parametrize("bad", [True, False, 1.0, np.float64(0.0), "size", -1])
@pytest.mark.parametrize("entry", sorted(_index_entry_points()))
def test_entry_points_refuse_an_index_that_is_not_an_integer_in_range(entry, bad):
    # Unchecked, step played action 1 for True, bayes_update failed inside
    # numpy, point_belief with a belief-mass error, and the rest indexed
    # their tables with the bool or failed there.
    name, size, call = _index_entry_points()[entry]
    if bad == "size":
        bad = size
    if type(bad) is int:
        message = f"{name}={bad} outside [0, {size})"
    else:
        message = f"{name} must be an integer, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(bad)
    # a numpy integer is an index
    expected = repr(call(1))
    assert repr(call(np.int64(1))) == expected


def _count_entry_points():
    """Each library argument that takes a count or a seed: its name, its
    least value, a value it accepts and a call on it whose result is
    compared by ``repr``."""
    model, obs = example1_model()
    pa, _, policy = nominal_setup(model)
    nominal = NominalController(policy)
    o = uniform_belief(3)

    def closed_loop(num_steps=3, seed_base=0, run_index=0):
        return run_closed_loop(model, obs, pa, nominal, o, num_steps, seed_base, run_index)

    def runs(num_runs=2, jobs=1):
        return simulate_runs(model, obs, pa, nominal, o, 3, 0, num_runs, jobs=jobs)

    def lattice(resolution=2, max_iter=3):
        return solve_augmented_vi(model, obs, pa, 1.0, 0.5, resolution, 1e-6, max_iter)

    return {
        "MdpModel.num_states": (1, 3, lambda v: replace(model, num_states=v)),
        "MdpModel.num_actions": (1, 2, lambda v: replace(model, num_actions=v)),
        "ObservationModel.num_observations": (
            1, 3, lambda v: replace(obs, num_observations=v)
        ),
        "GridWorldSpec.width": (1, 7, lambda v: replace(desk_gridworld(), width=v)),
        "GridWorldSpec.height": (1, 7, lambda v: replace(desk_gridworld(), height=v)),
        "PlannerConfig.horizon": (1, 2, lambda v: PlannerConfig(v)),
        "rng_for_run.seed_base": (0, 5, lambda v: rng_for_run(v, 1).random(3)),
        "rng_for_run.run_index": (0, 5, lambda v: rng_for_run(1, v).random(3)),
        "run_closed_loop.num_steps": (1, 3, lambda v: closed_loop(num_steps=v)),
        "run_closed_loop.seed_base": (0, 5, lambda v: closed_loop(seed_base=v)),
        "run_closed_loop.run_index": (0, 5, lambda v: closed_loop(run_index=v)),
        "simulate_runs.num_runs": (1, 2, lambda v: runs(num_runs=v)),
        "simulate_runs.jobs": (1, 1, lambda v: runs(jobs=v)),
        "build_simplex_grid.num_states": (1, 3, lambda v: build_simplex_grid(v, 2)),
        "build_simplex_grid.resolution": (1, 2, lambda v: build_simplex_grid(3, v)),
        "solve_augmented_vi.resolution": (1, 2, lambda v: lattice(resolution=v)),
        "solve_augmented_vi.max_iter": (1, 3, lambda v: lattice(max_iter=v)),
        "nominal_value_iteration.max_iter": (
            1, 3, lambda v: nominal_value_iteration(model, max_iter=v)
        ),
    }


@pytest.mark.parametrize("bad", [True, 1.0, np.float64(2.0), "low"])
@pytest.mark.parametrize("entry", sorted(_count_entry_points()))
def test_entry_points_refuse_a_count_that_is_not_an_integer_in_range(entry, bad):
    # Unchecked, each took the bool or the float: a sensor file that its
    # loader refuses, a lattice of resolution True, a trace whose metadata
    # reads "seed_base": true, or a solve of no sweeps
    low, valid, call = _count_entry_points()[entry]
    name = entry.split(".")[1]
    if bad == "low":
        bad = low - 1
        bound = {0: "non-negative", 1: "positive"}[low]
        message = f"{name} must be {bound}, got {bad}"
    else:
        message = f"{name} must be an integer, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(bad)
    # a numpy integer is the count, kept as the Python int
    assert repr(call(np.int64(valid))) == repr(call(valid))


def test_same_seed_reproduces_the_whole_trace():
    model, obs = smoothed_example1()
    pa, values, _ = nominal_setup(model)
    ctrl = RecedingHorizonController(
        model, obs, pa, values, PlannerConfig(2, 0.5, 0.5, 0.0)
    )
    kwargs = dict(o0=uniform_belief(3), num_steps=50, seed_base=9, run_index=2)
    first = run_closed_loop(model, obs, pa, ctrl, **kwargs)
    second = run_closed_loop(model, obs, pa, ctrl, **kwargs)
    np.testing.assert_array_equal(first.states, second.states)
    np.testing.assert_array_equal(first.actions, second.actions)
    np.testing.assert_array_equal(first.observations, second.observations)
    np.testing.assert_array_equal(first.beliefs, second.beliefs)
    assert first.final_state == second.final_state


def test_distinct_run_indices_give_distinct_runs():
    model, obs = smoothed_example1()
    pa, _, policy = nominal_setup(model)
    ctrl = NominalController(policy)
    a = run_closed_loop(model, obs, pa, ctrl, uniform_belief(3), 200, 0, 0)
    b = run_closed_loop(model, obs, pa, ctrl, uniform_belief(3), 200, 0, 1)
    assert not (
        np.array_equal(a.states, b.states)
        and np.array_equal(a.observations, b.observations)
    )


def test_trace_metrics_recompute_from_raw_columns():
    model, obs = smoothed_example1()
    pa, _, policy = nominal_setup(model)
    trace = run_closed_loop(
        model, obs, pa, NominalController(policy), uniform_belief(3), 100, 4, 0
    )
    for t in range(trace.num_steps):
        assert trace.rewards[t] == model.reward[trace.states[t], trace.actions[t]]
        assert trace.penalties[t] == trace.beliefs[t][trace.states[t]]
        running_r = trace.rewards[: t + 1].mean()
        running_p = trace.penalties[: t + 1].mean()
        assert abs(trace.mean_rewards[t] - running_r) < 1e-12
        assert abs(trace.mean_penalties[t] - running_p) < 1e-12
    assert trace.reward_rate == trace.mean_rewards[-1]
    assert trace.exposure_rate == trace.mean_penalties[-1]


def test_trace_beliefs_follow_the_observer_filter():
    model, obs = smoothed_example1()
    pa, _, policy = nominal_setup(model)
    o0 = uniform_belief(3)
    trace = run_closed_loop(
        model, obs, pa, NominalController(policy), o0, 60, 11, 0
    )
    assert trace.observations[0] == -1
    np.testing.assert_array_equal(trace.beliefs[0], o0)
    observer = Observer(model, obs, pa)
    for t in range(1, trace.num_steps):
        expected = bayes_update(
            observer, trace.beliefs[t - 1], int(trace.observations[t])
        )
        np.testing.assert_allclose(trace.beliefs[t], expected, atol=1e-15)


def test_single_step_run():
    model, obs = smoothed_example1()
    pa, _, policy = nominal_setup(model)
    trace = run_closed_loop(
        model, obs, pa, NominalController(policy), uniform_belief(3), 1, 0, 0
    )
    assert trace.num_steps == 1
    assert trace.actions[0] == policy.actions[trace.states[0]]
    assert trace.reward_rate == trace.rewards[0]


def test_zero_steps_rejected():
    model, obs = smoothed_example1()
    pa, _, policy = nominal_setup(model)
    with pytest.raises(ValueError):
        run_closed_loop(
            model, obs, pa, NominalController(policy), uniform_belief(3), 0, 0, 0
        )


def test_initial_state_drawn_from_prior():
    model, obs = smoothed_example1()
    pa, _, policy = nominal_setup(model)
    o0 = np.array([0.7, 0.2, 0.1])
    runs = 1500
    counts = np.zeros(3)
    for i in range(runs):
        trace = run_closed_loop(
            model, obs, pa, NominalController(policy), o0, 1, 100, i
        )
        counts[trace.states[0]] += 1
    freq = counts / runs
    sigma = np.sqrt(o0 * (1 - o0) / runs)
    assert np.all(np.abs(freq - o0) < 5 * sigma)


def test_fixed_start_with_zero_prior_mass_warns():
    model = MdpModel(2, 1, np.eye(2)[:, :, None], np.zeros((2, 1)), 0.9)
    obs = ObservationModel(2, np.full((2, 2), 0.5))
    pa = np.eye(2)
    ctrl = ScriptedController([0, 0, 0])
    with pytest.warns(RuntimeWarning, match="zero mass"):
        run_closed_loop(
            model, obs, pa, ctrl, point_belief(2, 1), 3, 0, 0, x0=0
        )


def test_closed_loop_checks_the_start_belief_before_drawing_from_it():
    # A start drawn from a 4-entry belief lands on the fourth entry, which
    # must be reported as the belief's shape, not as a state out of range.
    model, obs = example1_model()
    pa, _, policy = nominal_setup(model)
    ctrl = NominalController(policy)
    with pytest.raises(ValueError, match=r"belief shape \(4,\) does not match 3 states"):
        run_closed_loop(model, obs, pa, ctrl, [0.0, 0.0, 0.0, 1.0], 5, 0, 0)


@pytest.mark.parametrize("o0", [[0.5, 0.5, 0.5], [1.5, -0.5, 0.0]],
                         ids=["mass_1.5", "negative"])
def test_closed_loop_refuses_a_start_belief_that_is_not_a_distribution(o0):
    # Either would run to completion and record exposures that are not
    # probabilities.
    model, obs = example1_model()
    pa, _, policy = nominal_setup(model)
    for x0 in (None, 0):
        with pytest.raises(ValueError, match="not a distribution"):
            run_closed_loop(model, obs, pa, NominalController(policy), o0, 5, 0, 0, x0=x0)


def test_closed_loop_refuses_a_start_state_that_is_not_an_integer():
    # 1.5 would run from state 1
    model, obs = example1_model()
    pa, _, policy = nominal_setup(model)
    o0 = uniform_belief(3)
    with pytest.raises(ValueError, match=r"^state x must be an integer, got 1\.5$"):
        run_closed_loop(model, obs, pa, NominalController(policy), o0, 3, 0, 0, x0=1.5)
    trace = run_closed_loop(model, obs, pa, NominalController(policy), o0, 3, 0, 0,
                            x0=np.int64(1))
    assert trace.states[0] == 1


def test_transition_failure_reports_step_index():
    # Stay twice, then jump into a state the static observer rules out.
    transition = np.zeros((2, 2, 2))
    transition[0, 0, 0] = 1.0
    transition[1, 1, 0] = 1.0
    transition[1, 0, 1] = 1.0
    transition[1, 1, 1] = 1.0
    model = MdpModel(2, 2, transition, np.zeros((2, 2)), 0.9)
    obs = ObservationModel(2, np.eye(2))
    pa = np.eye(2)
    ctrl = ScriptedController([0, 0, 1, 0])
    with pytest.raises(ProhibitedAction) as err:
        run_closed_loop(model, obs, pa, ctrl, point_belief(2, 0), 4, 0, 0, x0=0)
    assert "transition failed at step t=2" in str(err.value)


def test_controller_failure_reports_step_index():
    # The only action jumps, which the static observer can never explain,
    # so the planner finds no admissible sequence on its very first call.
    transition = np.zeros((2, 2, 1))
    transition[1, 0, 0] = 1.0
    transition[1, 1, 0] = 1.0
    model = MdpModel(2, 1, transition, np.zeros((2, 1)), 0.9)
    obs = ObservationModel(2, np.eye(2))
    pa = np.eye(2)
    ctrl = RecedingHorizonController(
        model, obs, pa, np.zeros(2), PlannerConfig(2, 1.0, 0.0, 0.0)
    )
    with pytest.raises(NoAdmissibleSequence) as err:
        run_closed_loop(model, obs, pa, ctrl, point_belief(2, 0), 3, 0, 0, x0=0)
    assert "controller failed at step t=0" in str(err.value)


def test_a_failing_step_reaches_the_caller_with_its_attributes():
    # The loop used to rebuild the error from its message, which dropped
    # NoAdmissibleSequence.pruned.
    model, obs = example1_model()
    pa, _, _ = nominal_setup(model)

    class Pruning(ScriptedController):
        def decide(self, x, o):
            if self.t == 1:
                raise NoAdmissibleSequence("x", ((0,),))
            return super().decide(x, o)

    with pytest.raises(NoAdmissibleSequence) as err:
        run_closed_loop(model, obs, pa, Pruning([0, 0]), uniform_belief(3), 3, 0, 0)
    assert str(err.value) == "controller failed at step t=1: x"
    assert err.value.pruned == ((0,),)


class CopyTaggingController(NominalController):
    """The nominal policy; every unpickled copy names itself afresh in its
    ``controller_id``, so a trace shows which copy played it."""

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.controller_id = f"copy-{uuid.uuid4().hex}"


@pytest.mark.parametrize("jobs", [2, 3])
def test_parallel_runs_keep_one_controller_copy_per_worker(jobs):
    # One run per task unpickled a fresh controller, and an empty planner
    # memo, for every run: five copies for five runs.
    model, obs = example1_model()
    pa, _, policy = nominal_setup(model)
    traces = simulate_runs(
        model, obs, pa, CopyTaggingController(policy), uniform_belief(3), 5, 0, 5,
        jobs=jobs,
    )
    tags = [trace.controller_id for trace in traces]
    assert all(tag.startswith("copy-") for tag in tags)  # played by workers
    assert len(set(tags)) <= jobs
    # each copy played one contiguous chunk of the batch
    assert [tag for tag, _ in itertools.groupby(tags)] == list(dict.fromkeys(tags))
    serial = simulate_runs(model, obs, pa, NominalController(policy),
                           uniform_belief(3), 5, 0, 5)
    for trace, reference in zip(traces, serial):
        assert repr(replace(trace, controller_id="nominal")) == repr(reference)


def check_episode_by_definition(model, obs, chain, controller, scores, o0, steps, seed):
    """``run_closed_loop`` against :func:`closed_loop_by_definition` from
    the same seeds, up to the oracle's first near tie; returns the trace of the steps compared (None when there are none).
    A lattice controller's action values at every recorded step must also
    match the oracle's."""
    rated = []

    def rate(x, o):
        rated.append(scores(x, o))
        return rated[-1]

    states, actions, observations, beliefs, stop = closed_loop_by_definition(
        model.transition, obs.likelihood, chain, rate, o0, steps, seed, 0
    )
    event(f"{controller.controller_id.split('(')[0]}: "
          f"{'whole episode' if stop is None else stop[0]}")
    if stop is not None and stop[0] != "near tie":
        reason, t = stop
        error = {
            "controller": (EmptyAdmissibleSet, NoAdmissibleSequence),
            "transition": ProhibitedAction,
        }
        with pytest.raises(error[reason], match=f"{reason} failed at step t={t}:"):
            run_closed_loop(model, obs, chain, controller, o0, steps, seed, 0)
    if not states:
        return None
    trace = run_closed_loop(model, obs, chain, controller, o0, len(states), seed, 0)
    np.testing.assert_array_equal(trace.states, states)
    np.testing.assert_array_equal(trace.actions, actions)
    np.testing.assert_array_equal(trace.observations, observations)
    np.testing.assert_allclose(trace.beliefs, beliefs, rtol=0.0, atol=1e-12)
    if isinstance(controller, AugmentedValueController):
        for x, o, expected in zip(trace.states, trace.beliefs, rated):
            got = action_values(controller.observer, controller.value, x, o)
            np.testing.assert_array_equal(np.isneginf(got), np.isneginf(expected))
            finite = np.isfinite(expected)
            np.testing.assert_allclose(got[finite], expected[finite], rtol=0.0, atol=1e-9)
    return trace


def planner_table(controller, x, o):
    """The objective of every sequence that ``controller`` (a
    :class:`RecedingHorizonController`) scores at ``(x, o)``, by ``plan``
    through its memo, at the horizon it plays from; empty when none."""
    observer, config = controller.memo.observer, controller.config
    for horizon in range(config.horizon, 0, -1):
        try:
            result = plan(
                observer.model, observer.obs, observer.pa, controller.memo.values, x, o,
                replace(config, horizon=horizon), memo=controller.memo,
            )
        except NoAdmissibleSequence:
            continue
        return {seq.actions: seq.objective for seq in result.sequences}
    return {}


def planner_scores_by_definition(model, obs, chain, values, config):
    """The receding-horizon controller's scores by definition. At the first
    horizon N, N-1, ..., 1 where some sequence starts with no pruned prefix
    (by :func:`pruned_prefixes_by_definition`), every such sequence is
    scored by path enumeration, and each action scores the best objective
    of the sequences it starts (-inf where it starts none, and everywhere
    when no horizon has a sequence). Each call's table of sequence
    objectives is appended to ``scores.tables``."""
    weight = config.exposure_weight + config.tail_exposure_weight

    def scores(x, o):
        table = {}
        for horizon in range(config.horizon, 0, -1):
            pruned = pruned_prefixes_by_definition(
                model.transition, obs.likelihood, chain, x, o, horizon
            )
            posteriors = {}
            for seq in itertools.product(range(model.num_actions), repeat=horizon):
                if any(seq[:i] in pruned for i in range(1, horizon + 1)):
                    continue
                reward, tail, exposure = sequence_terms_by_path_enumeration(
                    model.transition, model.reward, model.discount, obs.likelihood,
                    chain, values, x, o, seq, posteriors,
                )
                table[seq] = config.reward_weight * (reward + tail) - weight * exposure
            if table:
                break
        scores.tables.append(table)
        best = np.full(model.num_actions, -np.inf)
        for seq, objective in table.items():
            best[seq[0]] = max(best[seq[0]], objective)
        return best

    scores.tables = []
    return scores


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    m=st.integers(2, 3),  # a choice, and readings that can rule a state out
    k=st.integers(2, 3),
    res=st.integers(1, 3),
    steps=st.integers(20, 40),
    sensor=st.sampled_from(["sane", "sparse", "tiny"]),
    horizon=st.integers(1, 3),
)
def test_closed_loop_follows_its_definition(seed, n, m, k, res, steps, sensor, horizon):
    # A sane model's observer rules nothing out, so the lattice lookahead
    # builds no masks; a sparse one's exact zeros make every mask count. A
    # tiny one turns some of those zeros into likelihoods in (0, 4e-12],
    # positive however small, which a zero threshold would rule out.
    rng = np.random.default_rng(seed)
    if sensor == "sane":
        transition, reward, likelihood = random_sane_model(rng, n, m, k)
    else:
        transition, reward, likelihood, surprised = random_sparse_model(rng, n, m, k)
    if sensor == "tiny":
        tiny = (likelihood == 0.0) & (rng.random(likelihood.shape) < 0.5)
        entries = 4e-12 * (1.0 - rng.random(likelihood.shape))  # in (0, 4e-12]
        likelihood = np.where(tiny, entries, likelihood)
        likelihood /= likelihood.sum(axis=0)
    model = MdpModel(n, m, transition, reward, 0.9)
    obs = ObservationModel(k, likelihood)
    pa, nominal_values, policy = nominal_setup(model)
    # a prior with exact zeros, so that the observer rules readings out
    o0 = rng.uniform(0.1, 1.0, size=n) * (rng.random(n) < 0.5)
    o0[int(rng.integers(n))] = rng.uniform(0.1, 1.0)
    o0 /= o0.sum()

    def plays_the_policy(x, o):
        return np.where(np.arange(m) == policy.actions[x], 0.0, -np.inf)

    # the policy can surprise only an observer that expects another chain
    nominal_chain = pa if sensor == "sane" else surprised
    check_episode_by_definition(model, obs, nominal_chain, NominalController(policy),
                                plays_the_policy, o0, steps, seed)

    # rho against the nominal chain, its sequences enumerated path by path;
    # at each step the planner must score the same sequences alike. Up to 27
    # sequences of 1,728 paths each are scored per step, so the arm stops
    # at 15 steps.
    config = PlannerConfig(horizon, *rng.uniform(0.0, 1.0, size=2), 0.0)
    receding = RecedingHorizonController(model, obs, pa, nominal_values, config)
    oracle = planner_scores_by_definition(model, obs, pa, nominal_values, config)
    trace = check_episode_by_definition(
        model, obs, pa, receding, oracle, o0, min(steps, 15), seed
    )
    if trace is not None:
        for x, o, expected in zip(trace.states, trace.beliefs, oracle.tables):
            got = planner_table(receding, x, o)
            assert got.keys() == expected.keys()
            for seq, objective in expected.items():
                assert abs(got[seq] - objective) <= 1e-9

    # grid-vi against the nominal chain, on two sweeps from zero, each side
    # its own; the table it plays from is checked too
    grid = build_simplex_grid(n, res)
    values = np.zeros((n, grid.num_points))
    for _ in range(2):
        values, relaxed = lattice_sweep_by_definition(
            transition, reward, 0.9, likelihood, pa, grid, values, 0.6, 0.4
        )
    if not np.all(np.isfinite(values)):  # some pair has no usable action
        with pytest.raises(EmptyAdmissibleSet):
            solve_augmented_vi(model, obs, pa, 0.6, 0.4, resolution=res)
        return
    solved = solve_augmented_vi(
        model, obs, pa, 0.6, 0.4, resolution=res, tol=1e-15, max_iter=2
    )
    np.testing.assert_allclose(solved.value.values, values, rtol=0.0, atol=1e-12)
    assert list(solved.fallback_points) == relaxed

    def lattice_lookahead(x, o):
        return lattice_lookahead_by_definition(
            transition, reward, 0.9, likelihood, pa, grid, values, 0.6, 0.4, x, o,
            relax=False,
        )

    check_episode_by_definition(
        model, obs, pa, AugmentedValueController(model, obs, pa, solved.value),
        lattice_lookahead, o0, steps, seed,
    )


def dead_end_model():
    """Four states that the sensor reads exactly: S=0 moves to M=1, M to A=2
    or B=3 at even odds, and the observer expects A and B to return to S.
    Only action 0 does so from A and only action 1 from B; the other moves
    to M, a reading the observer rules out there. So an open-loop sequence
    from S is admissible at 2 actions but not at 3, and from M at 1 but not
    at 2, while the closed loop always has an admissible action."""
    S, M, A, B = range(4)
    transition = np.zeros((4, 4, 2))
    transition[M, S, :] = 1.0
    transition[[A, B], M, :] = 0.5
    transition[[S, M], A, :] = [[1.0, 0.0], [0.0, 1.0]]
    transition[[S, M], B, :] = [[0.0, 1.0], [1.0, 0.0]]
    reward = np.array([[0.0, 1.0], [0.5, 0.0], [1.0, 0.0], [0.0, 1.0]])
    model = MdpModel(4, 2, transition, reward, 0.9)
    pa = np.zeros((4, 4))
    pa[M, S] = pa[S, A] = pa[S, B] = 1.0
    pa[[A, B], M] = 0.5
    return model, ObservationModel(4, np.eye(4)), pa, np.zeros(4)


def test_receding_horizon_falls_back_to_shorter_horizons():
    # No open-loop sequence of the full horizon is admissible at S, nor of
    # horizon 2 at M, while shorter ones are, so the controller must replan
    # at a shorter horizon instead of stopping the episode.
    model, obs, pa, values = dead_end_model()
    config = PlannerConfig(3, 0.5, 0.5, 0.0)
    for x, o, horizon in ((0, uniform_belief(4), 3), (1, point_belief(4, 1), 2)):
        with pytest.raises(NoAdmissibleSequence):
            plan(model, obs, pa, values, x, o, replace(config, horizon=horizon))
        plan(model, obs, pa, values, x, o, replace(config, horizon=horizon - 1))
    ctrl = RecedingHorizonController(model, obs, pa, values, config)
    trace = run_closed_loop(model, obs, pa, ctrl, uniform_belief(4), 17, 8, 1, x0=0)
    assert trace.num_steps == 17
    assert set(trace.states.tolist()) == {0, 1, 2, 3}
    # The controller's one memo served horizon 3 and the fallback horizons,
    # and it chose what a fresh plan with the same fallback chooses.
    assert {horizon for _, horizon in ctrl.memo.roots} == {1, 2, 3}
    for t in range(trace.num_steps):
        x, o = int(trace.states[t]), trace.beliefs[t]
        for horizon in (3, 2, 1):
            try:
                first = plan(
                    model, obs, pa, values, x, o, replace(config, horizon=horizon)
                ).first_action
                break
            except NoAdmissibleSequence:
                continue
        assert trace.actions[t] == first


def test_receding_horizon_does_not_fall_back_on_size_overflow():
    # Only NoAdmissibleSequence triggers the shorter-horizon fallback; a
    # refused tree reaches the caller.
    model, obs = example1_model()
    pa, values, _ = nominal_setup(model)
    ctrl = RecedingHorizonController(
        model, obs, pa, values, PlannerConfig(40, 0.5, 0.5, 0.0)
    )
    with pytest.raises(SizeOverflow, match="horizon 40"):
        ctrl.decide(0, uniform_belief(3))


def test_controller_ids_describe_the_configuration():
    model, obs = smoothed_example1()
    pa, values, policy = nominal_setup(model)
    assert NominalController(policy).controller_id == "nominal"
    rho_id = RecedingHorizonController(
        model, obs, pa, values, PlannerConfig(3, 0.5, 0.5, 0.1)
    ).controller_id
    assert "N=3" in rho_id and "0.5" in rho_id
    avf = solve_augmented_vi(model, obs, pa, 1.0, 0.0, resolution=2, tol=1e-4)
    grid_id = AugmentedValueController(model, obs, pa, avf.value).controller_id
    assert "res=2" in grid_id


def test_model_fingerprint_tracks_content():
    model, obs = example1_model()
    fp = model_fingerprint(model, obs)
    assert fp == model_fingerprint(*example1_model())
    other = MdpModel(
        model.num_states,
        model.num_actions,
        model.transition,
        model.reward + 0.001,
        model.discount,
    )
    assert model_fingerprint(other, obs) != fp
    pa, _, policy = nominal_setup(model)
    trace = run_closed_loop(
        model, obs, pa, NominalController(policy), uniform_belief(3), 2, 0, 0
    )
    assert trace.model_id == fp


def test_numpy_scalars_give_the_identity_of_the_python_values(tmp_path):
    # The constructors keep the Python value their rules accept, so a numpy
    # scalar names the same model and controller, and writes the same files,
    # as the Python value it holds.
    model, obs = example1_model()
    discount = np.float32(0.95)  # the float32 nearest 0.95, not 0.95
    py = MdpModel(3, 2, model.transition, model.reward, float(discount))
    npy = MdpModel(np.int64(3), np.int64(2), model.transition, model.reward, discount)
    wide = MdpModel(3, 2, model.transition, model.reward, np.float64(0.95))
    assert model_fingerprint(wide, obs) == model_fingerprint(model, obs)
    assert model_fingerprint(npy, obs) == model_fingerprint(py, obs)
    save_model_file(py, tmp_path / "py.json")
    save_model_file(npy, tmp_path / "np.json")
    assert (tmp_path / "np.json").read_bytes() == (tmp_path / "py.json").read_bytes()

    pa, values, _ = nominal_setup(py)
    half = np.float64(0.5)
    configs = [PlannerConfig(2, 0.5, 0.5, 0), PlannerConfig(2, half, half, np.float64(0))]
    assert json.dumps(asdict(configs[1])) == json.dumps(asdict(configs[0]))
    traces = [
        run_closed_loop(m, obs, pa, RecedingHorizonController(m, obs, pa, values, c),
                        uniform_belief(3), 5, 0, 0)
        for m, c in zip((py, npy), configs)
    ]
    assert traces[0].controller_id.endswith("wap=0.0)")
    for name, trace in zip(("py", "np"), traces):
        write_trace_metadata(trace, tmp_path / f"{name}.meta.json")
    assert (tmp_path / "np.meta.json").read_bytes() == (tmp_path / "py.meta.json").read_bytes()
    aggregate_runs(traces)  # one configuration

    lattices = [solve_augmented_vi(py, obs, pa, w, 0.0, resolution=2, tol=1e-4).value
                for w in (1.0, np.float32(1.0))]
    for name, value in zip(("py", "np"), lattices):
        save_value_file(value, tmp_path / f"{name}.values.json")
    assert ((tmp_path / "np.values.json").read_bytes()
            == (tmp_path / "py.values.json").read_bytes())
    ids = {AugmentedValueController(py, obs, pa, v).controller_id for v in lattices}
    assert len(ids) == 1


def test_aggregate_runs_statistics_and_guards():
    model, obs = smoothed_example1()
    pa, _, policy = nominal_setup(model)
    ctrl = NominalController(policy)
    traces = simulate_runs(model, obs, pa, ctrl, uniform_belief(3), 40, 1, 6)
    summary = aggregate_runs(traces)
    rewards = np.array([tr.reward_rate for tr in traces])
    exposures = np.array([tr.exposure_rate for tr in traces])
    assert summary.num_runs == 6
    assert summary.reward_rate == pytest.approx(rewards.mean(), abs=1e-15)
    assert summary.exposure_rate == pytest.approx(exposures.mean(), abs=1e-15)
    assert summary.reward_stderr == pytest.approx(
        rewards.std(ddof=1) / np.sqrt(6), abs=1e-15
    )
    short = simulate_runs(model, obs, pa, ctrl, uniform_belief(3), 39, 1, 1)
    with pytest.raises(MixedConfig):
        aggregate_runs(traces + short)
    with pytest.raises(ValueError):
        aggregate_runs([])


def test_trace_csv_layout_and_byte_identity(tmp_path):
    model, obs = smoothed_example1()
    pa, _, policy = nominal_setup(model)
    ctrl = NominalController(policy)
    trace = run_closed_loop(model, obs, pa, ctrl, uniform_belief(3), 25, 7, 0)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_trace_csv(trace, path_a)
    rerun = run_closed_loop(model, obs, pa, ctrl, uniform_belief(3), 25, 7, 0)
    write_trace_csv(rerun, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    lines = path_a.read_text().splitlines()
    assert lines[0] == "t,x,u,y,reward,penalty,avg_reward,avg_detection"
    assert len(lines) == trace.num_steps + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert int(first[1]) == trace.states[0]
    assert first[3] == "-1"
    last = lines[-1].split(",")
    assert float(last[6]) == pytest.approx(trace.reward_rate, abs=1e-15)
    assert float(last[7]) == pytest.approx(trace.exposure_rate, abs=1e-15)


def test_belief_csv_round_trips_the_filter_path(tmp_path):
    model, obs = smoothed_example1()
    pa, _, policy = nominal_setup(model)
    trace = run_closed_loop(
        model, obs, pa, NominalController(policy), uniform_belief(3), 10, 3, 0
    )
    path = tmp_path / "beliefs.csv"
    write_belief_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,o_0,o_1,o_2"
    assert len(lines) == 11
    for t, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == t
        np.testing.assert_array_equal(
            np.array([float(c) for c in cells[1:]]), trace.beliefs[t]
        )


def test_csv_writers_format_each_cell_by_its_definition(tmp_path):
    # Each cell is str(int(v)) or repr(float(v)) of its entry, whatever the
    # writer builds rows from: values whose shortest repr a fixed-precision
    # or numpy formatter would change.
    floats = [-0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, 1 / 3]
    steps = len(floats)
    trace = sim.Trace(
        controller_id="scripted", model_id="hand", seed_base=0, run_index=0,
        states=np.arange(steps) * 7, actions=np.arange(steps)[::-1],
        observations=[-1] + list(range(steps - 1)),
        beliefs=np.array([np.roll(floats, t) for t in range(steps)]),
        rewards=floats, penalties=floats[::-1],
        mean_rewards=np.roll(floats, 1), mean_penalties=np.roll(floats, 2),
        final_state=3,
    )
    write_trace_csv(trace, tmp_path / "trace.csv")
    write_belief_csv(trace, tmp_path / "beliefs.csv")
    ints = (trace.states, trace.actions, trace.observations)
    reals = (trace.rewards, trace.penalties, trace.mean_rewards, trace.mean_penalties)
    expected = ["t,x,u,y,reward,penalty,avg_reward,avg_detection"]
    expected += [
        ",".join([str(t)] + [str(int(c[t])) for c in ints]
                 + [repr(float(c[t])) for c in reals])
        for t in range(steps)
    ]
    assert (tmp_path / "trace.csv").read_bytes() == ("\n".join(expected) + "\n").encode()
    expected = [",".join(["t"] + [f"o_{i}" for i in range(steps)])]
    expected += [
        ",".join([str(t)] + [repr(float(v)) for v in trace.beliefs[t]])
        for t in range(steps)
    ]
    assert (tmp_path / "beliefs.csv").read_bytes() == ("\n".join(expected) + "\n").encode()
    # the cells that show it: a signed zero, a subnormal, an exponent, 17 digits
    assert "-0.0" in (tmp_path / "trace.csv").read_text()
    for cell in ("5e-324", "1e-05", "1e+16", "0.30000000000000004", "0.3333333333333333"):
        assert cell in (tmp_path / "beliefs.csv").read_text()


def test_trace_metadata_sidecar(tmp_path):
    model, obs = smoothed_example1()
    pa, _, policy = nominal_setup(model)
    trace = run_closed_loop(
        model, obs, pa, NominalController(policy), uniform_belief(3), 8, 21, 5
    )
    meta = trace_metadata(trace)
    assert meta["controller"] == "nominal"
    assert meta["model"] == trace.model_id
    assert meta["seed_base"] == 21
    assert meta["run_index"] == 5
    assert meta["num_steps"] == 8
    assert meta["reward_rate"] == trace.reward_rate
    path = tmp_path / "trace.meta.json"
    write_trace_metadata(trace, path)
    assert json.loads(path.read_text()) == meta


def test_summary_file_round_trip(tmp_path):
    model, obs = smoothed_example1()
    pa, _, policy = nominal_setup(model)
    traces = simulate_runs(
        model, obs, pa, NominalController(policy), uniform_belief(3), 12, 2, 4
    )
    summary = aggregate_runs(traces)
    path = tmp_path / "summary.json"
    write_summary_file(summary, path)
    doc = json.loads(path.read_text())
    assert list(doc) == [f.name for f in fields(RunSummary)]
    read = {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}
    assert RunSummary(**read) == summary
    assert doc["num_runs"] == 4
    assert len(doc["per_run_reward"]) == 4


def test_summary_file_bytes_are_pinned(tmp_path):
    # Key order and JSON types included: three 8-step runs of a chain that a
    # perfect sensor tracks, so every rate is exact whatever the BLAS build.
    transition = np.zeros((2, 2, 1))
    transition[:, 0, 0] = [0.5, 0.5]
    transition[:, 1, 0] = [0.25, 0.75]
    model = MdpModel(2, 1, transition, np.array([[1.0], [0.0]]), 0.9)
    obs = ObservationModel(2, np.eye(2))
    pa, _, policy = nominal_setup(model)
    traces = simulate_runs(
        model, obs, pa, NominalController(policy), uniform_belief(2), 8, 1, 3
    )
    path = tmp_path / "summary.json"
    write_summary_file(aggregate_runs(traces), path)
    assert path.read_bytes() == (
        b'{\n "controller": "nominal",\n "model": "c5094e55b219",\n'
        b' "num_runs": 3,\n "num_steps": 8,\n'
        b' "reward_rate": 0.4166666666666667,\n'
        b' "reward_stderr": 0.15023130314433292,\n'
        b' "exposure_rate": 0.9375,\n "exposure_stderr": 0.0,\n'
        b' "per_run_reward": [\n  0.125,\n  0.5,\n  0.625\n ],\n'
        b' "per_run_exposure": [\n  0.9375,\n  0.9375,\n  0.9375\n ]\n}\n'
    )
