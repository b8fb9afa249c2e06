"""Tests for closed-loop simulation, aggregation, and trace files."""

import json
import warnings

import numpy as np
import pytest

from covertmdp import (
    MdpModel,
    MixedConfig,
    NoAdmissibleSequence,
    NominalController,
    ObservationModel,
    PlannerConfig,
    ProhibitedAction,
    RecedingHorizonController,
    SizeOverflow,
    aggregate_runs,
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
from covertmdp.sim import (
    AugmentedValueController,
    model_fingerprint,
    rng_for_run,
    step,
    summary_to_dict,
    trace_metadata,
    write_belief_csv,
    write_summary_file,
    write_trace_metadata,
)
from covertmdp.augmented import solve_augmented_vi


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


def test_step_sampling_statistics():
    model, obs = smoothed_example1()
    pa, _, _ = nominal_setup(model)
    o = uniform_belief(3)
    rng = np.random.default_rng(5)
    draws = 20_000
    state_counts = np.zeros(3)
    obs_counts = np.zeros(obs.num_observations)
    for _ in range(draws):
        x_next, y, _ = step(model, obs, pa, 0, o, 1, rng)
        state_counts[x_next] += 1
        obs_counts[y] += 1
    state_freq = state_counts / draws
    expected_states = model.transition[:, 0, 1]
    sigma = np.sqrt(expected_states * (1 - expected_states) / draws)
    assert np.all(np.abs(state_freq - expected_states) < 5 * sigma + 1e-9)
    expected_obs = obs.likelihood @ expected_states
    sigma_y = np.sqrt(expected_obs * (1 - expected_obs) / draws)
    assert np.all(np.abs(obs_counts / draws - expected_obs) < 5 * sigma_y + 1e-9)


def test_step_rejects_prohibited_action():
    transition = np.zeros((2, 2, 2))
    transition[0, 0, 0] = 1.0
    transition[1, 1, 0] = 1.0
    transition[1, 0, 1] = 1.0
    transition[1, 1, 1] = 1.0
    model = MdpModel(2, 2, transition, np.zeros((2, 2)), 0.9)
    obs = ObservationModel(2, np.eye(2))
    pa = np.eye(2)
    rng = np.random.default_rng(0)
    with pytest.raises(ProhibitedAction) as err:
        step(model, obs, pa, 0, point_belief(2, 0), 1, rng)
    assert "u=1" in str(err.value) and "x=0" in str(err.value)


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
    for t in range(1, trace.num_steps):
        expected = bayes_update(
            pa, obs.likelihood, trace.beliefs[t - 1], int(trace.observations[t])
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


def test_receding_horizon_falls_back_to_shorter_horizons():
    # Gridworld run 1 of seed base 8 reaches state 20 at t=15 holding an
    # observer belief of 2.8e-8 there. No open-loop sequence of length 3 is
    # admissible at that pair, while shorter ones are, so the controller
    # must replan at a shorter horizon instead of stopping the episode.
    spec = desk_gridworld()
    model, obs = gridworld_model(spec)
    pa, values, _ = nominal_setup(model)
    ctrl = RecedingHorizonController(
        model, obs, pa, values, PlannerConfig(3, 0.5, 0.5, 0.0)
    )
    trace = run_closed_loop(
        model, obs, pa, ctrl, uniform_belief(model.num_states), 17, 8, 1,
        x0=spec.cell_index(*spec.start),
    )
    assert trace.states[15] == 20
    assert trace.beliefs[15][20] < 1e-7
    with pytest.raises(NoAdmissibleSequence):
        plan(model, obs, pa, values, 20, trace.beliefs[15], ctrl.config)
    assert trace.num_steps == 17


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
    assert doc == summary_to_dict(summary)
    assert doc["num_runs"] == 4
    assert len(doc["per_run_reward"]) == 4
