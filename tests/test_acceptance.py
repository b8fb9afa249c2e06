"""Acceptance gate: one test per shipping criterion.

Each test prints one summary line with the measured quantities, then
asserts the criterion's thresholds. Heavy simulation batches are shared
through module-scoped fixtures so the relevant configurations run once.
"""

import itertools
import time

import numpy as np
import pytest

from covertmdp import (
    MdpModel,
    ObservationModel,
    PlannerConfig,
    RecedingHorizonController,
    NominalController,
    Observer,
    aggregate_runs,
    admissible_actions,
    augmented_transition_support,
    bayes_update,
    desk_gridworld,
    example1_model,
    extract_nominal_policy,
    gridworld_model,
    induced_chain,
    nominal_value_iteration,
    plan,
    simulate_runs,
    uniform_belief,
)
from covertmdp.augmented import (
    build_simplex_grid,
    interpolation_weights,
    solve_augmented_vi,
)
from covertmdp.belief import make_belief, posterior_table
from covertmdp.cli import main as cli_main
from covertmdp.sim import AugmentedValueController

from _oracles import (
    best_value_by_enumeration,
    forward_filter,
    random_sane_model,
    sequence_terms_by_path_enumeration,
)

RUNS = 20
STEPS = 2000


@pytest.fixture(scope="module")
def ex1():
    model, obs = example1_model()
    result = nominal_value_iteration(model)
    policy = extract_nominal_policy(model, result.values)
    pa = induced_chain(model, policy)
    return model, obs, pa, result.values, policy


def timed_batch(ex1_setup, controller, runs=RUNS, steps=STEPS):
    model, obs, pa, _, _ = ex1_setup
    start = time.perf_counter()
    traces = simulate_runs(
        model, obs, pa, controller, uniform_belief(3), steps, 0, runs
    )
    return aggregate_runs(traces), time.perf_counter() - start


@pytest.fixture(scope="module")
def nominal_batch(ex1):
    return timed_batch(ex1, NominalController(ex1[4]))


def rho_controller(ex1_setup, wn, wa, wap=0.0, horizon=3):
    model, obs, pa, values, _ = ex1_setup
    return RecedingHorizonController(
        model, obs, pa, values, PlannerConfig(horizon, wn, wa, wap)
    )


@pytest.fixture(scope="module")
def rho_avoid_batch(ex1):
    return timed_batch(ex1, rho_controller(ex1, 0.0, 1.0))


@pytest.fixture(scope="module")
def rho_half_batch(ex1):
    return timed_batch(ex1, rho_controller(ex1, 0.5, 0.5))


@pytest.fixture(scope="module")
def rho_seek_batch(ex1):
    return timed_batch(ex1, rho_controller(ex1, 0.0, -1.0))


def test_criterion_01_value_iteration_matches_policy_enumeration(ex1):
    model = ex1[0]
    start = time.perf_counter()
    result = nominal_value_iteration(model, tol=1e-12)
    oracle = best_value_by_enumeration(
        model.transition, model.reward, model.discount
    )
    elapsed = time.perf_counter() - start
    gap = float(np.max(np.abs(result.values - oracle)))
    print(f"criterion 1: gap {gap:.2e} (limit 1e-8), {elapsed:.3f}s (limit 1s)")
    assert gap <= 1e-8
    assert elapsed < 1.0


def test_criterion_02_filter_matches_reference_forward_recursion():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(2, 6))
        transition, reward, likelihood = random_sane_model(rng, n, 2, k)
        pa = transition[:, :, int(rng.integers(2))]
        observer = Observer(
            MdpModel(n, 2, transition, reward, 0.9), ObservationModel(k, likelihood), pa
        )
        belief = make_belief(rng.dirichlet(np.ones(n)))
        ys = []
        ours = belief
        for _ in range(8):
            pred = posterior_table(observer, ours)[1]
            y = int(rng.choice(k, p=pred / pred.sum()))
            ys.append(y)
            ours = bayes_update(observer, ours, y)
        reference = forward_filter(pa, likelihood, belief, ys)
        worst = max(worst, float(np.max(np.abs(ours - reference[-1]))))
    elapsed = time.perf_counter() - start
    print(f"criterion 2: worst gap {worst:.2e} (limit 1e-10), "
          f"{elapsed:.1f}s (limit 10s)")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_03_joint_support_structure():
    rng = np.random.default_rng(31)
    start = time.perf_counter()
    checked = 0
    worst_mass = 0.0
    worst_marginal = 0.0
    while checked < 10000:
        n = int(rng.integers(2, 6))
        k = int(rng.integers(2, 6))
        sharp = bool(rng.integers(2))
        transition, reward, likelihood = random_sane_model(rng, n, 3, k, sharp=sharp)
        model = MdpModel(n, 3, transition, reward, 0.9)
        obs = ObservationModel(k, likelihood)
        result = nominal_value_iteration(model, tol=1e-8)
        pa = induced_chain(model, extract_nominal_policy(model, result.values))
        observer = Observer(model, obs, pa)
        for _ in range(12):
            if checked >= 10000:
                break
            x = int(rng.integers(n))
            o = make_belief(rng.dirichlet(np.ones(n)))
            for u in admissible_actions(observer, x, o):
                support = augmented_transition_support(observer, x, o, u)
                worst_mass = max(worst_mass, abs(float(support.probs.sum()) - 1.0))
                assert len(support.probs) <= n * k
                marginal = np.zeros(n)
                np.add.at(marginal, support.states, support.probs)
                worst_marginal = max(
                    worst_marginal,
                    float(np.max(np.abs(marginal - model.transition[:, x, u]))),
                )
                checked += 1
    elapsed = time.perf_counter() - start
    print(f"criterion 3: {checked} supports, mass gap {worst_mass:.2e}, "
          f"marginal gap {worst_marginal:.2e} (limits 1e-9), "
          f"{elapsed:.1f}s (limit 10s)")
    assert worst_mass <= 1e-9
    assert worst_marginal <= 1e-9
    assert elapsed < 10.0


def _sparsify_likelihood(rng, likelihood):
    """Zero random entries (keeping each column's peak) and renormalize."""
    q = likelihood.copy()
    k, n = q.shape
    for col in range(n):
        keep = int(np.argmax(q[:, col]))
        for row in range(k):
            if row != keep and rng.random() < 0.4:
                q[row, col] = 0.0
        q[:, col] /= q[:, col].sum()
    return q


def test_criterion_04_nominal_action_always_admissible():
    rng = np.random.default_rng(47)
    failures = 0
    for case in range(1000):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(2, 6))
        transition, reward, likelihood = random_sane_model(
            rng, n, 2, k, sharp=True
        )
        if case % 2:
            likelihood = _sparsify_likelihood(rng, likelihood)
        model = MdpModel(n, 2, transition, reward, 0.9)
        obs = ObservationModel(k, likelihood)
        result = nominal_value_iteration(model, tol=1e-8)
        policy = extract_nominal_policy(model, result.values)
        observer = Observer(model, obs, induced_chain(model, policy))
        x = int(rng.integers(n))
        o = make_belief(rng.dirichlet(np.ones(n)))
        while o[x] < 1e-6:
            o = make_belief(rng.dirichlet(np.ones(n)))
        if int(policy.actions[x]) not in admissible_actions(observer, x, o):
            failures += 1
    print(f"criterion 4: {failures} failures out of 1000 (limit 0)")
    assert failures == 0


def test_criterion_05_pure_reward_planner_plays_the_nominal_policy(ex1):
    model, obs, pa, values, policy = ex1
    mismatches = []
    for horizon in (1, 2, 3, 4):
        config = PlannerConfig(horizon, 1.0, 0.0, 0.0)
        for x in range(model.num_states):
            result = plan(model, obs, pa, values, x, uniform_belief(3), config)
            if result.first_action != policy.actions[x]:
                mismatches.append((horizon, x))
    print(f"criterion 5: {len(mismatches)} mismatches over N in 1..4, "
          f"all 3 states (limit 0)")
    assert mismatches == []


def test_criterion_06_recursive_scores_match_path_enumeration(ex1):
    model, obs, pa, values, _ = ex1
    o0 = uniform_belief(3)
    start = time.perf_counter()
    worst = 0.0
    for horizon in (1, 2, 3):
        config = PlannerConfig(horizon, 0.5, 0.5, 0.0)
        result = plan(model, obs, pa, values, 0, o0, config)
        assert result.sequences_scored == 2**horizon
        for score in result.sequences:
            r1, r2, r3 = sequence_terms_by_path_enumeration(
                model.transition, model.reward, model.discount,
                obs.likelihood, pa, values, 0, o0, list(score.actions),
            )
            worst = max(
                worst,
                abs(score.reward_term - r1),
                abs(score.tail_term - r2),
                abs(score.detection_term - r3),
            )
    elapsed = time.perf_counter() - start
    print(f"criterion 6: worst term gap {worst:.2e} (limit 1e-10), "
          f"{elapsed:.1f}s (limit 5s)")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_07_closed_loop_detection_tradeoffs(
    nominal_batch, rho_avoid_batch, rho_half_batch, rho_seek_batch
):
    nominal, t0 = nominal_batch
    avoid, t1 = rho_avoid_batch
    half, t2 = rho_half_batch
    seek, t3 = rho_seek_batch
    elapsed = t0 + t1 + t2 + t3
    reduction_avoid = nominal.exposure_rate - avoid.exposure_rate
    reduction_half = nominal.exposure_rate - half.exposure_rate
    sacrifice_half = nominal.reward_rate - half.reward_rate
    print(
        f"criterion 7: (0,1) reduction {reduction_avoid:.3f} (limit >=0.10); "
        f"(0.5,0.5) reduction {reduction_half:.3f} (limit >0.10), "
        f"sacrifice {sacrifice_half:.3f} (limit <0.15); "
        f"(0,-1) exposure {seek.exposure_rate:.3f} vs nominal "
        f"{nominal.exposure_rate:.3f} (must exceed); "
        f"{elapsed:.0f}s (limit 300s)"
    )
    assert reduction_avoid >= 0.10
    assert reduction_half > 0.10
    assert sacrifice_half < 0.15
    assert seek.exposure_rate > nominal.exposure_rate
    assert elapsed < 300.0


def test_criterion_08_grid_solution_close_to_receding_horizon(ex1, rho_half_batch):
    model, obs, pa, _, _ = ex1
    rho_summary, rho_elapsed = rho_half_batch
    start = time.perf_counter()
    solved = solve_augmented_vi(model, obs, pa, 0.5, 0.5, resolution=10)
    assert solved.converged
    controller = AugmentedValueController(model, obs, pa, solved.value)
    grid_summary, grid_elapsed = timed_batch(ex1, controller)
    elapsed = (time.perf_counter() - start) + rho_elapsed
    gap_exposure = abs(grid_summary.exposure_rate - rho_summary.exposure_rate)
    gap_reward = abs(grid_summary.reward_rate - rho_summary.reward_rate)
    print(
        f"criterion 8: exposure gap {gap_exposure:.3f}, reward gap "
        f"{gap_reward:.3f} (limits 0.05), {elapsed:.0f}s (limit 600s)"
    )
    assert gap_exposure <= 0.05
    assert gap_reward <= 0.05
    assert elapsed < 600.0


def test_criterion_09_gridworld_stealth_approach():
    spec = desk_gridworld()
    model, obs = gridworld_model(spec)
    result = nominal_value_iteration(model)
    policy = extract_nominal_policy(model, result.values)
    pa = induced_chain(model, policy)
    target = spec.cell_index(*spec.target)
    start_cell = spec.cell_index(*spec.start)
    o0 = uniform_belief(model.num_states)
    start = time.perf_counter()
    nominal_traces = simulate_runs(
        model, obs, pa, NominalController(policy), o0, 200, 0, 10, x0=start_cell
    )
    rho = RecedingHorizonController(
        model, obs, pa, result.values, PlannerConfig(3, 0.5, 0.5, 0.0)
    )
    rho_traces = simulate_runs(
        model, obs, pa, rho, o0, 200, 0, 10, x0=start_cell
    )
    elapsed = time.perf_counter() - start
    nominal_exposure = aggregate_runs(nominal_traces).exposure_rate
    rho_exposure = aggregate_runs(rho_traces).exposure_rate
    reached = sum(1 for tr in rho_traces if tr.final_state == target)
    reduction = (nominal_exposure - rho_exposure) / nominal_exposure
    verdict = "PASS" if (reduction >= 0.20 and reached >= 8) else "FAIL"
    print(
        f"criterion 9: {verdict} relative reduction {reduction:.1%} "
        f"(limit >=20%), reached {reached}/10 (limit >=8), "
        f"nominal exposure {nominal_exposure:.4f}, evasive exposure "
        f"{rho_exposure:.4f}, {elapsed:.0f}s (limit 300s)"
    )
    assert reached >= 8
    assert elapsed < 300.0
    assert reduction >= 0.20


def test_criterion_10_interpolation_properties():
    rng = np.random.default_rng(10)
    grid = build_simplex_grid(3, 10)
    table = rng.normal(size=grid.num_points)
    for g in range(grid.num_points):
        idx, w = interpolation_weights(grid, grid.points[g])
        assert table[idx] @ w == table[g]
    direction = rng.normal(size=3)
    linear = grid.points @ direction
    constant = np.full(grid.num_points, -1.25)
    worst_weight_sum = 0.0
    worst_constant = 0.0
    worst_linear = 0.0
    for _ in range(10000):
        o = rng.dirichlet(np.full(3, 0.4))
        idx, w = interpolation_weights(grid, o)
        assert np.all(w >= 0.0)
        assert len(w) <= 3
        worst_weight_sum = max(worst_weight_sum, abs(float(w.sum()) - 1.0))
        worst_constant = max(worst_constant, abs(constant[idx] @ w + 1.25))
        worst_linear = max(worst_linear, abs(linear[idx] @ w - float(direction @ o)))
    print(
        f"criterion 10: weight-sum gap {worst_weight_sum:.2e}, constant gap "
        f"{worst_constant:.2e}, linear gap {worst_linear:.2e} (limits 1e-12), "
        f"vertices exact"
    )
    assert worst_weight_sum <= 1e-12
    assert worst_constant <= 1e-12
    assert worst_linear <= 1e-12


def test_criterion_11_same_seed_runs_are_byte_identical(tmp_path):
    args = [
        "simulate", "rho", "--model", "example1",
        "--wn", "0.5", "--wa", "0.5", "--horizon", "3",
        "--steps", "100", "--seeds", "3", "--seed-base", "5",
    ]
    out_a, out_b = tmp_path / "first", tmp_path / "second"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    identical = all(
        (out_a / f"trace_{i:03d}.csv").read_bytes()
        == (out_b / f"trace_{i:03d}.csv").read_bytes()
        for i in range(3)
    )
    print(f"criterion 11: trace CSVs byte-identical across reruns: {identical}")
    assert identical
