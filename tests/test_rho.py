"""Tests for open-loop sequence scoring and the receding-horizon planner."""

import itertools
import json
import os
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covertmdp import (
    MdpModel,
    NoAdmissibleSequence,
    ObservationModel,
    PlannerConfig,
    ProhibitedAction,
    SizeOverflow,
    augmented_transition_support,
    example1_model,
    extract_nominal_policy,
    induced_chain,
    nominal_value_iteration,
    plan,
    point_belief,
    uniform_belief,
)
from covertmdp.belief import JointLaw
from covertmdp.rho import MAX_TREE_ENTRIES, suggested_tail_weight_bound

from _oracles import (
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


def random_pair(rng, n, m, k, discount=0.9):
    transition, reward, likelihood = random_sane_model(rng, n, m, k)
    model = MdpModel(n, m, transition, reward, discount)
    return model, ObservationModel(k, likelihood)


def scores_by_sequence(model, obs, pa, values, x, o, config):
    """Every scored sequence of one planner call, keyed by its actions."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = plan(model, obs, pa, values, x, o, config)
    return {score.actions: score for score in result.sequences}


def deterministic_cycle():
    """Two states swapping every step, an identity sensor and an observer
    that expects the cycle: the filter pins the agent at every step."""
    transition = np.zeros((2, 2, 1))
    transition[1, 0, 0] = 1.0
    transition[0, 1, 0] = 1.0
    model = MdpModel(2, 1, transition, np.zeros((2, 1)), 0.9)
    return model, ObservationModel(2, np.eye(2)), transition[:, :, 0]


# ---------------------------------------------------------------------------
# open-loop reward


def test_open_loop_reward_constant_reward_closed_form():
    model, obs = example1_model()
    flat = MdpModel(
        model.num_states,
        model.num_actions,
        model.transition,
        np.full((3, 2), 0.37),
        model.discount,
    )
    pa, _, _ = nominal_setup(model)
    lam = model.discount
    for length in range(1, 6):
        cfg = PlannerConfig(length, 1.0, 0.0, 0.0)
        scores = scores_by_sequence(flat, obs, pa, np.zeros(3), 1, uniform_belief(3), cfg)
        expected = 0.37 * (1.0 - lam**length) / (1.0 - lam)
        assert abs(scores[(0,) * length].reward_term - expected) < 1e-12


def test_open_loop_reward_single_action_is_stage_reward():
    model, obs = example1_model()
    pa, values, _ = nominal_setup(model)
    cfg = PlannerConfig(1, 1.0, 0.0, 0.0)
    for x in range(3):
        scores = scores_by_sequence(model, obs, pa, values, x, uniform_belief(3), cfg)
        for u in range(2):
            assert scores[(u,)].reward_term == model.reward[x, u]


def test_open_loop_reward_matches_monte_carlo():
    model, obs = example1_model()
    pa, values, _ = nominal_setup(model)
    rng = np.random.default_rng(42)
    actions = [1, 0, 1, 0]
    paths = 200_000
    xs = np.zeros(paths, dtype=np.int64)
    totals = np.zeros(paths)
    scale = 1.0
    for u in actions:
        totals += scale * model.reward[xs, u]
        cum = model.transition[:, xs, u].T.cumsum(axis=1)
        xs = (rng.random(paths)[:, None] < cum).argmax(axis=1)
        scale *= model.discount
    cfg = PlannerConfig(4, 1.0, 0.0, 0.0)
    scores = scores_by_sequence(model, obs, pa, values, 0, uniform_belief(3), cfg)
    exact = scores[tuple(actions)].reward_term
    stderr = totals.std() / np.sqrt(paths)
    assert abs(totals.mean() - exact) < 5.0 * stderr + 1e-6


def test_terminal_tail_value_deterministic_and_constant_cases():
    # Deterministic two-state cycle: the endpoint is known exactly.
    model, obs, pa = deterministic_cycle()
    values = np.array([3.0, 7.0])
    start = point_belief(2, 0)
    one = scores_by_sequence(model, obs, pa, values, 0, start, PlannerConfig(1))
    assert abs(one[(0,)].tail_term - 0.9 * 7.0) < 1e-15
    two = scores_by_sequence(model, obs, pa, values, 0, start, PlannerConfig(2))
    assert abs(two[(0, 0)].tail_term - 0.81 * 3.0) < 1e-15
    # Constant values: the endpoint distribution is irrelevant.
    ex1, ex1_obs = example1_model()
    ex1_pa, _, _ = nominal_setup(ex1)
    flat = np.full(3, 2.5)
    scores = scores_by_sequence(
        ex1, ex1_obs, ex1_pa, flat, 0, uniform_belief(3), PlannerConfig(3)
    )
    assert sorted(scores) == list(itertools.product(range(2), repeat=3))
    for score in scores.values():
        assert abs(score.tail_term - ex1.discount**3 * 2.5) < 1e-12


def test_detection_exposure_single_action_is_zero():
    model, obs = smoothed_example1()
    pa, values, _ = nominal_setup(model)
    cfg = PlannerConfig(1, 0.5, 0.5, 0.0)
    for x in range(3):
        scores = scores_by_sequence(model, obs, pa, values, x, uniform_belief(3), cfg)
        assert sorted(scores) == [(0,), (1,)]
        for score in scores.values():
            assert score.detection_term == 0.0


def test_detection_exposure_perfect_tracking_closed_form():
    # Each counted stage of the pinned cycle pays exposure 1.
    model, obs, pa = deterministic_cycle()
    lam = model.discount
    for length in range(1, 6):
        scores = scores_by_sequence(
            model, obs, pa, np.zeros(2), 0, point_belief(2, 0),
            PlannerConfig(length, 0.0, 1.0, 0.0),
        )
        expected = sum(lam**t for t in range(1, length))
        assert abs(scores[(0,) * length].detection_term - expected) < 1e-12


def test_detection_exposure_matches_monte_carlo():
    model, obs = smoothed_example1()
    pa, values, _ = nominal_setup(model)
    o0 = uniform_belief(3)
    actions = [1, 0, 1]
    rng = np.random.default_rng(7)
    paths = 200_000
    xs = np.zeros(paths, dtype=np.int64)
    beliefs = np.tile(o0, (paths, 1))
    totals = np.zeros(paths)
    scale = 1.0
    for t, u in enumerate(actions):
        cum = model.transition[:, xs, u].T.cumsum(axis=1)
        xs = (rng.random(paths)[:, None] < cum).argmax(axis=1)
        if t < len(actions) - 1:
            qcols = obs.likelihood[:, xs].T.cumsum(axis=1)
            ys = (rng.random(paths)[:, None] < qcols).argmax(axis=1)
            numer = (beliefs @ pa.T) * obs.likelihood[ys]
            beliefs = numer / numer.sum(axis=1, keepdims=True)
            totals += model.discount * scale * beliefs[np.arange(paths), xs]
        scale *= model.discount
    cfg = PlannerConfig(3, 0.5, 0.5, 0.0)
    scores = scores_by_sequence(model, obs, pa, values, 0, o0, cfg)
    exact = scores[tuple(actions)].detection_term
    stderr = totals.std() / np.sqrt(paths)
    assert abs(totals.mean() - exact) < 5.0 * stderr + 1e-6


def test_all_terms_match_path_enumeration():
    model, obs = smoothed_example1()
    pa, values, _ = nominal_setup(model)
    o0 = uniform_belief(3)
    scores = scores_by_sequence(
        model, obs, pa, values, 0, o0, PlannerConfig(3, 0.5, 0.5, 0.0)
    )
    assert sorted(scores) == list(itertools.product(range(2), repeat=3))
    for seq, score in scores.items():
        r1, r2, r3 = sequence_terms_by_path_enumeration(
            model.transition,
            model.reward,
            model.discount,
            obs.likelihood,
            pa,
            values,
            0,
            o0,
            list(seq),
        )
        assert abs(score.reward_term - r1) < 1e-10
        assert abs(score.tail_term - r2) < 1e-10
        assert abs(score.detection_term - r3) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    m=st.integers(1, 3),
    k=st.integers(2, 3),
    horizon=st.integers(1, 3),
)
def test_all_terms_match_path_enumeration_random_models(seed, n, m, k, horizon):
    # Sparse models prune sequences: the planner must score exactly those
    # along which every possible observation has a defined filter update,
    # and score each of them as brute-force path enumeration does.
    # The logged pruned prefixes are exactly the minimal ones that can emit
    # an observation the observer's predictive rules out.
    rng = np.random.default_rng(seed)
    transition, reward, likelihood, chain = random_sparse_model(rng, n, m, k)
    model = MdpModel(n, m, transition, reward, 0.9)
    obs = ObservationModel(k, likelihood)
    values = rng.uniform(0.0, 5.0, size=n)
    x0 = int(rng.integers(n))
    o0 = rng.dirichlet(np.ones(n))
    cfg = PlannerConfig(horizon, 0.5, 0.5, 0.0)
    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "plan_log.jsonl")
        try:
            scores = {
                s.actions: s
                for s in plan(model, obs, chain, values, x0, o0, cfg, log).sequences
            }
        except NoAdmissibleSequence:
            scores = {}
        with open(log, encoding="utf-8") as fh:
            events = [json.loads(line) for line in fh]
    pruned = [
        tuple(e["prefix"]) + (e["action"],) for e in events if e["event"] == "pruned"
    ]
    assert pruned == sorted(pruned)
    assert set(pruned) == pruned_prefixes_by_definition(
        transition, likelihood, chain, x0, o0, horizon
    )
    for seq in itertools.product(range(m), repeat=horizon):
        try:
            r1, r2, r3 = sequence_terms_by_path_enumeration(
                transition, reward, 0.9, likelihood, chain, values, x0, o0,
                list(seq),
            )
        except ZeroDivisionError:
            assert seq not in scores
            continue
        score = scores[seq]
        assert abs(score.reward_term - r1) < 1e-10
        assert abs(score.tail_term - r2) < 1e-10
        assert abs(score.detection_term - r3) < 1e-10


def test_sequence_objective_is_the_stated_combination():
    model, obs = smoothed_example1()
    pa, values, _ = nominal_setup(model)
    o0 = uniform_belief(3)
    seq = (0, 1, 0)
    terms = None
    for wn, wa, wap in [(1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.0, 1.0, 0.3), (2.0, 0.7, 0.1)]:
        cfg = PlannerConfig(3, wn, wa, wap)
        score = scores_by_sequence(model, obs, pa, values, 0, o0, cfg)[seq]
        r1, r2, r3 = score.reward_term, score.tail_term, score.detection_term
        # the terms do not depend on the weights
        terms = terms or (r1, r2, r3)
        assert (r1, r2, r3) == terms
        assert abs(score.objective - (wn * (r1 + r2) - (wa + wap) * r3)) < 1e-12


# ---------------------------------------------------------------------------
# joint law propagation


def test_propagate_joint_deterministic_single_atom():
    transition = np.zeros((2, 2, 1))
    transition[1, 0, 0] = 1.0
    transition[1, 1, 0] = 1.0
    model = MdpModel(2, 1, transition, np.zeros((2, 1)), 0.9)
    obs = ObservationModel(2, np.eye(2))
    pa = transition[:, :, 0]
    law = JointLaw.point(model, obs, pa, 0, point_belief(2, 0)).push(0)
    np.testing.assert_allclose(law.beliefs, [[0.0, 1.0]], atol=1e-12)
    np.testing.assert_allclose(law.mass, [[0.0, 1.0]], atol=1e-12)
    # the observer's mean belief in the agent's true state
    assert np.sum(law.beliefs * law.mass) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    m=st.integers(1, 3),
    k=st.integers(2, 4),
)
def test_propagate_joint_conserves_mass_and_state_marginal(seed, n, m, k):
    rng = np.random.default_rng(seed)
    transition, reward, likelihood, chain = random_sparse_model(rng, n, m, k)
    model = MdpModel(n, m, transition, reward, 0.9)
    obs = ObservationModel(k, likelihood)
    x0 = int(rng.integers(n))
    law = JointLaw.point(model, obs, chain, x0, rng.dirichlet(np.ones(n)))
    chain_marginal = np.zeros(n)
    chain_marginal[x0] = 1.0
    for _ in range(4):
        open_actions = np.flatnonzero(~law.blocked())
        if open_actions.size == 0:
            break
        u = int(rng.choice(open_actions))
        law = law.push(u)
        chain_marginal = model.transition[:, :, u] @ chain_marginal
        assert abs(law.mass.sum() - 1.0) < 1e-9
        np.testing.assert_allclose(law.mass.sum(axis=0), chain_marginal, atol=1e-9)
        np.testing.assert_allclose(law.beliefs.sum(axis=1), 1.0, atol=1e-9)
        assert len(law.beliefs) <= k ** 4


def two_state_trap():
    """Action 1 jumps to state 1, which the static observer cannot explain."""
    transition = np.zeros((2, 2, 2))
    transition[0, 0, 0] = 1.0
    transition[1, 1, 0] = 1.0
    transition[1, 0, 1] = 1.0
    transition[1, 1, 1] = 1.0
    reward = np.array([[0.0, 1.0], [0.0, 0.0]])
    model = MdpModel(2, 2, transition, reward, 0.9)
    obs = ObservationModel(2, np.eye(2))
    pa = np.eye(2)
    return model, obs, pa


def test_propagate_joint_raises_with_atom_coordinates():
    model, obs, pa = two_state_trap()
    law = JointLaw.point(model, obs, pa, 0, point_belief(2, 0))
    assert law.blocked().tolist() == [False, True]
    with pytest.raises(ProhibitedAction) as err:
        augmented_transition_support(model, obs, pa, 0, point_belief(2, 0), 1)
    msg = str(err.value)
    assert "u=1" in msg and "x=0" in msg and "y=1" in msg


# ---------------------------------------------------------------------------
# the planner


def test_plan_matches_brute_force_over_all_sequences():
    model, obs = smoothed_example1()
    pa, values, _ = nominal_setup(model)
    o0 = uniform_belief(3)
    cfg = PlannerConfig(3, 0.5, 0.5, 0.2)
    result = plan(model, obs, pa, values, 0, o0, cfg)
    assert result.sequences_scored == 8
    by_hand = {}
    for seq in itertools.product(range(2), repeat=3):
        r1, r2, r3 = sequence_terms_by_path_enumeration(
            model.transition, model.reward, model.discount, obs.likelihood,
            pa, values, 0, o0, list(seq),
        )
        by_hand[seq] = cfg.reward_weight * (r1 + r2) - (
            cfg.exposure_weight + cfg.tail_exposure_weight
        ) * r3
    assert abs(result.objective - max(by_hand.values())) < 1e-10
    assert by_hand[result.actions] == pytest.approx(result.objective, abs=1e-10)
    assert result.objective == max(score.objective for score in result.sequences)
    for score in result.sequences:
        assert abs(score.objective - by_hand[score.actions]) < 1e-10
        recomposed = cfg.reward_weight * (score.reward_term + score.tail_term) - (
            cfg.exposure_weight + cfg.tail_exposure_weight
        ) * score.detection_term
        assert abs(recomposed - score.objective) < 1e-12


def test_plan_result_terms_recompose_objective():
    model, obs = smoothed_example1()
    pa, values, _ = nominal_setup(model)
    cfg = PlannerConfig(4, 0.7, 0.3, 0.1)
    result = plan(model, obs, pa, values, 1, uniform_belief(3), cfg)
    recomposed = cfg.reward_weight * (result.reward_term + result.tail_term) - (
        cfg.exposure_weight + cfg.tail_exposure_weight
    ) * result.detection_term
    assert abs(recomposed - result.objective) < 1e-12
    assert result.first_action == result.actions[0]
    assert len(result.actions) == 4


def test_plan_pure_reward_recovers_nominal_policy():
    model, obs = example1_model()
    pa, values, policy = nominal_setup(model)
    for horizon in (1, 2, 3, 4):
        cfg = PlannerConfig(horizon, 1.0, 0.0, 0.0)
        for x in range(3):
            result = plan(model, obs, pa, values, x, uniform_belief(3), cfg)
            assert result.first_action == policy.actions[x]


@pytest.mark.parametrize(
    "horizon, exposure_weight", [(1, 1.0), (1, 0.0), (2, 0.0), (3, 0.0), (4, 0.0)]
)
def test_plan_flags_all_zero_tie_and_returns_lowest_sequence(horizon, exposure_weight):
    # No reward weight, and either a single step (no interior stages exist
    # to expose) or no exposure weight: every admissible sequence scores
    # exactly zero, so the planner must flag the tie and return the
    # lexicographically first sequence.
    model, obs = smoothed_example1()
    pa, values, _ = nominal_setup(model)
    cfg = PlannerConfig(horizon, 0.0, exposure_weight, 0.0)
    result = plan(model, obs, pa, values, 0, uniform_belief(3), cfg)
    assert result.sequences_scored == 2**horizon
    assert result.objective == 0.0
    assert result.tied
    assert result.actions == (0,) * horizon
    if horizon == 1:
        assert result.detection_term == 0.0


def test_plan_unique_best_sequence_is_not_tied():
    model, obs = smoothed_example1()
    pa, values, _ = nominal_setup(model)
    cfg = PlannerConfig(3, 0.5, 0.5, 0.0)
    result = plan(model, obs, pa, values, 0, uniform_belief(3), cfg)
    objectives = [score.objective for score in result.sequences]
    assert objectives.count(max(objectives)) == 1
    assert not result.tied


def test_plan_refuses_a_tree_beyond_the_size_cap():
    # 2**39 sequences over 3**39 observation histories: the guard must
    # refuse before the depth whose tensors would pass the cap is built.
    model, obs = example1_model()
    pa, values, _ = nominal_setup(model)
    cfg = PlannerConfig(40, 0.5, 0.5, 0.0)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(SizeOverflow, match="horizon 40"):
            plan(model, obs, pa, values, 0, uniform_belief(3), cfg)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    # a few tensors at most the cap's size are alive at once
    assert peak < 3 * 8 * MAX_TREE_ENTRIES


def test_plan_raises_when_everything_is_pruned():
    transition = np.zeros((2, 2, 1))
    transition[1, 0, 0] = 1.0
    transition[1, 1, 0] = 1.0
    model = MdpModel(2, 1, transition, np.zeros((2, 1)), 0.9)
    obs = ObservationModel(2, np.eye(2))
    pa = np.eye(2)  # static observer: the forced jump is inexplicable
    cfg = PlannerConfig(2, 1.0, 0.0, 0.0)
    with pytest.raises(NoAdmissibleSequence):
        plan(model, obs, pa, np.zeros(2), 0, point_belief(2, 0), cfg)


def test_tail_weight_bound_and_warning():
    model, obs = smoothed_example1()
    pa, values, _ = nominal_setup(model)
    lam = model.discount
    cfg = PlannerConfig(3, 0.5, 0.5, 0.0)
    hi = suggested_tail_weight_bound(cfg, lam)
    assert abs(hi - lam**3 / (1.0 - lam**3) * 0.5) < 1e-12

    inside = PlannerConfig(3, 0.5, 0.5, min(0.2, hi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan(model, obs, pa, values, 0, uniform_belief(3), inside)

    above = PlannerConfig(3, 0.5, 0.5, hi * 2.0 + 1.0)
    with pytest.warns(RuntimeWarning, match="tail exposure weight"):
        plan(model, obs, pa, values, 0, uniform_belief(3), above)

    below = PlannerConfig(3, 0.5, 0.5, -0.5)
    with pytest.warns(RuntimeWarning, match="tail exposure weight"):
        plan(model, obs, pa, values, 0, uniform_belief(3), below)


def test_plan_rejects_nonpositive_horizon():
    with pytest.raises(ValueError):
        PlannerConfig(0, 1.0, 0.0, 0.0)


def test_plan_log_records_scored_and_pruned_events(tmp_path):
    model, obs, pa = two_state_trap()
    values = np.zeros(2)
    cfg = PlannerConfig(2, 1.0, 0.0, 0.0)
    log = tmp_path / "plan_log.jsonl"
    result = plan(model, obs, pa, values, 0, point_belief(2, 0), cfg, log_path=str(log))
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert lines[0]["event"] == "plan"
    assert lines[0]["horizon"] == 2
    scored = [e for e in lines if e["event"] == "scored"]
    pruned = [e for e in lines if e["event"] == "pruned"]
    assert len(scored) == result.sequences_scored == 1
    assert scored[0]["actions"] == [0, 0]
    assert abs(scored[0]["objective"] - result.objective) < 1e-15
    # the jump action is pruned both at the root and after one stay
    assert {tuple(e["prefix"]) + (e["action"],) for e in pruned} == {(1,), (0, 1)}
