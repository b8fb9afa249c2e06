"""Tests for open-loop sequence scoring and the receding-horizon planner."""

import dataclasses
import itertools
import json
import time
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from covertmdp import (
    MdpModel,
    NoAdmissibleSequence,
    ObservationModel,
    Observer,
    PlannerConfig,
    ProhibitedAction,
    RecedingHorizonController,
    SizeOverflow,
    admissible_actions,
    augmented_transition_support,
    example1_model,
    extract_nominal_policy,
    induced_chain,
    nominal_value_iteration,
    plan,
    point_belief,
    run_closed_loop,
    uniform_belief,
)
from covertmdp.augmented import solve_augmented_vi
from covertmdp.belief import (
    bayes_update,
    emitting,
    joint_step,
    open_observations,
    posterior_table,
)
from covertmdp import models, rho
from covertmdp.rho import MAX_TREE_ENTRIES, PlanMemo, suggested_tail_weight_bound
from covertmdp.sim import AugmentedValueController

from _oracles import (
    exact_planner_scores,
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


def assert_winner_is_first_maximum(result):
    """Every winner property of ``result`` reads the first maximum of its
    scored sequences (np.argmax's), and ``tied`` is set exactly when
    another sequence scored the same."""
    objectives = np.array([s.objective for s in result.sequences])
    best = result.sequences[int(np.argmax(objectives))]
    assert (result.actions, result.first_action, result.objective, result.reward_term,
            result.tail_term, result.detection_term, result.sequences_scored) == (
        best.actions, best.actions[0], best.objective, best.reward_term,
        best.tail_term, best.detection_term, len(result.sequences))
    assert result.tied == (np.count_nonzero(objectives == best.objective) > 1)


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


def test_plan_reward_term_constant_reward_closed_form():
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


def test_plan_reward_term_single_action_is_stage_reward():
    model, obs = example1_model()
    pa, values, _ = nominal_setup(model)
    cfg = PlannerConfig(1, 1.0, 0.0, 0.0)
    for x in range(3):
        scores = scores_by_sequence(model, obs, pa, values, x, uniform_belief(3), cfg)
        for u in range(2):
            assert scores[(u,)].reward_term == model.reward[x, u]


def test_plan_reward_term_matches_monte_carlo():
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


def test_plan_tail_term_deterministic_and_constant_cases():
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


def test_plan_detection_term_single_action_is_zero():
    model, obs = smoothed_example1()
    pa, values, _ = nominal_setup(model)
    cfg = PlannerConfig(1, 0.5, 0.5, 0.0)
    for x in range(3):
        scores = scores_by_sequence(model, obs, pa, values, x, uniform_belief(3), cfg)
        assert sorted(scores) == [(0,), (1,)]
        for score in scores.values():
            assert score.detection_term == 0.0


def test_plan_detection_term_perfect_tracking_closed_form():
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


def test_plan_detection_term_matches_monte_carlo():
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
    # The pruned prefixes, on the result or on the error when nothing is
    # left, are exactly the minimal ones that can emit an observation the
    # observer's predictive rules out.
    rng = np.random.default_rng(seed)
    transition, reward, likelihood, chain = random_sparse_model(rng, n, m, k)
    model = MdpModel(n, m, transition, reward, 0.9)
    obs = ObservationModel(k, likelihood)
    values = rng.uniform(0.0, 5.0, size=n)
    x0 = int(rng.integers(n))
    o0 = rng.dirichlet(np.ones(n))
    cfg = PlannerConfig(horizon, 0.5, 0.5, 0.0)
    try:
        result = plan(model, obs, chain, values, x0, o0, cfg)
        assert_winner_is_first_maximum(result)
        scores = {s.actions: s for s in result.sequences}
        pruned = result.pruned
    except NoAdmissibleSequence as exc:
        scores, pruned = {}, exc.pruned
    assert pruned == tuple(sorted(pruned))
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


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    m=st.integers(1, 3),
    k=st.integers(1, 3),
    horizon=st.integers(1, 4),
)
def test_closed_form_terms_match_path_enumeration(seed, n, m, k, horizon):
    # An observer that rules nothing out scores every sequence from its
    # root's closed-form tables, with no tree walk. Every sequence must
    # still score as brute force does, and sequences that differ only in
    # their last action share their exposure bit for bit, as no reading
    # after the last action is scored.
    # The oracle walks (states x readings)**horizon paths per sequence
    assume(m ** horizon * (n * k) ** horizon <= 150_000)
    rng = np.random.default_rng(seed)
    model, obs = random_pair(rng, n, m, k)
    pa = rng.dirichlet(np.ones(n), size=n).T
    observer = Observer(model, obs, pa)
    assume(observer.rules_out_nothing)
    values = rng.uniform(0.0, 5.0, size=n)
    x0 = int(rng.integers(n))
    o0 = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)
    if o0.sum() == 0.0:
        o0[x0] = 1.0
    o0 /= o0.sum()
    memo = PlanMemo(observer, values)
    result = plan(model, obs, pa, values, x0, o0, PlannerConfig(horizon, 0.5, 0.5, 0.0),
                  memo=memo)
    assert list(memo.closed) == [(x0, horizon)]
    assert_winner_is_first_maximum(result)
    assert [s.actions for s in result.sequences] == list(
        itertools.product(range(m), repeat=horizon)
    )
    posteriors = {}
    for score in result.sequences:
        r1, r2, r3 = sequence_terms_by_path_enumeration(
            model.transition, model.reward, model.discount, obs.likelihood, pa,
            values, x0, o0, list(score.actions), posteriors,
        )
        assert abs(score.reward_term - r1) < 1e-10
        assert abs(score.tail_term - r2) < 1e-10
        assert abs(score.detection_term - r3) < 1e-10
    for _, siblings in itertools.groupby(result.sequences, lambda s: s.actions[:-1]):
        assert len({s.detection_term for s in siblings}) == 1


def test_plan_objective_is_the_stated_combination():
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
# the joint-law step


def point_mass(n, x):
    """The joint law of one row that puts all mass on (empty history, x)."""
    mass = np.zeros((1, 1, n))
    mass[0, 0, x] = 1.0
    return mass


def test_joint_step_deterministic_single_history():
    transition = np.zeros((2, 2, 1))
    transition[1, 0, 0] = 1.0
    transition[1, 1, 0] = 1.0
    obs = ObservationModel(2, np.eye(2))
    observer = Observer(MdpModel(2, 1, transition, np.zeros((2, 1)), 0.9), obs,
                        transition[:, :, 0])
    mass, live = joint_step(point_mass(2, 0), transition.T[[0]], obs.likelihood)
    posteriors, _, _ = posterior_table(observer, point_belief(2, 0))
    beliefs = posteriors[live]
    np.testing.assert_allclose(beliefs, [[0.0, 1.0]], atol=1e-12)
    np.testing.assert_allclose(mass[0], [[0.0, 1.0]], atol=1e-12)
    # the observer's mean belief in the agent's true state
    assert np.sum(beliefs * mass[0]) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    m=st.integers(1, 3),
    k=st.integers(2, 4),
)
def test_joint_step_conserves_mass_and_state_marginal(seed, n, m, k):
    rng = np.random.default_rng(seed)
    transition, reward, likelihood, chain = random_sparse_model(rng, n, m, k)
    model = MdpModel(n, m, transition, reward, 0.9)
    observer = Observer(model, ObservationModel(k, likelihood), chain)
    support = observer.emits
    x0 = int(rng.integers(n))
    mass = point_mass(n, x0)
    beliefs = rng.dirichlet(np.ones(n))[None, :]
    chain_marginal = np.zeros(n)
    chain_marginal[x0] = 1.0
    for _ in range(4):
        posteriors, _, open_y = posterior_table(observer, beliefs)
        blocked = emitting(mass, support) @ ~open_y.ravel()
        open_actions = np.flatnonzero(~blocked)
        if open_actions.size == 0:
            break
        u = int(rng.choice(open_actions))
        mass, live = joint_step(mass, transition.T[[u]], likelihood)
        # drop the histories through observations the observer rules out
        keep = open_y.ravel()[live]
        mass, beliefs = mass[:, keep], posteriors.reshape(-1, n)[live[keep]]
        chain_marginal = transition[:, :, u] @ chain_marginal
        assert abs(mass.sum() - 1.0) < 1e-9
        np.testing.assert_allclose(mass[0].sum(axis=0), chain_marginal, atol=1e-9)
        np.testing.assert_allclose(beliefs.sum(axis=1), 1.0, atol=1e-9)
        assert len(beliefs) <= k ** 4


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


def test_emitting_blocks_surprising_move_and_support_names_it():
    model, obs, pa = two_state_trap()
    observer = Observer(model, obs, pa)
    _, _, open_y = posterior_table(observer, point_belief(2, 0))
    reach = emitting(point_mass(2, 0), observer.emits)
    assert (reach @ ~open_y).tolist() == [False, True]
    with pytest.raises(ProhibitedAction) as err:
        augmented_transition_support(observer, 0, point_belief(2, 0), 1)
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


@pytest.mark.parametrize("horizon, first", [(1, (1,)), (2, (1, 1))])
def test_plan_picks_the_first_of_a_tie_that_is_not_at_index_0(horizon, first):
    # One state, one reading, rewards [0, 1, 1]: the best sequences are the
    # ones that never play action 0, all tied exactly, the first of them at
    # index 1 (horizon 1) or 4 (horizon 2).
    model = MdpModel(1, 3, np.ones((1, 1, 3)), np.array([[0.0, 1.0, 1.0]]), 0.9)
    obs = ObservationModel(1, np.ones((1, 1)))
    result = plan(model, obs, np.ones((1, 1)), np.zeros(1), 0, np.ones(1),
                  PlannerConfig(horizon, 1.0, 0.0, 0.0))
    objectives = [s.objective for s in result.sequences]
    assert objectives.index(max(objectives)) == {1: 1, 2: 4}[horizon]
    assert result.actions == first
    assert result.objective == max(objectives)
    assert result.tied


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    m=st.integers(1, 3),
    k=st.integers(1, 3),
    horizon=st.integers(1, 3),
    example1=st.booleans(),
    coarse=st.booleans(),
)
def test_plan_picks_numpys_first_maximum_and_flags_exact_ties(
    seed, n, m, k, horizon, example1, coarse
):
    # The pick against np.argmax and count_nonzero over the scored
    # sequences. Coarse rewards with no exposure weight and no tail make
    # exact ties common.
    rng = np.random.default_rng(seed)
    if example1:
        model, obs = example1_model()
        pa, values, _ = nominal_setup(model)
    else:
        transition, reward, likelihood, pa = random_sparse_model(rng, n, m, k)
        model = MdpModel(n, m, transition, reward, 0.9)
        obs = ObservationModel(k, likelihood)
        values = rng.uniform(0.0, 5.0, size=n)
    n, m = model.num_states, model.num_actions
    weights = rng.uniform(0.0, 1.0, size=2)
    if coarse:
        reward = rng.integers(0, 2, size=(n, m)).astype(float)
        model = MdpModel(n, m, model.transition, reward, model.discount)
        values, weights[1] = np.zeros(n), 0.0
    o = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)
    x = int(rng.integers(n))
    o[x] += o.sum() == 0.0
    try:
        result = plan(model, obs, pa, values, x, o / o.sum(),
                      PlannerConfig(horizon, *weights, 0.0))
    except NoAdmissibleSequence:
        return
    assert_winner_is_first_maximum(result)
    objectives = np.array([s.objective for s in result.sequences])
    event(f"tied={result.tied}, first={objectives.argmax() == 0}")


def test_plan_result_is_a_view_of_the_scored_table():
    # The result holds the term lists and the winner's row, nothing of the
    # winner twice; its repr still shows the winner's fields and pruned.
    model, obs, pa = two_state_trap()
    result = plan(model, obs, pa, np.zeros(2), 0, point_belief(2, 0),
                  PlannerConfig(2, 1.0, 0.0, 0.0))
    assert [f.name for f in dataclasses.fields(result)] == ["pruned", "_terms", "_best"]
    assert sorted(vars(result)) == ["_best", "_terms", "pruned"]
    assert repr(result) == (
        "PlanResult(actions=(0, 0), objective=0.0, reward_term=0.0, tail_term=0.0, "
        "detection_term=0.9, sequences_scored=1, tied=False, pruned=((0, 1), (1,)))"
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.actions = (1, 1)


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


def test_plan_at_zero_tail_weight_never_reads_the_tail_weight_bound(monkeypatch):
    # wap = 0 lies in [0, bound] whenever wa >= 0, and the warning is off
    # for wa < 0, so the bound is not computed; at any other wap it is.
    def no_bound(*args):
        raise AssertionError("the tail-weight bound was computed")

    monkeypatch.setattr(rho, "suggested_tail_weight_bound", no_bound)
    model, obs = smoothed_example1()
    pa, values, _ = nominal_setup(model)
    memo = PlanMemo(Observer(model, obs, pa), values)
    for wa in (0.5, 0.0, -1.0):
        for wap in (0.0, -0.0):
            plan(model, obs, pa, values, 0, uniform_belief(3),
                 PlannerConfig(3, 0.5, wa, wap), memo=memo)
    with pytest.raises(AssertionError, match="bound was computed"):
        plan(model, obs, pa, values, 0, uniform_belief(3),
             PlannerConfig(3, 0.5, 0.5, 0.1), memo=memo)


def test_plan_rejects_nonpositive_horizon():
    with pytest.raises(ValueError):
        PlannerConfig(0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "args",
    [
        (2.5, 1.0, 0.0, 0.0), (2.0,), (True,), ("2",),
        (2, np.nan), (2, 1.0, np.inf), (2, 1.0, 0.0, -np.inf),
    ],
)
def test_planner_config_refuses_fractional_horizons_and_non_finite_weights(args):
    with pytest.raises(ValueError):
        PlannerConfig(*args)


def test_planner_config_accepts_numpy_horizons_and_negative_weights():
    # criterion 7 plays wa = -1
    config = PlannerConfig(np.int64(2), 1.0, -1.0, 0.0)
    assert (config.horizon, config.exposure_weight) == (2, -1.0)
    assert type(config.horizon) is int
    # the CLI's plan log holds the config, and JSON cannot write a numpy
    # integer; the planner takes a numpy integer state
    assert json.loads(json.dumps(asdict(config))) == {
        "horizon": 2, "reward_weight": 1.0, "exposure_weight": -1.0,
        "tail_exposure_weight": 0.0,
    }
    model, obs = smoothed_example1()
    pa, values, _ = nominal_setup(model)
    result = plan(model, obs, pa, values, np.int64(1), uniform_belief(3), config)
    assert result.sequences_scored == 4 and result.pruned == ()


def test_plan_log_records_scored_and_pruned_events():
    # the result records both; the CLI's plan log prints them
    model, obs, pa = two_state_trap()
    values = np.zeros(2)
    cfg = PlannerConfig(2, 1.0, 0.0, 0.0)
    result = plan(model, obs, pa, values, 0, point_belief(2, 0), cfg)
    assert len(result.sequences) == result.sequences_scored == 1
    assert result.sequences[0].actions == (0, 0)
    assert abs(result.sequences[0].objective - result.objective) < 1e-15
    # the jump action is pruned both after one stay and at the root, sorted
    assert result.pruned == ((0, 1), (1,))


def test_plan_sequences_are_the_logged_scores():
    # sequences is built on first read, in lexicographic order, and with
    # the pruned prefixes it covers every sequence (the CLI logs both)
    rng = np.random.default_rng(12)
    cases = [(*smoothed_example1(), None)]
    for _ in range(3):
        transition, reward, likelihood, chain = random_sparse_model(rng, 4, 2, 3)
        cases.append(
            (MdpModel(4, 2, transition, reward, 0.9), ObservationModel(3, likelihood), chain)
        )
    for model, obs, chain in cases:
        pa, values, _ = nominal_setup(model)
        pa = pa if chain is None else chain
        memo = PlanMemo(Observer(model, obs, pa), values)
        for x, o, cfg in random_calls(rng, model.num_states, 8):
            try:
                result = plan(model, obs, pa, values, x, o, cfg, memo=memo)
            except NoAdmissibleSequence as exc:
                assert_pruned_cover(exc.pruned, set(), model.num_actions, cfg.horizon)
                continue
            actions = [s.actions for s in result.sequences]
            assert actions == sorted(actions)
            assert_winner_is_first_maximum(result)
            assert_pruned_cover(
                result.pruned, {s.actions for s in result.sequences},
                model.num_actions, cfg.horizon,
            )


def assert_pruned_cover(pruned, scored, num_actions, horizon):
    """Every sequence is scored or extends exactly one pruned prefix, and
    the prefixes come sorted."""
    assert list(pruned) == sorted(set(pruned))
    for seq in itertools.product(range(num_actions), repeat=horizon):
        cuts = [d for d in range(1, horizon + 1) if seq[:d] in pruned]
        assert len(cuts) == (seq not in scored)


# ---------------------------------------------------------------------------
# histories through ruled-out observations, and the memo


def tiny_likelihood_model():
    """Three states; state 1 reads 2 with probability 1e-13.

    An observer with no mass on state 2 rules reading 2 out. Actions 0 and
    1 still stay admissible (their chance of reading 2 is below EPS_ZERO),
    so the belief tree reaches a history through an observation its parent
    rules out, carrying about 1e-13 of mass. Action 2 is always pruned."""
    transition = np.zeros((3, 3, 3))
    transition[0, :, 0] = 0.5
    transition[1, :, 0] = 0.5
    transition[0, :, 1] = 0.1
    transition[1, :, 1] = 0.9
    transition[2, :, 2] = 1.0
    reward = np.array([[1.0, 0.3, 0.0], [0.5, 0.9, 0.2], [0.0, 0.1, 0.9]])
    model = MdpModel(3, 3, transition, reward, 0.9)
    likelihood = np.array(
        [[0.6, 0.0, 0.3], [0.4, 1.0 - 1e-13, 0.2], [0.0, 1e-13, 0.5]]
    )
    pa = np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.0], [0.0, 0.0, 0.5]])
    values = np.array([2.0, 1.0, 0.5])
    return model, ObservationModel(3, likelihood), pa, values


# (actions, reward, tail, detection, objective) of every scored sequence and
# the pruned log from state 0 under belief (0.5, 0.5, 0), as printed by the
# planner when it zeroed the mass of ruled-out observations in its branch
# tensor instead of leaving their histories unoccupied
TINY_RECORDED = {
    1: ([((0,), 1.0, 1.35, 0.0, 1.175), ((1,), 0.3, 0.9900000000000001, 0.0, 0.645)], [(2,)]),
    2: (
        [
            ((0, 0), 1.675, 1.215, 0.6428571428571053, 1.1235714285714473),
            ((0, 1), 1.54, 0.8910000000000001, 0.6428571428571053, 0.8940714285714474),
            ((1, 0), 0.795, 1.215, 0.6428571428570693, 0.6835714285714655),
            ((1, 1), 1.056, 0.8910000000000001, 0.6428571428570693, 0.6520714285714654),
        ],
        [(0, 2), (1, 2), (2,)],
    ),
    3: (
        [
            ((0, 0, 0), 2.2825, 1.0935000000000001, 1.2214285714284712, 1.0772857142857646),
            ((0, 0, 1), 2.161, 0.8019000000000002, 1.2214285714284712, 0.8707357142857646),
            ((0, 1, 0), 1.9855, 1.0935000000000001, 1.2214285714284387, 0.9287857142857807),
            ((0, 1, 1), 2.2204, 0.8019000000000002, 1.2214285714284387, 0.9004357142857808),
            ((1, 0, 0), 1.4025, 1.0935000000000001, 1.221428571428412, 0.6372857142857942),
            ((1, 0, 1), 1.2810000000000001, 0.8019000000000002, 1.221428571428412, 0.43073571428579416),
            ((1, 1, 0), 1.5015, 1.0935000000000001, 1.2214285714283797, 0.6867857142858103),
            ((1, 1, 1), 1.7364000000000002, 0.8019000000000002, 1.2214285714283797, 0.6584357142858104),
        ],
        [(0, 0, 2), (0, 1, 2), (0, 2), (1, 0, 2), (1, 1, 2), (1, 2), (2,)],
    ),
}


@pytest.mark.parametrize("horizon", [1, 2, 3])
def test_plan_histories_through_ruled_out_observations_block_nothing(horizon):
    # Such a history holds no belief: left with an all-zero one it would
    # rule out every observation at the next depth and prune every prefix
    # that reaches it. Horizon 1 reads only the root, which every belief
    # occupies, so there the unoccupied-row mask must clear nothing.
    model, obs, pa, values = tiny_likelihood_model()
    cfg = PlannerConfig(horizon, 0.5, 0.5, 0.0)
    result = plan(model, obs, pa, values, 0, np.array([0.5, 0.5, 0.0]), cfg)
    expected, expected_pruned = TINY_RECORDED[horizon]
    assert [s.actions for s in result.sequences] == [e[0] for e in expected]
    for score, (_, *terms) in zip(result.sequences, expected):
        got = [score.reward_term, score.tail_term, score.detection_term, score.objective]
        assert got == pytest.approx(terms, rel=1e-14, abs=0.0)
    assert list(result.pruned) == expected_pruned


def outcomes(model, obs, pa, values, calls, memo=None):
    """repr of every call's PlanResult (the winner's fields and the pruned
    prefixes) and its sequences, or its exception's type, message and
    pruned prefixes. Each result's winner is checked against its sequences."""
    kwargs = {} if memo is None else {"memo": memo}
    out = []
    for x, o, cfg in calls:
        try:
            result = plan(model, obs, pa, values, x, o, cfg, **kwargs)
            assert_winner_is_first_maximum(result)
            out.append(repr(result) + repr(result.sequences))
        except (NoAdmissibleSequence, SizeOverflow) as err:
            out.append((type(err).__name__, str(err), getattr(err, "pruned", None)))
    return out


def random_calls(rng, n, count):
    """Planner calls from random states, beliefs with exact zeros and
    horizons 1-4; few states, so calls share the memo's roots."""
    calls = []
    for _ in range(count):
        x = int(rng.integers(n))
        o = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)
        if o.sum() == 0.0:
            o[x] = 1.0
        cfg = PlannerConfig(int(rng.integers(1, 5)), float(rng.random()), float(rng.random()), 0.0)
        calls.append((x, o / o.sum(), cfg))
    return calls


def assert_memo_matches_fresh(model, obs, pa, values, calls):
    memo = PlanMemo(Observer(model, obs, pa), values)
    shared = outcomes(model, obs, pa, values, calls, memo)
    fresh = outcomes(model, obs, pa, values, calls)
    assert shared == fresh
    return memo, shared


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    m=st.integers(1, 3),
    k=st.integers(2, 3),
    kind=st.sampled_from(["sparse", "tiny", "positive"]),
)
def test_shared_memo_plans_like_a_fresh_one(seed, n, m, k, kind):
    # Bitwise: the memo only stores what a fresh call would compute. A
    # positive sensor rules nothing out, so its calls read the closed-form
    # tables; the other two walk the tree unless their draw, too, rules
    # nothing out.
    rng = np.random.default_rng(seed)
    if kind == "tiny":
        model, obs, pa, values = tiny_likelihood_model()
    elif kind == "sparse":
        transition, reward, likelihood, pa = random_sparse_model(rng, n, m, k)
        model = MdpModel(n, m, transition, reward, 0.9)
        obs = ObservationModel(k, likelihood)
        values = rng.uniform(0.0, 5.0, size=n)
    else:
        model, obs = random_pair(rng, n, m, k)
        pa, values, _ = nominal_setup(model)
    calls = random_calls(rng, model.num_states, 12)
    memo, _ = assert_memo_matches_fresh(model, obs, pa, values, calls)
    assert memo.observer.rules_out_nothing or kind != "positive"
    assert bool(memo.closed) == memo.observer.rules_out_nothing


def test_memo_clears_when_full_and_still_plans_like_a_fresh_one(monkeypatch):
    # A cap of 200 entries refuses horizon 4 on example1 and leaves room for
    # a few nodes only, so inserts keep clearing the memo.
    # The smoothed sensor rules nothing out, so the memo holds closed-form
    # tables, which count toward the cap too.
    monkeypatch.setattr(rho, "MAX_TREE_ENTRIES", 200)
    model, obs = smoothed_example1()
    pa, values, _ = nominal_setup(model)
    calls = random_calls(np.random.default_rng(3), 3, 60)
    sizes = []
    memo = PlanMemo(Observer(model, obs, pa), values)
    assert memo.observer.rules_out_nothing
    for call in calls:
        outcomes(model, obs, pa, values, [call], memo)
        sizes.append(memo.nbytes)
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # it was cleared
    _, shared = assert_memo_matches_fresh(model, obs, pa, values, calls)
    assert any(out[0] == "SizeOverflow" for out in shared if isinstance(out, tuple))


def memo_bytes(memo):
    """The bytes of every array the memo holds, counted afresh."""
    total = sum(closed.nbytes() for closed in memo.closed.values())
    nodes = list(memo.roots.values())
    while nodes:
        node = nodes.pop()
        total += node.nbytes()
        nodes += node.children.values()
    return total


def test_closed_form_tables_count_toward_the_memo_and_clear_with_it(monkeypatch):
    model, obs = smoothed_example1()
    pa, values, _ = nominal_setup(model)
    controller = RecedingHorizonController(model, obs, pa, values, PlannerConfig(3, 0.5, 0.5))
    memo = controller.memo
    assert memo.observer.rules_out_nothing
    # building the controller builds no table
    assert (memo.nbytes, memo.roots, memo.closed) == (0, {}, {})
    controller.decide(0, uniform_belief(3))
    assert list(memo.closed) == [(0, 3)]
    closed = memo.closed[(0, 3)]
    # 12 histories of depths 1 and 2 over 3 states; the 4 prefixes of depth 2
    assert closed.evidence.shape == (12, 3) and closed.exposure.shape == (4, 36)
    assert memo.nbytes == memo_bytes(memo)
    assert 0 < closed.nbytes() < memo.nbytes
    # a cap the memo already fills clears it at the next insert
    monkeypatch.setattr(rho, "MAX_TREE_ENTRIES", memo.nbytes // 8)
    controller.decide(1, uniform_belief(3))
    assert (0, 3) not in memo.closed and (0, 3) not in memo.roots
    assert list(memo.closed) == [(1, 3)]
    assert memo.nbytes == memo_bytes(memo)


def test_a_depth_that_rules_nothing_out_adds_one_child_the_closed_form_reuses():
    # The walk reaches such a depth's child through the bytes of an
    # all-False blocked table, which is the key the closed form follows.
    model, obs = smoothed_example1()
    pa, values, _ = nominal_setup(model)
    walker = Observer(model, obs, pa)
    assert walker.rules_out_nothing
    object.__setattr__(walker, "rules_out_nothing", False)  # so plan walks
    memo = PlanMemo(walker, values)
    plan(model, obs, pa, values, 0, uniform_belief(3), PlannerConfig(3, 0.5, 0.5), memo=memo)

    def trie_path():
        # the root's one chain of children, each keyed by an all-False table
        parent, path = memo.roots[(0, 3)], []
        while parent.mass is not None:
            [(key, child)] = parent.children.items()
            assert key == np.zeros((len(parent.mass), model.num_actions), bool).tobytes()
            path.append(child)
            parent = child
        return path

    path = trie_path()
    assert len(path) == 3 and memo.closed == {}
    closed = memo.closed_form(0, 3)
    assert closed.leaf is path[-1]
    assert list(memo.roots) == [(0, 3)] and trie_path() == path  # no node added
    assert memo.nbytes == memo_bytes(memo)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "shape"])
def test_plan_refuses_values_that_are_not_one_finite_number_per_state(bad):
    # Unchecked, a NaN value scored every sequence NaN and still picked one,
    # untied, and values of the wrong shape failed inside numpy's matmul.
    model, obs = example1_model()
    pa, values, _ = nominal_setup(model)
    values = values[:2] if bad == "shape" else np.array([values[0], bad, values[2]])
    cfg = PlannerConfig(2, 0.5, 0.5, 0.0)
    with pytest.raises(ValueError, match="values must be 3 finite numbers"):
        plan(model, obs, pa, values, 0, uniform_belief(3), cfg)
    with pytest.raises(ValueError, match="values must be 3 finite numbers"):
        RecedingHorizonController(model, obs, pa, values, cfg)


def test_plan_refuses_a_memo_built_for_another_model():
    model, obs = smoothed_example1()
    pa, values, _ = nominal_setup(model)
    memo = PlanMemo(Observer(model, obs, pa), values)
    other, other_obs = example1_model()
    with pytest.raises(ValueError, match="memo"):
        plan(other, other_obs, pa, values, 0, uniform_belief(3), PlannerConfig(2), memo=memo)
    with pytest.raises(ValueError, match="memo"):
        plan(model, obs, pa, values + 1.0, 0, uniform_belief(3), PlannerConfig(2), memo=memo)
    with pytest.raises(ValueError, match="memo"):
        plan(model, obs, pa.copy(), values, 0, uniform_belief(3), PlannerConfig(2),
             memo=memo)


def planner_calls(rng, n):
    """Calls at horizons 1-3 from every state and normalized beliefs, one
    with exact zeros."""
    beliefs = [
        rng.dirichlet(np.ones(n)), rng.dirichlet(np.full(n, 0.2)),
        np.eye(n)[int(rng.integers(n))],
    ]
    return [
        (x, o, PlannerConfig(horizon, float(rng.random()), float(rng.random()), 0.0))
        for horizon in (1, 2, 3) for x in range(n) for o in beliefs
    ]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    m=st.integers(1, 3),
    k=st.integers(2, 3),
    example1=st.booleans(),
)
def test_plan_on_an_observer_that_rules_out_nothing_equals_the_general_path(
    seed, n, m, k, example1
):
    # The closed form scores the same sequences as the tree walk, which the
    # twin observer, its flag cleared, takes. Its reward and tail terms are
    # the memo's, so they keep their bits; its exposure divides by the
    # chance of a whole history rather than by each depth's predictive, so
    # it may move in the last digits (1.8e-15 at worst over 3,000 random
    # calls), and 1e-13 bounds that. Roots that are not distributions are
    # refused on both paths.
    rng = np.random.default_rng(seed)
    model, obs = example1_model() if example1 else random_pair(rng, n, m, k)
    pa, values, _ = nominal_setup(model)
    observer = Observer(model, obs, pa)
    assume(observer.rules_out_nothing)
    twin = Observer(model, obs, pa)
    object.__setattr__(twin, "rules_out_nothing", False)
    fast_memo, general_memo = PlanMemo(observer, values), PlanMemo(twin, values)
    for x, o, cfg in planner_calls(rng, model.num_states):
        fast = plan(model, obs, pa, values, x, o, cfg, memo=fast_memo)
        general = plan(model, obs, pa, values, x, o, cfg, memo=general_memo)
        assert_winner_is_first_maximum(fast)
        assert_winner_is_first_maximum(general)
        assert (fast.actions, fast.sequences_scored, fast.tied) == (
            general.actions, general.sequences_scored, general.tied)
        assert [s.actions for s in fast.sequences] == [s.actions for s in general.sequences]
        for a, b in zip(fast.sequences, general.sequences):
            assert (a.reward_term, a.tail_term) == (b.reward_term, b.tail_term)
            assert a.detection_term == pytest.approx(b.detection_term, rel=0.0, abs=1e-13)
            assert a.objective == pytest.approx(b.objective, rel=0.0, abs=1e-13)
        # nothing is pruned where nothing is ruled out
        assert fast.sequences_scored == model.num_actions ** cfg.horizon
        assert fast.pruned == general.pruned == ()
    negative = np.zeros(model.num_states)
    negative[0], negative[1] = 3.0, -2.0
    for o in (negative, np.zeros(model.num_states), np.full(model.num_states, np.nan)):
        for memo in (fast_memo, general_memo):
            with pytest.raises(ValueError, match="not a distribution"):
                plan(model, obs, pa, values, 0, o, PlannerConfig(2), memo=memo)


# ---------------------------------------------------------------------------
# against exact support: the oracle prunes where a predictive is exactly 0,
# where the library prunes at EPS_ZERO

def check_plan_against_exact_support(model, obs, pa, values, x, o, config):
    """``plan`` scores the sequences :func:`exact_planner_scores` admits,
    each within 1e-9 (relative above 1) of its exact objective, and
    ``admissible_actions`` is the exact horizon-1 set."""
    exact = exact_planner_scores(model, obs, pa, values, x, o, config)
    try:
        scored = {
            s.actions: s.objective
            for s in plan(model, obs, pa, values, x, o, config).sequences
        }
    except NoAdmissibleSequence:
        scored = {}
    assert scored.keys() == exact.keys()
    for seq, objective in exact.items():
        assert abs(scored[seq] - float(objective)) <= 1e-9 * max(1.0, abs(objective))
    first = exact_planner_scores(model, obs, pa, values, x, o, replace(config, horizon=1))
    assert admissible_actions(Observer(model, obs, pa), x, o) == sorted(
        u for (u,) in first
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    m=st.integers(1, 3),
    k=st.integers(1, 3),
    horizon=st.integers(1, 3),
    filtered=st.integers(0, 3),
)
def test_plan_prunes_where_exact_support_does_on_sparse_models(
    seed, n, m, k, horizon, filtered
):
    # Entries of a sparse model are exact zeros or at least 0.1 before
    # normalization, so a few filter steps keep every predictive exactly 0
    # or far above EPS_ZERO, and the zero test agrees with exact support.
    rng = np.random.default_rng(seed)
    transition, reward, likelihood, chain = random_sparse_model(rng, n, m, k)
    model = MdpModel(n, m, transition, reward, 0.9)
    obs = ObservationModel(k, likelihood)
    observer = Observer(model, obs, chain)
    values = rng.uniform(0.0, 5.0, size=n)
    o = rng.uniform(0.1, 1.0, size=n) * (rng.random(n) < 0.5)
    o[int(rng.integers(n))] = 1.0
    o /= o.sum()
    for _ in range(filtered):  # along readings the observer leaves open
        y = rng.choice(np.flatnonzero(open_observations(observer, o)))
        o = bayes_update(observer, o, int(y))
    config = PlannerConfig(horizon, *rng.uniform(0.0, 1.0, size=2), 0.0)
    check_plan_against_exact_support(
        model, obs, chain, values, int(rng.integers(n)), o, config
    )


def sparse_closed_loop_decision():
    """Step 14 of the lattice controller's closed loop on
    ``random_sparse_model`` seed 2000 (2 states, 2 actions, 3 readings,
    resolution 1, observer on the nominal chain): belief ``[1, 3.8e-12]``,
    whose predictive of reading 1 is 2.4e-13."""
    rng = np.random.default_rng(2000)
    transition, reward, likelihood, _ = random_sparse_model(rng, 2, 2, 3)
    model = MdpModel(2, 2, transition, reward, 0.9)
    obs = ObservationModel(3, likelihood)
    pa, values, _ = nominal_setup(model)
    o0 = rng.uniform(0.1, 1.0, size=2) * (rng.random(2) < 0.5)
    o0[int(rng.integers(2))] = rng.uniform(0.1, 1.0)
    o0 /= o0.sum()
    value = solve_augmented_vi(
        model, obs, pa, 0.6, 0.4, resolution=1, tol=1e-15, max_iter=2
    ).value
    trace = run_closed_loop(
        model, obs, pa, AugmentedValueController(model, obs, pa, value), o0, 15, 2000, 0
    )
    return model, obs, pa, values, int(trace.states[14]), trace.beliefs[14]


def gridworld_decision(step, x):
    """The observer's belief at ``step`` of the desk gridworld's receding-
    horizon closed loop (horizon 3, wn = wa = 0.5, seed 0, run 0), where the
    agent sits at state 48 with belief on 10 states, paired with state
    ``x``."""
    spec = models.desk_gridworld()
    model, obs = models.gridworld_model(spec)
    pa, values, _ = nominal_setup(model)
    controller = RecedingHorizonController(
        model, obs, pa, values, PlannerConfig(3, 0.5, 0.5, 0.0)
    )
    trace = run_closed_loop(
        model, obs, pa, controller, uniform_belief(model.num_states), step + 1, 0, 0,
        x0=spec.cell_index(*spec.start),
    )
    o = trace.beliefs[step]
    assert (trace.states[step], np.count_nonzero(o)) == (48, 10)
    return model, obs, pa, values, x, o


EPS_ZERO_DISAGREES = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="EPS_ZERO rules out a reading whose exact predictive is positive",
)


@pytest.mark.parametrize(
    "decision, horizon",
    [
        pytest.param(sparse_closed_loop_decision, 2, marks=EPS_ZERO_DISAGREES,
                     id="sparse_seed2000_step14"),
        pytest.param(lambda: gridworld_decision(16, 48), 3, id="grid_step16_at48"),
        pytest.param(lambda: gridworld_decision(16, 27), 2, id="grid_step16_at27"),
        pytest.param(lambda: gridworld_decision(21, 48), 2, id="grid_step21_at48"),
        # reading 7's predictive is 2.0e-14, so plan prunes all 25 sequences
        pytest.param(lambda: gridworld_decision(21, 41), 2, marks=EPS_ZERO_DISAGREES,
                     id="grid_step21_at41"),
    ],
)
def test_plan_prunes_where_exact_support_does_on_closed_loop_beliefs(decision, horizon):
    model, obs, pa, values, x, o = decision()
    check_plan_against_exact_support(
        model, obs, pa, values, x, o, PlannerConfig(horizon, 0.5, 0.5, 0.0)
    )
