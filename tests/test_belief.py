"""Tests for the observer filter and the joint (state, belief) support."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covertmdp import (
    IllDefinedUpdate,
    extract_nominal_policy,
    ObservationModel,
    ProhibitedAction,
    admissible_actions,
    augmented_transition_support,
    bayes_update,
    induced_chain,
    make_belief,
    nominal_value_iteration,
    point_belief,
    example1_model,
    stage_penalty,
    uniform_belief,
)
from covertmdp.belief import (
    EPS_ZERO,
    JointLaw,
    emission_support,
    observation_predictive,
    load_observation_file,
    observation_from_dict,
    posterior_table,
    save_observation_file,
    validate_observation_model,
)
from covertmdp.mdp import MdpModel

from _oracles import (
    admissible_by_definition,
    forward_filter,
    forward_filter_step,
    random_sane_model,
    random_sparse_model,
)


def identity_chain(n):
    return np.eye(n)


def random_pair(rng, n, m, k, discount=0.9):
    transition, reward, likelihood = random_sane_model(rng, n, m, k)
    model = MdpModel(n, m, transition, reward, discount)
    return model, ObservationModel(k, likelihood)


def nominal_chain(model):
    result = nominal_value_iteration(model)
    policy = extract_nominal_policy(model, result.values)
    return induced_chain(model, policy)


def test_make_belief_normalizes_small_drift():
    o = make_belief([0.5, 0.5 + 5e-10])
    assert abs(o.sum() - 1.0) < 1e-15
    assert not o.flags.writeable


def test_make_belief_rejects_bad_vectors():
    with pytest.raises(ValueError):
        make_belief([0.7, 0.7])
    with pytest.raises(ValueError):
        make_belief([1.2, -0.2])
    with pytest.raises(ValueError):
        make_belief([[0.5, 0.5]])


def test_uniform_and_point_beliefs():
    o = uniform_belief(4)
    np.testing.assert_allclose(o, 0.25)
    e = point_belief(3, 1)
    np.testing.assert_array_equal(e, [0.0, 1.0, 0.0])


def test_bayes_update_two_state_exact_fractions():
    # Identity dynamics, q(0|.) = (0.8, 0.5): posterior after y=0 from a
    # uniform prior is (0.4, 0.25) / 0.65 = (8/13, 5/13).
    pa = identity_chain(2)
    q = np.array([[0.8, 0.5], [0.2, 0.5]])
    o = uniform_belief(2)
    post = bayes_update(pa, q, o, 0)
    np.testing.assert_allclose(post, [8.0 / 13.0, 5.0 / 13.0], atol=1e-15)
    assert abs(observation_predictive(pa, q, o)[0] - 0.65) < 1e-15


def test_bayes_update_matches_forward_filter_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = rng.integers(2, 6)
        k = rng.integers(2, 6)
        model, obs = random_pair(rng, n, 2, k)
        pa = model.transition[:, :, 0]
        o = make_belief(rng.dirichlet(np.ones(n)))
        ys = []
        cur = o
        for _ in range(6):
            pred = observation_predictive(pa, obs.likelihood, cur)
            y = int(rng.choice(k, p=pred / pred.sum()))
            ys.append(y)
            cur = bayes_update(pa, obs.likelihood, cur, y)
        oracle = forward_filter(pa, obs.likelihood, o, ys)
        np.testing.assert_allclose(cur, oracle[-1], atol=1e-10)


def test_bayes_update_rejects_zero_predictive_mass():
    # The observer thinks the agent is pinned at state 0 and only state 1
    # can emit y=1, so seeing y=1 has predictive mass exactly zero.
    pa = identity_chain(2)
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    o = point_belief(2, 0)
    with pytest.raises(IllDefinedUpdate):
        bayes_update(pa, q, o, 1)


def test_posterior_table_matches_single_updates():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = rng.integers(2, 5)
        k = rng.integers(2, 5)
        model, obs = random_pair(rng, n, 2, k)
        pa = model.transition[:, :, 1]
        o = make_belief(rng.dirichlet(np.ones(n)))
        posts, pred, open_y = posterior_table(pa, obs.likelihood, o)
        np.testing.assert_allclose(
            pred, observation_predictive(pa, obs.likelihood, o), atol=1e-14
        )
        np.testing.assert_array_equal(open_y, pred > EPS_ZERO)
        for y in range(k):
            if pred[y] > EPS_ZERO:
                np.testing.assert_allclose(
                    posts[y], bayes_update(pa, obs.likelihood, o, y), atol=1e-14
                )
            else:
                np.testing.assert_array_equal(posts[y], 0.0)
        # a batch of beliefs gives each belief's table
        batch = np.stack([o, uniform_belief(n)])
        b_posts, b_pred, b_open = posterior_table(pa, obs.likelihood, batch)
        for g, belief in enumerate(batch):
            one = posterior_table(pa, obs.likelihood, belief)
            np.testing.assert_allclose(b_posts[g], one[0], atol=1e-14)
            np.testing.assert_allclose(b_pred[g], one[1], atol=1e-14)
            np.testing.assert_array_equal(b_open[g], one[2])


def test_ego_observation_table_matches_loops():
    rng = np.random.default_rng(5)
    transition, reward, likelihood, _ = random_sparse_model(rng, 4, 3, 3)
    model = MdpModel(4, 3, transition, reward, 0.9)
    obs = ObservationModel(3, likelihood)
    table = emission_support(model, obs)
    assert table.shape == (3, 4, 3)
    assert 0 < table.sum() < table.size
    for y in range(obs.num_observations):
        for x in range(model.num_states):
            for u in range(model.num_actions):
                direct = sum(
                    obs.likelihood[y, d] * model.transition[d, x, u]
                    for d in range(model.num_states)
                )
                assert table[u, x, y] == (direct > 0.0)
    for x in range(model.num_states):
        np.testing.assert_array_equal(emission_support(model, obs, x), table[:, x])


def two_state_trap_setup():
    """Action 1 jumps to state 1, whose only reading the observer rules out."""
    transition = np.zeros((2, 2, 2))
    transition[0, 0, 0] = 1.0  # action 0: stay put
    transition[1, 1, 0] = 1.0
    transition[1, 0, 1] = 1.0  # action 1: move to state 1
    transition[1, 1, 1] = 1.0
    reward = np.array([[1.0, 0.0], [0.0, 0.0]])
    model = MdpModel(2, 2, transition, reward, 0.9)
    obs = ObservationModel(2, np.eye(2))
    pa = identity_chain(2)  # observer expects the agent never to move
    return model, obs, pa


def test_prohibited_actions_flags_surprising_move():
    model, obs, pa = two_state_trap_setup()
    o = point_belief(2, 0)
    assert admissible_actions(model, obs, pa, 0, o) == [0]
    assert admissible_actions(model, obs, pa, 1, o) == []


def test_nothing_prohibited_under_uninformative_sensor():
    model, _, pa = two_state_trap_setup()
    flat = ObservationModel(2, np.full((2, 2), 0.5))
    o = point_belief(2, 0)
    assert admissible_actions(model, flat, pa, 0, o) == [0, 1]


def test_stage_penalty_reads_true_state_mass():
    o = make_belief([0.2, 0.5, 0.3])
    assert stage_penalty(1, o) == 0.5
    assert stage_penalty(2, o) == pytest.approx(0.3)


def test_support_mass_and_atom_count_random_models():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = rng.integers(2, 5)
        k = rng.integers(2, 5)
        model, obs = random_pair(rng, n, 3, k)
        pa = nominal_chain(model)
        o = make_belief(rng.dirichlet(np.ones(n)))
        x = int(rng.integers(n))
        for u in admissible_actions(model, obs, pa, x, o):
            sup = augmented_transition_support(model, obs, pa, x, o, u)
            assert abs(sup.probs.sum() - 1.0) < 1e-9
            assert len(sup.probs) <= n * k
            # state marginal recovers the plain transition column
            marg = np.zeros(n)
            np.add.at(marg, sup.states, sup.probs)
            np.testing.assert_allclose(
                marg, model.transition[:, x, u], atol=1e-9
            )


def test_support_atoms_carry_filter_posteriors():
    model, obs = example1_model()
    pa = nominal_chain(model)
    o = uniform_belief(3)
    sup = augmented_transition_support(model, obs, pa, 0, o, 0)
    posts, pred, _ = posterior_table(pa, obs.likelihood, o)
    for b in sup.beliefs:
        hits = [
            y
            for y in range(obs.num_observations)
            if pred[y] > EPS_ZERO and np.max(np.abs(posts[y] - b)) < 1e-9
        ]
        assert hits, "atom belief is not any observation's posterior"


def test_support_single_atom_when_everything_deterministic():
    transition = np.zeros((2, 2, 1))
    transition[1, 0, 0] = 1.0
    transition[1, 1, 0] = 1.0
    model = MdpModel(2, 1, transition, np.zeros((2, 1)), 0.9)
    obs = ObservationModel(2, np.eye(2))
    pa = transition[:, :, 0]
    sup = augmented_transition_support(model, obs, pa, 0, point_belief(2, 0), 0)
    assert len(sup.probs) == 1
    assert sup.states[0] == 1
    assert sup.probs[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(sup.beliefs[0], [0.0, 1.0], atol=1e-12)


def test_support_raises_on_prohibited_action():
    model, obs, pa = two_state_trap_setup()
    o = point_belief(2, 0)
    with pytest.raises(ProhibitedAction) as err:
        augmented_transition_support(model, obs, pa, 0, o, 1)
    msg = str(err.value)
    assert "u=1" in msg and "x=0" in msg and "y=1" in msg


def test_merge_atoms_sums_duplicate_pairs():
    model, obs, pa = two_state_trap_setup()
    states = np.array([0, 0, 1])
    beliefs = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
    probs = np.array([0.25, 0.25, 0.5])
    law = JointLaw.from_atoms(model, obs, pa, states, beliefs, probs)
    np.testing.assert_array_equal(law.beliefs, [[0.5, 0.5]])
    np.testing.assert_allclose(law.mass, [[0.5, 0.5]])


def test_merge_atoms_distinguishes_separated_beliefs():
    model, obs, pa = two_state_trap_setup()
    states = np.array([0, 0, 0])
    beliefs = np.array(
        [[0.5, 0.5], [0.5 + 1e-12, 0.5 - 1e-12], [0.5 + 1e-6, 0.5 - 1e-6]]
    )
    probs = np.array([0.3, 0.3, 0.4])
    law = JointLaw.from_atoms(model, obs, pa, states, beliefs, probs)
    # the 1e-12 twin collapses into the first atom, the 1e-6 one survives
    np.testing.assert_array_equal(law.beliefs, beliefs[[0, 2]])
    np.testing.assert_allclose(law.mass, [[0.6, 0.0], [0.4, 0.0]])


def test_validate_observation_model_diagnostics():
    model, obs = example1_model()
    assert validate_observation_model(obs, model.num_states) == []
    bad_shape = ObservationModel(3, np.full((2, 3), 0.5))
    assert any("shape" in m for m in validate_observation_model(bad_shape, 3))
    col = np.array([[0.6, 0.6, 0.3], [0.3, 0.4, 0.7]])
    bad_col = ObservationModel(2, col)
    msgs = validate_observation_model(bad_col, 3)
    assert any("x=0" in m and "not 1" in m for m in msgs)
    neg = np.array([[1.2, 0.5], [-0.2, 0.5]])
    msgs = validate_observation_model(ObservationModel(2, neg), 2)
    assert any("outside [0, 1]" in m for m in msgs)


def test_observation_file_roundtrip(tmp_path):
    _, obs = example1_model()
    path = tmp_path / "obs.json"
    save_observation_file(obs, path)
    back = load_observation_file(path, num_states=3)
    assert back.num_observations == obs.num_observations
    np.testing.assert_allclose(back.likelihood, obs.likelihood, atol=1e-15)


def test_observation_from_dict_rejects_bad_columns():
    doc = {
        "num_observations": 2,
        "likelihood": [[0.9, 0.9], [0.0, 0.1]],
    }
    with pytest.raises(Exception) as err:
        observation_from_dict(doc, num_states=2)
    assert "not 1" in str(err.value)


def test_filter_step_oracle_agrees_on_example1():
    model, obs = example1_model()
    pa = nominal_chain(model)
    o = uniform_belief(3)
    for y in range(obs.num_observations):
        pred = observation_predictive(pa, obs.likelihood, o)[y]
        if pred <= EPS_ZERO:
            continue
        ours = bayes_update(pa, obs.likelihood, o, y)
        oracle = forward_filter_step(pa, obs.likelihood, o, y)
        np.testing.assert_allclose(ours, oracle, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    m=st.integers(1, 4),
    k=st.integers(2, 4),
)
def test_admissible_actions_match_definition(seed, n, m, k):
    rng = np.random.default_rng(seed)
    transition, reward, likelihood, chain = random_sparse_model(rng, n, m, k)
    model = MdpModel(n, m, transition, reward, 0.9)
    obs = ObservationModel(k, likelihood)
    x = int(rng.integers(n))
    # a belief with exact zeros, its positive entries bounded away from zero
    weights = rng.uniform(0.1, 1.0, size=n) * (rng.random(n) < 0.5)
    weights[x] = rng.uniform(0.1, 1.0)
    o = make_belief(weights / weights.sum())
    expected = admissible_by_definition(transition, likelihood, chain, x, o)
    assert admissible_actions(model, obs, chain, x, o) == expected
