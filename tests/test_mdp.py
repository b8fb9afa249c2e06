"""Nominal MDP solving: value iteration, policies, induced chain, files."""

import numpy as np
import pytest

from covertmdp import (
    MdpModel,
    ModelFormatError,
    example1_model,
    extract_nominal_policy,
    induced_chain,
    nominal_value_iteration,
    validate_model,
)
from covertmdp.mdp import (
    bellman_backup,
    load_model_file,
    model_from_dict,
    model_to_dict,
    save_model_file,
)

import _oracles


def single_state_model(reward_value=0.7, discount=0.9):
    transition = np.ones((1, 1, 1))
    reward = np.array([[reward_value]])
    return MdpModel(1, 1, transition, reward, discount)


def two_state_switch_model():
    """Deterministic two-state, two-action model: stay or swap."""
    transition = np.zeros((2, 2, 2))
    transition[0, 0, 0] = transition[1, 1, 0] = 1.0  # action 0: stay
    transition[1, 0, 1] = transition[0, 1, 1] = 1.0  # action 1: swap
    reward = np.array([[1.0, 0.0], [0.2, 0.0]])
    return MdpModel(2, 2, transition, reward, 0.5)


def test_validate_model_accepts_example1():
    model, _ = example1_model()
    assert validate_model(model) == []


def test_validate_model_flags_bad_column():
    model, _ = example1_model()
    transition = model.transition.copy()
    transition[0, 1, 0] += 0.25
    bad = MdpModel(3, 2, transition, model.reward, model.discount)
    problems = validate_model(bad)
    assert problems
    assert any("x=1" in line and "u=0" in line for line in problems)


def test_validate_model_flags_negative_probability():
    model, _ = example1_model()
    transition = model.transition.copy()
    transition[0, 0, 0] -= 0.9
    transition[1, 0, 0] += 0.9  # column still sums to one
    bad = MdpModel(3, 2, transition, model.reward, model.discount)
    assert any("outside [0, 1]" in line for line in validate_model(bad))


def test_validate_model_flags_discount_out_of_range():
    model, _ = example1_model()
    bad = MdpModel(3, 2, model.transition, model.reward, 1.0)
    assert any("discount" in line for line in validate_model(bad))


def test_single_state_closed_form():
    model = single_state_model(reward_value=0.7, discount=0.9)
    result = nominal_value_iteration(model)
    assert result.converged
    assert result.values[0] == pytest.approx(0.7 / (1 - 0.9), abs=1e-8)


def test_two_state_hand_solved():
    # Staying in state 0 forever earns 1/(1-0.5) = 2. From state 1,
    # staying forever earns 0.2/(1-0.5) = 0.4 while swapping immediately
    # earns 0 + 0.5*2 = 1, so the optimum is stay-at-0, swap-from-1.
    model = two_state_switch_model()
    result = nominal_value_iteration(model)
    policy = extract_nominal_policy(model, result.values)
    assert result.values[0] == pytest.approx(2.0, abs=1e-9)
    assert result.values[1] == pytest.approx(1.0, abs=1e-9)
    assert list(policy.actions) == [0, 1]


def test_value_iteration_matches_policy_enumeration_on_random_models():
    rng = np.random.default_rng(7)
    for _ in range(25):
        transition, reward, _ = _oracles.random_sane_model(rng, 3, 2, 3)
        model = MdpModel(3, 2, transition, reward, 0.9)
        result = nominal_value_iteration(model, tol=1e-12)
        oracle = _oracles.best_value_by_enumeration(transition, reward, 0.9)
        np.testing.assert_allclose(result.values, oracle, atol=1e-8)


def test_fixed_point_residual():
    model, _ = example1_model()
    result = nominal_value_iteration(model, tol=1e-10)
    backed = bellman_backup(model, result.values).max(axis=1)
    assert np.max(np.abs(backed - result.values)) < 1e-9


def test_policy_extraction_prefers_lowest_action_on_ties():
    # Identical columns and rewards for both actions: everything ties.
    transition = np.zeros((2, 2, 2))
    for u in range(2):
        transition[:, 0, u] = [0.5, 0.5]
        transition[:, 1, u] = [0.25, 0.75]
    reward = np.array([[1.0, 1.0], [0.0, 0.0]])
    model = MdpModel(2, 2, transition, reward, 0.9)
    policy = extract_nominal_policy(model, nominal_value_iteration(model).values)
    assert list(policy.actions) == [0, 0]
    assert list(policy.tie_flags) == [True, True]


def test_example1_policy_has_no_ties():
    model, _ = example1_model()
    policy = extract_nominal_policy(model, nominal_value_iteration(model).values)
    assert not policy.tie_flags.any()


def test_induced_chain_is_column_stochastic_and_consistent():
    model, _ = example1_model()
    policy = extract_nominal_policy(model, nominal_value_iteration(model).values)
    chain = induced_chain(model, policy)
    np.testing.assert_allclose(chain.sum(axis=0), np.ones(3), atol=1e-12)
    for s in range(3):
        np.testing.assert_array_equal(
            chain[:, s], model.transition[:, s, policy.actions[s]]
        )


def test_model_file_roundtrip(tmp_path):
    model, _ = example1_model()
    path = tmp_path / "model.json"
    save_model_file(model, path)
    back = load_model_file(path)
    np.testing.assert_array_equal(back.transition, model.transition)
    np.testing.assert_array_equal(back.reward, model.reward)
    assert back.discount == model.discount


def test_model_from_dict_rejects_bad_shapes():
    model, _ = example1_model()
    doc = model_to_dict(model)
    doc["reward"] = [[1.0, 2.0]]  # wrong number of states
    with pytest.raises(ModelFormatError):
        model_from_dict(doc)


def test_model_from_dict_rejects_bad_columns():
    model, _ = example1_model()
    doc = model_to_dict(model)
    doc["transition"][0][0][0] = 0.9  # break a column sum
    with pytest.raises(ModelFormatError) as err:
        model_from_dict(doc)
    assert any("x=0" in line for line in err.value.diagnostics)
