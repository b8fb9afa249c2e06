"""Tests for the observer filter and the joint (state, belief) support."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from covertmdp import (
    IllDefinedUpdate,
    ModelFormatError,
    extract_nominal_policy,
    NominalController,
    ObservationModel,
    Observer,
    PlannerConfig,
    ProhibitedAction,
    admissible_actions,
    augmented_transition_support,
    bayes_update,
    induced_chain,
    make_belief,
    nominal_value_iteration,
    plan,
    point_belief,
    example1_model,
    run_closed_loop,
    uniform_belief,
)
from covertmdp.belief import (
    EPS_ZERO,
    emitting,
    load_observation_file,
    open_observations,
    observation_from_dict,
    posterior_table,
    save_observation_file,
)
from covertmdp.augmented import (
    AugmentedValueFunction,
    action_values,
    build_simplex_grid,
    greedy_action,
)
from covertmdp.mdp import MdpModel
from covertmdp.models import desk_gridworld, gridworld_model
from covertmdp.sim import step

from _oracles import (
    admissible_by_definition,
    forward_filter,
    forward_filter_step,
    joint_support_by_definition,
    random_sane_model,
    random_sparse_model,
)
from test_mdp import refusal


def identity_chain(n):
    return np.eye(n)


def chain_observer(pa, q):
    """The observer of chain ``pa`` and likelihood ``q``, on the one-action
    model that follows ``pa``."""
    n = len(pa)
    model = MdpModel(n, 1, pa[:, :, None], np.zeros((n, 1)), 0.9)
    return Observer(model, ObservationModel(len(q), q), pa)


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
    # every range and mass comparison is False for NaN
    for bad in ([np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0], [-np.inf, 1.0, 1.0]):
        with pytest.raises(ValueError, match="not finite"):
            make_belief(bad)


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
    observer = chain_observer(pa, q)
    post = bayes_update(observer, o, 0)
    np.testing.assert_allclose(post, [8.0 / 13.0, 5.0 / 13.0], atol=1e-15)
    assert abs(posterior_table(observer, o)[1][0] - 0.65) < 1e-15


def test_bayes_update_matches_forward_filter_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = rng.integers(2, 6)
        k = rng.integers(2, 6)
        model, obs = random_pair(rng, n, 2, k)
        pa = model.transition[:, :, 0]
        observer = Observer(model, obs, pa)
        o = make_belief(rng.dirichlet(np.ones(n)))
        ys = []
        cur = o
        for _ in range(6):
            pred = posterior_table(observer, cur)[1]
            y = int(rng.choice(k, p=pred / pred.sum()))
            ys.append(y)
            cur = bayes_update(observer, cur, y)
        oracle = forward_filter(pa, obs.likelihood, o, ys)
        np.testing.assert_allclose(cur, oracle[-1], atol=1e-10)


def test_bayes_update_rejects_zero_predictive_mass():
    # The observer thinks the agent is pinned at state 0 and only state 1
    # can emit y=1, so seeing y=1 has predictive mass exactly zero.
    pa = identity_chain(2)
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    o = point_belief(2, 0)
    with pytest.raises(IllDefinedUpdate):
        bayes_update(chain_observer(pa, q), o, 1)


def test_bayes_update_refuses_a_belief_holding_nan():
    # by the filter's own zero test, a NaN predictive is not above EPS_ZERO
    model, obs = example1_model()
    observer = Observer(model, obs, nominal_chain(model))
    for y in range(3):
        with pytest.raises(IllDefinedUpdate, match="predictive probability nan"):
            bayes_update(observer, np.full(3, np.nan), y)


def test_negative_indices_are_refused_not_counted_from_the_end():
    model, obs = example1_model()
    observer = Observer(model, obs, nominal_chain(model))
    o = uniform_belief(3)
    for y in (-1, -3, 3):
        with pytest.raises(ValueError, match=f"observation y={y} outside \\[0, 3\\)"):
            bayes_update(observer, o, y)
    for x in (-1, 3):
        with pytest.raises(ValueError, match=f"state x={x} outside \\[0, 3\\)"):
            point_belief(3, x)
    for u in (-1, 2):
        with pytest.raises(ValueError, match=f"action u={u} outside \\[0, 2\\)"):
            augmented_transition_support(observer, 0, o, u)
    # the last index in range is still served
    assert bayes_update(observer, o, 2).shape == (3,)
    assert point_belief(3, 2).tolist() == [0.0, 0.0, 1.0]
    assert augmented_transition_support(observer, 0, o, 1).probs.sum() > 0.99


def test_posterior_table_matches_single_updates():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = rng.integers(2, 5)
        k = rng.integers(2, 5)
        model, obs = random_pair(rng, n, 2, k)
        pa = model.transition[:, :, 1]
        observer = Observer(model, obs, pa)
        o = make_belief(rng.dirichlet(np.ones(n)))
        posts, pred, open_y = posterior_table(observer, o)
        np.testing.assert_allclose(pred, obs.likelihood @ (pa @ o), atol=1e-14)
        np.testing.assert_array_equal(open_y, pred > EPS_ZERO)
        for y in range(k):
            if pred[y] > EPS_ZERO:
                # one filter arithmetic: the single update is the table's row
                np.testing.assert_array_equal(posts[y], bayes_update(observer, o, y))
            else:
                np.testing.assert_array_equal(posts[y], 0.0)
        # a batch of beliefs gives each belief's table
        batch = np.stack([o, uniform_belief(n)])
        b_posts, b_pred, b_open = posterior_table(observer, batch)
        for g, belief in enumerate(batch):
            one = posterior_table(observer, belief)
            np.testing.assert_allclose(b_posts[g], one[0], atol=1e-14)
            np.testing.assert_allclose(b_pred[g], one[1], atol=1e-14)
            np.testing.assert_array_equal(b_open[g], one[2])


def masked_posteriors(pa, q, beliefs):
    """The filter step for every observation by the masked divide, rows of
    ruled-out observations left at zero."""
    pred_states = (pa @ np.asarray(beliefs, dtype=float).T).T
    numer = q * pred_states[..., None, :]
    predictive = numer.sum(axis=-1)
    open_y = predictive > EPS_ZERO
    return np.divide(
        numer, predictive[..., None], out=np.zeros_like(numer), where=open_y[..., None]
    )


def test_posterior_table_on_open_readings_is_bitwise_the_masked_divide():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n, k = rng.integers(2, 6, size=2)
        model, obs = random_pair(rng, n, 2, k)
        pa = nominal_chain(model)
        observer = Observer(model, obs, pa)
        beliefs = rng.dirichlet(np.ones(n), size=int(rng.integers(1, 9)))
        posts, pred, open_y = posterior_table(observer, beliefs)
        assert open_y.all()  # a strictly positive sensor rules nothing out
        np.testing.assert_array_equal(posts, masked_posteriors(pa, obs.likelihood, beliefs))
        np.testing.assert_array_equal(open_observations(observer, beliefs), open_y)


def test_posterior_table_zeros_the_rows_of_ruled_out_observations():
    # state 0 reads 0 or 1, states 1 and 2 read 1 or 2; the observer is
    # sure of state 0 and expects it to stay, so reading 2 is exactly
    # impossible for the first belief, while the second allows everything
    q = np.array([[0.5, 0.0, 0.0], [0.5, 0.5, 0.25], [0.0, 0.5, 0.75]])
    pa = np.eye(3)
    beliefs = np.array([[1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
    observer = chain_observer(pa, q)
    posts, pred, open_y = posterior_table(observer, beliefs)
    np.testing.assert_array_equal(open_y, [[True, True, False], [True, True, True]])
    assert pred[0, 2] == 0.0
    np.testing.assert_array_equal(posts[0, 2], 0.0)
    np.testing.assert_array_equal(posts, masked_posteriors(pa, q, beliefs))
    np.testing.assert_array_equal(posts[0, :2], [[1.0, 0.0, 0.0]] * 2)
    np.testing.assert_array_equal(open_observations(observer, beliefs), open_y)


def test_emission_support_matches_loops():
    rng = np.random.default_rng(5)
    transition, reward, likelihood, chain = random_sparse_model(rng, 4, 3, 3)
    model = MdpModel(4, 3, transition, reward, 0.9)
    obs = ObservationModel(3, likelihood)
    observer = Observer(model, obs, chain)
    table = observer.emits
    assert table.shape == observer.emission.shape == (3, 4, 3)
    assert 0 < table.sum() < table.size
    for y in range(obs.num_observations):
        for x in range(model.num_states):
            for u in range(model.num_actions):
                direct = sum(
                    obs.likelihood[y, d] * model.transition[d, x, u]
                    for d in range(model.num_states)
                )
                assert observer.emission[u, x, y] == pytest.approx(direct, abs=1e-15)
                assert table[u, x, y] == (direct > 0.0)
    # the batched table of a joint law over (row, history, state)
    mass = rng.uniform(0.1, 1.0, size=(2, 3, 4)) * (rng.random((2, 3, 4)) < 0.15)
    reach = emitting(mass, table)
    assert reach.shape == (2 * 3, 3 * 3)
    assert 0 < reach.sum() < reach.size
    for r in range(2):
        for u in range(3):
            for h in range(3):
                for y in range(3):
                    direct = any(
                        mass[r, h, x] > 0.0 and table[u, x, y] for x in range(4)
                    )
                    assert reach[r * 3 + u, h * 3 + y] == direct


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


def test_admissible_actions_flags_surprising_move():
    observer = Observer(*two_state_trap_setup())
    o = point_belief(2, 0)
    assert admissible_actions(observer, 0, o) == [0]
    assert admissible_actions(observer, 1, o) == []


def test_nothing_prohibited_under_uninformative_sensor():
    model, _, pa = two_state_trap_setup()
    flat = ObservationModel(2, np.full((2, 2), 0.5))
    o = point_belief(2, 0)
    assert admissible_actions(Observer(model, flat, pa), 0, o) == [0, 1]


def test_support_mass_and_atom_count_random_models():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = rng.integers(2, 5)
        k = rng.integers(2, 5)
        model, obs = random_pair(rng, n, 3, k)
        observer = Observer(model, obs, nominal_chain(model))
        o = make_belief(rng.dirichlet(np.ones(n)))
        x = int(rng.integers(n))
        for u in admissible_actions(observer, x, o):
            sup = augmented_transition_support(observer, x, o, u)
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
    observer = Observer(model, obs, pa)
    sup = augmented_transition_support(observer, 0, o, 0)
    posts, pred, _ = posterior_table(observer, o)
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
    observer = Observer(model, obs, transition[:, :, 0])
    sup = augmented_transition_support(observer, 0, point_belief(2, 0), 0)
    assert len(sup.probs) == 1
    assert sup.states[0] == 1
    assert sup.probs[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(sup.beliefs[0], [0.0, 1.0], atol=1e-12)


def test_support_raises_on_prohibited_action():
    observer = Observer(*two_state_trap_setup())
    o = point_belief(2, 0)
    with pytest.raises(ProhibitedAction) as err:
        augmented_transition_support(observer, 0, o, 1)
    msg = str(err.value)
    assert "u=1" in msg and "x=0" in msg and "y=1" in msg


def test_validate_observation_model_diagnostics():
    _, obs = example1_model()
    assert refusal(ObservationModel, obs.num_observations, obs.likelihood) == []
    msgs = refusal(ObservationModel, 3, np.full((2, 3), 0.5))
    assert any("shape" in m for m in msgs)
    col = np.array([[0.6, 0.6, 0.3], [0.3, 0.4, 0.7]])
    msgs = refusal(ObservationModel, 2, col)
    assert any("x=0" in m and "not 1" in m for m in msgs)
    neg = np.array([[1.2, 0.5], [-0.2, 0.5]])
    msgs = refusal(ObservationModel, 2, neg)
    assert any("outside [0, 1]" in m for m in msgs)


def test_a_sensor_whose_rows_are_not_its_observations_is_refused():
    # Unchecked, example1's 3-reading sensor declared with 1 observation
    # gave a lattice whose greedy decision read the wrong rows: action 1 at
    # x=0, o=[0.5, 0.3, 0.2], where the true sensor picks action 0.
    _, obs = example1_model()
    with pytest.raises(ModelFormatError) as err:
        ObservationModel(1, obs.likelihood)
    assert err.value.diagnostics == ["likelihood shape (3, 3) != expected (1, 3)"]
    with pytest.raises(ModelFormatError) as err:
        ObservationModel(3, obs.likelihood[0])
    assert err.value.diagnostics == ["likelihood shape (3,) != expected (3, 3)"]


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


def test_observation_from_dict_refuses_no_observations():
    with pytest.raises(ModelFormatError) as err:
        observation_from_dict({"num_observations": 0, "likelihood": [[1.0], [0.0]]})
    assert err.value.diagnostics == ["num_observations must be positive, got 0"]


def test_make_belief_clips_entries_down_to_minus_eps_zero():
    o = make_belief([1.0 + 1e-13, -1e-13])
    np.testing.assert_array_equal(o, [1.0, 0.0])
    with pytest.raises(ValueError, match="outside"):
        make_belief([1.0 + 1e-11, -1e-11])


def test_filter_step_oracle_agrees_on_example1():
    model, obs = example1_model()
    pa = nominal_chain(model)
    o = uniform_belief(3)
    observer = Observer(model, obs, pa)
    for y in range(obs.num_observations):
        pred = posterior_table(observer, o)[1][y]
        if pred <= EPS_ZERO:
            continue
        ours = bayes_update(observer, o, y)
        oracle = forward_filter_step(pa, obs.likelihood, o, y)
        np.testing.assert_allclose(ours, oracle, atol=1e-12)


def sparse_case(seed, n, m, k):
    """A `random_sparse_model` with a state and a belief that has exact
    zeros, its positive entries bounded away from zero."""
    rng = np.random.default_rng(seed)
    transition, reward, likelihood, chain = random_sparse_model(rng, n, m, k)
    model = MdpModel(n, m, transition, reward, 0.9)
    obs = ObservationModel(k, likelihood)
    x = int(rng.integers(n))
    weights = rng.uniform(0.1, 1.0, size=n) * (rng.random(n) < 0.5)
    weights[x] = rng.uniform(0.1, 1.0)
    return model, obs, chain, x, make_belief(weights / weights.sum())


sparse_sizes = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    m=st.integers(1, 4),
    k=st.integers(2, 4),
)


@settings(max_examples=200, deadline=None)
@given(**sparse_sizes)
def test_admissible_actions_match_definition(seed, n, m, k):
    model, obs, chain, x, o = sparse_case(seed, n, m, k)
    expected = admissible_by_definition(model.transition, obs.likelihood, chain, x, o)
    assert admissible_actions(Observer(model, obs, chain), x, o) == expected


@settings(max_examples=200, deadline=None)
@given(**sparse_sizes)
def test_support_atoms_match_definition(seed, n, m, k):
    model, obs, chain, x, o = sparse_case(seed, n, m, k)
    observer = Observer(model, obs, chain)
    for u in range(m):
        expected = joint_support_by_definition(
            model.transition, obs.likelihood, chain, x, o, u
        )
        if expected is None:
            with pytest.raises(ProhibitedAction):
                augmented_transition_support(observer, x, o, u)
            continue
        sup = augmented_transition_support(observer, x, o, u)
        # equal as multisets of (state, probability, posterior)
        for atom in zip(sup.states, sup.probs, sup.beliefs):
            hits = [
                i for i, (d, p, b) in enumerate(expected)
                if d == atom[0] and abs(p - atom[1]) <= 1e-12
                and np.max(np.abs(b - atom[2])) <= 1e-12
            ]
            assert hits, f"atom {atom} is not in the support by definition"
            del expected[hits[0]]
        assert not expected, f"atoms {expected} are missing"


# ---------------------------------------------------------------------------
# an observer that rules nothing out

def general_twin(observer):
    """An observer of the same tables with ``rules_out_nothing`` cleared,
    so that every admissibility test takes the general path."""
    twin = Observer(observer.model, observer.obs, observer.pa)
    object.__setattr__(twin, "rules_out_nothing", False)
    return twin


def test_rules_out_nothing_only_for_strictly_positive_sensors():
    model, obs = example1_model()
    pa = nominal_chain(model)
    assert Observer(model, obs, pa).rules_out_nothing  # smallest q is 0.05
    grid_model, grid_obs = gridworld_model(desk_gridworld())
    # the range sensor's truncated tails are exact zeros, which clear the flag
    assert not Observer(grid_model, grid_obs, nominal_chain(grid_model)).rules_out_nothing
    # so does a likelihood entry too small for the margin, in a column that
    # is still a distribution
    likelihood = obs.likelihood.copy()
    likelihood[1, 2] += likelihood[0, 2] - 1e-13
    likelihood[0, 2] = 1e-13
    assert not Observer(model, ObservationModel(3, likelihood), pa).rules_out_nothing
    # a NaN or out-of-range sensor entry is refused when the sensor is
    # built, and a chain entry by the observer, before the flag is read
    for entry in (np.nan, -0.1, 1.1):
        likelihood = obs.likelihood.copy()
        likelihood[0, 2] = entry
        with pytest.raises(ModelFormatError, match=r"likelihood q\(0\|2\)"):
            ObservationModel(3, likelihood)
        chain = pa.copy()
        chain[0, 0] = entry
        with pytest.raises(ModelFormatError, match=r"chain entry pa\[0,0\]"):
            Observer(model, obs, chain)
    # and, as the lattice reads the transition's mass, so is a NaN or
    # out-of-range transition entry, or an (x, u) column with no mass, when
    # the model is built
    for column, message in (
        ([np.nan, 0.5, 0.5], r"transition entry p\(0\|1,0\) = nan"),
        ([-0.1, 0.6, 0.5], r"transition entry p\(0\|1,0\) = -0.1"),
        ([1.1, 0.0, -0.1], r"transition entry p\(0\|1,0\) = 1.1"),
        ([0.0] * 3, r"transition column \(x=1, u=0\) sums to 0.0, not 1"),
    ):
        transition = model.transition.copy()
        transition[:, 1, 0] = column
        with pytest.raises(ModelFormatError, match=message):
            MdpModel(3, model.num_actions, transition, model.reward, model.discount)


def test_a_sensor_or_transition_that_is_not_column_stochastic_is_refused_at_every_entry_point():
    # Unchecked, a sensor column scaled to sum 1.5 ran a closed loop and
    # reported an exposure rate, and a transition column scaled to sum 1.3
    # gave a planner decision. Neither can be built now, so its constructor
    # is its one entry point.
    model, obs = example1_model()
    pa = nominal_chain(model)
    values = nominal_value_iteration(model).values
    controller = NominalController(extract_nominal_policy(model, values))
    likelihood = obs.likelihood.copy()
    likelihood[:, 0] *= 1.5
    with pytest.raises(ModelFormatError, match=r"likelihood column x=0 sums to 1.5"):
        ObservationModel(3, likelihood)
    transition = model.transition.copy()
    transition[:, 0, 0] *= 1.3
    with pytest.raises(
        ModelFormatError, match=r"transition column \(x=0, u=0\) sums to 1\.29"
    ):
        MdpModel(3, model.num_actions, transition, model.reward, model.discount)
    # A sensor over 2 states is one, but not of this 3-state model; unchecked,
    # numpy's np.inner refused it as "shapes (2,3,3) and (2,2) not aligned".
    narrow = ObservationModel(3, obs.likelihood[:, :2])
    o, cfg = uniform_belief(3), PlannerConfig(2, 0.5, 0.5)
    for call, args in (
        (Observer, (model, narrow, pa)),
        (plan, (model, narrow, pa, values, 0, o, cfg)),
        (run_closed_loop, (model, narrow, pa, controller, o, 5, 0, 0)),
    ):
        with pytest.raises(ModelFormatError) as err:
            call(*args)
        assert err.value.diagnostics == ["likelihood covers 2 states, not 3"]


def test_a_chain_that_is_not_column_stochastic_is_refused_at_every_entry_point():
    # Unchecked, a row-stochastic chain (column sums 1.4, 1.0, 0.6) ran a
    # closed loop and reported an exposure rate, and a (2, 2) chain failed
    # inside numpy's matmul.
    model, obs = example1_model()
    values = nominal_value_iteration(model).values
    controller = NominalController(extract_nominal_policy(model, values))
    row_stochastic = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.9, 0.0, 0.1]])
    o, cfg = uniform_belief(3), PlannerConfig(2, 0.5, 0.5)
    for chain, message in (
        (row_stochastic, r"chain column pa\[:, 0\] sums to 1.4, not 1; .* 0.6, not 1"),
        (np.eye(2), r"chain pa has shape \(2, 2\), not \(3, 3\)"),
    ):
        for call, args in (
            (Observer, (model, obs, chain)),
            (plan, (model, obs, chain, values, 0, o, cfg)),
            (run_closed_loop, (model, obs, chain, controller, o, 5, 0, 0)),
        ):
            with pytest.raises(ValueError, match=message):
                call(*args)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    m=st.integers(1, 3),
    k=st.integers(2, 4),
)
def test_an_observer_that_rules_out_nothing_leaves_every_observation_open(seed, n, m, k):
    rng = np.random.default_rng(seed)
    model, obs = random_pair(rng, n, m, k)
    observer = Observer(model, obs, nominal_chain(model))
    assume(observer.rules_out_nothing)
    twin = general_twin(observer)
    with_zeros = rng.uniform(0.1, 1.0, (5, n)) * (rng.random((5, n)) < 0.5)
    with_zeros[:, 0] += 0.1
    beliefs = [
        # normalized, concentrated ones with tiny entries among them
        *rng.dirichlet(np.full(n, 0.2), size=10),
        # lattice points, which have exact zeros
        *build_simplex_grid(n, {2: 8, 3: 6, 4: 4, 5: 3}[n]).points,
        # random beliefs with exact zeros
        *(w / w.sum() for w in with_zeros),
    ]
    for o in beliefs:
        assert open_observations(observer, o).all()
        for x in range(n):
            assert admissible_actions(observer, x, o) == list(range(m))
            assert admissible_actions(twin, x, o) == list(range(m))


NOT_DISTRIBUTIONS = [
    [np.nan, 0.5, 0.5],  # NaN first: min would pass it, the sum does not
    [0.5, 0.5, np.nan],  # NaN last
    [np.inf, 0.0, 0.0],
    [1.2, -0.2, 0.0],  # mass 1 with a negative entry
    [-0.2, 1.2, 0.0],
    [0.0, 0.0, 0.0],  # no mass
    [0.5, 0.5, 0.5],  # mass 1.5
]


def test_beliefs_that_are_not_distributions_are_refused_at_every_entry_point():
    # Observer.check refuses them before any path is chosen, with the flag
    # up or cleared, so no caller reads a belief that is not a distribution.
    model, obs = example1_model()
    pa = nominal_chain(model)
    values = nominal_value_iteration(model).values
    grid = build_simplex_grid(3, 2)
    table = AugmentedValueFunction(grid, np.zeros((3, grid.num_points)), 0.6, 0.4)
    controller = NominalController(extract_nominal_policy(model, values))
    observer = Observer(model, obs, pa)
    assert observer.rules_out_nothing
    for o in map(np.array, NOT_DISTRIBUTIONS):
        for chosen in (observer, general_twin(observer)):
            for call, args in (
                (chosen.check, (0, o)),
                (admissible_actions, (chosen, 0, o)),
                (augmented_transition_support, (chosen, 0, o, 0)),
                (step, (chosen, 0, o, 0, np.random.default_rng(0))),
                (action_values, (chosen, table, 0, o)),
                (greedy_action, (chosen, table, 0, o)),
            ):
                with pytest.raises(ValueError, match="not a distribution"):
                    call(*args)
        with pytest.raises(ValueError, match="not a distribution"):
            plan(model, obs, pa, values, 0, o, PlannerConfig(2, 0.5, 0.5))
        for x0 in (None, 0):
            with pytest.raises(ValueError, match="not a distribution"):
                run_closed_loop(model, obs, pa, controller, o, 5, 0, 0, x0=x0)


def test_check_accepts_drift_within_tolerance_and_leaves_it():
    model, obs = example1_model()
    observer = Observer(model, obs, nominal_chain(model))
    o = np.array([0.5, 0.5 + 5e-10, 0.0])
    assert observer.check(1, o).tobytes() == o.tobytes()
    with pytest.raises(ValueError, match="not a distribution"):
        observer.check(1, [0.5, 0.5 + 5e-9, 0.0])
    with pytest.raises(ValueError, match="outside"):
        observer.check(-1, o)
    with pytest.raises(ValueError, match="shape"):
        observer.check(0, [0.5, 0.5])


@pytest.mark.parametrize("setup", [example1_model, lambda: gridworld_model(desk_gridworld())],
                         ids=["example1", "desk_gridworld"])
def test_a_state_that_is_not_an_integer_is_refused_at_every_entry_point(setup):
    # Unchecked, 1.5 indexes state 1 on example1, whose observer rules
    # nothing out, and fails inside numpy on the desk gridworld's tables.
    model, obs = setup()
    pa = nominal_chain(model)
    values = nominal_value_iteration(model).values
    n = model.num_states
    grid = build_simplex_grid(n, 1)
    table = AugmentedValueFunction(grid, np.zeros((n, grid.num_points)), 0.6, 0.4)
    observer = Observer(model, obs, pa)
    o = uniform_belief(n)
    for x in (1.5, 1.0, np.float64(1.0), True):
        for call, args in (
            (observer.check, (x, o)),
            (admissible_actions, (observer, x, o)),
            (plan, (model, obs, pa, values, x, o, PlannerConfig(1, 0.5, 0.5))),
            (action_values, (observer, table, x, o)),
            (greedy_action, (observer, table, x, o)),
        ):
            with pytest.raises(ValueError, match="^state x must be an integer, got "):
                call(*args)
    assert observer.check(np.int64(1), o).tobytes() == o.tobytes()
    assert admissible_actions(observer, np.int64(1), o) == admissible_actions(observer, 1, o)
