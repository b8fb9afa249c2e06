"""Tests for the joint (state, belief) value iteration and its belief lattice."""

import dataclasses
import json
import math
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from covertmdp import (
    EmptyAdmissibleSet,
    MdpModel,
    ModelFormatError,
    ObservationModel,
    Observer,
    SizeOverflow,
    example1_model,
    extract_nominal_policy,
    induced_chain,
    nominal_value_iteration,
    point_belief,
    uniform_belief,
)
from covertmdp import augmented
from covertmdp.augmented import (
    AugmentedValueFunction,
    _Backup,
    _simplex_weights,
    action_values,
    build_simplex_grid,
    greedy_action,
    interpolation_weights,
    save_value_file,
    solve_augmented_vi,
)
from covertmdp.mdp import bellman_backup
from covertmdp.sim import AugmentedValueController

from _oracles import (
    composition_count,
    freudenthal_by_definition,
    lattice_compositions,
    lattice_lookahead_by_definition,
    lattice_sweep_by_definition,
    random_sane_model,
    random_sparse_model,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def nominal_chain(model):
    result = nominal_value_iteration(model)
    policy = extract_nominal_policy(model, result.values)
    return induced_chain(model, policy), result.values


def smoothed_example1():
    """Example model with the sensor blurred so no reading is impossible."""
    model, obs = example1_model()
    q = 0.7 * obs.likelihood + 0.3 / obs.num_observations
    return model, ObservationModel(obs.num_observations, q)


def test_grid_size_matches_composition_count():
    for n, res in [(2, 1), (2, 10), (3, 10), (4, 5), (5, 3)]:
        grid = build_simplex_grid(n, res)
        assert grid.num_points == composition_count(res, n)


def test_grid_points_are_lattice_beliefs():
    grid = build_simplex_grid(3, 10)
    assert np.all(grid.points >= 0.0)
    np.testing.assert_allclose(grid.points.sum(axis=1), 1.0, atol=1e-15)
    np.testing.assert_array_equal(lattice_compositions(grid).sum(axis=1), 10)
    # every composition once, in lexicographic order: the rank is the row
    comps = [tuple(c) for c in lattice_compositions(grid).tolist()]
    assert comps == sorted(set(comps))


def test_build_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_simplex_grid(0, 10)
    with pytest.raises(ValueError):
        build_simplex_grid(3, 0)
    with pytest.raises(SizeOverflow):
        build_simplex_grid(20, 50)


def test_build_grid_refuses_coordinates_beyond_the_lattice_cap(monkeypatch):
    # 21 points of 3 coordinates at resolution 5: 63 entries
    monkeypatch.setattr(augmented, "MAX_LATTICE_ENTRIES", 63)
    assert build_simplex_grid(3, 5).num_points == 21
    monkeypatch.setattr(augmented, "MAX_LATTICE_ENTRIES", 62)
    with pytest.raises(SizeOverflow, match="cap of 62 entries"):
        build_simplex_grid(3, 5)


def test_solve_refuses_a_lattice_beyond_the_entry_cap_before_building_it():
    # 12 states at resolution 10: 352,716 lattice points and about 2e8
    # gathered entries per sweep, gigabytes that must never be allocated
    transition, reward, likelihood = random_sane_model(np.random.default_rng(12), 12, 2, 4)
    model = MdpModel(12, 2, transition, reward, 0.9)
    obs = ObservationModel(4, likelihood)
    pa = np.full((12, 12), 1.0 / 12)
    entries = 12 * math.comb(21, 11) * 4 * 12
    assert entries > augmented.MAX_LATTICE_ENTRIES
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(SizeOverflow) as err:
            solve_augmented_vi(model, obs, pa, 0.5, 0.5, resolution=10)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = str(err.value)
    assert f"{entries} entries" in message and "rho controller" in message
    assert elapsed < 1.0
    assert peak < 1e6


def test_solve_admits_a_lattice_at_the_entry_cap(monkeypatch):
    model, obs = example1_model()
    pa, _ = nominal_chain(model)
    entries = 3 * 10 * 3 * 3  # X * G * Y * n at resolution 3
    monkeypatch.setattr(augmented, "MAX_LATTICE_ENTRIES", entries)
    assert solve_augmented_vi(model, obs, pa, 0.5, 0.5, resolution=3).converged
    monkeypatch.setattr(augmented, "MAX_LATTICE_ENTRIES", entries - 1)
    with pytest.raises(SizeOverflow, match=f"needs {entries} entries"):
        solve_augmented_vi(model, obs, pa, 0.5, 0.5, resolution=3)


@pytest.mark.parametrize("weights", [(np.nan, 0.5), (0.5, np.inf), (-np.inf, 0.0)])
def test_solve_refuses_non_finite_weights_before_building_the_lattice(
    weights, monkeypatch
):
    # NaN would run every sweep to a NaN residual and never converge
    model, obs = example1_model()
    pa, _ = nominal_chain(model)

    def unreachable(*args):
        raise AssertionError("the lattice was built")

    monkeypatch.setattr(augmented, "build_simplex_grid", unreachable)
    with pytest.raises(ValueError, match="must be finite"):
        solve_augmented_vi(model, obs, pa, *weights, resolution=5)


@pytest.mark.parametrize(
    "weights, name", [((True, 0.5), "reward"), ((0.5, np.False_), "exposure"),
                      (("1", 0.5), "reward")],
)
def test_solve_refuses_weights_that_are_not_real_numbers_before_building_the_lattice(
    weights, name, monkeypatch
):
    # a bool solved as 1.0 or 0.0, and a string failed inside math.isfinite
    model, obs = example1_model()
    pa, _ = nominal_chain(model)

    def unreachable(*args):
        raise AssertionError("the lattice was built")

    monkeypatch.setattr(augmented, "build_simplex_grid", unreachable)
    bad = weights[0] if name == "reward" else weights[1]
    message = f"non-numeric {name}_weight: {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve_augmented_vi(model, obs, pa, *weights, resolution=5)


def test_interpolation_reproduces_vertices_exactly():
    rng = np.random.default_rng(0)
    grid = build_simplex_grid(3, 10)
    table = rng.normal(size=grid.num_points)
    for g in range(grid.num_points):
        idx, w = interpolation_weights(grid, grid.points[g])
        assert idx.tolist() == [g] and w.tolist() == [1.0]
        assert table[idx] @ w == table[g]


def test_interpolation_is_exact_on_constants_and_linear_forms():
    rng = np.random.default_rng(1)
    grid = build_simplex_grid(3, 10)
    a = rng.normal(size=3)
    linear = grid.points @ a
    constant = np.full(grid.num_points, 0.8315)
    for _ in range(500):
        o = rng.dirichlet(np.ones(3))
        idx, w = interpolation_weights(grid, o)
        assert abs(constant[idx] @ w - 0.8315) < 1e-12
        assert abs(linear[idx] @ w - a @ o) < 1e-12


def test_interpolation_weights_form_a_convex_combination():
    rng = np.random.default_rng(2)
    grid = build_simplex_grid(4, 7)
    for _ in range(2000):
        o = rng.dirichlet(np.full(4, 0.5))
        idx, w = interpolation_weights(grid, o)
        assert len(idx) == len(w) <= 4
        assert np.all(w > 0.0)
        assert abs(w.sum() - 1.0) < 1e-12
        # the chosen vertices reconstruct the query point itself
        np.testing.assert_allclose(grid.points[idx].T @ w, o, atol=1e-12)


def mixed_beliefs(rng, grid):
    """Off-grid beliefs, boundary beliefs with exact zeros, and lattice points."""
    n = grid.num_states
    beliefs = rng.dirichlet(np.full(n, 0.5), size=8)
    beliefs[4:] *= rng.random((4, n)) < 0.5
    beliefs[4:, rng.integers(n)] += 0.25
    beliefs /= beliefs.sum(axis=1, keepdims=True)
    return np.vstack([beliefs, grid.points[rng.integers(grid.num_points, size=4)]])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), res=st.integers(1, 10),
    edge=st.just(()),
)
@example(seed=0, n=1, res=4, edge=())  # one state: every belief is the single vertex
@example(seed=0, n=2, res=1, edge=())  # the smallest walk past the first coordinate
@example(seed=0, n=6, res=10, edge=())  # the benchmark's lattice
# a suffix coordinate 5e-11 below the integer 3: snapped to it, then
# truncated, where the unsnapped coordinate truncates to its floor 2
@example(seed=0, n=3, res=10, edge=([0.5, 0.2 + 5e-12, 0.3 - 5e-12],))
@example(seed=0, n=3, res=10, edge=([0.5, 0.2 + 5e-10, 0.3 - 5e-10],))
# exact-zero tail entries, of either sign: their coordinates truncate to 0
@example(seed=0, n=4, res=10, edge=([0.7, 0.3, 0.0, 0.0], [0.7, 0.3, -0.0, -0.0]))
def test_simplex_weights_match_the_freudenthal_walk(seed, n, res, edge):
    # exact: the oracle and the locator take the same float steps in the
    # same order, but the oracle takes the floor where the locator
    # truncates, so any differing bit is a change in the locator
    grid = build_simplex_grid(n, res)
    beliefs = mixed_beliefs(np.random.default_rng(seed), grid)
    if edge:
        beliefs = np.vstack([beliefs, edge])
    vertices, weights = _simplex_weights(grid, beliefs)
    for o, idx, w in zip(beliefs, vertices, weights):
        keep = w > 0.0
        got = dict(zip(map(tuple, lattice_compositions(grid)[idx[keep]].tolist()),
                       w[keep].tolist()))
        assert got == freudenthal_by_definition(o, res)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), res=st.integers(1, 10)
)
@example(seed=0, n=1, res=4)
@example(seed=0, n=2, res=1)
@example(seed=0, n=6, res=10)
def test_batched_simplex_matches_per_belief_weights(seed, n, res):
    grid = build_simplex_grid(n, res)
    beliefs = mixed_beliefs(np.random.default_rng(seed), grid)
    vertices, weights = _simplex_weights(grid, beliefs.reshape(3, 4, n))
    for o, row_idx, row_w in zip(beliefs, vertices.reshape(-1, n), weights.reshape(-1, n)):
        idx, w = interpolation_weights(grid, o)
        keep = row_w > 0.0
        np.testing.assert_array_equal(row_idx[keep], idx)
        np.testing.assert_array_equal(row_w[keep], w)
        assert np.all(row_w[~keep] == 0.0)
        np.testing.assert_allclose(grid.points[idx].T @ w, o, atol=1e-12)


def test_interpolation_weights_reject_wrong_shape():
    grid = build_simplex_grid(3, 4)
    with pytest.raises(ValueError):
        interpolation_weights(grid, np.array([0.5, 0.5]))


@pytest.mark.parametrize("o", [
    [0.5, 0.6, -0.1],  # unchecked: vertices [6, 6], weights [0.4, 0.6]
    [np.nan, 0.5, 0.5],  # unchecked: vertex 2, weight 1
    [0.5, 0.5, np.nan],
    [0.2, 0.2, 0.2],  # unchecked: a convex combination
    [np.inf, 0.0, 0.0],
    [1.0 + 2e-9, 0.0, 0.0],
])
def test_interpolation_weights_refuse_a_belief_that_is_not_a_distribution(o):
    # by Observer.check's rule, which also keeps the locator's coordinates
    # nonnegative, where truncation is the floor
    grid = build_simplex_grid(3, 10)
    with pytest.raises(ValueError, match="not a distribution"):
        interpolation_weights(grid, np.array(o))
    # mass within BELIEF_L1_TOL of 1 is accepted, and not renormalized
    idx, w = interpolation_weights(grid, np.array([1.0 - 5e-10, 0.0, 0.0]))
    assert grid.points[idx].tolist() == [[1.0, 0.0, 0.0]] and w.tolist() == [1.0]


def test_pure_reward_solution_reduces_to_nominal_values():
    # With an always-informative sensor nothing is ever prohibited, and with
    # zero exposure weight the belief coordinate is irrelevant: the joint
    # value collapses to the plain state value at every lattice point.
    model, obs = smoothed_example1()
    pa, nominal = nominal_chain(model)
    result = solve_augmented_vi(model, obs, pa, 1.0, 0.0, resolution=5, tol=1e-8)
    assert result.converged
    assert result.fallback_points == ()
    expected = np.repeat(nominal[:, None], result.value.grid.num_points, axis=1)
    np.testing.assert_allclose(result.value.values, expected, atol=1e-6)


def test_pure_exposure_solution_is_nonpositive():
    model, obs = smoothed_example1()
    pa, _ = nominal_chain(model)
    result = solve_augmented_vi(model, obs, pa, 0.0, 1.0, resolution=5, tol=1e-8)
    assert result.converged
    assert np.all(result.value.values <= 1e-9)
    assert result.value.values.min() < -0.5  # being pinned down really costs


def test_backup_fixed_point_residual():
    model, obs = smoothed_example1()
    pa, _ = nominal_chain(model)
    result = solve_augmented_vi(model, obs, pa, 0.5, 0.5, resolution=4, tol=1e-9)
    again, relaxed = lattice_sweep_by_definition(
        model.transition, model.reward, model.discount, obs.likelihood, pa,
        result.value.grid, result.value.values, 0.5, 0.5,
    )
    assert relaxed == []
    assert np.max(np.abs(again - result.value.values)) < 1e-8


def sparse_problem(seed, n, m, k):
    rng = np.random.default_rng(seed)
    transition, reward, likelihood, chain = random_sparse_model(rng, n, m, k)
    model = MdpModel(n, m, transition, reward, 0.9)
    return model, ObservationModel(k, likelihood), chain


def check_two_sweeps_against_oracle(model, obs, chain, res):
    """Two solver sweeps from zero against two oracle sweeps; returns the
    solver's fallback points, or None where the solver must refuse."""
    grid = build_simplex_grid(model.num_states, res)
    values = np.zeros((model.num_states, grid.num_points))
    for _ in range(2):
        values, relaxed = lattice_sweep_by_definition(
            model.transition, model.reward, model.discount, obs.likelihood,
            chain, grid, values, 0.6, 0.4,
        )
    if not np.all(np.isfinite(values)):  # some pair has no usable action
        with pytest.raises(EmptyAdmissibleSet):
            solve_augmented_vi(model, obs, chain, 0.6, 0.4, resolution=res)
        return None
    result = solve_augmented_vi(
        model, obs, chain, 0.6, 0.4, resolution=res, tol=1e-15, max_iter=2
    )
    assert result.iterations == 2
    assert list(result.fallback_points) == relaxed
    np.testing.assert_allclose(result.value.values, values, rtol=0.0, atol=1e-12)
    return result.fallback_points


def test_two_sweeps_match_oracle_at_fallback_points():
    model, obs, chain = sparse_problem(13, 3, 2, 3)
    assert len(check_two_sweeps_against_oracle(model, obs, chain, 3)) == 12


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    m=st.integers(1, 3),
    k=st.integers(1, 3),
    res=st.integers(1, 3),
)
def test_two_sweeps_match_oracle_on_sparse_models(seed, n, m, k, res):
    check_two_sweeps_against_oracle(*sparse_problem(seed, n, m, k), res)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    m=st.integers(1, 3),
    k=st.integers(2, 3),
)
def test_action_values_match_oracle_off_grid(seed, n, m, k):
    model, obs, chain = sparse_problem(seed, n, m, k)
    observer = Observer(model, obs, chain)
    rng = np.random.default_rng(seed)
    grid = build_simplex_grid(n, 5)
    value = AugmentedValueFunction(
        grid, rng.normal(size=(n, grid.num_points)), 0.6, 0.4
    )
    for _ in range(5):
        x = int(rng.integers(n))
        # a belief with exact zeros, its positive entries bounded away from zero
        weights = rng.uniform(0.1, 1.0, size=n) * (rng.random(n) < 0.5)
        weights[int(rng.integers(n))] = rng.uniform(0.1, 1.0)
        o = weights / weights.sum()
        expected = lattice_lookahead_by_definition(
            model.transition, model.reward, model.discount, obs.likelihood,
            chain, grid, value.values, 0.6, 0.4, x, o, relax=False,
        )
        got = action_values(observer, value, x, o)
        np.testing.assert_array_equal(np.isneginf(got), np.isneginf(expected))
        finite = np.isfinite(expected)
        np.testing.assert_allclose(got[finite], expected[finite], rtol=0.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    m=st.integers(1, 3),
    k=st.integers(2, 3),
    res=st.integers(2, 4),
    example1=st.booleans(),
)
def test_lattice_on_an_observer_that_rules_out_nothing_equals_the_masked_path(
    seed, n, m, k, res, example1
):
    # Skipping masks that are all open changes no float; the twin observer,
    # its flag cleared, builds every mask.
    rng = np.random.default_rng(seed)
    if example1:
        model, obs = example1_model()
    else:
        transition, reward, likelihood = random_sane_model(rng, n, m, k)
        model = MdpModel(n, m, transition, reward, 0.9)
        obs = ObservationModel(k, likelihood)
    n = model.num_states
    pa, _ = nominal_chain(model)
    observer = Observer(model, obs, pa)
    assume(observer.rules_out_nothing)
    twin = Observer(model, obs, pa)
    object.__setattr__(twin, "rules_out_nothing", False)
    grid = build_simplex_grid(n, res)
    value = AugmentedValueFunction(grid, rng.normal(size=(n, grid.num_points)), 0.6, 0.4)

    beliefs = [*rng.dirichlet(np.full(n, 0.3), size=4),
               *grid.points[rng.integers(grid.num_points, size=4)]]
    assert _Backup(observer, grid, 0.6, 0.4, grid.points).all_open
    assert not _Backup(twin, grid, 0.6, 0.4, grid.points).all_open
    for o in beliefs:
        for x in range(n):
            np.testing.assert_array_equal(
                action_values(observer, value, x, o), action_values(twin, value, x, o)
            )

    solved = []
    for chosen in (observer, twin):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(augmented, "Observer", lambda *_: chosen)
            solved.append(solve_augmented_vi(model, obs, pa, 0.6, 0.4, resolution=res))
    fast, general = solved
    assert fast.value.values.tobytes() == general.value.values.tobytes()
    assert (fast.residual, fast.iterations, fast.fallback_points) == (
        general.residual, general.iterations, general.fallback_points
    )

    # a belief that is not a distribution is refused on either path: a
    # negative entry, no mass, or NaN
    negative = np.zeros(n)
    negative[0], negative[1] = 3.0, -2.0
    for o in (negative, np.zeros(n), np.full(n, np.nan)):
        for chosen in (observer, twin):
            with pytest.raises(ValueError, match="not a distribution"):
                action_values(chosen, value, 0, o)


def test_a_transition_column_with_no_mass_keeps_its_action_out():
    # Where action 0 leaves state 1 with no mass, the lookahead would have
    # to keep that action at -inf, which skipping the masks would make
    # finite; such a model cannot be built, so no observer, lattice
    # decision or solve ever reads such a column.
    model, _ = example1_model()
    transition = model.transition.copy()
    transition[:, 1, 0] = 0.0
    with pytest.raises(ModelFormatError) as err:
        MdpModel(3, model.num_actions, transition, model.reward, model.discount)
    assert err.value.diagnostics == ["transition column (x=1, u=0) sums to 0.0, not 1"]


@pytest.fixture(scope="module")
def workloads_module():
    """The benchmark's workload module, from ``perfbench/``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        import workloads
    return workloads


@pytest.fixture(scope="module")
def lattice_6s_seed0(tmp_path_factory, workloads_module):
    """The benchmark's lattice-6s scenario at seed 0, solved once for the
    module: the scenario, the solve's result and its tracemalloc peak."""
    wl = workloads_module.WORKLOADS["lattice-6s"]
    inputs = workloads_module.write_inputs(wl, 0, tmp_path_factory.mktemp("lattice-6s"))
    scn, _, _ = workloads_module.setup(wl, inputs)
    tracemalloc.start()
    try:
        result = workloads_module.solve_lattice(wl, scn)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return scn, result, peak


def test_lattice_6s_seed0_matches_recorded_values(lattice_6s_seed0):
    # the benchmark's seeded 6-state model at res 10: 432,432 entries per
    # sweep, well under the lattice cap
    _, result, peak = lattice_6s_seed0
    reference = np.load(PERFBENCH / "reference" / "lattice-6s-seed0-values.npy")
    assert result.converged
    assert result.value.values.shape == reference.shape
    assert np.max(np.abs(result.value.values - reference)) <= 1e-9
    # one model-level kernel, not one per lattice point: a kernel per point
    # (3003 x 288 floats) takes the solve's peak to about 17 MB
    assert peak <= 10e6, f"solve allocated a peak of {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("name", ["ex1-rho", "lattice-6s", "grid-rho"])
def test_benchmark_episodes_match_reference_digests(
    name, request, tmp_path, workloads_module
):
    # episodes 0 and 1 of seed 0, replayed as the benchmark runs them: one
    # flipped decision changes a trace CSV's sha256
    wl = workloads_module.WORKLOADS[name]
    if wl.controller == "grid-vi":
        scn, result, _ = request.getfixturevalue("lattice_6s_seed0")
        scn = dataclasses.replace(scn, controller=AugmentedValueController(
            scn.model, scn.obs, scn.pa, result.value
        ))
    else:
        scn, _, _ = workloads_module.setup(wl, None)
    log = workloads_module.run_episodes(
        wl, scn, 0, tmp_path / "episodes", stop=lambda log, _: log.attempted >= 2
    )
    recorded = json.loads((PERFBENCH / "reference" / f"{name}.json").read_text())
    assert log.failed == 0
    assert [log.digests[0], log.digests[1]] == recorded["digests"]["0"][:2]


@pytest.mark.parametrize("name, closed_form", [("ex1-rho", True), ("grid-rho", False)])
def test_benchmark_rho_workloads_keep_their_planner_path(name, closed_form, workloads_module):
    # example1's sensor is strictly positive, so its observer rules nothing
    # out and ex1-rho times the planner's closed form; the desk gridworld's
    # range sensor has exact zeros, so grid-rho's digests pin the tree walk
    scn, _, _ = workloads_module.setup(workloads_module.WORKLOADS[name], None)
    memo = scn.controller.memo
    assert memo.observer.rules_out_nothing == closed_form
    scn.controller.decide(0 if scn.x0 is None else scn.x0, scn.o0)
    assert bool(memo.closed) == closed_form
    assert bool(memo.roots)


def test_greedy_action_pure_reward_matches_nominal_policy():
    model, obs = smoothed_example1()
    pa, nominal = nominal_chain(model)
    policy = extract_nominal_policy(model, nominal)
    # sanity: the nominal argmax is well separated, so tolerance can't flip it
    table = bellman_backup(model, nominal)
    sorted_q = np.sort(table, axis=1)
    assert np.all(sorted_q[:, -1] - sorted_q[:, -2] > 1e-3)
    result = solve_augmented_vi(model, obs, pa, 1.0, 0.0, resolution=5, tol=1e-8)
    observer = Observer(model, obs, pa)
    for x in range(model.num_states):
        for o in [uniform_belief(3), point_belief(3, 0), point_belief(3, 2)]:
            assert greedy_action(observer, result.value, x, o) == policy.actions[x]


def both_actions_jump_model():
    """Both actions leave state 0, which an identity sensor always reveals."""
    transition = np.zeros((2, 2, 2))
    transition[1, 0, :] = 1.0
    transition[1, 1, :] = 1.0
    model = MdpModel(2, 2, transition, np.zeros((2, 2)), 0.9)
    obs = ObservationModel(2, np.eye(2))
    pa = np.eye(2)  # the observer expects no motion at all
    return model, obs, pa


def test_action_values_mark_inadmissible_actions():
    model, obs, pa = both_actions_jump_model()
    observer = Observer(model, obs, pa)
    o = point_belief(2, 0)
    vals = action_values(observer, o=o, x=0, value=_zero_value(model, 3))
    assert np.all(np.isneginf(vals))
    with pytest.raises(EmptyAdmissibleSet):
        greedy_action(observer, _zero_value(model, 3), 0, o)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    m=st.integers(1, 3),
    k=st.integers(2, 3),
    sparse=st.booleans(),
)
def test_a_controller_decision_is_the_first_maximum_of_the_action_values(seed, n, m, k, sparse):
    # On observers that rule nothing out and on sparse ones that build
    # every mask, the controller picks np.argmax's first maximum of the
    # lookahead, and refuses a row that is all -inf.
    rng = np.random.default_rng(seed)
    if sparse:
        model, obs, pa = sparse_problem(seed, n, m, k)
    else:
        transition, reward, likelihood = random_sane_model(rng, n, m, k)
        model = MdpModel(n, m, transition, reward, 0.9)
        obs = ObservationModel(k, likelihood)
        pa, _ = nominal_chain(model)
    grid = build_simplex_grid(n, 4)
    value = AugmentedValueFunction(grid, rng.normal(size=(n, grid.num_points)), 0.6, 0.4)
    controller = AugmentedValueController(model, obs, pa, value)
    beliefs = [*grid.points[rng.integers(grid.num_points, size=3)]]
    for _ in range(5):
        # with exact zeros, its positive entries bounded away from zero
        weights = rng.uniform(0.1, 1.0, size=n) * (rng.random(n) < 0.5)
        weights[int(rng.integers(n))] = rng.uniform(0.1, 1.0)
        beliefs.append(weights / weights.sum())
    for o in beliefs:
        x = int(rng.integers(n))
        vals = action_values(controller.observer, value, x, o)
        if np.isneginf(vals).all():
            with pytest.raises(EmptyAdmissibleSet):
                controller.decide(x, o)
        else:
            assert controller.decide(x, o) == int(np.argmax(vals))


@pytest.mark.parametrize("vals", [
    [0.25, -1.0, 0.5],
    [0.5, 0.5],
    [-np.inf, 1.5, 2.0, 2.0, 1.0],  # a tie that is not at index 0
    [-np.inf, -np.inf, 0.0],
    [-0.5, -np.inf, -0.5],
    [3.0],
])
def test_the_greedy_pick_is_argmaxs_first_maximum(vals, monkeypatch):
    model, obs = example1_model()
    observer = Observer(model, obs, nominal_chain(model)[0])
    monkeypatch.setattr(augmented, "action_values", lambda *_, **__: np.array(vals))
    got = greedy_action(observer, _zero_value(model, 2), 0, uniform_belief(3))
    assert type(got) is int and got == int(np.argmax(vals))


@pytest.mark.parametrize("vals", [[-np.inf, -np.inf], [np.nan, np.nan]])
def test_the_greedy_pick_refuses_values_that_are_all_minus_infinity(vals, monkeypatch):
    # as np.isfinite(vals).any() did, a table of NaN is refused too
    model, obs = example1_model()
    observer = Observer(model, obs, nominal_chain(model)[0])
    monkeypatch.setattr(augmented, "action_values", lambda *_, **__: np.array(vals))
    with pytest.raises(EmptyAdmissibleSet, match="no admissible action at state x=1"):
        greedy_action(observer, _zero_value(model, 2), 1, uniform_belief(3))


def test_action_values_reject_bad_state_and_belief():
    model, obs = example1_model()
    pa, _ = nominal_chain(model)
    observer = Observer(model, obs, pa)
    value = _zero_value(model, 3)
    o = uniform_belief(3)
    bad = [(3, o), (5, o), (-1, o), (0, np.array([0.5, 0.5])), (0, o[None, :])]
    for x, belief in bad:
        for decide in (action_values, greedy_action):
            with pytest.raises(ValueError):
                decide(observer, value, x, belief)


def test_value_function_rejects_a_table_of_the_wrong_shape():
    grid = build_simplex_grid(3, 2)
    for shape in [(2, grid.num_points), (3, grid.num_points + 1), (grid.num_points,)]:
        with pytest.raises(ValueError, match="does not match"):
            AugmentedValueFunction(grid, np.zeros(shape), 1.0, 1.0)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_value_function_rejects_a_table_that_is_not_finite(entry):
    # a NaN table would make every decision on it report no admissible action
    grid = build_simplex_grid(3, 2)
    table = np.zeros((3, grid.num_points))
    table[1, 2] = entry
    with pytest.raises(ValueError, match="value table entries must be finite"):
        AugmentedValueFunction(grid, table, 1.0, 1.0)


def test_value_function_keeps_its_weights_as_python_floats():
    grid = build_simplex_grid(3, 2)
    value = AugmentedValueFunction(grid, np.zeros((3, grid.num_points)),
                                   np.float32(1.0), np.float64(0.5))
    assert (value.reward_weight, value.exposure_weight) == (1.0, 0.5)
    assert type(value.reward_weight) is float and type(value.exposure_weight) is float


@pytest.mark.parametrize("weight, line", [
    (True, "non-numeric reward_weight: True"),
    ("1.0", "non-numeric reward_weight: '1.0'"),
    (np.nan, "reward_weight must be finite, got nan"),
])
def test_value_function_refuses_a_weight_the_rule_refuses(weight, line):
    grid = build_simplex_grid(3, 2)
    with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
        AugmentedValueFunction(grid, np.zeros((3, grid.num_points)), weight, 0.5)


def test_lattice_over_another_state_count_is_refused():
    model, obs = example1_model()
    pa, _ = nominal_chain(model)
    grid = build_simplex_grid(4, 2)
    value = AugmentedValueFunction(grid, np.zeros((4, grid.num_points)), 1.0, 1.0)
    counts = "value lattice over 4 states, model has 3 states"
    with pytest.raises(ValueError, match=counts):
        AugmentedValueController(model, obs, pa, value)
    with pytest.raises(ValueError, match=counts):
        action_values(Observer(model, obs, pa), value, 0, uniform_belief(3))


def _zero_value(model, resolution):
    grid = build_simplex_grid(model.num_states, resolution)
    return AugmentedValueFunction(
        grid, np.zeros((model.num_states, grid.num_points)), 1.0, 1.0
    )


def test_solver_rejects_hopeless_grid_points():
    # Staying at a vertex belief is impossible to explain: every action's
    # entire observation mass lands on readings the observer rules out, so
    # even the relaxed backup has nothing to renormalize.
    model, obs, pa = both_actions_jump_model()
    with pytest.raises(EmptyAdmissibleSet):
        solve_augmented_vi(model, obs, pa, 1.0, 1.0, resolution=2, tol=1e-8)


def test_solver_reports_fallback_points():
    # One action that half-stays: banned at vertex beliefs (it can emit the
    # reading for the other state, which the static observer rules out), yet
    # the explainable half survives, so the backup relaxes and records it.
    transition = np.full((2, 2, 1), 0.5)
    model = MdpModel(2, 1, transition, np.zeros((2, 1)), 0.9)
    obs = ObservationModel(2, np.eye(2))
    pa = np.eye(2)
    result = solve_augmented_vi(model, obs, pa, 1.0, 1.0, resolution=2, tol=1e-8)
    grid = result.value.grid
    comps = lattice_compositions(grid).tolist()
    pinned_on_0 = comps.index([2, 0])
    pinned_on_1 = comps.index([0, 2])
    for x in (0, 1):
        assert (x, pinned_on_0) in result.fallback_points
        assert (x, pinned_on_1) in result.fallback_points
    assert result.converged


def test_value_file_roundtrip(tmp_path):
    model, obs = smoothed_example1()
    pa, _ = nominal_chain(model)
    result = solve_augmented_vi(model, obs, pa, 0.7, 0.3, resolution=3, tol=1e-6)
    path = tmp_path / "value.json"
    save_value_file(result.value, path)
    doc = json.loads(path.read_text())
    assert doc.keys() == {
        "num_states", "resolution", "reward_weight", "exposure_weight", "values"
    }
    assert (doc["num_states"], doc["resolution"]) == (3, 3)
    assert (doc["reward_weight"], doc["exposure_weight"]) == (0.7, 0.3)
    assert np.array(doc["values"]).tobytes() == result.value.values.tobytes()
