"""Nominal MDP solving: value iteration, policies, induced chain, files."""

import ast
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covertmdp import (
    MdpModel,
    ModelFormatError,
    example1_model,
    extract_nominal_policy,
    induced_chain,
    nominal_value_iteration,
)
import covertmdp
from covertmdp import augmented
from covertmdp.augmented import (
    AugmentedValueFunction,
    build_simplex_grid,
    save_value_file,
    solve_augmented_vi,
)
from covertmdp.belief import (
    ObservationModel,
    load_observation_file,
    save_observation_file,
    uniform_belief,
)
from covertmdp.mdp import (
    bellman_backup,
    load_model_file,
    model_from_dict,
    model_to_dict,
    save_model_file,
)
from covertmdp.cli import _load_scenario
from covertmdp.models import desk_gridworld, gridworld_model
from covertmdp.sim import (
    NominalController,
    aggregate_runs,
    run_closed_loop,
    trace_metadata,
    write_summary_file,
    write_trace_metadata,
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


def refusal(build, *fields):
    """The diagnostics of the :class:`ModelFormatError` that ``build(*fields)``
    raises; ``[]`` when it builds."""
    try:
        build(*fields)
    except ModelFormatError as err:
        return err.diagnostics
    return []


def test_validate_model_accepts_example1():
    model, _ = example1_model()
    assert refusal(MdpModel, 3, 2, model.transition, model.reward, model.discount) == []


def test_validate_model_flags_bad_column():
    model, _ = example1_model()
    transition = model.transition.copy()
    transition[0, 1, 0] += 0.25
    problems = refusal(MdpModel, 3, 2, transition, model.reward, model.discount)
    assert problems
    assert any("x=1" in line and "u=0" in line for line in problems)


def test_validate_model_flags_negative_probability():
    model, _ = example1_model()
    transition = model.transition.copy()
    transition[0, 0, 0] -= 0.9
    transition[1, 0, 0] += 0.9  # column still sums to one
    problems = refusal(MdpModel, 3, 2, transition, model.reward, model.discount)
    assert any("outside [0, 1]" in line for line in problems)


def test_validate_model_and_observation_model_refuse_nan():
    # every comparison with NaN is False, so a test written as "p < 0" or
    # "|sum - 1| > tol" lets it through
    model, obs = example1_model()
    transition = model.transition.copy()
    transition[0, 1, 0] = np.nan
    problems = refusal(MdpModel, 3, 2, transition, model.reward, model.discount)
    assert any("p(0|1,0) =" in line and "nan" in line for line in problems)
    assert any("(x=1, u=0) sums to" in line and "nan" in line for line in problems)
    assert refusal(MdpModel, 1, 1, [[[np.nan]]], [[0.0]], 0.9)
    # unchecked, a NaN reward ran 50 lattice sweeps to NaN values and gave
    # the planner a NaN objective, with no error
    reward = model.reward.copy()
    reward[1, 0] = np.nan
    problems = refusal(MdpModel, 3, 2, model.transition, reward, model.discount)
    assert problems == ["reward R(1,0) = nan is not finite"]
    likelihood = obs.likelihood.copy()
    likelihood[2, 0] = np.nan
    problems = refusal(ObservationModel, 3, likelihood)
    assert any("q(2|0) =" in line and "nan" in line for line in problems)
    assert any("column x=0 sums to" in line and "nan" in line for line in problems)


def test_validate_model_flags_discount_out_of_range():
    model, _ = example1_model()
    for discount in (1.0, 1.5):
        # the refusal is a ValueError too
        with pytest.raises(ValueError) as err:
            MdpModel(3, 2, model.transition, model.reward, discount)
        assert any("discount" in line for line in err.value.diagnostics)


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


def _assert_solve_matches_reference(model, tol=1e-10, max_iter=100_000):
    result = nominal_value_iteration(model, tol=tol, max_iter=max_iter)
    values, residual, sweeps = _oracles.nominal_value_iteration_reference(
        model.transition, model.reward, model.discount, tol, max_iter
    )
    assert result.values.tobytes() == values.tobytes()
    assert (result.residual, result.iterations) == (residual, sweeps)


@pytest.mark.parametrize(
    "model",
    [example1_model()[0], gridworld_model(desk_gridworld())[0]],
    ids=["example1", "desk_gridworld"],
)
def test_nominal_solve_matches_the_reference_loop_bitwise(model):
    _assert_solve_matches_reference(model)
    _assert_solve_matches_reference(model, max_iter=7)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    m=st.integers(1, 3),
    discount=st.floats(0.05, 0.97),
)
def test_nominal_solve_matches_the_reference_loop_bitwise_on_random_models(
    seed, n, m, discount
):
    transition, reward, _ = _oracles.random_sane_model(
        np.random.default_rng(seed), n, m, 2
    )
    _assert_solve_matches_reference(MdpModel(n, m, transition, reward, discount))


def test_fixed_point_residual():
    model, _ = example1_model()
    result = nominal_value_iteration(model, tol=1e-10)
    backed = bellman_backup(model, result.values).max(axis=1)
    assert np.max(np.abs(backed - result.values)) < 1e-9


def _example1_lattice(**kwargs):
    model, obs = example1_model()
    policy = extract_nominal_policy(model, nominal_value_iteration(model).values)
    return solve_augmented_vi(
        model, obs, induced_chain(model, policy), reward_weight=1.0,
        exposure_weight=0.5, resolution=4, **{"tol": 1e-6, **kwargs},
    )


@pytest.mark.parametrize(
    "solve, sweeps, residual",
    [
        (lambda **kw: nominal_value_iteration(example1_model()[0], **kw),
         447, 9.672618261902244e-11),
        (lambda **kw: nominal_value_iteration(
            gridworld_model(desk_gridworld())[0], **kw), 450, 9.952394464107783e-11),
        (_example1_lattice, 258, 9.581975657368957e-07),
    ],
    ids=["example1_nominal", "gridworld_nominal", "example1_lattice"],
)
def test_nominal_and_lattice_solves_share_one_sweep(
    solve, sweeps, residual, monkeypatch
):
    # sweep counts and residuals as the two solvers' own loops gave them
    result = solve()
    assert (result.iterations, result.residual, result.converged) == (
        sweeps, residual, True
    )
    none = solve(max_iter=0)
    assert (none.iterations, none.residual, none.converged) == (0, np.inf, False)

    def no_lattice(*args):
        raise AssertionError("the lattice was built before tol was checked")

    monkeypatch.setattr(augmented, "build_simplex_grid", no_lattice)
    for tol in (0.0, -1e-9, np.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve(tol=tol)


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


_EXAMPLE1_DOC = model_to_dict(example1_model()[0])


@pytest.mark.parametrize(
    "edit, diagnostics",
    [
        ({"num_states": 0}, ["num_states must be positive, got 0"]),
        ({"num_actions": -1}, ["num_actions must be positive, got -1"]),
        ({"num_states": -2, "num_actions": 0},
         ["num_states must be positive, got -2", "num_actions must be positive, got 0"]),
        ({"transition": _EXAMPLE1_DOC["transition"][:1]},  # one action's table of two
         ["transition shape (3, 3, 1) != expected (3, 3, 2)"]),
        ({"num_actions": 3}, ["transition shape (3, 3, 2) != expected (3, 3, 3)",
                              "reward shape (3, 2) != expected (3, 3)"]),
    ],
    ids=["no_states", "negative_actions", "both", "transition_shape", "action_count"],
)
def test_model_from_dict_rejects_non_positive_counts_and_mismatched_tables(
    edit, diagnostics
):
    with pytest.raises(ModelFormatError) as err:
        model_from_dict({**_EXAMPLE1_DOC, **edit})
    assert err.value.diagnostics == diagnostics


# ---------------------------------------------------------------------------
# the file convention shared by every writer and loader

def _example1_trace(run_index):
    model, obs = example1_model()
    policy = extract_nominal_policy(model, nominal_value_iteration(model).values)
    pa = induced_chain(model, policy)
    return run_closed_loop(
        model, obs, pa, NominalController(policy), uniform_belief(3), 6, 2, run_index
    )


def _model_case():
    model, _ = example1_model()
    return save_model_file, model, model_to_dict(model), False


def _observation_case():
    _, obs = example1_model()
    doc = {"num_observations": obs.num_observations, "likelihood": obs.likelihood.tolist()}
    return save_observation_file, obs, doc, False


def _value_case():
    grid = build_simplex_grid(3, 2)
    table = np.linspace(0.0, 1.0, 3 * grid.num_points).reshape(3, -1)
    value = AugmentedValueFunction(grid, table, 0.7, 0.3)
    doc = {
        "num_states": 3,
        "resolution": 2,
        "reward_weight": 0.7,
        "exposure_weight": 0.3,
        "values": table.tolist(),
    }
    return save_value_file, value, doc, False


def _summary_case():
    summary = aggregate_runs([_example1_trace(i) for i in range(2)])
    return write_summary_file, summary, asdict(summary), False


def _metadata_case():
    trace = _example1_trace(1)
    return write_trace_metadata, trace, trace_metadata(trace), True


@pytest.mark.parametrize(
    "case",
    [_model_case, _observation_case, _value_case, _summary_case, _metadata_case],
    ids=["model", "observation", "value", "summary", "trace_metadata"],
)
def test_json_writers_write_indent_one_with_a_trailing_newline(tmp_path, case):
    write, obj, doc, sort_keys = case()
    path = tmp_path / "doc.json"
    write(obj, path)
    expected = json.dumps(doc, indent=1, sort_keys=sort_keys) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize(
    "load, doc, field",
    [
        (load_model_file, model_to_dict(example1_model()[0]), "reward"),
        (load_observation_file, {"num_observations": 2, "likelihood": [[1.0], [0.0]]},
         "likelihood"),
        # the CLI's reader: a document with a width and a height is a spec
        (lambda path: _load_scenario(str(path), None),
         {"width": 3, "height": 3, "start": [0, 0], "target": [2, 2], "sensor": [1, 1]},
         "target"),
    ],
    ids=["model", "observation", "gridworld_spec"],
)
def test_loaders_reject_non_objects_and_missing_fields(tmp_path, load, doc, field):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    load(path)  # the complete document is valid
    path.write_text(json.dumps(list(doc.values())))
    with pytest.raises(ModelFormatError) as err:
        load(path)
    assert err.value.diagnostics == ["top-level document must be an object"]
    path.write_text(json.dumps({k: v for k, v in doc.items() if k != field}))
    with pytest.raises(ModelFormatError) as err:
        load(path)
    assert err.value.diagnostics == [f"missing field {field!r}"]


_SCALAR_DOCS = {
    load_model_file: model_to_dict(example1_model()[0]),
    load_observation_file: {"num_observations": 2, "likelihood": [[1.0], [0.0]]},
}


@pytest.mark.parametrize(
    "load, field, bad, diagnostic",
    [
        (load_model_file, "discount", "x", "non-numeric discount: 'x'"),
        (load_model_file, "num_states", "three", "non-numeric num_states: 'three'"),
        (load_observation_file, "num_observations", "two",
         "non-numeric num_observations: 'two'"),
        (load_model_file, "num_actions", 2.9, "num_actions must be an integer, got 2.9"),
        (load_observation_file, "num_observations", 2.0,
         "num_observations must be an integer, got 2.0"),
        (load_model_file, "num_states", True, "non-numeric num_states: True"),
    ],
    ids=["model_discount_text", "model_states_text", "observation_count_text",
         "model_actions_fraction", "observation_count_float", "model_states_bool"],
)
def test_loaders_reject_non_numeric_and_non_integer_scalars(
    tmp_path, load, field, bad, diagnostic
):
    # int() would truncate 2.9 to 2 and float() would raise a bare ValueError
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**_SCALAR_DOCS[load], field: bad}))
    with pytest.raises(ModelFormatError) as err:
        load(path)
    assert err.value.diagnostics == [diagnostic]


@pytest.mark.parametrize(
    "load, field, bad, diagnostic",
    [
        (load_model_file, "reward", [["a", 0.0], [0.0, 0.0], [0.0, 0.0]],
         "non-numeric table: "),
        (load_model_file, "transition", [[[1.0, 0.0], [0.0]]], "non-numeric table: "),
        (load_model_file, "transition", [[1.0, 0.0], [0.0, 1.0]],
         "transition must be nested [action][source][destination], got ndim=2"),
        (load_observation_file, "likelihood", [["a"], [0.0]], "non-numeric likelihood: "),
        (load_observation_file, "likelihood", [1.0, 0.0],
         "likelihood must be nested [observation][state], got ndim=1"),
    ],
    ids=["model_reward_text", "model_transition_ragged", "model_transition_flat",
         "observation_text", "observation_flat"],
)
def test_loaders_reject_non_numeric_and_misnested_tables(
    tmp_path, load, field, bad, diagnostic
):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**_SCALAR_DOCS[load], field: bad}))
    with pytest.raises(ModelFormatError) as err:
        load(path)
    [line] = err.value.diagnostics
    assert line.startswith(diagnostic)


def file_opens(tree):
    """The calls to ``open`` (a name, or an attribute as in ``Path.open``)
    under an ``ast`` node."""
    return [
        call for call in ast.walk(tree)
        if isinstance(call, ast.Call) and (
            isinstance(call.func, ast.Name) and call.func.id == "open"
            or isinstance(call.func, ast.Attribute) and call.func.attr == "open"
        )
    ]


def test_only_mdps_file_helpers_open_files():
    # mdp's three helpers hold the one on-disk convention (UTF-8, "\n" line
    # ends, JSON indent); every other module reads and writes through them
    helpers = {"_read_json_object", "_write_json", "_write_lines"}
    package = Path(covertmdp.__file__).parent
    found, stray = 0, []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        if path == package / "mdp.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name in helpers:
                    allowed.update(map(id, file_opens(node)))
            found = len(allowed)
        stray += [
            f"{path.relative_to(package)}:{call.lineno}"
            for call in file_opens(tree) if id(call) not in allowed
        ]
    assert found == 3  # the check finds the helpers' own calls
    assert stray == []


def callers_of(tree, name):
    """The scope (``Class.method``, ``function`` or ``""`` for module level)
    of each call to ``name`` (a name, or an attribute as in ``mdp.name``)
    under an ``ast`` tree."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call) and (
                isinstance(child.func, ast.Name) and child.func.id == name
                or isinstance(child.func, ast.Attribute) and child.func.attr == name
            ):
                found.append(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def test_stochastic_tables_are_checked_only_where_models_are_built():
    # One validity rule: the model and the sensor check their tables when
    # they are built, through their own helpers, and the observer checks
    # only the chain it is given. Nothing else checks them again.
    package = Path(covertmdp.__file__).parent
    callers = sorted(
        f"{path.relative_to(package)}:{scope}"
        for path in sorted(package.rglob("*.py"))
        for scope in callers_of(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path)),
            "_stochastic_problems",
        )
    )
    assert callers == [
        "belief.py:Observer.__post_init__",
        "belief.py:_observation_problems",
        "mdp.py:_model_problems",
    ]


def test_the_lattice_reads_no_zero_test_of_its_own():
    # Which readings and actions the observer allows is decided in belief;
    # the lattice backup reads its masks and never the threshold or the
    # emission table behind them.
    path = Path(augmented.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):  # an imported name
            names.add(node.name)
    assert not names & {"EPS_ZERO", "emits", "emission"}
    # the same walk sees what the lattice does read from belief
    assert {"blocked_actions", "open_mass", "kernel"} <= names
