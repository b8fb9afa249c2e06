"""Tests for the bundled example models."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from covertmdp import (
    GridWorldSpec,
    ModelFormatError,
    Observer,
    desk_gridworld,
    example1_model,
    gridworld_model,
)
from covertmdp.cli import _load_scenario
from covertmdp.models import (
    GRIDWORLD_ACTIONS,
    SENSOR_SUPPORT_SIGMAS,
    gridworld_spec_from_dict,
)


def test_example1_exact_matrices():
    model, obs = example1_model()
    assert model.num_states == 3
    assert model.num_actions == 2
    assert model.discount == 0.95
    hold = np.array([
        [0.8, 0.1, 0.1],
        [0.1, 0.8, 0.1],
        [0.1, 0.1, 0.8],
    ])
    rotate = np.array([
        [0.1, 0.1, 0.8],
        [0.8, 0.1, 0.1],
        [0.1, 0.8, 0.1],
    ])
    np.testing.assert_array_equal(model.transition[:, :, 0], hold)
    np.testing.assert_array_equal(model.transition[:, :, 1], rotate)
    np.testing.assert_array_equal(model.reward[:, 0], [1.0, 0.8, 0.0])
    np.testing.assert_array_equal(model.reward[:, 1], [1.0, 0.8, 0.0])
    likelihood = np.array([
        [0.70, 0.10, 0.05],
        [0.15, 0.45, 0.05],
        [0.15, 0.45, 0.90],
    ])
    assert obs.num_observations == 3
    np.testing.assert_array_equal(obs.likelihood, likelihood)


def test_example1_passes_validation():
    # the model and the sensor refuse to be built invalid, and the observer
    # refuses a sensor over other states
    model, obs = example1_model()
    Observer(model, obs, np.eye(model.num_states))


def test_desk_gridworld_defaults():
    spec = desk_gridworld()
    assert (spec.width, spec.height) == (7, 7)
    assert spec.start == (0, 0)
    assert spec.target == (6, 6)
    assert spec.sensor == (6, 6)
    assert spec.slip_prob == 0.1
    assert spec.target_reward == 1.0
    assert spec.noise_sigma == 1.0
    assert spec.discount == 0.95
    assert spec.num_cells == 49
    assert spec.cell_index(6, 6) == 48
    assert spec.cell_of(48) == (6, 6)


def test_gridworld_shapes_scale_with_the_board():
    spec = GridWorldSpec(11, 11, (0, 0), (10, 10), (5, 5))
    model, obs = gridworld_model(spec)
    assert model.num_states == 121
    assert model.num_actions == 5
    assert model.transition.shape == (121, 121, 5)
    assert model.reward.shape == (121, 5)
    assert obs.num_observations == 21  # readings 0 .. 20
    assert obs.likelihood.shape == (21, 121)
    Observer(model, obs, np.eye(121))  # a sensor over the model's states


def test_gridworld_action_order_and_slip_composition():
    spec = desk_gridworld()
    model, _ = gridworld_model(spec)
    assert GRIDWORLD_ACTIONS == ("up", "down", "left", "right", "stay")
    src = spec.cell_index(3, 3)  # interior: all four neighbors exist
    neighbors = {
        0: spec.cell_index(2, 3),
        1: spec.cell_index(4, 3),
        2: spec.cell_index(3, 2),
        3: spec.cell_index(3, 4),
        4: src,
    }
    share = spec.slip_prob / 5.0
    for u, dest in neighbors.items():
        col = model.transition[:, src, u]
        assert col[dest] == pytest.approx(1.0 - spec.slip_prob + share, abs=1e-15)
        for other_u, other_dest in neighbors.items():
            if other_dest != dest:
                assert col[other_dest] == pytest.approx(share, abs=1e-15)
        assert col.sum() == pytest.approx(1.0, abs=1e-12)


def test_gridworld_wall_moves_fold_onto_staying():
    spec = desk_gridworld()
    model, _ = gridworld_model(spec)
    corner = spec.cell_index(0, 0)
    col = model.transition[:, corner, 0]  # "up" from the top-left corner
    share = spec.slip_prob / 5.0
    # up, left, and stay all resolve to the corner itself
    assert col[corner] == pytest.approx(1.0 - spec.slip_prob + 3 * share, abs=1e-15)
    assert col[spec.cell_index(1, 0)] == pytest.approx(share, abs=1e-15)
    assert col[spec.cell_index(0, 1)] == pytest.approx(share, abs=1e-15)
    assert col.sum() == pytest.approx(1.0, abs=1e-12)


def test_gridworld_successors_stay_within_one_step():
    spec = GridWorldSpec(5, 4, (0, 0), (3, 4), (2, 2))
    model, _ = gridworld_model(spec)
    for src in range(model.num_states):
        r0, c0 = spec.cell_of(src)
        for u in range(model.num_actions):
            for dest in np.flatnonzero(model.transition[:, src, u]):
                r1, c1 = spec.cell_of(int(dest))
                assert abs(r1 - r0) + abs(c1 - c0) <= 1


def test_gridworld_target_is_absorbing_and_rewarding():
    spec = desk_gridworld()
    model, _ = gridworld_model(spec)
    target = spec.cell_index(*spec.target)
    for u in range(model.num_actions):
        assert model.transition[target, target, u] == 1.0
        assert model.transition[:, target, u].sum() == 1.0
    np.testing.assert_array_equal(model.reward[target], spec.target_reward)
    off_target = [x for x in range(model.num_states) if x != target]
    np.testing.assert_array_equal(model.reward[off_target], 0.0)


def test_gridworld_sensor_peaks_at_the_true_distance():
    spec = GridWorldSpec(7, 7, (0, 0), (6, 6), (3, 3))
    _, obs = gridworld_model(spec)
    for row in range(7):
        for col in range(7):
            cell = spec.cell_index(row, col)
            d = abs(row - 3) + abs(col - 3)
            column = obs.likelihood[:, cell]
            assert int(np.argmax(column)) == d
            # readings beyond the truncation radius are impossible
            far = np.abs(np.arange(obs.num_observations) - d) > (
                SENSOR_SUPPORT_SIGMAS * spec.noise_sigma
            )
            np.testing.assert_array_equal(column[far], 0.0)
            assert column.sum() == pytest.approx(1.0, abs=1e-12)


def test_gridworld_two_cell_likelihood_by_hand():
    spec = GridWorldSpec(2, 1, (0, 0), (0, 1), (0, 0))
    _, obs = gridworld_model(spec)
    assert obs.num_observations == 2
    e = math.exp(-0.5)
    # cell (0,0) sits on the sensor: distances weight as exp(0), exp(-1/2)
    np.testing.assert_allclose(
        obs.likelihood[:, 0], [1.0 / (1.0 + e), e / (1.0 + e)], atol=1e-15
    )
    # cell (0,1) is one step away: the mirror image
    np.testing.assert_allclose(
        obs.likelihood[:, 1], [e / (1.0 + e), 1.0 / (1.0 + e)], atol=1e-15
    )


def test_gridworld_sharp_sensor_degenerates_to_exact_distance():
    spec = GridWorldSpec(4, 4, (0, 0), (3, 3), (1, 2), noise_sigma=1e-6)
    _, obs = gridworld_model(spec)
    for row in range(4):
        for col in range(4):
            cell = spec.cell_index(row, col)
            d = abs(row - 1) + abs(col - 2)
            expected = np.zeros(obs.num_observations)
            expected[d] = 1.0
            np.testing.assert_array_equal(obs.likelihood[:, cell], expected)


def test_gridworld_rejects_degenerate_setups():
    # the spec refuses itself when it is built, with one line per problem
    with pytest.raises(ModelFormatError, match="outside the grid"):
        GridWorldSpec(3, 3, (0, 0), (5, 5), (1, 1))
    with pytest.raises(ModelFormatError, match="different cells"):
        GridWorldSpec(3, 3, (1, 1), (1, 1), (0, 0))
    with pytest.raises(ModelFormatError, match="slip_prob"):
        GridWorldSpec(3, 3, (0, 0), (2, 2), (1, 1), slip_prob=1.0)
    # 1e-200 squared underflows to 0 (a 0/0 likelihood column of NaN) and
    # 1e300 squared overflows (OverflowError from the Python float)
    for sigma in (0.0, 1e-200, 1e300, np.nan, np.inf):
        with pytest.raises(ModelFormatError, match="noise_sigma"):
            GridWorldSpec(3, 3, (0, 0), (2, 2), (1, 1), noise_sigma=sigma)
    with pytest.raises(ModelFormatError) as err:
        GridWorldSpec(3, 3, (0, 3), (0, 3), (-1, 1), slip_prob=np.nan, noise_sigma=0.0)
    assert err.value.diagnostics == [
        "start cell (0, 3) outside the grid",
        "target cell (0, 3) outside the grid",
        "sensor cell (-1, 1) outside the grid",
        "start and target must be different cells",
        "slip_prob must be in [0, 1), got nan",
        "noise_sigma must lie in (1e-150, 1e150), got 0.0",
    ]
    # the loader's lines, by the one integer rule; cells are placed only on
    # a grid of known size, and only integer coordinates can be off it
    with pytest.raises(ModelFormatError) as err:
        GridWorldSpec(3.0, 0, (0, 0), (2, 2), (1, 1))
    assert err.value.diagnostics == [
        "width must be an integer, got 3.0", "height must be positive, got 0",
    ]
    with pytest.raises(ModelFormatError) as err:
        GridWorldSpec(3, 3, (0.5, 0), (2, True), (1, 3))
    assert err.value.diagnostics == [
        "start row must be an integer, got 0.5", "target col must be an integer, got True",
        "sensor cell (1, 3) outside the grid",
    ]
    # a cell that is not a pair, or a real that is not a number, is listed
    # beside the other problems, in a spec file's words
    for edit, diagnostics in [
        ({"start": 5, "height": 0},
         ["height must be positive, got 0", "start must be a [row, col] pair"]),
        ({"start": (0, 0, 0), "noise_sigma": 0.0},
         ["start must be a [row, col] pair",
          "noise_sigma must lie in (1e-150, 1e150), got 0.0"]),
        ({"slip_prob": "0.1"}, ["non-numeric slip_prob: '0.1'"]),
        ({"target_reward": True}, ["non-numeric target_reward: True"]),
        ({"noise_sigma": True}, ["non-numeric noise_sigma: True"]),
    ]:
        with pytest.raises(ModelFormatError) as err:
            replace(GridWorldSpec(3, 3, (0, 0), (2, 2), (1, 1)), **edit)
        assert err.value.diagnostics == diagnostics


def test_gridworld_spec_from_dict_applies_defaults():
    spec = gridworld_spec_from_dict(
        {
            "width": 5,
            "height": 6,
            "start": [0, 1],
            "target": [5, 4],
            "sensor": [2, 2],
        }
    )
    assert spec.width == 5
    assert spec.height == 6
    assert spec.start == (0, 1)
    assert spec.target == (5, 4)
    assert spec.slip_prob == 0.1
    assert spec.noise_sigma == 1.0
    custom = gridworld_spec_from_dict(
        {
            "width": 5,
            "height": 6,
            "start": [0, 1],
            "target": [5, 4],
            "sensor": [2, 2],
            "slip_prob": 0.25,
            "discount": 0.9,
        }
    )
    assert custom.slip_prob == 0.25
    assert custom.discount == 0.9


def test_gridworld_spec_from_dict_rejects_malformed_documents():
    base = {
        "width": 5,
        "height": 6,
        "start": [0, 1],
        "target": [5, 4],
        "sensor": [2, 2],
    }
    with pytest.raises(ModelFormatError) as err:
        gridworld_spec_from_dict({k: v for k, v in base.items() if k != "target"})
    assert any("missing field" in line for line in err.value.diagnostics)
    with pytest.raises(ModelFormatError) as err:
        gridworld_spec_from_dict({**base, "teleport": True})
    assert any("unknown field" in line for line in err.value.diagnostics)
    with pytest.raises(ModelFormatError):
        gridworld_spec_from_dict({**base, "width": "wide"})
    with pytest.raises(ModelFormatError) as err:
        gridworld_spec_from_dict({**base, "sensor": [1, 2, 3]})
    assert any("pair" in line for line in err.value.diagnostics)
    # int() and float() would truncate, parse strings and read booleans
    for field, bad, diagnostic in [
        ("width", 3.9, "width must be an integer, got 3.9"),
        ("height", True, "height must be an integer, got True"),
        ("width", "7", "width must be an integer, got '7'"),
        ("slip_prob", "0.1", "non-numeric slip_prob: '0.1'"),
        ("discount", True, "non-numeric discount: True"),
        ("start", [0.5, 0], "start row must be an integer, got 0.5"),
        ("target", "ab", "target must be a [row, col] pair"),
    ]:
        with pytest.raises(ModelFormatError) as err:
            gridworld_spec_from_dict({**base, field: bad})
        assert err.value.diagnostics == [diagnostic]


def test_gridworld_spec_file_loading(tmp_path):
    doc = {
        "width": 4,
        "height": 4,
        "start": [0, 0],
        "target": [3, 3],
        "sensor": [1, 1],
        "noise_sigma": 0.75,
    }
    path = tmp_path / "board.json"
    path.write_text(json.dumps(doc))
    # the CLI reads a spec file through its loader
    spec = _load_scenario(str(path), None).grid_spec
    assert spec.noise_sigma == 0.75
    assert spec.sensor == (1, 1)
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2, 3]")
    with pytest.raises(ModelFormatError):
        _load_scenario(str(bad), None)
