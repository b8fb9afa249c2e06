"""Tests for the command-line front-end."""

import json

import numpy as np
import pytest

from covertmdp import (
    MdpModel,
    ObservationModel,
    example1_model,
    nominal_value_iteration,
)
from covertmdp.augmented import load_value_file
from covertmdp.belief import save_observation_file
from covertmdp.cli import main
from covertmdp.mdp import save_model_file


def write_example1_files(tmp_path):
    model, obs = example1_model()
    model_path = tmp_path / "model.json"
    obs_path = tmp_path / "obs.json"
    save_model_file(model, model_path)
    save_observation_file(obs, obs_path)
    return str(model_path), str(obs_path)


def test_validate_builtin_models(capsys):
    assert main(["validate", "--model", "example1"]) == 0
    out = capsys.readouterr().out
    assert "model ok" in out and "3 states" in out
    assert main(["validate", "--model", "gridworld"]) == 0
    out = capsys.readouterr().out
    assert "49 states" in out


def test_validate_file_model(tmp_path, capsys):
    model_path, obs_path = write_example1_files(tmp_path)
    assert main(["validate", "--model", model_path, "--obs", obs_path]) == 0
    assert "model ok" in capsys.readouterr().out


def test_validate_rejects_bad_model_file(tmp_path, capsys):
    doc = {
        "num_states": 2,
        "num_actions": 1,
        "discount": 0.9,
        # [action][source][destination]; the second row does not sum to 1
        "transition": [[[0.5, 0.5], [0.9, 0.2]]],
        "reward": [[0.0], [0.0]],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--model", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid:" in err and "not 1" in err


def test_missing_file_is_a_config_error(capsys):
    assert main(["validate", "--model", "/nonexistent/model.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "mangled.json"
    path.write_text("{ this is not json")
    assert main(["validate", "--model", str(path)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_solve_nominal_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["solve-nominal", "--model", "example1", "--out", str(out)]) == 0
    values_doc = json.loads((out / "nominal_values.json").read_text())
    policy_doc = json.loads((out / "nominal_policy.json").read_text())
    exact = nominal_value_iteration(example1_model()[0])
    np.testing.assert_allclose(values_doc["values"], exact.values, atol=1e-12)
    assert values_doc["model"] == "example1"
    assert values_doc["tol"] == pytest.approx(1e-10)
    assert policy_doc["actions"] == [0, 0, 1]
    assert policy_doc["ties"] == [False, False, False]
    assert not (out / "nominal_value_grid.csv").exists()


def test_solve_nominal_is_idempotent(tmp_path):
    out = tmp_path / "results"
    main(["solve-nominal", "--model", "example1", "--out", str(out)])
    first = (out / "nominal_values.json").read_bytes()
    main(["solve-nominal", "--model", "example1", "--out", str(out)])
    assert (out / "nominal_values.json").read_bytes() == first


def test_solve_nominal_grid_csv_for_boards(tmp_path):
    out = tmp_path / "grid"
    assert main(["solve-nominal", "--model", "gridworld", "--out", str(out)]) == 0
    rows = (out / "nominal_value_grid.csv").read_text().splitlines()
    assert len(rows) == 7
    assert all(len(row.split(",")) == 7 for row in rows)


def test_solve_nominal_warns_about_ties(tmp_path, capsys):
    transition = np.zeros((2, 2, 2))
    transition[:, :, 0] = np.eye(2)
    transition[:, :, 1] = np.eye(2)
    model = MdpModel(2, 2, transition, np.full((2, 2), 0.3), 0.9)
    path = tmp_path / "tied.json"
    save_model_file(model, path)
    out = tmp_path / "results"
    assert main(["solve-nominal", "--model", str(path), "--out", str(out)]) == 0
    assert "maximizer ties at states [0, 1]" in capsys.readouterr().err


def test_solve_augmented_pure_reward_matches_nominal(tmp_path):
    out = tmp_path / "aug"
    code = main([
        "solve-augmented", "--model", "example1",
        "--wn", "1", "--wa", "0", "--grid-res", "5", "--out", str(out),
    ])
    assert code == 0
    value = load_value_file(out / "augmented_values.json")
    exact = nominal_value_iteration(example1_model()[0])
    for x in range(3):
        np.testing.assert_allclose(
            value.values[x], exact.values[x], atol=1e-4
        )


def test_solve_augmented_refuses_large_state_spaces(capsys):
    assert main(["solve-augmented", "--model", "gridworld"]) == 1
    err = capsys.readouterr().err
    assert "refusing" in err and "receding-horizon" in err


def test_solve_augmented_reports_fallback_points_without_verbose(tmp_path, capsys):
    # The nominal action stays put, so the observer expects no motion. At
    # state 1 with the observer sure of state 0 both actions can show the
    # reading for state 1; the half-moving one survives the relaxed backup.
    transition = np.zeros((2, 2, 2))
    transition[:, :, 0] = np.eye(2)
    transition[:, :, 1] = 0.5
    model = MdpModel(2, 2, transition, np.array([[1.0, 0.0], [1.0, 0.0]]), 0.9)
    save_model_file(model, tmp_path / "model.json")
    save_observation_file(ObservationModel(2, np.eye(2)), tmp_path / "obs.json")
    code = main([
        "solve-augmented", "--model", str(tmp_path / "model.json"),
        "--obs", str(tmp_path / "obs.json"), "--wa", "0.5", "--grid-res", "2",
        "--out", str(tmp_path / "aug"),
    ])
    assert code == 0
    assert "2 grid points had no admissible action" in capsys.readouterr().err


def test_simulate_writes_traces_metadata_and_summary(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main([
        "simulate", "nominal", "--model", "example1",
        "--steps", "5", "--seeds", "2", "--seed-base", "3", "--out", str(out),
    ])
    assert code == 0
    for i in range(2):
        csv = (out / f"trace_{i:03d}.csv").read_text().splitlines()
        assert csv[0] == "t,x,u,y,reward,penalty,avg_reward,avg_detection"
        assert len(csv) == 6
        meta = json.loads((out / f"trace_{i:03d}.meta.json").read_text())
        assert meta["controller"] == "nominal"
        assert meta["seed_base"] == 3
        assert meta["run_index"] == i
        assert meta["num_steps"] == 5
    doc = json.loads((out / "summary.json").read_text())
    assert doc["config"]["controller"] == "nominal"
    assert doc["config"]["model"] == "example1"
    assert doc["config"]["steps"] == 5
    assert doc["config"]["seeds"] == 2
    assert doc["config"]["seed_base"] == 3
    assert doc["summary"]["num_runs"] == 2
    assert len(doc["summary"]["per_run_reward"]) == 2
    assert "reward rate" in capsys.readouterr().out
    assert not (out / "trace_000.beliefs.csv").exists()


def test_simulate_same_seed_identical_bytes(tmp_path):
    args = [
        "simulate", "rho", "--model", "example1",
        "--wn", "0.5", "--wa", "0.5", "--horizon", "2",
        "--steps", "20", "--seeds", "2", "--seed-base", "1",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    for i in range(2):
        name = f"trace_{i:03d}.csv"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_simulate_parallel_jobs_match_serial(tmp_path):
    base = [
        "simulate", "nominal", "--model", "example1",
        "--steps", "50", "--seeds", "3", "--seed-base", "7",
    ]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(base + ["--jobs", "1", "--out", str(serial)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
    for i in range(3):
        name = f"trace_{i:03d}.csv"
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_simulate_belief_csv_flag(tmp_path):
    out = tmp_path / "runs"
    code = main([
        "simulate", "nominal", "--model", "example1",
        "--steps", "4", "--seeds", "1", "--beliefs", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "trace_000.beliefs.csv").read_text().splitlines()
    assert lines[0] == "t,o_0,o_1,o_2"
    assert len(lines) == 5


def test_simulate_file_model_requires_observation_model(tmp_path, capsys):
    model_path, _ = write_example1_files(tmp_path)
    code = main([
        "simulate", "nominal", "--model", model_path,
        "--steps", "2", "--seeds", "1", "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "needs an observation model" in capsys.readouterr().err


def test_simulate_grid_vi_controller_on_small_models(tmp_path):
    out = tmp_path / "runs"
    code = main([
        "simulate", "grid-vi", "--model", "example1",
        "--wn", "0.5", "--wa", "0.5", "--grid-res", "4",
        "--steps", "10", "--seeds", "1", "--out", str(out),
    ])
    assert code == 0
    meta = json.loads((out / "trace_000.meta.json").read_text())
    assert "grid-value" in meta["controller"]


def test_simulate_grid_vi_controller_refuses_large_models(tmp_path, capsys):
    code = main([
        "simulate", "grid-vi", "--model", "gridworld",
        "--steps", "2", "--seeds", "1", "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "rho controller" in capsys.readouterr().err


def test_plan_prints_rows_and_writes_json(tmp_path, capsys):
    out = tmp_path / "plans"
    code = main([
        "plan", "--model", "example1",
        "--wn", "0.5", "--wa", "0.5", "--horizon", "3", "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    for x in range(3):
        assert f"state {x}:" in printed
    doc = json.loads((out / "plan.json").read_text())
    assert doc["config"]["wn"] == 0.5
    assert doc["config"]["wa"] == 0.5
    assert doc["config"]["horizon"] == 3
    assert len(doc["plans"]) == 3
    for row in doc["plans"]:
        assert len(row["actions"]) == 3
        recomposed = 0.5 * (row["reward_term"] + row["tail_term"]) - 0.5 * row[
            "detection_term"
        ]
        assert abs(recomposed - row["objective"]) < 1e-12
        assert row["sequences_scored"] == 8


def test_plan_verbose_log_is_idempotent(tmp_path):
    out = tmp_path / "plans"
    args = [
        "plan", "--model", "example1", "--verbose",
        "--wn", "0.5", "--wa", "0.5", "--out", str(out),
    ]
    assert main(args) == 0
    log = out / "plan_log.jsonl"
    first = log.read_bytes()
    events = [json.loads(line) for line in first.decode().splitlines()]
    headers = [e for e in events if e["event"] == "plan"]
    scored = [e for e in events if e["event"] == "scored"]
    assert len(headers) == 3  # one planner call per state
    assert len(scored) == 24  # 8 sequences from each of the 3 states
    assert main(args) == 0
    assert log.read_bytes() == first


def test_plan_refuses_an_oversized_horizon(capsys):
    assert main(["plan", "--model", "example1", "--horizon", "40"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "horizon 40" in err


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--model", "example1"])
    assert exc.value.code == 2
