"""Tests for the command-line front-end."""

import functools
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from covertmdp import (
    MdpModel,
    ObservationModel,
    PlannerConfig,
    example1_model,
    extract_nominal_policy,
    induced_chain,
    nominal_value_iteration,
    plan,
    uniform_belief,
)
from covertmdp import mdp
from covertmdp.belief import save_observation_file
from covertmdp.cli import build_parser, main
from covertmdp.mdp import save_model_file

from _oracles import random_sane_model
from test_rho import two_state_trap


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
    # Python's json reads and writes NaN; every comparison with it is False
    doc["transition"] = [[[float("nan"), 1.0], [0.5, 0.5]]]
    path.write_text(json.dumps(doc))
    assert main(["validate", "--model", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid: transition entry p(0|0,0) =" in err and "nan" in err
    model_path, _ = write_example1_files(tmp_path)
    likelihood = example1_model()[1].likelihood.tolist()
    likelihood[0][0] = float("nan")
    obs_path = tmp_path / "nan_obs.json"
    obs_path.write_text(json.dumps({"num_observations": 3, "likelihood": likelihood}))
    assert main(["validate", "--model", model_path, "--obs", str(obs_path)]) == 1
    err = capsys.readouterr().err
    assert "invalid: likelihood q(0|0) =" in err and "nan" in err


def test_validate_prints_plain_numbers_for_bad_entries(tmp_path, capsys):
    doc = {
        "num_states": 2,
        "num_actions": 1,
        "discount": 0.9,
        # [action][source][destination]: a NaN entry, and a row summing to 1.1
        "transition": [[[float("nan"), 1.0], [0.6, 0.5]]],
        "reward": [[0.0], [float("nan")]],
    }
    path = tmp_path / "nan_model.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--model", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid: transition entry p(0|0,0) = nan outside [0, 1]" in err
    assert "invalid: transition column (x=1, u=0) sums to 1.1, not 1" in err
    assert "invalid: reward R(1,0) = nan is not finite" in err
    assert "np.float64(" not in err
    model_path, _ = write_example1_files(tmp_path)
    likelihood = example1_model()[1].likelihood.tolist()
    likelihood[0][0] = float("nan")
    likelihood[0][1] += 0.1
    obs_path = tmp_path / "nan_obs.json"
    obs_path.write_text(json.dumps({"num_observations": 3, "likelihood": likelihood}))
    assert main(["validate", "--model", model_path, "--obs", str(obs_path)]) == 1
    err = capsys.readouterr().err
    assert "invalid: likelihood q(0|0) = nan outside [0, 1]" in err
    assert "invalid: likelihood column x=1 sums to 1.1, not 1" in err
    assert "np.float64(" not in err


def test_validate_reports_only_the_shape_of_a_sensor_over_other_states(tmp_path, capsys):
    # the sensor is measured against the model's states before its columns
    # are read, so a bad column in a sensor of the wrong size goes unnamed
    model_path, _ = write_example1_files(tmp_path)
    obs_path = tmp_path / "narrow_obs.json"
    obs_path.write_text(json.dumps(
        {"num_observations": 2, "likelihood": [[0.5, 0.9], [0.5, 0.6]]}
    ))
    assert main(["validate", "--model", model_path, "--obs", str(obs_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "invalid: likelihood shape (2, 2) != expected (2, 3)\n"
    assert captured.out == ""


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [
        line.strip() for line in block.replace("\\\n", " ").splitlines()
        if line.strip().startswith("covertmdp ")
    ]
    assert len(lines) == 6
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_gridworld_spec_file_is_validated_where_it_is_loaded(tmp_path, capsys):
    spec = {"width": 3, "height": 3, "start": [0, 0], "target": [2, 2], "sensor": [1, 1]}
    path = tmp_path / "board.json"
    path.write_text(json.dumps({**spec, "discount": 0.9}))
    assert main(["validate", "--model", str(path)]) == 0
    assert "model ok (9 states, 5 actions)" in capsys.readouterr().out
    # a unit discount would have solve-nominal run out its 100,000 sweeps
    path.write_text(json.dumps({**spec, "discount": 1.0}))
    assert main(["validate", "--model", str(path)]) == 1
    assert "invalid: discount 1.0 not strictly inside (0, 1)" in capsys.readouterr().err
    out = tmp_path / "results"
    assert main(["solve-nominal", "--model", str(path), "--out", str(out)]) == 1
    assert "error: discount 1.0 not strictly inside (0, 1)" in capsys.readouterr().err
    assert not out.exists()
    # 1e-200 squared underflows to 0 (a NaN likelihood column); 1e300
    # squared overflows the Python float
    for sigma in (1e-200, 1e300):
        path.write_text(json.dumps({**spec, "noise_sigma": sigma}))
        assert main(["validate", "--model", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"invalid: noise_sigma must lie in (1e-150, 1e150), got {sigma!r}" in err


@pytest.mark.parametrize("command", ["validate", "solve-nominal", "plan"])
def test_obs_is_refused_with_a_builtin_model_or_a_spec_file(command, tmp_path, capsys):
    # those models carry their own sensor, so the flag has nothing to load
    spec = tmp_path / "board.json"
    spec.write_text(json.dumps(
        {"width": 3, "height": 3, "start": [0, 0], "target": [2, 2], "sensor": [1, 1]}
    ))
    for model in ("example1", "gridworld", str(spec)):
        out = tmp_path / "out"
        code = main([command, "--model", model, "--obs", "/nonexistent.json",
                     *(["--out", str(out)] if command != "validate" else [])])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --obs is for model files; {model} has its own observation model\n"
        )
        assert captured.out == "" and not out.exists()


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


def test_solve_nominal_reports_non_convergence(tmp_path, capsys, monkeypatch):
    # example1 reaches an exact floating-point fixed point, so no positive
    # tolerance keeps it from converging; a three-sweep budget does
    monkeypatch.setattr(
        mdp, "nominal_value_iteration",
        functools.partial(mdp.nominal_value_iteration, max_iter=3),
    )
    out = tmp_path / "results"
    assert main(["solve-nominal", "--model", "example1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: nominal value iteration did not converge")
    assert err.rstrip().endswith("after 3 sweeps)")
    assert not out.exists()


def test_solve_augmented_pure_reward_matches_nominal(tmp_path):
    out = tmp_path / "aug"
    code = main([
        "solve-augmented", "--model", "example1",
        "--wn", "1", "--wa", "0", "--grid-res", "5", "--out", str(out),
    ])
    assert code == 0
    values = json.loads((out / "augmented_values.json").read_text())["values"]
    exact = nominal_value_iteration(example1_model()[0])
    for x in range(3):
        np.testing.assert_allclose(values[x], exact.values[x], atol=1e-4)


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
    # five runs: two workers take chunks of 3 and 2, three take 2, 2 and 1
    for controller in (
        ["nominal"],
        ["rho", "--wn", "0.5", "--wa", "0.5", "--horizon", "2"],
        ["grid-vi", "--wn", "0.5", "--wa", "0.5", "--grid-res", "4"],
    ):
        for beliefs in ([], ["--beliefs"]):
            written = []
            for jobs in ("1", "2", "3"):
                out = tmp_path / f"{controller[0]}{beliefs}{jobs}"
                assert main([
                    "simulate", *controller, "--model", "example1", "--steps", "30",
                    "--seeds", "5", "--seed-base", "7", "--jobs", jobs, "--out", str(out),
                    *beliefs,
                ]) == 0
                written.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
            assert len(written[0]) == 1 + 5 * (3 if beliefs else 2)
            assert written[1] == written[0] and written[2] == written[0]


def test_simulate_caps_jobs_at_the_number_of_runs(tmp_path, monkeypatch):
    requested = []

    class InlinePool:
        """Records the worker count a pool is asked for; maps in-process."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    # simulate_runs imports the pool class only when it needs a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    base = [
        "simulate", "rho", "--model", "example1", "--wn", "0.5", "--wa", "0.5",
        "--horizon", "2", "--steps", "20", "--seeds", "2", "--seed-base", "5",
    ]
    wide, serial = tmp_path / "wide", tmp_path / "serial"
    assert main(base + ["--jobs", "64", "--out", str(wide)]) == 0
    assert requested == [2]
    assert main(base + ["--jobs", "1", "--out", str(serial)]) == 0
    assert requested == [2]  # one worker runs serially, without a pool
    for i in range(2):
        name = f"trace_{i:03d}.csv"
        assert (wide / name).read_bytes() == (serial / name).read_bytes()


@pytest.mark.parametrize(
    "flag, value, message",
    [("--jobs", "-3", "jobs must be positive, got -3"),
     ("--seeds", "0", "num_runs must be positive, got 0"),
     ("--seed-base", "-1", "--seed-base must be non-negative, got -1")],
    ids=["negative_jobs", "no_runs", "negative_seed_base"],
)
def test_simulate_refuses_nonsense_run_counts(flag, value, message, tmp_path, capsys):
    out = tmp_path / "runs"
    code = main([
        "simulate", "nominal", "--model", "example1", "--steps", "5",
        "--seeds", "2", flag, value, "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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


def test_simulate_verbose_prints_each_runs_rates(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main([
        "simulate", "nominal", "--model", "example1",
        "--steps", "4", "--seeds", "2", "--verbose", "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    for i in range(2):
        meta = json.loads((out / f"trace_{i:03d}.meta.json").read_text())
        assert printed[i] == (
            f"run {i}: reward rate {meta['reward_rate']!r}, "
            f"exposure rate {meta['exposure_rate']!r}"
        )


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


def test_lattice_commands_solve_a_seven_state_file_model(tmp_path):
    # The lattice cap bounds the sweep's entries, not the state count: seven
    # states at resolution 2 are 7 * 28 * 3 * 7 entries.
    transition, reward, likelihood = random_sane_model(np.random.default_rng(7), 7, 2, 3)
    model_path, obs_path = tmp_path / "model.json", tmp_path / "obs.json"
    save_model_file(MdpModel(7, 2, transition, reward, 0.9), model_path)
    save_observation_file(ObservationModel(3, likelihood), obs_path)
    files = ["--model", str(model_path), "--obs", str(obs_path),
             "--wn", "0.5", "--wa", "0.5", "--grid-res", "2"]
    out = tmp_path / "aug"
    assert main(["solve-augmented", *files, "--out", str(out)]) == 0
    values = json.loads((out / "augmented_values.json").read_text())["values"]
    assert np.shape(values) == (7, 28)
    runs = tmp_path / "runs"
    assert main(["simulate", "grid-vi", *files, "--steps", "5", "--seeds", "1",
                 "--out", str(runs)]) == 0
    meta = json.loads((runs / "trace_000.meta.json").read_text())
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


def write_trap_files(tmp_path):
    """``two_state_trap``'s model and sensor as files: the nominal policy
    jumps from state 0 to state 1, so under the CLI's induced chain staying
    at state 0 (action 0) is pruned at the root."""
    model, obs, _ = two_state_trap()
    save_model_file(model, tmp_path / "trap.json")
    save_observation_file(obs, tmp_path / "trap_obs.json")
    return model, obs, ["--model", str(tmp_path / "trap.json"),
                        "--obs", str(tmp_path / "trap_obs.json")]


def test_plan_log_prints_each_calls_header_pruned_and_scored_lines(tmp_path):
    model, obs, files = write_trap_files(tmp_path)
    out = tmp_path / "plans"
    assert main(["plan", *files, "--horizon", "2", "--verbose", "--out", str(out)]) == 0
    lines = (out / "plan_log.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines[:2] == [
        '{"event": "plan", "state": 0, "horizon": 2, "reward_weight": 1.0, '
        '"exposure_weight": 0.0, "tail_exposure_weight": 0.0}',
        '{"event": "pruned", "prefix": [], "action": 0}',
    ]
    values = nominal_value_iteration(model).values
    pa = induced_chain(model, extract_nominal_policy(model, values))
    expected = []
    for x in range(2):
        result = plan(model, obs, pa, values, x, uniform_belief(2), PlannerConfig(2))
        expected.append({
            "event": "plan", "state": x, "horizon": 2, "reward_weight": 1.0,
            "exposure_weight": 0.0, "tail_exposure_weight": 0.0,
        })
        # pruned lines in sorted order, then the scored ones in the planner's
        assert list(result.pruned) == sorted(result.pruned)
        expected += [
            {"event": "pruned", "prefix": list(seq[:-1]), "action": seq[-1]}
            for seq in result.pruned
        ]
        expected += [
            {"event": "scored", "actions": list(s.actions), "reward_term": s.reward_term,
             "tail_term": s.tail_term, "detection_term": s.detection_term,
             "objective": s.objective}
            for s in result.sequences
        ]
    assert [json.loads(line) for line in lines] == expected
    assert sum(e["event"] == "pruned" for e in expected) == 1


def write_fork_files(tmp_path):
    """States 0 and 1 each keep still under their nominal action; state 2
    moves to either at random. The observer knows where the agent is, so
    from state 2 every second action is a surprising move back to 2."""
    transition = np.zeros((3, 3, 2))
    transition[0, 0, 0] = transition[1, 1, 1] = 1.0
    transition[2, 0, 1] = transition[2, 1, 0] = 1.0
    transition[:2, 2, :] = 0.5
    reward = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    save_model_file(MdpModel(3, 2, transition, reward, 0.9), tmp_path / "fork.json")
    save_observation_file(ObservationModel(3, np.eye(3)), tmp_path / "fork_obs.json")
    return ["--model", str(tmp_path / "fork.json"), "--obs", str(tmp_path / "fork_obs.json")]


def test_plan_log_of_a_failed_run_holds_what_was_planned(tmp_path, capsys):
    # State 2 prunes every sequence: its header and pruned lines follow the
    # two states before it, in place of an earlier run's log
    out = tmp_path / "plans"
    out.mkdir()
    (out / "plan_log.jsonl").write_text("stale\n")
    args = ["plan", *write_fork_files(tmp_path), "--horizon", "2", "--verbose",
            "--out", str(out)]
    assert main(args) == 1
    assert "no admissible action sequence of length 2 from state x=2" in capsys.readouterr().err
    events = [json.loads(line) for line in (out / "plan_log.jsonl").read_text().splitlines()]
    headers = [i for i, e in enumerate(events) if e["event"] == "plan"]
    assert [events[i]["state"] for i in headers] == [0, 1, 2]
    assert events[headers[2] + 1:] == [
        {"event": "pruned", "prefix": [u], "action": v} for u in (0, 1) for v in (0, 1)
    ]
    assert not (out / "plan.json").exists()
    # a run that fails before it logs anything leaves no log at all
    (out / "plan_log.jsonl").write_text("stale\n")
    assert main(["plan", "--model", "example1", "--horizon", "40", "--verbose",
                 "--out", str(out)]) == 1
    assert not (out / "plan_log.jsonl").exists()


@pytest.mark.parametrize("flags, code", [
    (["--horizon", "0"], 1),  # refused by the planner's config
    (["--wn", "nan"], 1),
    (["--model", "no_such_model.json"], 2),  # no scenario to load
])
def test_plan_that_fails_before_planning_leaves_no_stale_log(flags, code, tmp_path, capsys):
    out = tmp_path / "plans"
    out.mkdir()
    (out / "plan_log.jsonl").write_text("stale\n")
    args = ["plan", "--model", "example1", "--verbose", "--out", str(out), *flags]
    assert main(args) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(out.iterdir())


def test_plan_refuses_an_oversized_horizon(capsys):
    assert main(["plan", "--model", "example1", "--horizon", "40"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "horizon 40" in err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("plan", "--wn"), ("plan", "--wap"), ("solve-augmented", "--wa"),
        ("simulate nominal", "--wn"), ("simulate nominal", "--wa"),
        ("simulate nominal", "--wap"),
    ],
)
def test_non_finite_weights_are_refused(command, flag, tmp_path, capsys):
    # the nominal controller reads no weight, but summary.json would echo it
    code = main([*command.split(), "--model", "example1", flag, "nan", "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "must be finite, got nan" in captured.err
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--model", "example1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["validate", "solve-nominal", "solve-augmented"])
def test_only_simulate_and_plan_take_verbose(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--model", "example1", "--verbose"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --verbose" in capsys.readouterr().err
