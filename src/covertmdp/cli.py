"""Command-line front-end.

Subcommands: ``validate``, ``solve-nominal``, ``solve-augmented``,
``simulate``, ``plan``. Models are either builtin names (``example1``,
``gridworld``) or paths to model files; a JSON file with grid dimensions is
treated as a grid-world spec and expanded on load. Exit codes: 0 success,
1 domain error (bad model data, non-convergence, inadmissibility), 2 I/O or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import augmented as aug
from . import belief as bel
from . import mdp
from . import models
from . import rho
from . import sim
from .errors import CovertMdpError, ModelFormatError, NoAdmissibleSequence

BUILTIN_NAMES = ("example1", "gridworld")


@dataclass
class Scenario:
    name: str
    model: mdp.MdpModel
    obs: bel.ObservationModel | None
    start_belief: np.ndarray
    start_state: int | None  # None: draw the start from the belief
    grid_spec: models.GridWorldSpec | None


def _load_scenario(model_arg: str, obs_arg: str | None) -> Scenario:
    name, obs, spec = model_arg, None, None
    if model_arg == "example1":
        model, obs = models.example1_model()
    elif model_arg == "gridworld":
        spec = models.desk_gridworld()
    else:
        name = str(Path(model_arg))
        doc = mdp._read_json_object(name)
        if "width" in doc and "height" in doc:
            spec = models.gridworld_spec_from_dict(doc)
        else:
            model = mdp.model_from_dict(doc)
            if obs_arg:
                obs = bel.load_observation_file(obs_arg, model.num_states)
    if obs_arg and (spec is not None or model_arg in BUILTIN_NAMES):
        # a configuration error, exit 2 as for a file model without --obs
        raise OSError(f"--obs is for model files; {name} has its own observation model")
    start_state = None
    if spec is not None:
        # the spec checked its fields when it was built; the model checks its tables
        model, obs = models.gridworld_model(spec)
        start_state = spec.cell_index(*spec.start)
    return Scenario(
        name, model, obs, bel.uniform_belief(model.num_states), start_state, spec
    )


def _converged(result, solver: str):
    """``result``, or the error that ``solver``'s value iteration did not converge."""
    if not result.converged:
        raise CovertMdpError(
            f"{solver} value iteration did not converge "
            f"(residual {result.residual!r} after {result.iterations} sweeps)"
        )
    return result


def _nominal(scn: Scenario, tol: float):
    result = _converged(mdp.nominal_value_iteration(scn.model, tol=tol), "nominal")
    policy = mdp.extract_nominal_policy(scn.model, result.values)
    return result, policy


def _observed_scenario(args: argparse.Namespace):
    """The scenario, which carries its observation model, the nominal solve
    and the chain the observer filters against: ``(scn, nominal, policy, pa)``."""
    scn = _load_scenario(args.model, args.obs)
    if scn.obs is None:
        raise FileNotFoundError(
            "this command needs an observation model; pass --obs for file models"
        )
    nominal, policy = _nominal(scn, mdp.DEFAULT_VI_TOL)
    return scn, nominal, policy, mdp.induced_chain(scn.model, policy)


def _planner_config(args: argparse.Namespace) -> rho.PlannerConfig:
    return rho.PlannerConfig(
        horizon=args.horizon,
        reward_weight=args.wn,
        exposure_weight=args.wa,
        tail_exposure_weight=args.wap,
    )


def _echo(args: argparse.Namespace, keys: list[str]) -> dict:
    return {k: getattr(args, k) for k in keys}


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args: argparse.Namespace) -> int:
    try:
        scn = _load_scenario(args.model, args.obs)
    except ModelFormatError as exc:
        for line in exc.diagnostics:
            print(f"invalid: {line}", file=sys.stderr)
        return 1
    print(f"{scn.name}: model ok ({scn.model.num_states} states, "
          f"{scn.model.num_actions} actions)")
    return 0


def cmd_solve_nominal(args: argparse.Namespace) -> int:
    scn = _load_scenario(args.model, args.obs)
    result, policy = _nominal(scn, args.tol)
    ties = np.flatnonzero(policy.tie_flags)
    if ties.size:
        print(f"warning: maximizer ties at states {ties.tolist()}", file=sys.stderr)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mdp._write_json(
        {
            "model": scn.name,
            "tol": args.tol,
            "values": result.values.tolist(),
            "residual": result.residual,
            "iterations": result.iterations,
        },
        out / "nominal_values.json",
    )
    mdp._write_json(
        {
            "model": scn.name,
            "actions": policy.actions.tolist(),
            "ties": policy.tie_flags.tolist(),
        },
        out / "nominal_policy.json",
    )
    if scn.grid_spec is not None:
        grid = result.values.reshape(scn.grid_spec.height, scn.grid_spec.width)
        mdp._write_lines(
            [",".join(repr(float(v)) for v in row) for row in grid],
            out / "nominal_value_grid.csv",
        )
    print(f"{scn.name}: solved in {result.iterations} sweeps, "
          f"residual {result.residual:.3e}, files in {out}")
    return 0


def _solve_lattice(scn: Scenario, pa: np.ndarray, args: argparse.Namespace,
                   tol: float = aug.DEFAULT_AVI_TOL):
    """The lattice solve behind ``solve-augmented`` and ``simulate grid-vi``."""
    result = _converged(aug.solve_augmented_vi(
        scn.model, scn.obs, pa,
        reward_weight=args.wn, exposure_weight=args.wa,
        resolution=args.grid_res, tol=tol,
    ), "augmented")
    if result.fallback_points:
        print(
            f"note: {len(result.fallback_points)} grid points had no "
            f"admissible action; backup used the full action set there",
            file=sys.stderr,
        )
    return result


def cmd_solve_augmented(args: argparse.Namespace) -> int:
    scn, _, _, pa = _observed_scenario(args)
    result = _solve_lattice(scn, pa, args, args.tol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    aug.save_value_file(result.value, out / "augmented_values.json")
    print(
        f"{scn.name}: augmented solve converged in {result.iterations} sweeps, "
        f"residual {result.residual:.3e}, grid points "
        f"{result.value.grid.num_points}, files in {out}"
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    # the nominal controller reads no weight, yet summary.json echoes them
    for flag, name in (("wn", "reward_weight"), ("wa", "exposure_weight"),
                       ("wap", "tail_exposure_weight")):
        mdp._check_weight(getattr(args, flag), name)
    # refused before any solve, under the flag's name
    mdp._check_integer(args.seed_base, "--seed-base", 0)
    scn, nominal, policy, pa = _observed_scenario(args)
    if args.controller == "nominal":
        controller = sim.NominalController(policy)
    elif args.controller == "rho":
        controller = sim.RecedingHorizonController(
            scn.model, scn.obs, pa, nominal.values, _planner_config(args)
        )
    else:
        value = _solve_lattice(scn, pa, args).value
        controller = sim.AugmentedValueController(scn.model, scn.obs, pa, value)
    traces = sim.simulate_runs(
        scn.model, scn.obs, pa, controller, scn.start_belief, args.steps,
        args.seed_base, args.seeds, x0=scn.start_state, jobs=args.jobs,
    )
    summary = sim.aggregate_runs(traces)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for trace in traces:
        stem = f"trace_{trace.run_index:03d}"
        sim.write_trace_csv(trace, out / f"{stem}.csv")
        sim.write_trace_metadata(trace, out / f"{stem}.meta.json")
        if args.beliefs:
            sim.write_belief_csv(trace, out / f"{stem}.beliefs.csv")
    doc = {
        "config": {
            "controller": args.controller,
            "model": scn.name,
            **_echo(args, ["wn", "wa", "wap", "horizon", "grid_res",
                           "steps", "seeds", "seed_base"]),
        },
        "summary": asdict(summary),
    }
    mdp._write_json(doc, out / "summary.json")
    if args.verbose:
        for trace in traces:
            print(
                f"run {trace.run_index}: reward rate {trace.reward_rate!r}, "
                f"exposure rate {trace.exposure_rate!r}"
            )
    print(
        f"{scn.name} [{controller.controller_id}] over {args.seeds} runs of "
        f"{args.steps} steps: reward rate {summary.reward_rate:.4f} "
        f"(stderr {summary.reward_stderr:.4f}), exposure rate "
        f"{summary.exposure_rate:.4f} (stderr {summary.exposure_stderr:.4f}); "
        f"files in {out}"
    )
    return 0


def _plan_log_lines(x: int, config: rho.PlannerConfig, pruned, scored=()) -> list[str]:
    """plan_log.jsonl's lines for the planner call from state ``x``."""
    events = [{"event": "plan", "state": x, **asdict(config)}]
    events += [{"event": "pruned", "prefix": list(p[:-1]), "action": p[-1]} for p in pruned]
    events += [{"event": "scored", **asdict(s)} for s in scored]
    return [json.dumps(e) for e in events]


def cmd_plan(args: argparse.Namespace) -> int:
    log_path = (Path(args.out) if args.out else Path(".")) / "plan_log.jsonl"
    if args.verbose:
        # before anything can fail: a failed run leaves no earlier run's log
        log_path.unlink(missing_ok=True)
    scn, nominal, _, pa = _observed_scenario(args)
    config = _planner_config(args)
    if args.verbose:
        log_path.parent.mkdir(parents=True, exist_ok=True)
    log, rows = [], []
    try:
        for x in range(scn.model.num_states):
            try:
                result = rho.plan(
                    scn.model, scn.obs, pa, nominal.values, x, scn.start_belief, config
                )
            except NoAdmissibleSequence as exc:
                log += _plan_log_lines(x, config, exc.pruned)
                raise
            if args.verbose:
                log += _plan_log_lines(x, config, result.pruned, result.sequences)
            row = {
                "state": x,
                "actions": list(result.actions),
                "objective": result.objective,
                "reward_term": result.reward_term,
                "tail_term": result.tail_term,
                "detection_term": result.detection_term,
                "sequences_scored": result.sequences_scored,
                "tied": result.tied,
            }
            rows.append(row)
            tie_note = ", tied" if row["tied"] else ""
            print(
                f"state {x}: actions {row['actions']}, "
                f"objective {row['objective']:.6f} "
                f"(reward {row['reward_term']:.6f}, tail {row['tail_term']:.6f}, "
                f"exposure {row['detection_term']:.6f}, "
                f"{row['sequences_scored']} sequences{tie_note})"
            )
    finally:
        # a failed run logs what it planned, and no log if nothing
        if args.verbose and log:
            mdp._write_lines(log, log_path)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        doc = {
            "config": {
                "model": scn.name,
                **_echo(args, ["wn", "wa", "wap", "horizon"]),
            },
            "plans": rows,
        }
        mdp._write_json(doc, out / "plan.json")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertmdp",
        description="Detection-averse control for finite MDPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--model", required=True,
                       help="builtin name (example1, gridworld) or model file")
        p.add_argument("--obs", default=None,
                       help="observation model file (file models only)")

    def add_weights(p: argparse.ArgumentParser, planner: bool, lattice: bool):
        p.add_argument("--wn", type=float, default=1.0, help="reward weight")
        p.add_argument("--wa", type=float, default=0.0, help="exposure weight")
        if planner:
            p.add_argument("--wap", type=float, default=0.0,
                           help="tail exposure weight: only adds to --wa")
            p.add_argument("--horizon", type=int, default=rho.DEFAULT_HORIZON)
        if lattice:
            p.add_argument("--grid-res", type=int, default=aug.DEFAULT_RESOLUTION)

    p = sub.add_parser("validate", help="check model invariants")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve-nominal", help="value iteration without observer")
    add_common(p)
    p.add_argument("--tol", type=float, default=mdp.DEFAULT_VI_TOL)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_solve_nominal)

    p = sub.add_parser("solve-augmented", help="value iteration on the state-belief grid")
    add_common(p)
    add_weights(p, planner=False, lattice=True)
    p.add_argument("--tol", type=float, default=aug.DEFAULT_AVI_TOL)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_solve_augmented)

    p = sub.add_parser("simulate", help="closed-loop runs against the observer")
    p.add_argument("controller", choices=["nominal", "rho", "grid-vi"])
    add_common(p)
    add_weights(p, planner=True, lattice=True)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--beliefs", action="store_true",
                   help="also write per-run belief CSVs (wide)")
    p.add_argument("--verbose", action="store_true",
                   help="print each run's reward and exposure rates")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("plan", help="one planner solve per state, with diagnostics")
    add_common(p)
    add_weights(p, planner=True, lattice=False)
    p.add_argument("--verbose", action="store_true",
                   help="log every scored and pruned sequence to plan_log.jsonl")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_plan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ModelFormatError as exc:
        for line in exc.diagnostics:
            print(f"error: {line}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        # before ValueError, which JSONDecodeError subclasses
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except (CovertMdpError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
