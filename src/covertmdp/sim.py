"""Closed-loop simulation against a filtering observer.

One step: the controller picks an action from the current (state, belief)
pair, the state transitions, the observer draws an observation of the new
state and updates its belief with the action-blind filter. Traces record
per-step reward and exposure (observer belief in the true state) together
with their running means, which are the quantities compared across
controllers.

Runs are reproducible: run ``i`` of a batch uses the generator seeded with
``[seed_base, i]``, and trace files are written with round-trippable float
formatting, so identical seeds give byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .augmented import AugmentedValueFunction, greedy_action
from .belief import ObservationModel, admissible_actions, bayes_update, stage_penalty
from .errors import (
    EmptyAdmissibleSet,
    IllDefinedUpdate,
    MixedConfig,
    NoAdmissibleSequence,
    ProhibitedAction,
)
from .mdp import MdpModel, Policy, _readonly
from .rho import PlannerConfig, plan


def rng_for_run(seed_base: int, run_index: int) -> np.random.Generator:
    return np.random.default_rng([seed_base, run_index])


def _sample(rng: np.random.Generator, probs: np.ndarray) -> int:
    edges = np.cumsum(probs)
    i = int(np.searchsorted(edges, rng.random() * edges[-1], side="right"))
    return min(i, probs.size - 1)


def model_fingerprint(model: MdpModel, obs: ObservationModel) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(model.transition).tobytes())
    h.update(np.ascontiguousarray(model.reward).tobytes())
    h.update(repr(model.discount).encode())
    h.update(np.ascontiguousarray(obs.likelihood).tobytes())
    return h.hexdigest()[:12]


# ---------------------------------------------------------------------------
# controllers

class NominalController:
    """Plays the no-observer optimal policy regardless of the belief."""

    def __init__(self, policy: Policy):
        self.policy = policy
        self.controller_id = "nominal"

    def decide(self, x: int, o: np.ndarray) -> int:
        return int(self.policy.actions[x])


class AugmentedValueController:
    """Greedy one-step lookahead on a solved state-belief value function."""

    def __init__(
        self,
        model: MdpModel,
        obs: ObservationModel,
        pa: np.ndarray,
        value: AugmentedValueFunction,
    ):
        self.model = model
        self.obs = obs
        self.pa = pa
        self.value = value
        self.controller_id = (
            f"grid-value(res={value.grid.resolution},"
            f"wn={value.reward_weight!r},wa={value.exposure_weight!r})"
        )

    def decide(self, x: int, o: np.ndarray) -> int:
        return greedy_action(self.model, self.obs, self.pa, self.value, x, o)


class RecedingHorizonController:
    """Replans an open-loop sequence each step and applies its first action."""

    def __init__(
        self,
        model: MdpModel,
        obs: ObservationModel,
        pa: np.ndarray,
        values: np.ndarray,
        config: PlannerConfig,
    ):
        self.model = model
        self.obs = obs
        self.pa = pa
        self.values = np.asarray(values, dtype=float)
        self.config = config
        self.controller_id = (
            f"receding-horizon(N={config.horizon},wn={config.reward_weight!r},"
            f"wa={config.exposure_weight!r},wap={config.tail_exposure_weight!r})"
        )

    def decide(self, x: int, o: np.ndarray) -> int:
        """First action of the best sequence. When no sequence of the full
        horizon is admissible, replans at horizons N-1, ..., 1 and raises
        only when a single step fails too."""
        config = self.config
        while True:
            try:
                return plan(
                    self.model, self.obs, self.pa, self.values, x, o, config
                ).first_action
            except NoAdmissibleSequence:
                if config.horizon == 1:
                    raise
                config = replace(config, horizon=config.horizon - 1)


# ---------------------------------------------------------------------------
# stepping

def step(
    model: MdpModel,
    obs: ObservationModel,
    pa: np.ndarray,
    x: int,
    o: np.ndarray,
    u: int,
    rng: np.random.Generator,
) -> tuple[int, int, np.ndarray]:
    """Apply ``u``: returns (next state, observation, next belief).

    Rejects prohibited actions up front so a failure is deterministic
    rather than appearing only on the unlucky observation draw.
    """
    if u not in admissible_actions(model, obs, pa, x, o):
        raise ProhibitedAction(f"action u={u} is prohibited at state x={x}")
    x_next = _sample(rng, model.transition[:, x, u])
    y = _sample(rng, obs.likelihood[:, x_next])
    o_next = bayes_update(pa, obs.likelihood, o, y)
    return x_next, y, o_next


@dataclass(frozen=True)
class Trace:
    """Row ``t`` holds the pair seen by the controller at time ``t``, the
    action it chose, and the observation that produced ``beliefs[t]``
    (-1 at t=0, where the belief is the given prior)."""

    controller_id: str
    model_id: str
    seed_base: int
    run_index: int
    states: np.ndarray
    actions: np.ndarray
    observations: np.ndarray
    beliefs: np.ndarray
    rewards: np.ndarray
    penalties: np.ndarray
    mean_rewards: np.ndarray
    mean_penalties: np.ndarray
    final_state: int
    final_belief: np.ndarray

    def __post_init__(self):
        for name in ("states", "actions", "observations"):
            object.__setattr__(self, name, _readonly(getattr(self, name), dtype=np.int64))
        for name in (
            "beliefs", "rewards", "penalties",
            "mean_rewards", "mean_penalties", "final_belief",
        ):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def num_steps(self) -> int:
        return self.states.size

    @property
    def reward_rate(self) -> float:
        return float(self.mean_rewards[-1])

    @property
    def exposure_rate(self) -> float:
        return float(self.mean_penalties[-1])


def run_closed_loop(
    model: MdpModel,
    obs: ObservationModel,
    pa: np.ndarray,
    controller,
    o0: np.ndarray,
    num_steps: int,
    seed_base: int,
    run_index: int,
    x0: int | None = None,
    model_id: str | None = None,
) -> Trace:
    """Simulate ``num_steps`` controller decisions from belief ``o0``.

    When ``x0`` is None the initial state is drawn from ``o0``, so the
    observer's prior is calibrated; passing ``x0`` fixes the start (the
    belief then measures where the observer *thinks* the agent is).
    """
    if num_steps < 1:
        raise ValueError(f"num_steps must be positive, got {num_steps}")
    rng = rng_for_run(seed_base, run_index)
    o0 = np.asarray(o0, dtype=float)
    x = _sample(rng, o0) if x0 is None else int(x0)
    if o0[x] <= 0.0:
        warnings.warn(
            f"initial belief puts zero mass on the start state x={x}; "
            "the observer can be driven into an undefined update",
            RuntimeWarning,
            stacklevel=2,
        )
    o = o0

    t_n = num_steps
    states = np.empty(t_n, dtype=np.int64)
    actions = np.empty(t_n, dtype=np.int64)
    observations = np.empty(t_n, dtype=np.int64)
    beliefs = np.empty((t_n, model.num_states))
    rewards = np.empty(t_n)
    penalties = np.empty(t_n)
    mean_rewards = np.empty(t_n)
    mean_penalties = np.empty(t_n)

    y = -1  # the prior belief is given, not produced by an observation
    reward_sum = 0.0
    penalty_sum = 0.0
    loop_errors = (
        EmptyAdmissibleSet, IllDefinedUpdate, NoAdmissibleSequence,
        ProhibitedAction,
    )
    for t in range(t_n):
        try:
            u = controller.decide(x, o)
        except loop_errors as e:
            raise type(e)(f"controller failed at step t={t}: {e}") from e
        states[t] = x
        actions[t] = u
        observations[t] = y
        beliefs[t] = o
        rewards[t] = model.reward[x, u]
        penalties[t] = stage_penalty(x, o)
        reward_sum += rewards[t]
        penalty_sum += penalties[t]
        mean_rewards[t] = reward_sum / (t + 1)
        mean_penalties[t] = penalty_sum / (t + 1)
        try:
            x, y, o = step(model, obs, pa, x, o, u, rng)
        except loop_errors as e:
            raise type(e)(f"transition failed at step t={t}: {e}") from e

    return Trace(
        controller_id=controller.controller_id,
        model_id=model_fingerprint(model, obs) if model_id is None else model_id,
        seed_base=seed_base,
        run_index=run_index,
        states=states,
        actions=actions,
        observations=observations,
        beliefs=beliefs,
        rewards=rewards,
        penalties=penalties,
        mean_rewards=mean_rewards,
        mean_penalties=mean_penalties,
        final_state=x,
        final_belief=o,
    )


def simulate_runs(
    model: MdpModel,
    obs: ObservationModel,
    pa: np.ndarray,
    controller,
    o0: np.ndarray,
    num_steps: int,
    seed_base: int,
    num_runs: int,
    x0: int | None = None,
) -> list[Trace]:
    return [
        run_closed_loop(
            model, obs, pa, controller, o0, num_steps, seed_base, i, x0=x0
        )
        for i in range(num_runs)
    ]


# ---------------------------------------------------------------------------
# aggregation

@dataclass(frozen=True)
class RunSummary:
    controller_id: str
    model_id: str
    num_runs: int
    num_steps: int
    reward_rate: float
    reward_stderr: float
    exposure_rate: float
    exposure_stderr: float
    per_run_reward: np.ndarray
    per_run_exposure: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "per_run_reward", _readonly(self.per_run_reward))
        object.__setattr__(self, "per_run_exposure", _readonly(self.per_run_exposure))


def _stderr(samples: np.ndarray) -> float:
    if samples.size < 2:
        return 0.0
    return float(samples.std(ddof=1) / np.sqrt(samples.size))


def aggregate_runs(traces: list[Trace]) -> RunSummary:
    """Mean final rates across runs of one configuration.

    Refuses to mix traces from different controllers, models, or run
    lengths, which would silently average incomparable things.
    """
    if not traces:
        raise ValueError("no traces to aggregate")
    key = (traces[0].controller_id, traces[0].model_id, traces[0].num_steps)
    for tr in traces[1:]:
        other = (tr.controller_id, tr.model_id, tr.num_steps)
        if other != key:
            raise MixedConfig(f"cannot aggregate {other!r} with {key!r}")
    rewards = np.array([tr.reward_rate for tr in traces])
    exposures = np.array([tr.exposure_rate for tr in traces])
    return RunSummary(
        controller_id=key[0],
        model_id=key[1],
        num_runs=len(traces),
        num_steps=key[2],
        reward_rate=float(rewards.mean()),
        reward_stderr=_stderr(rewards),
        exposure_rate=float(exposures.mean()),
        exposure_stderr=_stderr(exposures),
        per_run_reward=rewards,
        per_run_exposure=exposures,
    )


def summary_to_dict(summary: RunSummary) -> dict:
    return {
        "controller": summary.controller_id,
        "model": summary.model_id,
        "num_runs": summary.num_runs,
        "num_steps": summary.num_steps,
        "reward_rate": summary.reward_rate,
        "reward_stderr": summary.reward_stderr,
        "exposure_rate": summary.exposure_rate,
        "exposure_stderr": summary.exposure_stderr,
        "per_run_reward": summary.per_run_reward.tolist(),
        "per_run_exposure": summary.per_run_exposure.tolist(),
    }


def write_summary_file(summary: RunSummary, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary_to_dict(summary), fh, indent=1)
        fh.write("\n")


def write_trace_csv(trace: Trace, path: str | Path) -> None:
    """Per-step records, floats formatted with repr so equal runs are
    equal bytes. Beliefs are not included; see :func:`write_belief_csv`."""
    lines = ["t,x,u,y,reward,penalty,avg_reward,avg_detection"]
    for t in range(trace.num_steps):
        row = [
            str(t),
            str(int(trace.states[t])),
            str(int(trace.actions[t])),
            str(int(trace.observations[t])),
            repr(float(trace.rewards[t])),
            repr(float(trace.penalties[t])),
            repr(float(trace.mean_rewards[t])),
            repr(float(trace.mean_penalties[t])),
        ]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def write_belief_csv(trace: Trace, path: str | Path) -> None:
    """Observer belief per step, one column per state (wide format)."""
    n = trace.beliefs.shape[1]
    lines = [",".join(["t"] + [f"o_{i}" for i in range(n)])]
    for t in range(trace.num_steps):
        row = [str(t)] + [repr(float(v)) for v in trace.beliefs[t]]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def trace_metadata(trace: Trace) -> dict:
    return {
        "controller": trace.controller_id,
        "model": trace.model_id,
        "seed_base": trace.seed_base,
        "run_index": trace.run_index,
        "num_steps": trace.num_steps,
        "final_state": int(trace.final_state),
        "reward_rate": trace.reward_rate,
        "exposure_rate": trace.exposure_rate,
    }


def write_trace_metadata(trace: Trace, path: str | Path) -> None:
    """Sidecar for a trace CSV: who ran, on what model, from which seed."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace_metadata(trace), fh, indent=1, sort_keys=True)
        fh.write("\n")
