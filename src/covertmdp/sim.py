"""Closed-loop simulation against a filtering observer.

One step: the controller picks an action from the current (state, belief)
pair, the state transitions, the observer draws an observation of the new
state and updates its belief with the action-blind filter. The loop records
only (state, action, observation, belief) per step; the per-step reward and
exposure (observer belief in the true state) and their running means, the
quantities compared across controllers, are read off that record after it.

Runs are reproducible: run ``i`` of a batch uses the generator seeded with
``[seed_base, i]``, and trace files are written with round-trippable float
formatting, so identical seeds give byte-identical files.
"""

from __future__ import annotations

import functools
import hashlib
import warnings
from bisect import bisect_right
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .augmented import AugmentedValueFunction, _check_lattice, greedy_action
from .belief import (
    ObservationModel,
    Observer,
    _check_index,
    admissible_actions,
    bayes_update,
)
from .errors import (
    EmptyAdmissibleSet,
    IllDefinedUpdate,
    MixedConfig,
    NoAdmissibleSequence,
    ProhibitedAction,
)
from .mdp import MdpModel, Policy, _readonly, _write_json, _write_lines
from .rho import PlanMemo, PlannerConfig, plan


def rng_for_run(seed_base: int, run_index: int) -> np.random.Generator:
    if seed_base < 0:
        raise ValueError(f"seed_base must be non-negative, got {seed_base}")
    return np.random.default_rng([seed_base, run_index])


def _sample(rng: np.random.Generator, cdf: list[float]) -> int:
    """Index drawn from the distribution with running sums ``cdf``: the
    first whose running sum exceeds a uniform draw scaled to the total."""
    return min(bisect_right(cdf, rng.random() * cdf[-1]), len(cdf) - 1)


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
    """Greedy one-step lookahead on a solved state-belief value function.

    The observer, whose tables the lookahead reads, is built here, once, so
    a decision computes only what depends on the belief; a lattice over
    another number of states is refused here too.
    """

    def __init__(
        self,
        model: MdpModel,
        obs: ObservationModel,
        pa: np.ndarray,
        value: AugmentedValueFunction,
    ):
        self.observer = Observer(model, obs, pa)
        _check_lattice(value.grid, model)
        self.value = value
        self.controller_id = (
            f"grid-value(res={value.grid.resolution},"
            f"wn={value.reward_weight!r},wa={value.exposure_weight!r})"
        )

    def decide(self, x: int, o: np.ndarray) -> int:
        return greedy_action(self.observer, self.value, x, o)


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
        self.config = config
        # shared by the fallback horizons, which the memo keys its roots by;
        # it holds the values, which plan matches by identity
        self.memo = PlanMemo(Observer(model, obs, pa), values)
        self.controller_id = (
            f"receding-horizon(N={config.horizon},wn={config.reward_weight!r},"
            f"wa={config.exposure_weight!r},wap={config.tail_exposure_weight!r})"
        )

    def decide(self, x: int, o: np.ndarray) -> int:
        """First action of the best sequence. When no sequence of the full
        horizon is admissible, replans at horizons N-1, ..., 1 and raises
        only when a single step fails too."""
        config, memo = self.config, self.memo
        observer = memo.observer
        while True:
            try:
                return plan(
                    observer.model, observer.obs, observer.pa, memo.values, x, o,
                    config, memo=memo,
                ).first_action
            except NoAdmissibleSequence:
                if config.horizon == 1:
                    raise
                config = replace(config, horizon=config.horizon - 1)


# ---------------------------------------------------------------------------
# stepping

def step(
    observer: Observer, x: int, o: np.ndarray, u: int, rng: np.random.Generator
) -> tuple[int, int, np.ndarray]:
    """Apply ``u``: returns (next state, observation, next belief).

    Rejects an action that is not an integer in ``[0, U)``
    (:func:`belief._check_index`) with ``ValueError``, and a prohibited one
    with :class:`ProhibitedAction`, up front, so a failure is deterministic
    rather than appearing only on the unlucky observation draw.
    """
    _check_index(u, observer.model.num_actions, "action u")
    if u not in admissible_actions(observer, x, o):
        raise ProhibitedAction(f"action u={u} is prohibited at state x={x}")
    x_next = _sample(rng, observer.successor_cdf[x][u])
    y = _sample(rng, observer.reading_cdf[x_next])
    return x_next, y, bayes_update(observer, o, y)


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

    def __post_init__(self):
        for name in ("states", "actions", "observations"):
            object.__setattr__(self, name, _readonly(getattr(self, name), dtype=np.int64))
        for name in ("beliefs", "rewards", "penalties", "mean_rewards", "mean_penalties"):
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
) -> Trace:
    """Simulate ``num_steps`` controller decisions from belief ``o0``.

    When ``x0`` is None the initial state is drawn from ``o0``, so the
    observer's prior is calibrated; passing ``x0`` fixes the start (the
    belief then measures where the observer *thinks* the agent is). ``o0``
    must be a distribution (:meth:`Observer.check`), and is checked before
    the start is drawn from it.
    """
    if num_steps < 1:
        raise ValueError(f"num_steps must be positive, got {num_steps}")
    rng = rng_for_run(seed_base, run_index)
    observer = Observer(model, obs, pa)
    o0 = observer.check(x0, o0)
    x = _sample(rng, np.cumsum(o0).tolist()) if x0 is None else int(x0)
    if o0[x] <= 0.0:
        warnings.warn(
            f"initial belief puts zero mass on the start state x={x}; "
            "the observer can be driven into an undefined update",
            RuntimeWarning,
            stacklevel=2,
        )
    o = o0

    # lists skip numpy's per-item setitem; the beliefs stay one preallocated
    # table, as a list of small arrays takes several times the memory
    states, actions, observations = [], [], []
    beliefs = np.empty((num_steps, model.num_states))

    y = -1  # the prior belief is given, not produced by an observation
    loop_errors = (
        EmptyAdmissibleSet, IllDefinedUpdate, NoAdmissibleSequence,
        ProhibitedAction,
    )
    for t in range(num_steps):
        try:
            u = controller.decide(x, o)
        except loop_errors as e:
            raise type(e)(f"controller failed at step t={t}: {e}") from e
        states.append(x)
        actions.append(u)
        observations.append(y)
        beliefs[t] = o
        try:
            x, y, o = step(observer, x, o, u, rng)
        except loop_errors as e:
            raise type(e)(f"transition failed at step t={t}: {e}") from e

    states, actions = np.array(states, np.int64), np.array(actions, np.int64)
    rewards = model.reward[states, actions]
    # exposure: the observer's belief in the agent's true state
    penalties = beliefs[np.arange(num_steps), states]
    # cumsum adds in step order, as a running sum would
    steps = np.arange(1, num_steps + 1)
    return Trace(
        controller_id=controller.controller_id,
        model_id=model_fingerprint(model, obs),
        seed_base=seed_base,
        run_index=run_index,
        states=states,
        actions=actions,
        observations=observations,
        beliefs=beliefs,
        rewards=rewards,
        penalties=penalties,
        mean_rewards=np.cumsum(rewards) / steps,
        mean_penalties=np.cumsum(penalties) / steps,
        final_state=x,
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
    jobs: int = 1,
) -> list[Trace]:
    """Runs ``0, ..., num_runs - 1`` of one configuration, in run order.
    With ``jobs`` above 1 they run in a pool of that many worker processes,
    at most one per run."""
    if num_runs < 1:
        raise ValueError(f"num_runs must be positive, got {num_runs}")
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    run = functools.partial(
        run_closed_loop, model, obs, pa, controller, o0, num_steps, seed_base, x0=x0
    )
    # a pool starts all its workers at once, so never ask for more than runs
    workers = min(jobs, num_runs)
    if workers > 1:
        # imported here, as its 30-odd modules cost a serial caller memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, range(num_runs)))
    return list(map(run, range(num_runs)))


# ---------------------------------------------------------------------------
# aggregation

@dataclass(frozen=True)
class RunSummary:
    """What ``summary.json`` holds, field for field and in its order, with
    JSON's types: :func:`write_summary_file` writes ``asdict`` of it."""

    controller: str
    model: str
    num_runs: int
    num_steps: int
    reward_rate: float
    reward_stderr: float
    exposure_rate: float
    exposure_stderr: float
    per_run_reward: tuple[float, ...]
    per_run_exposure: tuple[float, ...]


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
        controller=key[0],
        model=key[1],
        num_runs=len(traces),
        num_steps=key[2],
        reward_rate=float(rewards.mean()),
        reward_stderr=_stderr(rewards),
        exposure_rate=float(exposures.mean()),
        exposure_stderr=_stderr(exposures),
        per_run_reward=tuple(rewards.tolist()),
        per_run_exposure=tuple(exposures.tolist()),
    )


def write_summary_file(summary: RunSummary, path: str | Path) -> None:
    _write_json(asdict(summary), path)


def write_trace_csv(trace: Trace, path: str | Path) -> None:
    """Per-step records, floats formatted with repr so equal runs are
    equal bytes. Beliefs are not included; see :func:`write_belief_csv`."""
    columns = zip(
        range(trace.num_steps),
        trace.states.tolist(),
        trace.actions.tolist(),
        trace.observations.tolist(),
        trace.rewards.tolist(),
        trace.penalties.tolist(),
        trace.mean_rewards.tolist(),
        trace.mean_penalties.tolist(),
    )
    # tolist gives Python ints and floats, whose str and repr are the cells
    lines = ["t,x,u,y,reward,penalty,avg_reward,avg_detection"]
    lines += [
        f"{t},{x},{u},{y},{r!r},{p!r},{ar!r},{ap!r}"
        for t, x, u, y, r, p, ar, ap in columns
    ]
    _write_lines(lines, path)


def write_belief_csv(trace: Trace, path: str | Path) -> None:
    """Observer belief per step, one column per state (wide format)."""
    n = trace.beliefs.shape[1]
    lines = [",".join(["t"] + [f"o_{i}" for i in range(n)])]
    lines += [
        f"{t},{','.join(map(repr, row))}"
        for t, row in enumerate(trace.beliefs.tolist())
    ]
    _write_lines(lines, path)


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
    _write_json(trace_metadata(trace), path, sort_keys=True)
