"""Receding-horizon planner.

Instead of solving over the whole belief simplex, score every admissible
open-loop action sequence of length ``horizon`` from the current pair
``(x, o)`` and apply the first action of the best one. A sequence's score
combines expected discounted reward over the horizon, a terminal tail from
the no-observer value function, and the expected exposure (observer belief
in the true state) accumulated inside the horizon; an extra tail weight on
exposure compensates for exposure beyond the horizon that the score cannot
see.

The joint distribution of (state, observer belief) stays finitely supported
along any open-loop sequence, so all terms are exact finite sums. The
planner shares work across sequences through their common prefixes and
batches the per-belief filter algebra, which keeps replanning cheap enough
to run inside a simulation loop on hundred-state models.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .belief import JointLaw, ObservationModel
from .errors import NoAdmissibleSequence
from .mdp import MdpModel

DEFAULT_HORIZON = 3


@dataclass(frozen=True)
class PlannerConfig:
    horizon: int = DEFAULT_HORIZON
    reward_weight: float = 1.0
    exposure_weight: float = 0.0
    tail_exposure_weight: float = 0.0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {self.horizon}")


@dataclass(frozen=True)
class SequenceScore:
    """Objective breakdown of one fully scored action sequence."""

    actions: tuple[int, ...]
    reward_term: float
    tail_term: float
    detection_term: float
    objective: float


@dataclass(frozen=True)
class PlanResult:
    actions: tuple[int, ...]
    objective: float
    reward_term: float
    tail_term: float
    detection_term: float
    sequences_scored: int
    tied: bool
    sequences: tuple[SequenceScore, ...]

    @property
    def first_action(self) -> int:
        return self.actions[0]


def suggested_tail_weight_bound(config: PlannerConfig, discount: float) -> float:
    """Upper end of the recommended tail-weight range (geometric tail of the
    exposure series, each future stage bounded by the horizon-end stage)."""
    dn = discount ** config.horizon
    return dn / (1.0 - dn) * config.exposure_weight


def plan(
    model: MdpModel,
    obs: ObservationModel,
    pa: np.ndarray,
    values: np.ndarray,
    x: int,
    o: np.ndarray,
    config: PlannerConfig,
    log_path: str | None = None,
) -> PlanResult:
    """Exhaustively score admissible sequences, depth-first with shared
    prefixes, and return the best (ties go to the lexicographically first,
    with ``tied`` set when another sequence scored exactly the same).

    When ``log_path`` is given, every scored sequence and every pruned
    prefix is appended to that file as one JSON object per line.

    Raises :class:`NoAdmissibleSequence` when every sequence is pruned.
    """
    if config.exposure_weight >= 0.0:
        hi = suggested_tail_weight_bound(config, model.discount)
        if not 0.0 <= config.tail_exposure_weight <= hi + 1e-12:
            warnings.warn(
                f"tail exposure weight {config.tail_exposure_weight} outside "
                f"the suggested range [0, {hi}]",
                RuntimeWarning,
                stacklevel=2,
            )
    n, num_u = model.num_states, model.num_actions
    horizon = config.horizon
    lam = model.discount
    values = np.asarray(values, dtype=float)
    penalty_weight = config.exposure_weight + config.tail_exposure_weight
    kernels = [model.transition[:, :, u] for u in range(num_u)]

    best = {"objective": -np.inf, "result": None, "tied": False}
    scored: list[SequenceScore] = []
    pruned: list[tuple[tuple[int, ...], int]] = []

    def descend(depth, law, marginal, r_inside, r_exposed, prefix):
        if depth == horizon:
            r_tail = lam ** horizon * float(values @ marginal)
            objective = (
                config.reward_weight * (r_inside + r_tail)
                - penalty_weight * r_exposed
            )
            scored.append(
                SequenceScore(prefix, r_inside, r_tail, r_exposed, objective)
            )
            if objective > best["objective"]:
                best["objective"] = objective
                best["result"] = (prefix, r_inside, r_tail, r_exposed)
                best["tied"] = False
            elif objective == best["objective"]:
                best["tied"] = True
            return
        blocked = law.blocked()
        for u in range(num_u):
            if blocked[u]:
                pruned.append((prefix, u))
                continue
            step_reward = lam ** depth * float(model.reward[:, u] @ marginal)
            next_marginal = kernels[u] @ marginal
            if depth < horizon - 1:
                next_law = law.push(u)
                step_exposed = lam ** (depth + 1) * next_law.exposure()
            else:
                next_law = law  # final action: the joint is not needed further
                step_exposed = 0.0
            descend(
                depth + 1,
                next_law,
                next_marginal,
                r_inside + step_reward,
                r_exposed + step_exposed,
                prefix + (u,),
            )

    marginal0 = np.zeros(n)
    marginal0[x] = 1.0
    descend(0, JointLaw.point(model, obs, pa, x, o), marginal0,
            0.0, 0.0, ())
    if log_path is not None:
        _write_plan_log(log_path, x, config, scored, pruned)
    if best["result"] is None:
        raise NoAdmissibleSequence(
            f"no admissible action sequence of length {horizon} from state x={x}"
        )
    prefix, r_inside, r_tail, r_exposed = best["result"]
    return PlanResult(
        prefix,
        best["objective"],
        r_inside,
        r_tail,
        r_exposed,
        len(scored),
        best["tied"],
        tuple(scored),
    )


def _write_plan_log(
    log_path: str,
    x: int,
    config: PlannerConfig,
    scored: list[SequenceScore],
    pruned: list[tuple[tuple[int, ...], int]],
) -> None:
    with open(log_path, "a", encoding="utf-8") as fh:
        header = {
            "event": "plan",
            "state": x,
            "horizon": config.horizon,
            "reward_weight": config.reward_weight,
            "exposure_weight": config.exposure_weight,
            "tail_exposure_weight": config.tail_exposure_weight,
        }
        fh.write(json.dumps(header) + "\n")
        for prefix, u in pruned:
            entry = {"event": "pruned", "prefix": list(prefix), "action": int(u)}
            fh.write(json.dumps(entry) + "\n")
        for s in scored:
            entry = {
                "event": "scored",
                "actions": list(s.actions),
                "reward_term": s.reward_term,
                "tail_term": s.tail_term,
                "detection_term": s.detection_term,
                "objective": s.objective,
            }
            fh.write(json.dumps(entry) + "\n")
