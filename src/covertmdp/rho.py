"""Receding-horizon planner.

Instead of solving over the whole belief simplex, score every admissible
open-loop action sequence of length ``horizon`` from the current pair
``(x, o)`` and apply the first action of the best one. A sequence's score
combines expected discounted reward over the horizon, a terminal tail from
the no-observer value function, and the expected exposure (observer belief
in the true state) accumulated inside the horizon; an extra tail weight on
exposure compensates for exposure beyond the horizon that the score cannot
see.

The observer's filter never sees actions, so its belief after an
observation history is the same under every action sequence. The planner
therefore builds the observer's belief tree once per decision, one node per
observation history that carries mass, and scores all action prefixes of a
depth at once: each prefix carries its joint law of (history, state) as a
row of one mass tensor. Every term is an exact finite sum, and the work per
depth is a fixed handful of array operations however many sequences there
are.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .belief import ObservationModel, blocked_actions, emission_support, posterior_table
from .errors import NoAdmissibleSequence, SizeOverflow
from .mdp import MdpModel

DEFAULT_HORIZON = 3

# Cap on one depth's branch tensor (live prefixes x histories x
# observations x states): 2**22 float64 entries are 32 MB.
MAX_TREE_ENTRIES = 2**22


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
    """Score every admissible sequence on the observer's belief tree and
    return the best (ties go to the lexicographically first, with ``tied``
    set when another sequence scored exactly the same).

    The tree is built one depth at a time: its nodes are the observation
    histories that carry mass, with one batched :func:`posterior_table`
    call per depth, and every live action prefix advances its mass tensor
    ``mass[prefix, history, x]`` over them at once.

    When ``log_path`` is given, every scored sequence and every pruned
    prefix is appended to that file as one JSON object per line.

    Raises :class:`NoAdmissibleSequence` when every sequence is pruned, and
    :class:`SizeOverflow` before a depth's tensors would exceed
    ``MAX_TREE_ENTRIES``.
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
    penalty_weight = config.exposure_weight + config.tail_exposure_weight
    q = obs.likelihood
    support = emission_support(model, obs).reshape(num_u, -1)
    kernels = model.transition.T  # kernels[u, x, x'] = p(x' | x, u)

    prefixes: list[tuple[int, ...]] = [()]
    mass = np.zeros((1, 1, n))
    mass[0, 0, x] = 1.0
    marginal = mass[0].copy()
    beliefs = np.asarray(o, dtype=float)[None, :]
    r_inside = np.zeros(1)
    r_exposed = np.zeros(1)
    pruned: list[tuple[int, ...]] = []
    for depth in range(horizon):
        posteriors, _, open_y = posterior_table(pa, q, beliefs)
        # ruled_out[p, x, y]: prefix p holds state x in a history whose
        # belief rules out observation y (mass is nonnegative, so the float
        # product is positive exactly where the boolean one is true)
        ruled_out = mass.transpose(0, 2, 1) @ ~open_y > 0.0
        blocked = blocked_actions(support, ruled_out.reshape(len(mass), -1).T).T
        bad_p, bad_u = blocked.nonzero()
        pruned += [prefixes[p] + (u,) for p, u in zip(bad_p.tolist(), bad_u.tolist())]
        src, act = (~blocked).nonzero()
        r_inside = r_inside[src] + lam ** depth * (marginal @ model.reward)[src, act]
        r_exposed = r_exposed[src]
        prefixes = [prefixes[p] + (u,) for p, u in zip(src.tolist(), act.tolist())]
        # the open-loop state law one step on, summed over source states in
        # index order, so each row equals its own matrix-vector product
        marginal = (kernels[act] * marginal[src, :, None]).sum(axis=1)
        if depth == horizon - 1 or not len(src):
            break
        entries = len(src) * posteriors.size  # the size of branch below
        if entries > MAX_TREE_ENTRIES:
            raise SizeOverflow(
                f"horizon {horizon} needs {entries} tree entries at depth "
                f"{depth + 1} (cap {MAX_TREE_ENTRIES}); lower the horizon"
            )
        # branch[k, h, y, x']: the prefix reaches x' while emitting y after
        # history h; observations a history rules out carry no mass
        branch = (mass[src] @ kernels[act])[:, :, None, :] * q
        branch[:, ~open_y] = 0.0
        branch = branch.reshape(len(src), -1, n)
        # keep only the histories some prefix reaches; the full tree has
        # Y**depth nodes, most of them empty on sparse models
        live = branch.any(axis=(0, 2))
        mass = branch[:, live]
        beliefs = posteriors.reshape(-1, n)[live]
        exposed = (mass * beliefs).reshape(len(src), -1).sum(axis=1)
        r_exposed += lam ** (depth + 1) * exposed
    r_tail = lam ** horizon * (marginal @ np.asarray(values, dtype=float))
    objective = config.reward_weight * (r_inside + r_tail) - penalty_weight * r_exposed
    # empty unless some prefix survived to the full horizon
    scored = [
        SequenceScore(*terms)
        for terms in zip(
            prefixes, r_inside.tolist(), r_tail.tolist(), r_exposed.tolist(),
            objective.tolist(),
        )
    ]
    if log_path is not None:
        _write_plan_log(log_path, x, config, scored, sorted(pruned))
    if not scored:
        raise NoAdmissibleSequence(
            f"no admissible action sequence of length {horizon} from state x={x}"
        )
    best = scored[int(np.argmax(objective))]
    return PlanResult(
        best.actions,
        best.objective,
        best.reward_term,
        best.tail_term,
        best.detection_term,
        len(scored),
        int(np.count_nonzero(objective == best.objective)) > 1,
        tuple(scored),
    )


def _write_plan_log(
    log_path: str,
    x: int,
    config: PlannerConfig,
    scored: list[SequenceScore],
    pruned: list[tuple[int, ...]],
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
        for seq in pruned:
            entry = {"event": "pruned", "prefix": list(seq[:-1]), "action": seq[-1]}
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
