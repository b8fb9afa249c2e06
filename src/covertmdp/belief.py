"""Observer-side inference: observation model, recursive Bayesian filter,
prohibited/admissible action sets, and the joint state-belief transition law.

The observer cannot see actions. It filters against the Markov chain induced
by the nominal policy, so the filter map depends only on that chain ``pa``
and the likelihood table. An action of the controlled agent is *prohibited*
at ``(x, o)`` when it could generate an observation to which the observer's
one-step predictive assigns (numerically) zero probability; such an
observation would make the filter update undefined and reveal the deviation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IllDefinedUpdate, ModelFormatError, ProhibitedAction
from .mdp import MdpModel, _readonly

# Threshold below which a probability is treated as an exact zero. All
# quantities compared against it are finite sums of products of model
# probabilities, so true zeros carry only accumulated rounding noise.
EPS_ZERO = 1e-12

# Atoms of a joint law whose beliefs agree to within this l-inf distance
# share one belief. Implemented by matching beliefs rounded to 9 decimals,
# which merges all exact duplicates and is conservative for near-duplicates.
EPS_MERGE = 1e-9

BELIEF_L1_TOL = 1e-9


@dataclass(frozen=True)
class ObservationModel:
    """Likelihood table ``likelihood[y, x] = q(y | x)``; columns sum to 1."""

    num_observations: int
    likelihood: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "likelihood", _readonly(self.likelihood))


def validate_observation_model(obs: ObservationModel, num_states: int) -> list[str]:
    out: list[str] = []
    k = obs.num_observations
    if k < 1:
        return [f"num_observations must be positive, got {k}"]
    if obs.likelihood.shape != (k, num_states):
        return [
            f"likelihood shape {obs.likelihood.shape} != expected {(k, num_states)}"
        ]
    q = obs.likelihood
    if np.any(q < 0.0) or np.any(q > 1.0):
        y, x = np.argwhere((q < 0.0) | (q > 1.0))[0]
        out.append(f"likelihood q({y}|{x}) = {q[y, x]!r} outside [0, 1]")
    sums = q.sum(axis=0)
    for x in np.flatnonzero(np.abs(sums - 1.0) > 1e-12):
        out.append(f"likelihood column x={x} sums to {sums[x]!r}, not 1")
    return out


def make_belief(probs) -> np.ndarray:
    """Validate and renormalize a belief vector.

    Accepts vectors whose l1 mass deviates from 1 by at most ``BELIEF_L1_TOL``
    (drift from long filter runs); larger deviations or negative entries are
    rejected so genuine bugs are not papered over.
    """
    o = np.asarray(probs, dtype=float).copy()
    if o.ndim != 1:
        raise ValueError(f"belief must be a vector, got shape {o.shape}")
    if np.any(o < -EPS_ZERO) or np.any(o > 1.0 + BELIEF_L1_TOL):
        raise ValueError(f"belief entries outside [0, 1]: {o!r}")
    total = o.sum()
    if abs(total - 1.0) > BELIEF_L1_TOL:
        raise ValueError(f"belief mass {total!r} deviates from 1 beyond tolerance")
    np.clip(o, 0.0, None, out=o)
    o /= o.sum()
    o.setflags(write=False)
    return o


def uniform_belief(num_states: int) -> np.ndarray:
    return make_belief(np.full(num_states, 1.0 / num_states))


def point_belief(num_states: int, x: int) -> np.ndarray:
    o = np.zeros(num_states)
    o[x] = 1.0
    return make_belief(o)


def observation_predictive(pa: np.ndarray, q: np.ndarray, o: np.ndarray) -> np.ndarray:
    """One-step predictive observation distribution, a vector over Y."""
    return q @ (pa @ o)


def bayes_update(pa: np.ndarray, q: np.ndarray, o: np.ndarray, y: int) -> np.ndarray:
    """One predict-update step of the observer's filter.

    Raises :class:`IllDefinedUpdate` when the predictive probability of ``y``
    is numerically zero; callers prevent that by restricting the agent to
    admissible actions.
    """
    numer = q[y] * (pa @ o)
    denom = numer.sum()
    if denom <= EPS_ZERO:
        raise IllDefinedUpdate(
            f"observation y={y} has predictive probability {denom!r}"
        )
    post = numer / denom
    post.setflags(write=False)
    return post


def posterior_table(
    pa: np.ndarray, q: np.ndarray, beliefs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The filter step for every observation at once, batched over beliefs.

    ``beliefs`` is one belief ``(n,)`` or a stack ``(G, n)``. Returns
    ``(posteriors, predictive, open_y)`` shaped ``(..., Y, n)``, ``(..., Y)``
    and ``(..., Y)``: the updated belief after each observation, the
    one-step predictive, and which observations the predictive allows
    (mass above EPS_ZERO). Rows of ruled-out observations are left as zeros
    and must not be used.
    """
    pred_states = (pa @ np.asarray(beliefs, dtype=float).T).T
    numer = q * pred_states[..., None, :]
    predictive = numer.sum(axis=-1)
    open_y = predictive > EPS_ZERO
    posteriors = np.zeros_like(numer)
    posteriors[open_y] = numer[open_y] / predictive[open_y][:, None]
    return posteriors, predictive, open_y


def emission_support(
    model: MdpModel, obs: ObservationModel, sources=slice(None)
) -> np.ndarray:
    """Which observations each action can make the agent's next state emit.

    ``support[u, x, y]`` is True when action ``u`` taken in state ``x``
    produces observation ``y`` with probability above EPS_ZERO. ``sources``
    selects the source states; a single state gives its ``(U, Y)`` table,
    so per-step callers compute only their column.
    """
    emitted = np.inner(model.transition[:, sources, :].T, obs.likelihood)
    return emitted > EPS_ZERO


def blocked_actions(emits: np.ndarray, ruled_out: np.ndarray) -> np.ndarray:
    """``blocked[u, ...]``: action ``u`` can produce an observation that the
    observer's predictive rules out.

    ``emits[u, ..., y]`` is an :func:`emission_support` table and
    ``ruled_out[y]`` (or ``ruled_out[y, b]`` for a batch of beliefs, whose
    axis comes last) marks the observations whose predictive mass is at most
    EPS_ZERO; the axes between ``u`` and ``y`` are batch axes and are kept.
    """
    return emits @ ruled_out


def admissible_actions(
    model: MdpModel,
    obs: ObservationModel,
    pa: np.ndarray,
    x: int,
    o: np.ndarray,
) -> list[int]:
    """Actions at ``(x, o)`` that cannot surprise the observer, ascending.

    ``u`` is prohibited iff some observation has positive probability under
    the agent's true successor distribution but numerically zero probability
    under the observer's predictive.
    """
    ruled_out = observation_predictive(pa, obs.likelihood, o) <= EPS_ZERO
    blocked = blocked_actions(emission_support(model, obs, x), ruled_out)
    return [u for u in range(model.num_actions) if not blocked[u]]


def stage_penalty(x: int, o: np.ndarray) -> float:
    """Observer's current belief in the agent's true state."""
    return float(o[x])


def _belief_keys(beliefs: np.ndarray) -> list[bytes]:
    """One hashable key per belief row; rows equal to 9 decimals (the
    EPS_MERGE radius) share a key."""
    # +0.0 canonicalizes any -0.0 produced by rounding
    rounded = np.round(beliefs, 9) + 0.0
    return [row.tobytes() for row in rounded]


class JointLaw:
    """Finitely supported joint law of (agent state, observer belief).

    Atoms are grouped by belief: ``mass[g, x]`` is the probability that the
    agent is in state ``x`` while the observer holds ``beliefs[g]``. Every
    state in a group shares the observer's filter step, so one batched
    :func:`posterior_table` call serves the whole law. ``support`` is the
    model's full :func:`emission_support` table, computed once and passed
    from law to law.
    """

    def __init__(self, model: MdpModel, obs: ObservationModel, pa: np.ndarray,
                 support: np.ndarray, beliefs: np.ndarray, mass: np.ndarray):
        self.model = model
        self.obs = obs
        self.pa = pa
        self.support = support
        self.beliefs = beliefs
        self.mass = mass
        self.posteriors, _, self.open_y = posterior_table(
            pa, obs.likelihood, beliefs
        )

    @classmethod
    def from_atoms(cls, model: MdpModel, obs: ObservationModel, pa: np.ndarray,
                   states: np.ndarray, beliefs: np.ndarray, probs: np.ndarray,
                   support: np.ndarray | None = None) -> "JointLaw":
        """Group atoms ``(states[i], beliefs[i], probs[i])`` by belief.

        Beliefs within the EPS_MERGE radius share a group, which keeps the
        first occurrence's belief vector.
        """
        if support is None:
            support = emission_support(model, obs)
        index: dict[bytes, int] = {}
        reps: list[int] = []
        groups: list[int] = []
        for i, key in enumerate(_belief_keys(beliefs)):
            if key not in index:
                index[key] = len(reps)
                reps.append(i)
            groups.append(index[key])
        n = model.num_states
        mass = np.bincount(
            np.asarray(groups) * n + states, weights=probs, minlength=len(reps) * n
        ).reshape(len(reps), n)
        return cls(model, obs, pa, support, beliefs[reps], mass)

    @classmethod
    def point(cls, model: MdpModel, obs: ObservationModel, pa: np.ndarray,
              x: int, o: np.ndarray) -> "JointLaw":
        """The law that puts all mass on the pair ``(x, o)``."""
        return cls.from_atoms(
            model, obs, pa, np.array([x]), np.asarray(o, dtype=float)[None, :],
            np.array([1.0]),
        )

    def blocked(self) -> np.ndarray:
        """``blocked[u]``: some pair the law occupies can emit, under ``u``,
        an observation that its belief's predictive rules out."""
        # ruled_out[x, y]: a group holding state x rules out observation y
        ruled_out = (self.mass > 0.0).T @ ~self.open_y
        num_u = len(self.support)
        return blocked_actions(self.support.reshape(num_u, -1), ruled_out.ravel())

    def push(self, u: int) -> "JointLaw":
        """The law one step later under action ``u``, which must not be
        blocked. Each atom branches over (successor state, observation) and
        its belief follows the observer's filter."""
        flows = self.model.transition[:, :, u] @ self.mass.T  # (n, G)
        branch = self.obs.likelihood * flows.T[:, None, :]  # (G, Y, n)
        branch[~self.open_y] = 0.0
        g, y, xp = np.nonzero(branch)
        return JointLaw.from_atoms(
            self.model, self.obs, self.pa, xp, self.posteriors[g, y],
            branch[g, y, xp], self.support,
        )

    def exposure(self) -> float:
        """Mean observer belief in the agent's true state."""
        return float(np.sum(self.beliefs * self.mass))


@dataclass(frozen=True)
class AugmentedSupport:
    """Finite support of the joint (state, belief) transition law.

    Parallel arrays: atom ``i`` moves the pair to state ``states[i]`` with
    belief ``beliefs[i]`` and probability ``probs[i]``. Probabilities sum
    to 1 and there are at most |X| * |Y| atoms.
    """

    states: np.ndarray
    beliefs: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", _readonly(self.states, dtype=np.int64))
        object.__setattr__(self, "beliefs", _readonly(self.beliefs))
        object.__setattr__(self, "probs", _readonly(self.probs))


def augmented_transition_support(
    model: MdpModel,
    obs: ObservationModel,
    pa: np.ndarray,
    x: int,
    o: np.ndarray,
    u: int,
) -> AugmentedSupport:
    """Closed-form support of the joint (state, belief) transition.

    One atom per (successor state, observation posterior) pair with positive
    probability. Raises :class:`ProhibitedAction` when ``u`` is not
    admissible at ``(x, o)``.
    """
    law = JointLaw.point(model, obs, pa, x, o)
    if law.blocked()[u]:
        y = int(np.flatnonzero(law.support[u, x] & ~law.open_y[0])[0])
        raise ProhibitedAction(
            f"action u={u} at state x={x} can emit observation y={y} "
            f"which the observer's predictive rules out"
        )
    step = law.push(u)
    g, xp = np.nonzero(step.mass)
    return AugmentedSupport(xp, step.beliefs[g], step.mass[g, xp])


# ---------------------------------------------------------------------------
# observation model files

_OBS_KEYS = {"num_observations", "likelihood"}


def observation_from_dict(doc: dict, num_states: int | None = None) -> ObservationModel:
    missing = _OBS_KEYS - doc.keys()
    if missing:
        raise ModelFormatError([f"missing field {k!r}" for k in sorted(missing)])
    unknown = doc.keys() - _OBS_KEYS
    if unknown:
        raise ModelFormatError([f"unknown field {k!r}" for k in sorted(unknown)])
    try:
        likelihood = np.asarray(doc["likelihood"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError([f"non-numeric likelihood: {exc}"]) from exc
    if likelihood.ndim != 2:
        raise ModelFormatError(
            [f"likelihood must be nested [observation][state], got ndim={likelihood.ndim}"]
        )
    obs = ObservationModel(int(doc["num_observations"]), likelihood)
    n = likelihood.shape[1] if num_states is None else num_states
    problems = validate_observation_model(obs, n)
    if problems:
        raise ModelFormatError(problems)
    return obs


def load_observation_file(path: str | Path, num_states: int | None = None) -> ObservationModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ModelFormatError(["top-level document must be an object"])
    return observation_from_dict(doc, num_states)


def save_observation_file(obs: ObservationModel, path: str | Path) -> None:
    doc = {
        "num_observations": obs.num_observations,
        "likelihood": obs.likelihood.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
