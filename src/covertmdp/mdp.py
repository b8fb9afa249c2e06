"""Finite MDP model, nominal value iteration, and policy utilities.

Transition kernels are stored indexed ``[destination, source, action]`` so
that ``transition[:, x, u]`` is the probability column over successor states.
Model files on disk use ``[action][source][destination]`` nesting and are
transposed on load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ModelFormatError

STOCHASTIC_TOL = 1e-12
DEFAULT_VI_TOL = 1e-10
DEFAULT_VI_MAX_ITER = 100_000


def _readonly(a, dtype=float) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(a, dtype=dtype))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MdpModel:
    """Finite MDP with states and actions identified by 0-based indices.

    ``transition[d, s, a]`` is the probability of landing in state ``d`` when
    action ``a`` is applied in state ``s``; each ``(s, a)`` column sums to 1.
    ``reward[s, a]`` is the stage reward and ``discount`` lies in (0, 1).
    All arrays are read-only after construction and safe to share across
    workers.
    """

    num_states: int
    num_actions: int
    transition: np.ndarray
    reward: np.ndarray
    discount: float

    def __post_init__(self):
        object.__setattr__(self, "transition", _readonly(self.transition))
        object.__setattr__(self, "reward", _readonly(self.reward))


@dataclass(frozen=True)
class Policy:
    """Deterministic state-to-action map.

    ``tie_flags[x]`` is True when the greedy argmax at ``x`` was not unique;
    ties are broken toward the lowest action index but surfaced here because
    downstream observer modeling assumes the optimal policy is unique.
    """

    actions: np.ndarray
    tie_flags: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "actions", _readonly(self.actions, dtype=np.int64))
        object.__setattr__(self, "tie_flags", _readonly(self.tie_flags, dtype=bool))


@dataclass(frozen=True)
class VIResult:
    """Outcome of a value-iteration solve."""

    values: np.ndarray
    residual: float
    iterations: int
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))


def validate_model(model: MdpModel) -> list[str]:
    """Return a list of invariant violations; empty means the model is valid.

    Each entry names the offending index and quantity. Nothing is raised:
    callers decide whether violations are fatal.
    """
    out: list[str] = []
    n, m = model.num_states, model.num_actions
    if n < 1:
        out.append(f"num_states must be positive, got {n}")
    if m < 1:
        out.append(f"num_actions must be positive, got {m}")
    if out:
        return out

    if model.transition.shape != (n, n, m):
        out.append(
            f"transition shape {model.transition.shape} != expected {(n, n, m)}"
        )
    if model.reward.shape != (n, m):
        out.append(f"reward shape {model.reward.shape} != expected {(n, m)}")
    if out:
        return out

    p = model.transition
    if np.any(p < 0.0) or np.any(p > 1.0):
        bad = np.argwhere((p < 0.0) | (p > 1.0))
        d, s, a = bad[0]
        out.append(
            f"transition entry p({d}|{s},{a}) = {p[d, s, a]!r} outside [0, 1]"
        )
    sums = p.sum(axis=0)
    bad = np.argwhere(np.abs(sums - 1.0) > STOCHASTIC_TOL)
    for s, a in bad:
        out.append(
            f"transition column (x={s}, u={a}) sums to {sums[s, a]!r}, not 1"
        )
    if not np.all(np.isfinite(model.reward)):
        s, a = np.argwhere(~np.isfinite(model.reward))[0]
        out.append(f"reward R({s},{a}) = {model.reward[s, a]!r} is not finite")
    if not (0.0 < model.discount < 1.0):
        out.append(f"discount {model.discount!r} not strictly inside (0, 1)")
    return out


def bellman_backup(model: MdpModel, values: np.ndarray) -> np.ndarray:
    """One sweep of the greedy backup; returns the action-value table (X, U)."""
    future = np.einsum("dsa,d->sa", model.transition, values)
    return model.reward + model.discount * future


def nominal_value_iteration(
    model: MdpModel,
    tol: float = DEFAULT_VI_TOL,
    max_iter: int = DEFAULT_VI_MAX_ITER,
) -> VIResult:
    """Solve the discounted MDP by value iteration from the zero table.

    Stops when the sup-norm of successive iterates drops to ``tol``; the
    geometric contraction makes the Bellman residual of the returned table at
    most ``tol`` as well. Non-convergence within ``max_iter`` is reported via
    ``converged``, not raised.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    values = np.zeros(model.num_states)
    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_values = bellman_backup(model, values).max(axis=1)
        residual = float(np.max(np.abs(new_values - values)))
        values = new_values
        if residual <= tol:
            return VIResult(values, residual, iterations, True)
    return VIResult(values, residual, iterations, False)


def extract_nominal_policy(model: MdpModel, values: np.ndarray) -> Policy:
    """Greedy policy of a converged value table, lowest action index on ties."""
    q = bellman_backup(model, values)
    best = q.max(axis=1)
    actions = q.argmax(axis=1)
    tie_flags = (q == best[:, None]).sum(axis=1) > 1
    return Policy(actions, tie_flags)


def induced_chain(model: MdpModel, policy: Policy) -> np.ndarray:
    """Markov chain the model follows under a fixed policy.

    Returns ``chain[d, s] = p(d | s, policy(s))``; columns sum to 1.
    """
    idx = np.arange(model.num_states)
    chain = model.transition[:, idx, policy.actions]
    chain = np.ascontiguousarray(chain)
    chain.setflags(write=False)
    return chain


# ---------------------------------------------------------------------------
# model files

_MODEL_KEYS = {"num_states", "num_actions", "discount", "transition", "reward"}


def model_from_dict(doc: dict) -> MdpModel:
    """Build a model from the on-disk dict layout, validating invariants."""
    missing = _MODEL_KEYS - doc.keys()
    if missing:
        raise ModelFormatError([f"missing field {k!r}" for k in sorted(missing)])
    unknown = doc.keys() - _MODEL_KEYS
    if unknown:
        raise ModelFormatError([f"unknown field {k!r}" for k in sorted(unknown)])
    try:
        file_kernel = np.asarray(doc["transition"], dtype=float)
        reward = np.asarray(doc["reward"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError([f"non-numeric table: {exc}"]) from exc
    if file_kernel.ndim != 3:
        raise ModelFormatError(
            [f"transition must be nested [action][source][destination], got ndim={file_kernel.ndim}"]
        )
    model = MdpModel(
        num_states=int(doc["num_states"]),
        num_actions=int(doc["num_actions"]),
        transition=file_kernel.transpose(2, 1, 0),
        reward=reward,
        discount=float(doc["discount"]),
    )
    problems = validate_model(model)
    if problems:
        raise ModelFormatError(problems)
    return model


def model_to_dict(model: MdpModel) -> dict:
    return {
        "num_states": model.num_states,
        "num_actions": model.num_actions,
        "discount": model.discount,
        "transition": model.transition.transpose(2, 1, 0).tolist(),
        "reward": model.reward.tolist(),
    }


def load_model_file(path: str | Path) -> MdpModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ModelFormatError(["top-level document must be an object"])
    return model_from_dict(doc)


def save_model_file(model: MdpModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=1)
        fh.write("\n")
