"""Finite MDP model, nominal value iteration, and policy utilities.

Transition kernels are stored indexed ``[destination, source, action]`` so
that ``transition[:, x, u]`` is the probability column over successor states.
Model files on disk use ``[action][source][destination]`` nesting and are
transposed on load.
"""

from __future__ import annotations

import json
import math
import numbers
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


# The one on-disk convention: UTF-8 JSON objects written with ``indent=1`` and
# a trailing newline, and ``\n``-terminated text lines (CSV) written as-is.

def _read_json_object(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ModelFormatError(["top-level document must be an object"])
    return doc


def _write_json(doc: dict, path: str | Path, sort_keys: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=sort_keys)
        fh.write("\n")


def _write_lines(lines: list[str], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _check_fields(doc: dict, allowed: set[str], required: set[str] | None = None) -> None:
    """Reject a document missing a required field (all of ``allowed`` by
    default) or carrying one outside ``allowed``, naming each in sorted order."""
    missing = (allowed if required is None else required) - doc.keys()
    if missing:
        raise ModelFormatError([f"missing field {k!r}" for k in sorted(missing)])
    unknown = doc.keys() - allowed
    if unknown:
        raise ModelFormatError([f"unknown field {k!r}" for k in sorted(unknown)])


def _value_field(doc: dict, key: str, kind: type):
    """Scalar field ``key`` of a document as ``kind``: a count (``int``)
    must be a JSON integer and a real (``float``) any JSON number. Anything
    else, booleans included, is a :class:`ModelFormatError` naming the field."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ModelFormatError([f"non-numeric {key}: {value!r}"])
    if kind is int and not isinstance(value, numbers.Integral):
        raise ModelFormatError([f"{key} must be an integer, got {value!r}"])
    return kind(value)


def _table_field(doc: dict, key: str, nesting: str = "", name: str = "") -> np.ndarray:
    """Table field ``key`` of a document as a float array. Entries that are
    not numbers, or ragged rows, are a :class:`ModelFormatError` naming
    ``name`` (``key`` by default); so is a depth other than the number of
    levels in ``nesting``, when given."""
    try:
        table = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError([f"non-numeric {name or key}: {exc}"]) from exc
    if nesting and table.ndim != nesting.count("["):
        raise ModelFormatError(
            [f"{key} must be nested {nesting}, got ndim={table.ndim}"]
        )
    return table


@dataclass(frozen=True)
class MdpModel:
    """Finite MDP with states and actions identified by 0-based indices.

    ``transition[d, s, a]`` is the probability of landing in state ``d`` when
    action ``a`` is applied in state ``s``; each ``(s, a)`` column sums to 1.
    ``reward[s, a]`` is the stage reward, finite, and ``discount`` lies in
    (0, 1). A model that breaks any of these is never made: the constructor
    raises one :class:`ModelFormatError` listing every problem. All arrays
    are read-only after construction and safe to share across workers.
    """

    num_states: int
    num_actions: int
    transition: np.ndarray
    reward: np.ndarray
    discount: float

    def __post_init__(self):
        object.__setattr__(self, "transition", _readonly(self.transition))
        object.__setattr__(self, "reward", _readonly(self.reward))
        problems = _model_problems(self.num_states, self.num_actions,
                                   self.transition, self.reward, self.discount)
        if problems:
            raise ModelFormatError(problems)


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


def _stochastic_problems(table: np.ndarray, entry: str, column: str) -> list[str]:
    """Diagnostics for a table whose columns (axis 0) must be distributions:
    the first entry outside [0, 1], named by ``entry.format(*index)``, and
    every column whose sum is off 1 by more than ``STOCHASTIC_TOL``, named by
    ``column.format(*index)``. Both tests fail NaN."""
    out = []
    outside = np.argwhere(~((table >= 0.0) & (table <= 1.0)))
    if outside.size:
        i = tuple(outside[0])
        out.append(f"{entry.format(*i)} = {float(table[i])!r} outside [0, 1]")
    sums = table.sum(axis=0)
    for i in np.argwhere(~(np.abs(sums - 1.0) <= STOCHASTIC_TOL)):
        out.append(f"{column.format(*i)} sums to {float(sums[tuple(i)])!r}, not 1")
    return out


def _model_problems(
    n: int, m: int, transition: np.ndarray, reward: np.ndarray, discount: float
) -> list[str]:
    """Every way the fields of an :class:`MdpModel` break its definition,
    one line each naming the offending index and quantity; empty when they
    make a model."""
    out: list[str] = []
    if n < 1:
        out.append(f"num_states must be positive, got {n}")
    if m < 1:
        out.append(f"num_actions must be positive, got {m}")
    if out:
        return out

    if transition.shape != (n, n, m):
        out.append(f"transition shape {transition.shape} != expected {(n, n, m)}")
    if reward.shape != (n, m):
        out.append(f"reward shape {reward.shape} != expected {(n, m)}")
    if out:
        return out

    out += _stochastic_problems(
        transition,
        "transition entry p({}|{},{})",
        "transition column (x={}, u={})",
    )
    if not np.all(np.isfinite(reward)):
        s, a = np.argwhere(~np.isfinite(reward))[0]
        out.append(f"reward R({s},{a}) = {float(reward[s, a])!r} is not finite")
    if not (0.0 < discount < 1.0):
        out.append(f"discount {discount!r} not strictly inside (0, 1)")
    return out


def bellman_backup(model: MdpModel, values: np.ndarray) -> np.ndarray:
    """One sweep of the greedy backup; returns the action-value table (X, U)."""
    # scaled and added in place on einsum's own output: the same sums as
    # ``reward + discount * future``
    q = np.einsum("dsa,d->sa", model.transition, values)
    q *= model.discount
    q += model.reward
    return q


def _check_tol(tol: float) -> None:
    if not tol > 0.0:  # NaN too, which would run every sweep and never stop
        raise ValueError(f"tol must be positive, got {tol}")


def _check_weights(**weights: float) -> None:
    """Refuse a non-finite objective weight: NaN would score every choice
    NaN, and infinity gives NaN against a zero term. Negative ones are legal."""
    for name, weight in weights.items():
        if not math.isfinite(weight):
            raise ValueError(f"{name} must be finite, got {weight!r}")


def value_iteration(backup, values: np.ndarray, tol: float, max_iter: int) -> VIResult:
    """Iterate ``values = backup(values)`` until the sup-norm of successive
    iterates drops to ``tol``, for at most ``max_iter`` sweeps.
    Non-convergence is reported via ``converged``, not raised."""
    _check_tol(tol)
    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        updated = backup(values)
        # np.max's reduction, without its Python-level wrapper
        residual = float(np.maximum.reduce(np.abs(updated - values), axis=None))
        values = updated
        if residual <= tol:
            break
    return VIResult(values, residual, iterations, residual <= tol)


def nominal_value_iteration(
    model: MdpModel,
    tol: float = DEFAULT_VI_TOL,
    max_iter: int = DEFAULT_VI_MAX_ITER,
) -> VIResult:
    """Solve the discounted MDP by :func:`value_iteration` from the zero
    table; the geometric contraction makes the Bellman residual of the
    returned table at most ``tol`` as well."""
    return value_iteration(
        # .max(axis=1)'s reduction, without its Python-level wrapper
        lambda values: np.maximum.reduce(bellman_backup(model, values), axis=1),
        np.zeros(model.num_states), tol, max_iter,
    )


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
    return _readonly(model.transition[:, np.arange(model.num_states), policy.actions])


# ---------------------------------------------------------------------------
# model files

_MODEL_KEYS = {"num_states", "num_actions", "discount", "transition", "reward"}


def model_from_dict(doc: dict) -> MdpModel:
    """Build a model from the on-disk dict layout; :class:`MdpModel` checks
    the tables it is given."""
    _check_fields(doc, _MODEL_KEYS)
    file_kernel = _table_field(
        doc, "transition", "[action][source][destination]", name="table"
    )
    reward = _table_field(doc, "reward", name="table")
    return MdpModel(
        num_states=_value_field(doc, "num_states", int),
        num_actions=_value_field(doc, "num_actions", int),
        transition=file_kernel.transpose(2, 1, 0),
        reward=reward,
        discount=_value_field(doc, "discount", float),
    )


def model_to_dict(model: MdpModel) -> dict:
    return {
        "num_states": model.num_states,
        "num_actions": model.num_actions,
        "discount": model.discount,
        "transition": model.transition.transpose(2, 1, 0).tolist(),
        "reward": model.reward.tolist(),
    }


def load_model_file(path: str | Path) -> MdpModel:
    return model_from_dict(_read_json_object(path))


def save_model_file(model: MdpModel, path: str | Path) -> None:
    _write_json(model_to_dict(model), path)
