"""Exact solver on the joint state-belief space.

The belief simplex is discretized with a regular lattice (all integer
compositions of ``resolution``), value lookups between lattice points use
the standard simplicial (Freudenthal) triangulation, and value iteration
runs over the finite grid. The one-step transition support is closed form,
so each backup is a finite weighted sum; the whole operator is compiled
once into flat index arrays and each sweep is a single scatter-add.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .belief import (
    EPS_ZERO,
    ObservationModel,
    blocked_actions,
    emission_support,
    posterior_table,
    stage_penalty,
)
from .errors import EmptyAdmissibleSet, SizeOverflow
from .mdp import MdpModel, _readonly

# Transformed coordinates within this distance of an integer are treated as
# exactly on a lattice hyperplane, so grid points interpolate to themselves.
SNAP_TOL = 1e-10

DEFAULT_RESOLUTION = 10
DEFAULT_AVI_TOL = 1e-6
DEFAULT_AVI_MAX_ITER = 2000
MAX_GRID_POINTS = 2_000_000


@dataclass(frozen=True)
class SimplexGrid:
    """Regular belief lattice: row ``g`` of ``points`` is ``compositions[g] / resolution``."""

    num_states: int
    resolution: int
    points: np.ndarray
    compositions: np.ndarray
    _index: dict = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "points", _readonly(self.points))
        object.__setattr__(
            self, "compositions", _readonly(self.compositions, dtype=np.int64)
        )

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    def index_of(self, composition) -> int:
        return self._index[tuple(int(c) for c in composition)]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def build_simplex_grid(
    num_states: int, resolution: int, max_points: int = MAX_GRID_POINTS
) -> SimplexGrid:
    """Enumerate the lattice in lexicographic composition order."""
    if num_states < 1:
        raise ValueError(f"num_states must be positive, got {num_states}")
    if resolution < 1:
        raise ValueError(f"resolution must be positive, got {resolution}")
    count = math.comb(resolution + num_states - 1, num_states - 1)
    if count > max_points:
        raise SizeOverflow(
            f"belief grid would hold {count} points (cap {max_points}); "
            f"lower the resolution or use the receding-horizon planner"
        )
    comps = np.array(list(_compositions(resolution, num_states)), dtype=np.int64)
    points = comps / float(resolution)
    index = {tuple(row.tolist()): g for g, row in enumerate(comps)}
    return SimplexGrid(num_states, resolution, points, comps, index)


def interpolation_weights(
    grid: SimplexGrid, o: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric weights of ``o`` in its triangulation simplex.

    Returns parallel arrays of grid-point indices and strictly positive
    weights (at most ``num_states`` of them, summing to 1). Works in the
    cumulative-sum coordinates where the lattice is the integer grid: take
    the floor, then walk up the coordinates in order of decreasing
    fractional part. Zero-weight vertices are dropped because on boundary
    faces they can fall outside the simplex.
    """
    n = grid.num_states
    res = grid.resolution
    o = np.asarray(o, dtype=float)
    if o.shape != (n,):
        raise ValueError(f"belief shape {o.shape} does not match grid over {n} states")
    if n == 1:
        return np.array([0], dtype=np.int64), np.array([1.0])

    x = res * np.cumsum(o[::-1])[::-1]
    x[0] = res  # exact by normalization
    near = np.round(x)
    snap = np.abs(x - near) <= SNAP_TOL
    x[snap] = near[snap]
    base = np.floor(x).astype(np.int64)
    frac = x - base

    order = np.argsort(-frac[1:], kind="stable") + 1
    d = frac[order]
    lam = np.empty(n)
    lam[0] = 1.0 - d[0]
    lam[1:-1] = d[:-1] - d[1:]
    lam[-1] = d[-1]

    vertex = base.copy()
    indices: list[int] = []
    weights: list[float] = []
    comp = np.empty(n, dtype=np.int64)
    for k in range(n):
        if k > 0:
            vertex[order[k - 1]] += 1
        if lam[k] <= 0.0:
            continue
        comp[:-1] = vertex[:-1] - vertex[1:]
        comp[-1] = vertex[-1]
        indices.append(grid.index_of(comp))
        weights.append(lam[k])
    return np.asarray(indices, dtype=np.int64), np.asarray(weights)


def interpolate_value(grid: SimplexGrid, table: np.ndarray, o: np.ndarray) -> float:
    """Interpolate a per-grid-point table at an arbitrary belief."""
    idx, w = interpolation_weights(grid, o)
    return float(np.dot(np.asarray(table)[idx], w))


@dataclass(frozen=True)
class AugmentedValueFunction:
    """Joint value function: ``values[x, g]`` at state ``x``, lattice belief ``g``."""

    grid: SimplexGrid
    values: np.ndarray
    reward_weight: float
    exposure_weight: float

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))

    def evaluate(self, x: int, o: np.ndarray) -> float:
        idx, w = interpolation_weights(self.grid, o)
        return float(np.dot(self.values[x, idx], w))


@dataclass(frozen=True)
class AugmentedVIResult:
    value: AugmentedValueFunction
    residual: float
    iterations: int
    converged: bool
    # grid points (x, g) where no action was admissible and the backup fell
    # back to the full action set with unreachable observations dropped
    fallback_points: tuple[tuple[int, int], ...]


class _CompiledBackup:
    """Flattened one-step operator over the grid.

    Row ids enumerate ``(x, g, u)`` as ``(x * P + g) * U + u``; column ids
    enumerate ``(x', g')`` as ``x' * P + g'``. A sweep is one gather, one
    scatter-add, and a masked row max.
    """

    def __init__(self, model: MdpModel, obs: ObservationModel, pa: np.ndarray,
                 grid: SimplexGrid, reward_weight: float, exposure_weight: float):
        n, num_u = model.num_states, model.num_actions
        pts = grid.num_points
        q = obs.likelihood
        num_rows = n * pts * num_u

        stage = np.full(num_rows, -np.inf)
        usable = np.zeros(num_rows, dtype=bool)
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        coefs: list[np.ndarray] = []
        fallback: list[tuple[int, int]] = []

        support = emission_support(model, obs)
        posteriors, _, open_ys = posterior_table(pa, q, grid.points)
        for g in range(pts):
            o = grid.points[g]
            open_y = open_ys[g]
            interp = {
                y: interpolation_weights(grid, posteriors[g, y])
                for y in np.flatnonzero(open_y)
            }
            blocked = blocked_actions(support, ~open_y)  # (U, X)
            for x in range(n):
                penalty = exposure_weight * stage_penalty(x, o)
                actions = np.flatnonzero(~blocked[:, x])
                relaxed = actions.size == 0
                if relaxed:
                    fallback.append((x, g))
                    actions = np.arange(num_u)
                for u in actions:
                    succ = model.transition[:, x, u]
                    mass = q * succ[None, :]
                    mass[~open_y] = 0.0
                    total = mass.sum()
                    if total <= EPS_ZERO:
                        continue
                    if relaxed:
                        mass = mass / total
                    row_id = (x * pts + g) * num_u + u
                    stage[row_id] = reward_weight * model.reward[x, u] - penalty
                    usable[row_id] = True
                    for y in np.flatnonzero(mass.any(axis=1)):
                        idx, w = interp[y]
                        xps = np.flatnonzero(mass[y])
                        c = (xps[:, None] * pts + idx[None, :]).ravel()
                        k = (mass[y, xps][:, None] * w[None, :]).ravel()
                        cols.append(c)
                        coefs.append(k)
                        rows.append(np.full(c.size, row_id, dtype=np.int64))
                if not usable[(x * pts + g) * num_u: (x * pts + g + 1) * num_u].any():
                    raise EmptyAdmissibleSet(
                        f"no usable action at state x={x}, grid point g={g}"
                    )

        self.num_rows = num_rows
        self.num_actions = num_u
        self.rows = np.concatenate(rows)
        self.cols = np.concatenate(cols)
        self.coefs = np.concatenate(coefs)
        self.stage = stage
        self.discount = model.discount
        self.fallback_points = tuple(fallback)

    def action_values(self, flat_values: np.ndarray) -> np.ndarray:
        future = np.bincount(
            self.rows,
            weights=self.coefs * flat_values[self.cols],
            minlength=self.num_rows,
        )
        with np.errstate(invalid="ignore"):
            return self.stage + self.discount * future

    def sweep(self, flat_values: np.ndarray) -> np.ndarray:
        qvals = self.action_values(flat_values)
        return qvals.reshape(-1, self.num_actions).max(axis=1)


def augmented_backup(
    model: MdpModel,
    obs: ObservationModel,
    pa: np.ndarray,
    value: AugmentedValueFunction,
) -> np.ndarray:
    """One exact sweep; returns the updated ``(num_states, P)`` table."""
    op = _CompiledBackup(
        model, obs, pa, value.grid, value.reward_weight, value.exposure_weight
    )
    return op.sweep(value.values.ravel()).reshape(value.values.shape)


def solve_augmented_vi(
    model: MdpModel,
    obs: ObservationModel,
    pa: np.ndarray,
    reward_weight: float,
    exposure_weight: float,
    resolution: int = DEFAULT_RESOLUTION,
    tol: float = DEFAULT_AVI_TOL,
    max_iter: int = DEFAULT_AVI_MAX_ITER,
) -> AugmentedVIResult:
    """Value iteration from zero over the lattice, sup-norm stopping rule."""
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    grid = build_simplex_grid(model.num_states, resolution)
    op = _CompiledBackup(model, obs, pa, grid, reward_weight, exposure_weight)
    flat = np.zeros(model.num_states * grid.num_points)
    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        updated = op.sweep(flat)
        residual = float(np.max(np.abs(updated - flat)))
        flat = updated
        if residual <= tol:
            break
    value = AugmentedValueFunction(
        grid,
        flat.reshape(model.num_states, grid.num_points),
        reward_weight,
        exposure_weight,
    )
    return AugmentedVIResult(
        value, residual, iterations, residual <= tol, op.fallback_points
    )


def action_values(
    model: MdpModel,
    obs: ObservationModel,
    pa: np.ndarray,
    value: AugmentedValueFunction,
    x: int,
    o: np.ndarray,
) -> np.ndarray:
    """Greedy lookahead at an arbitrary ``(x, o)``; inadmissible entries are -inf."""
    q = obs.likelihood
    posteriors, _, open_y = posterior_table(pa, q, o)
    blocked = blocked_actions(emission_support(model, obs, x), ~open_y)
    out = np.full(model.num_actions, -np.inf)
    penalty = value.exposure_weight * stage_penalty(x, o)
    for u in np.flatnonzero(~blocked):
        mass = q * model.transition[:, x, u][None, :]
        future = 0.0
        for y in np.flatnonzero(mass.any(axis=1) & open_y):
            idx, w = interpolation_weights(value.grid, posteriors[y])
            interp = value.values[:, idx] @ w
            future += float(mass[y] @ interp)
        out[u] = (
            value.reward_weight * model.reward[x, u]
            - penalty
            + model.discount * future
        )
    return out


def greedy_action(
    model: MdpModel,
    obs: ObservationModel,
    pa: np.ndarray,
    value: AugmentedValueFunction,
    x: int,
    o: np.ndarray,
) -> int:
    """Lowest-index maximizer of the greedy lookahead."""
    vals = action_values(model, obs, pa, value, x, o)
    if not np.any(np.isfinite(vals)):
        raise EmptyAdmissibleSet(f"no admissible action at state x={x}")
    return int(np.argmax(vals))


# ---------------------------------------------------------------------------
# value files

def save_value_file(value: AugmentedValueFunction, path: str | Path) -> None:
    doc = {
        "num_states": value.grid.num_states,
        "resolution": value.grid.resolution,
        "reward_weight": value.reward_weight,
        "exposure_weight": value.exposure_weight,
        "values": value.values.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_value_file(path: str | Path) -> AugmentedValueFunction:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    grid = build_simplex_grid(int(doc["num_states"]), int(doc["resolution"]))
    values = np.asarray(doc["values"], dtype=float)
    if values.shape != (grid.num_states, grid.num_points):
        raise ValueError(
            f"value table shape {values.shape} does not match "
            f"{(grid.num_states, grid.num_points)}"
        )
    return AugmentedValueFunction(
        grid, values, float(doc["reward_weight"]), float(doc["exposure_weight"])
    )
