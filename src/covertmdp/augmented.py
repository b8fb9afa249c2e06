"""Exact solver on the joint state-belief space.

The belief simplex is discretized with a regular lattice (all integer
compositions of ``resolution``, indexed by their lexicographic rank), value
lookups between lattice points use the Freudenthal triangulation (Lovejoy,
Operations Research 1991), and value iteration runs over the finite grid.
One batched lookahead, :class:`_Lookahead`, backs up every lattice point in
a sweep and the single belief of a greedy decision: the observer's
posteriors and their simplices are found once per (belief, observation),
and the successor law meets the value table in two ``einsum`` contractions.
"""

from __future__ import annotations

import itertools
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
)
from .errors import EmptyAdmissibleSet, SizeOverflow
from .mdp import MdpModel, _check_fields, _read_json_object, _readonly, _write_json

# Transformed coordinates within this distance of an integer are treated as
# exactly on a lattice hyperplane, so grid points interpolate to themselves.
SNAP_TOL = 1e-10

DEFAULT_RESOLUTION = 10
DEFAULT_AVI_TOL = 1e-6
DEFAULT_AVI_MAX_ITER = 2000
MAX_GRID_POINTS = 2_000_000


@dataclass(frozen=True)
class SimplexGrid:
    """Regular belief lattice: row ``g`` of ``points`` is ``compositions[g] / resolution``.

    ``_offsets[i, t]`` is ``C(t + n-1-i, n-1-i)``, the number of
    compositions of at most ``t`` into ``n-1-i`` parts.
    """

    num_states: int
    resolution: int
    points: np.ndarray
    compositions: np.ndarray
    _offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "points", _readonly(self.points))
        object.__setattr__(
            self, "compositions", _readonly(self.compositions, dtype=np.int64)
        )
        width = self.resolution + 1
        offsets = [[math.comb(t + m, m) for t in range(width)]
                   for m in range(self.num_states - 1, 0, -1)]
        offsets = _readonly(np.reshape(offsets, (-1, width)), dtype=np.int64)
        object.__setattr__(self, "_offsets", offsets)

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    def _rank(self, tails: np.ndarray) -> np.ndarray:
        """Lexicographic rank of the compositions whose suffix sums are
        ``tails[..., i]``: for each ``i``, count those that agree before
        ``i`` and hold less at ``i``."""
        i = np.arange(self.num_states - 1)
        return (
            self._offsets[i, tails[..., :-1]] - self._offsets[i, tails[..., 1:]]
        ).sum(axis=-1)

    def index_of(self, composition) -> int:
        comp = np.asarray(composition, dtype=np.int64)
        if (comp.shape != (self.num_states,) or np.any(comp < 0)
                or comp.sum() != self.resolution):
            raise KeyError(f"{tuple(comp.tolist())} is not a lattice composition")
        return int(self._rank(np.cumsum(comp[::-1])[::-1]))


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
    # stars and bars: bar positions in lexicographic order give the
    # compositions in lexicographic order
    slots = resolution + num_states - 1
    bars = np.array(
        list(itertools.combinations(range(slots), num_states - 1)), dtype=np.int64
    ).reshape(count, num_states - 1)
    comps = np.diff(bars, axis=1, prepend=-1, append=slots) - 1
    return SimplexGrid(num_states, resolution, comps / float(resolution), comps)


def _simplex_weights(
    grid: SimplexGrid, beliefs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Freudenthal simplex of each belief in a stack ``(..., n)``.

    Returns vertex indices and barycentric weights, both ``(..., n)``. In
    the suffix-sum coordinates the lattice is the integer grid: take the
    floor, then walk up the coordinates in order of decreasing fractional
    part. Zero-weight vertices can fall outside the simplex on boundary
    faces, so they are replaced by the first vertex.
    """
    n = grid.num_states
    res = grid.resolution
    if n == 1:
        return np.zeros(beliefs.shape, dtype=np.int64), np.ones(beliefs.shape)
    x = res * np.cumsum(beliefs[..., ::-1], axis=-1)[..., ::-1]
    x[..., 0] = res  # exact by normalization
    near = np.round(x)
    x = np.where(np.abs(x - near) <= SNAP_TOL, near, x)
    base = np.floor(x).astype(np.int64)
    frac = x - base

    order = np.argsort(-frac[..., 1:], axis=-1, kind="stable") + 1
    d = np.take_along_axis(frac, order, axis=-1)
    lam = np.empty(x.shape)
    lam[..., :1] = 1.0 - d[..., :1]
    lam[..., 1:-1] = d[..., :-1] - d[..., 1:]
    lam[..., -1:] = d[..., -1:]

    # vertex k raises the coordinates order[:k] of the floor by one
    steps = np.zeros(x.shape + (n,), dtype=np.int64)
    np.put_along_axis(steps[..., 1:, :], order[..., None], 1, axis=-1)
    tails = base[..., None, :] + np.cumsum(steps, axis=-2)
    positive = lam > 0.0
    tails = np.where(positive[..., None], tails, base[..., None, :])
    return grid._rank(tails), np.where(positive, lam, 0.0)


def interpolation_weights(
    grid: SimplexGrid, o: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric weights of ``o`` in its triangulation simplex.

    Returns parallel arrays of grid-point indices and strictly positive
    weights (at most ``num_states`` of them, summing to 1).
    """
    o = np.asarray(o, dtype=float)
    if o.shape != (grid.num_states,):
        raise ValueError(
            f"belief shape {o.shape} does not match grid over {grid.num_states} states"
        )
    idx, w = _simplex_weights(grid, o)
    keep = w > 0.0
    return idx[keep], w[keep]


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
        return interpolate_value(self.grid, self.values[x], o)


@dataclass(frozen=True)
class AugmentedVIResult:
    value: AugmentedValueFunction
    residual: float
    iterations: int
    converged: bool
    # grid points (x, g) where no action was admissible and the backup fell
    # back to the full action set with unreachable observations dropped
    fallback_points: tuple[tuple[int, int], ...]


class _Lookahead:
    """One-step backup of ``(x, o)`` for every state and a batch of beliefs.

    ``kernel[b, x, u, y, x']`` is ``q(y|x') p(x'|x,u)`` on the observations
    the predictive leaves open, and the posterior after ``y`` interpolates
    through ``vertices[b, y]`` with ``weights[b, y]``. Where no action is
    admissible (``relaxed[b, x]``), every action with open mass is usable
    and that mass is renormalized. ``stage`` is -inf for unusable actions.
    """

    def __init__(self, model: MdpModel, obs: ObservationModel, pa: np.ndarray,
                 grid: SimplexGrid, beliefs: np.ndarray,
                 reward_weight: float, exposure_weight: float):
        q = obs.likelihood
        posteriors, _, open_y = posterior_table(pa, q, beliefs)
        self.vertices, self.weights = _simplex_weights(grid, posteriors)

        blocked = blocked_actions(emission_support(model, obs), ~open_y.T).T
        self.relaxed = blocked.all(axis=-1)
        kernel = np.einsum("yz,zxu->xuyz", q, model.transition)
        kernel = kernel * open_y[:, None, None, :, None]
        total = kernel.sum(axis=(3, 4))
        self.usable = (~blocked | self.relaxed[..., None]) & (total > EPS_ZERO)
        renorm = self.usable & self.relaxed[..., None]
        kernel[renorm] /= total[renorm][:, None, None]
        self.kernel = kernel

        penalty = exposure_weight * beliefs  # belief.stage_penalty at every x
        stage = reward_weight * model.reward[None] - penalty[..., None]
        self.stage = np.where(self.usable, stage, -np.inf)
        self.discount = model.discount

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Action values ``(B, X, U)`` against the table ``values[x, g]``."""
        interp = np.einsum("zbyk,byk->byz", values[:, self.vertices], self.weights)
        future = np.einsum("bxuyz,byz->bxu", self.kernel, interp)
        return self.stage + self.discount * future


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
    lookahead = _Lookahead(
        model, obs, pa, grid, grid.points, reward_weight, exposure_weight
    )
    hopeless = np.argwhere(~lookahead.usable.any(axis=2))
    if hopeless.size:
        g, x = hopeless[0]
        raise EmptyAdmissibleSet(f"no usable action at state x={x}, grid point g={g}")
    values = np.zeros((model.num_states, grid.num_points))
    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        updated = lookahead(values).max(axis=2).T
        residual = float(np.max(np.abs(updated - values)))
        values = updated
        if residual <= tol:
            break
    fallback = tuple((int(x), int(g)) for g, x in np.argwhere(lookahead.relaxed))
    value = AugmentedValueFunction(grid, values, reward_weight, exposure_weight)
    return AugmentedVIResult(value, residual, iterations, residual <= tol, fallback)


def action_values(
    model: MdpModel,
    obs: ObservationModel,
    pa: np.ndarray,
    value: AugmentedValueFunction,
    x: int,
    o: np.ndarray,
) -> np.ndarray:
    """Greedy lookahead at an arbitrary ``(x, o)``; inadmissible entries are -inf.

    Unlike the solver's backup, no action is relaxed here: where every
    action is inadmissible, every entry is -inf.
    """
    lookahead = _Lookahead(
        model, obs, pa, value.grid, np.asarray(o, dtype=float)[None, :],
        value.reward_weight, value.exposure_weight,
    )
    if lookahead.relaxed[0, x]:
        return np.full(model.num_actions, -np.inf)
    return lookahead(value.values)[0, x]


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

_VALUE_KEYS = {"num_states", "resolution", "reward_weight", "exposure_weight", "values"}


def save_value_file(value: AugmentedValueFunction, path: str | Path) -> None:
    doc = {
        "num_states": value.grid.num_states,
        "resolution": value.grid.resolution,
        "reward_weight": value.reward_weight,
        "exposure_weight": value.exposure_weight,
        "values": value.values.tolist(),
    }
    _write_json(doc, path)


def load_value_file(path: str | Path) -> AugmentedValueFunction:
    doc = _read_json_object(path)
    _check_fields(doc, _VALUE_KEYS)
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
