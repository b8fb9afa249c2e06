"""Exact solver on the joint state-belief space.

The belief simplex is discretized with a regular lattice (every vector of
nonnegative integers summing to ``resolution``, scaled by it and indexed by
its lexicographic rank), value lookups between lattice points use the
Freudenthal triangulation (Lovejoy, Operations Research 1991), and value
iteration runs over the finite grid. The rank is a sum of per-coordinate
terms of the integer vector's suffix sums, so the ranks of a Freudenthal
simplex's vertices are one running sum: the floor's rank, then the tabled
rank step of each coordinate the walk raises.

One batched lookahead, :class:`_Backup`, backs up every lattice point in a
sweep and the single (state, belief) pair of a greedy decision. What it
reads that depends on no belief is held elsewhere, once: the observer's
kernel ``q(y|x') p(x'|x,u)`` on the :class:`~covertmdp.belief.Observer`, the
locate tables on the lattice. What depends on the belief it computes once
per batch: the observer's posteriors and their simplices, found once per
(belief, observation), the observations each belief leaves open, the
blocked and relaxed actions and each action's open mass (all three from
``belief``, which owns every zero test) and the stage reward; it applies
them to any value table by the two contractions. A greedy decision
computes these for its one belief and reads only its own state's rows of
the tables. Every belief the lookahead sees is a distribution (a lattice
point, or a belief that ``Observer.check`` accepted), so when the observer
rules nothing out (``Observer.rules_out_nothing``), nothing is blocked,
relaxed or without mass: the masks are not built and the solver has no
fallback or hopeless point to look for.

A sweep gathers ``X·G·Y·n`` interpolation values (states, lattice points,
observations, simplex vertices) at once, and its memory peaks there, at
12.5–16 bytes per entry. ``solve_augmented_vi`` refuses a lattice above
``MAX_LATTICE_ENTRIES`` of them before it builds anything.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .belief import (
    ObservationModel,
    Observer,
    _check_belief,
    blocked_actions,
    open_mass,
    posterior_table,
)
from .errors import EmptyAdmissibleSet, SizeOverflow
from .mdp import (
    MdpModel,
    _check_integer,
    _check_tol,
    _check_weight,
    _readonly,
    _write_json,
    value_iteration,
)

# Transformed coordinates within this distance of an integer are treated as
# exactly on a lattice hyperplane, so grid points interpolate to themselves.
SNAP_TOL = 1e-10

DEFAULT_RESOLUTION = 10
DEFAULT_AVI_TOL = 1e-6
DEFAULT_AVI_MAX_ITER = 2000
# Cap on a sweep's gather of X·G·Y·n interpolation values: about 270 MB at
# the measured peak of 16 bytes per entry.
MAX_LATTICE_ENTRIES = 2**24


@dataclass(frozen=True)
class SimplexGrid:
    """Regular belief lattice: row ``g`` of ``points`` is a vector of
    nonnegative integers summing to ``resolution``, divided by it.

    Such a vector's lexicographic rank is ``sum_j _gains[j, t_j]`` over its
    suffix sums ``t_j``. With ``C[i, t] = C(t + n-1-i, n-1-i)``, the number
    of ways ``n-1-i`` nonnegative integers can sum to at most ``t``, the
    rank counts for each ``i`` those that agree before ``i`` and hold less
    at ``i``:
    ``C[i, t_i] - C[i, t_{i+1}]``, for ``i < n-1``. Collecting the terms of
    each ``t_j`` gives ``_gains[j] = C[j] - C[j-1]``, with the rows ``C[-1]``
    and ``C[n-1]`` taken as zero. Raising ``t_j`` by one adds the rank step
    ``_rises[j, t] = _gains[j, t+1] - _gains[j, t]`` (0 in the last
    column). The extra column ``t = resolution + 1`` of ``_gains`` is read
    only through the steps of coordinates already at ``resolution``: the
    first, which is never raised, and others whose raised vertices carry
    zero weight. Both tables are read by flat index: coordinate ``j`` at
    ``t`` is entry ``_offsets[j] + t``.
    """

    num_states: int
    resolution: int
    points: np.ndarray
    _gains: np.ndarray = field(init=False, repr=False)
    _rises: np.ndarray = field(init=False, repr=False)
    _offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "points", _readonly(self.points))
        n = self.num_states
        width = self.resolution + 2
        counts = np.array([[math.comb(t + m, m) for t in range(width)]
                           for m in range(n - 1, 0, -1)], dtype=np.int64)
        gains = np.zeros((n, width), dtype=np.int64)
        gains[:-1] += counts.reshape(n - 1, width)
        gains[1:] -= counts.reshape(n - 1, width)
        rises = np.diff(gains, axis=1, append=gains[:, -1:])  # last column 0
        object.__setattr__(self, "_gains", _readonly(gains, dtype=np.int64))
        object.__setattr__(self, "_rises", _readonly(rises, dtype=np.int64))
        object.__setattr__(
            self, "_offsets", _readonly(np.arange(0, n * width, width), dtype=np.int64)
        )

    @property
    def num_points(self) -> int:
        return self.points.shape[0]


def _grid_size(num_states: int, resolution: int) -> int:
    """Points of the lattice, once the integer rule finds its arguments positive."""
    _check_integer(num_states, "num_states", 1)
    _check_integer(resolution, "resolution", 1)
    return math.comb(resolution + num_states - 1, num_states - 1)


def build_simplex_grid(num_states: int, resolution: int) -> SimplexGrid:
    """Enumerate the lattice in lexicographic order; refuses a
    lattice whose ``G·n`` coordinates exceed ``MAX_LATTICE_ENTRIES``."""
    count = _grid_size(num_states, resolution)
    if count * num_states > MAX_LATTICE_ENTRIES:
        raise SizeOverflow(
            f"refusing: a belief grid of {count} points over {num_states} "
            f"states exceeds the cap of {MAX_LATTICE_ENTRIES} entries; lower "
            f"the resolution or use the receding-horizon planner"
        )
    # stars and bars: bar positions in lexicographic order give the integer
    # vectors in lexicographic order
    slots = resolution + num_states - 1
    bars = np.array(
        list(itertools.combinations(range(slots), num_states - 1)), dtype=np.int64
    ).reshape(count, num_states - 1)
    comps = np.diff(bars, axis=1, prepend=-1, append=slots) - 1
    # the grid keeps Python ints, which JSON can write
    return SimplexGrid(int(num_states), int(resolution), comps / float(resolution))


def _simplex_weights(
    grid: SimplexGrid, beliefs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Freudenthal simplex of each belief in a stack ``(..., n)``.

    Returns vertex indices and barycentric weights, both ``(..., n)``. In
    the suffix-sum coordinates the lattice is the integer grid: take the
    floor, then walk up the coordinates in order of decreasing fractional
    part. The beliefs must be distributions, so the coordinates are
    nonnegative and truncation is the floor. The first coordinate is
    ``resolution`` exactly and never walks, so its fractional part is
    pinned to 1.0: one stable sort then puts it first, the sorted
    fractional parts are the weights' ``[1, d_1, ..., d_{n-1}]`` and the
    coordinates in sorted order are the walk. Vertex ``k``'s rank is the
    floor's rank plus the rank steps (``_rises``) of the first ``k`` walked
    coordinates. Zero-weight vertices can fall outside the simplex on
    boundary faces, so they are replaced by the first vertex.
    """
    n = grid.num_states
    res = grid.resolution
    shape = beliefs.shape
    # one row per belief, so the walk's order gathers by row-flat indices;
    # the solve's memory peaks here, so the stack-sized steps work in place
    frac = res * beliefs.reshape(-1, n)[:, ::-1].cumsum(axis=-1)[:, ::-1]
    frac[:, 0] = res  # exact by normalization
    near = frac.round()
    np.copyto(frac, near, where=np.abs(frac - near) <= SNAP_TOL)
    del near
    base = frac.astype(np.int64)
    frac -= base  # the fractional parts from here on
    frac[:, 0] = 1.0  # the pinned head: sorts first, and heads the weights

    order = (-frac).argsort(axis=-1, kind="stable")
    # flat index of each row's first entry, as a column
    flat = order + np.arange(0, frac.size, n)[:, None]
    # weights: one difference over [1, d_1, ..., d_{n-1}, 0], with d the
    # fractional parts in walk order; the last, d_{n-1} - 0, stays as it is
    lam = frac.take(flat)
    lam[:, :-1] -= lam[:, 1:]

    # vertex k raises the coordinates order[1:k+1] of the floor by one, and
    # the rank is separable, so each raise adds that coordinate's rank step;
    # the head never walks, and its column starts the sum at the floor's rank
    base += grid._offsets  # each coordinate's floor, as its entry in the tables
    steps = grid._rises.take(base.take(flat))
    np.add.reduce(grid._gains.take(base), axis=-1, out=steps[:, 0])
    ranks = steps.cumsum(axis=-1)
    positive = lam > 0.0
    vertices = np.where(positive, ranks, ranks[:, :1])
    return vertices.reshape(shape), np.where(positive, lam, 0.0).reshape(shape)


def interpolation_weights(
    grid: SimplexGrid, o: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric weights of ``o`` in its triangulation simplex.

    ``o`` must be a distribution over the grid's states, by
    :meth:`Observer.check`'s rule; anything else is a ``ValueError``.
    Returns parallel arrays of grid-point indices and strictly positive
    weights (at most ``num_states`` of them, summing to 1).
    """
    o = _check_belief(o, grid.num_states)
    idx, w = _simplex_weights(grid, o)
    keep = w > 0.0
    return idx[keep], w[keep]


@dataclass(frozen=True)
class AugmentedValueFunction:
    """Joint value function: ``values[x, g]`` at state ``x``, lattice belief
    ``g``; a table of another shape, or with an entry that is not finite, is
    refused. The weights are kept as the floats the weight rule returns."""

    grid: SimplexGrid
    values: np.ndarray
    reward_weight: float
    exposure_weight: float

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        for name in ("reward_weight", "exposure_weight"):
            object.__setattr__(self, name, _check_weight(getattr(self, name), name))
        expected = (self.grid.num_states, self.grid.num_points)
        if self.values.shape != expected:
            raise ValueError(
                f"value table shape {self.values.shape} does not match {expected}"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("value table entries must be finite")


@dataclass(frozen=True)
class AugmentedVIResult:
    value: AugmentedValueFunction
    residual: float
    iterations: int
    converged: bool
    # grid points (x, g) where no action was admissible and the backup fell
    # back to the full action set with unreachable observations dropped
    fallback_points: tuple[tuple[int, int], ...]


def _check_lattice(grid: SimplexGrid, model: MdpModel) -> None:
    """Refuse a value lattice over another number of states than ``model``'s."""
    if grid.num_states != model.num_states:
        raise ValueError(
            f"value lattice over {grid.num_states} states, "
            f"model has {model.num_states} states"
        )


class _Backup:
    """One-step backup of ``(x, o)`` against a lattice value table
    ``values[x', g]``, at a batch of beliefs ``(B, n)`` and the source
    states ``sources``: the part that depends on the belief, computed once
    and applied to any value table. The sweep builds one over the lattice
    points, a greedy decision one for its ``(x, o)``.

    Per belief, the posterior after ``y`` interpolates through
    ``vertices[b, y]`` with ``weights[b, y]``, and its value counts only
    where the predictive leaves ``y`` open (``open_y[b, y]``). Where no
    action is admissible (``relaxed[b, x]``, from
    :func:`~covertmdp.belief.blocked_actions`), every action with open mass
    is usable, and at those ``renorm`` entries the contracted future is
    divided by that mass (``open_mass``, from
    :func:`~covertmdp.belief.open_mass`). ``stage`` is ``reward_weight``
    times the reward less ``exposure_weight`` times the exposure (the
    belief's mass on the source state), and -inf for unusable actions.

    ``beliefs`` must be distributions. When the observer rules nothing out,
    none of those masks is built: nothing is blocked or relaxed, every
    action has mass, and the masked backup would multiply by 1.0 and divide
    nowhere, so skipping it changes no bit.
    """

    def __init__(self, observer: Observer, grid: SimplexGrid,
                 reward_weight: float, exposure_weight: float,
                 beliefs: np.ndarray, sources=slice(None)):
        model = observer.model
        _check_lattice(grid, model)
        posteriors, _, open_y = posterior_table(observer, beliefs)
        self.vertices, self.weights = _simplex_weights(grid, posteriors)
        self.kernel = observer.kernel[sources]
        self.discount = model.discount
        penalty = exposure_weight * beliefs[..., sources, None]
        self.stage = reward_weight * model.reward[sources] - penalty
        self.all_open = observer.rules_out_nothing
        if self.all_open:  # lattice-6s decisions: 0.5-0.8 the masked time
            return

        self.open_y = open_y
        blocked = blocked_actions(observer, open_y, sources)
        self.relaxed = blocked.all(axis=-1)
        mass, has_mass = open_mass(observer, open_y, sources)
        self.usable = (~blocked | self.relaxed[..., None]) & has_mass
        renorm = self.usable & self.relaxed[..., None]
        self.renorm = np.nonzero(renorm)
        self.open_mass = mass[renorm]
        self.stage = np.where(self.usable, self.stage, -np.inf)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Action values ``(B, X, U)`` against the table ``values[x', g]``."""
        interp = np.einsum("zbyk,byk->byz", values[:, self.vertices], self.weights)
        if not self.all_open:
            interp *= self.open_y[..., None]
        future = np.einsum("xuyz,byz->bxu", self.kernel, interp)
        if not self.all_open and self.open_mass.size:
            future[self.renorm] /= self.open_mass
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
    """:func:`mdp.value_iteration` from zero over the lattice.

    Raises :class:`SizeOverflow`, before anything is built, when a sweep
    would gather more than ``MAX_LATTICE_ENTRIES`` values, and
    ``ValueError`` for a non-finite weight.
    """
    # before the lattice is built
    _check_tol(tol)
    _check_integer(max_iter, "max_iter", 1)
    reward_weight = _check_weight(reward_weight, "reward_weight")
    exposure_weight = _check_weight(exposure_weight, "exposure_weight")
    n = model.num_states
    points = _grid_size(n, resolution)
    entries = n * points * obs.num_observations * n
    if entries > MAX_LATTICE_ENTRIES:
        raise SizeOverflow(
            f"refusing: the state-belief lattice ({n} states, {points} belief "
            f"points) needs {entries} entries per sweep (cap "
            f"{MAX_LATTICE_ENTRIES}); lower the resolution or use the "
            f"receding-horizon planner (the rho controller, or plan) instead"
        )
    grid = build_simplex_grid(n, resolution)
    backup = _Backup(
        Observer(model, obs, pa), grid, reward_weight, exposure_weight, grid.points
    )
    fallback = ()  # all open: no point is relaxed, none is hopeless
    if not backup.all_open:
        hopeless = np.argwhere(~backup.usable.any(axis=2))
        if hopeless.size:
            g, x = hopeless[0]
            raise EmptyAdmissibleSet(
                f"no usable action at state x={x}, grid point g={g}"
            )
        fallback = tuple((int(x), int(g)) for g, x in np.argwhere(backup.relaxed))
    vi = value_iteration(
        lambda values: backup(values).max(axis=2).T,
        np.zeros((model.num_states, grid.num_points)), tol, max_iter,
    )
    value = AugmentedValueFunction(grid, vi.values, reward_weight, exposure_weight)
    return AugmentedVIResult(value, vi.residual, vi.iterations, vi.converged, fallback)


def action_values(
    observer: Observer, value: AugmentedValueFunction, x: int, o: np.ndarray
) -> np.ndarray:
    """Greedy lookahead at an arbitrary ``(x, o)``; inadmissible entries are -inf.

    Unlike the solver's backup, no action is relaxed here: where every
    action is inadmissible, every entry is -inf. Only the agent's own row
    is backed up, against ``observer``'s tables; a lattice over another
    number of states is refused.
    """
    o = observer.check(x, o)
    backup = _Backup(
        observer, value.grid, value.reward_weight, value.exposure_weight,
        o[None, :], slice(x, x + 1),
    )
    if not backup.all_open and backup.relaxed[0, 0]:
        return np.full(observer.model.num_actions, -np.inf)
    return backup(value.values)[0, 0]


def greedy_action(
    observer: Observer, value: AugmentedValueFunction, x: int, o: np.ndarray
) -> int:
    """Lowest-index maximizer of the greedy lookahead (:func:`action_values`),
    picked from the Python list of its values: for values that are finite or
    -inf, ``np.argmax``'s first maximum. Raises :class:`EmptyAdmissibleSet`
    when every value is -inf (or NaN)."""
    scores = action_values(observer, value, x, o).tolist()
    top = max(scores)
    if not top > -math.inf:
        raise EmptyAdmissibleSet(f"no admissible action at state x={x}")
    return scores.index(top)


# ---------------------------------------------------------------------------
# value file

def save_value_file(value: AugmentedValueFunction, path: str | Path) -> None:
    doc = {
        "num_states": value.grid.num_states,
        "resolution": value.grid.resolution,
        "reward_weight": value.reward_weight,
        "exposure_weight": value.exposure_weight,
        "values": value.values.tolist(),
    }
    _write_json(doc, path)

