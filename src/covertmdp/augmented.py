"""Exact solver on the joint state-belief space.

The belief simplex is discretized with a regular lattice (every vector of
nonnegative integers summing to ``resolution``, scaled by it and indexed by
its lexicographic rank), value lookups between lattice points use the
Freudenthal triangulation (Lovejoy, Operations Research 1991), and value
iteration runs over the finite grid. The rank is a sum of per-coordinate
terms of the integer vector's suffix sums, so the ranks of a Freudenthal
simplex's vertices are one running sum: the floor's rank, then the tabled
rank step of each coordinate the walk raises.

One batched lookahead backs up every lattice point in a sweep and the
single (state, belief) pair of a greedy decision. It comes in two halves,
as the planner's does. :class:`_Lookahead` is what depends on no belief: the
observer's kernel ``q(y|x') p(x'|x,u)``, the weighted reward, the discount,
whether the observer rules nothing out, and the lattice's locate tables; it
is built once per solve and once per ``AugmentedValueController``, which
hands it to :func:`greedy_action`. :class:`_Backup` is the per-belief step
that both go through: the observer's posteriors and their simplices, found
once per (belief, observation), the 0/1 mask of the observations each
belief leaves open, the blocked and relaxed actions and the stage reward,
applied to any value table by the two contractions. A greedy decision
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
    EPS_ZERO,
    ObservationModel,
    Observer,
    _check_belief,
    posterior_table,
)
from .errors import EmptyAdmissibleSet, SizeOverflow
from .mdp import (
    MdpModel,
    _check_tol,
    _check_weights,
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
    """Points of the lattice, once its arguments are known to be positive."""
    if num_states < 1:
        raise ValueError(f"num_states must be positive, got {num_states}")
    if resolution < 1:
        raise ValueError(f"resolution must be positive, got {resolution}")
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
    return SimplexGrid(num_states, resolution, comps / float(resolution))


def _stack_offsets(rows: int, n: int) -> np.ndarray:
    """Flat index of the first entry of each row of a ``(rows, n)`` stack,
    as a column."""
    return np.arange(0, rows * n, n)[:, None]


def _simplex_weights(
    grid: SimplexGrid, beliefs: np.ndarray, stack: np.ndarray | None = None
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
    boundary faces, so they are replaced by the first vertex. ``stack`` is
    :func:`_stack_offsets` of the stack's rows, for callers that hold it.
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
    if stack is None:
        stack = _stack_offsets(len(frac), n)
    flat = order + stack
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
    """Joint value function: ``values[x, g]`` at state ``x``, lattice belief ``g``."""

    grid: SimplexGrid
    values: np.ndarray
    reward_weight: float
    exposure_weight: float

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        expected = (self.grid.num_states, self.grid.num_points)
        if self.values.shape != expected:
            raise ValueError(
                f"value table shape {self.values.shape} does not match {expected}"
            )


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
    """One-step backup of ``(x, o)`` against a lattice value table
    ``values[x', g]``: its belief-independent half, built once per solve and
    once per ``AugmentedValueController``.

    It holds the kernel ``q(y|x') p(x'|x,u)`` (read from ``observer``),
    ``reward_weight`` times the reward, the discount, whether the observer
    rules nothing out (``all_open``, by ``Observer.rules_out_nothing``), the
    grid, whose tables the locator reads, and the locator's row offsets for
    one belief's posteriors. :class:`_Backup` is the per-belief step that
    both the sweep (over the lattice points) and a greedy decision (one
    ``(x, o)``) go through.

    It serves one observer and one lattice and pair of weights; a decision
    refuses it for any other (:meth:`serves`).
    """

    def __init__(self, observer: Observer, grid: SimplexGrid,
                 reward_weight: float, exposure_weight: float):
        lattice, n = grid.num_states, observer.model.num_states
        if lattice != n:
            raise ValueError(f"value lattice over {lattice} states, model has {n} states")
        self.observer = observer
        self.grid = grid
        self.reward_weight = reward_weight
        self.exposure_weight = exposure_weight
        self.kernel = observer.kernel
        self.reward = reward_weight * observer.model.reward
        self.discount = observer.model.discount
        self.all_open = observer.rules_out_nothing
        self.stack = _stack_offsets(observer.obs.num_observations, n)

    def serves(self, observer: Observer, value: AugmentedValueFunction) -> bool:
        grid = value.grid
        return (
            observer is self.observer
            and grid.num_states == self.grid.num_states
            and grid.resolution == self.grid.resolution
            and value.reward_weight == self.reward_weight
            and value.exposure_weight == self.exposure_weight
        )


class _Backup:
    """A :class:`_Lookahead` at a batch of beliefs ``(B, n)``, for the
    source states ``sources``: the part of the backup that depends on the
    belief, computed once and applied to any value table.

    Per belief, the posterior after ``y`` interpolates through
    ``vertices[b, y]`` with ``weights[b, y]``, and its value counts only
    where the predictive leaves ``y`` open (``open_y[b, y]``). Where no
    action is admissible (``relaxed[b, x]``), every action with open mass
    is usable, and at those ``renorm`` entries the contracted future is
    divided by that mass (``open_mass``). ``stage`` is the stage reward
    less the exposure (the belief's mass on the source state), and -inf
    for unusable actions.

    ``beliefs`` must be distributions. When the observer rules nothing out,
    none of those masks is built: nothing is blocked or relaxed, every
    action has mass, and the masked backup would multiply by 1.0 and divide
    nowhere, so skipping it changes no bit.
    """

    def __init__(self, lookahead: _Lookahead, beliefs: np.ndarray,
                 sources=slice(None)):
        observer = lookahead.observer
        posteriors, _, open_y = posterior_table(observer, beliefs)
        stack = lookahead.stack if len(beliefs) == 1 else None
        self.vertices, self.weights = _simplex_weights(lookahead.grid, posteriors, stack)
        self.kernel = lookahead.kernel[sources]
        self.discount = lookahead.discount
        penalty = lookahead.exposure_weight * beliefs[..., sources]
        self.stage = lookahead.reward[sources] - penalty[..., None]
        self.all_open = lookahead.all_open
        if self.all_open:  # lattice-6s decisions: 0.5-0.8 the masked time
            return

        self.open_y = open_y.astype(float)
        # blocked[b, x, u]: u at x can emit a reading belief b rules out
        blocked = (observer.emits[:, sources] @ ~open_y.T).T
        self.relaxed = blocked.all(axis=-1)
        total = np.einsum("uxy,by->bxu", observer.emission[:, sources], self.open_y)
        self.usable = (~blocked | self.relaxed[..., None]) & (total > EPS_ZERO)
        renorm = self.usable & self.relaxed[..., None]
        self.renorm = np.nonzero(renorm)
        self.open_mass = total[renorm]
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
    _check_weights(reward_weight=reward_weight, exposure_weight=exposure_weight)
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
    lookahead = _Lookahead(
        Observer(model, obs, pa), grid, reward_weight, exposure_weight
    )
    backup = _Backup(lookahead, grid.points)
    fallback = ()  # all open: no point is relaxed, none is hopeless
    if not lookahead.all_open:
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
    observer: Observer, value: AugmentedValueFunction, x: int, o: np.ndarray,
    *, lookahead: _Lookahead | None = None,
) -> np.ndarray:
    """Greedy lookahead at an arbitrary ``(x, o)``; inadmissible entries are -inf.

    Unlike the solver's backup, no action is relaxed here: where every
    action is inadmissible, every entry is -inf. Only the agent's own row
    is backed up, against ``observer``'s tables. ``lookahead`` is the
    belief-independent half, built here when not given; one built for
    another observer, lattice or pair of weights is refused.
    """
    o = observer.check(x, o)
    if lookahead is None:
        lookahead = _Lookahead(
            observer, value.grid, value.reward_weight, value.exposure_weight
        )
    elif not lookahead.serves(observer, value):
        raise ValueError("lookahead was built for another observer or value function")
    backup = _Backup(lookahead, o[None, :], slice(x, x + 1))
    if not lookahead.all_open and backup.relaxed[0, 0]:
        return np.full(observer.model.num_actions, -np.inf)
    return backup(value.values)[0, 0]


def greedy_action(
    observer: Observer, value: AugmentedValueFunction, x: int, o: np.ndarray,
    *, lookahead: _Lookahead | None = None,
) -> int:
    """Lowest-index maximizer of the greedy lookahead (:func:`action_values`),
    picked from the Python list of its values: for values that are finite or
    -inf, ``np.argmax``'s first maximum. Raises :class:`EmptyAdmissibleSet`
    when every value is -inf (or NaN, from a table holding NaN)."""
    scores = action_values(observer, value, x, o, lookahead=lookahead).tolist()
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

