"""Built-in scenarios.

``example1_model`` is a small three-state, two-action model with a noisy
sensor whose confusion is strong between the two rewarding states; it is
the standard smoke-test model throughout the test suite and the CLI.

``gridworld_model`` builds a slippery grid with an absorbing target cell
and a range sensor: the observation is a noisy reading of the Manhattan
distance between the agent and a fixed sensor cell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .belief import ObservationModel
from .errors import ModelFormatError
from .mdp import MdpModel, _check_fields, _integer_problem, _real_problem

# ---------------------------------------------------------------------------
# three-state example

def example1_model() -> tuple[MdpModel, ObservationModel]:
    """Three states with rewards 1, 0.8, 0; action 0 tends to hold the
    current state, action 1 tends to rotate; the sensor confuses the two
    rewarding states far more than the third."""
    hold = np.array([
        [0.8, 0.1, 0.1],
        [0.1, 0.8, 0.1],
        [0.1, 0.1, 0.8],
    ])
    rotate = np.array([
        [0.1, 0.1, 0.8],
        [0.8, 0.1, 0.1],
        [0.1, 0.8, 0.1],
    ])
    transition = np.stack([hold, rotate], axis=2)  # (dest, source, action)
    reward = np.array([
        [1.0, 1.0],
        [0.8, 0.8],
        [0.0, 0.0],
    ])
    model = MdpModel(3, 2, transition, reward, 0.95)
    likelihood = np.array([
        [0.70, 0.10, 0.05],
        [0.15, 0.45, 0.05],
        [0.15, 0.45, 0.90],
    ])
    return model, ObservationModel(3, likelihood)


# ---------------------------------------------------------------------------
# gridworld with a range sensor

_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1), (0, 0))  # up, down, left, right, stay
GRIDWORLD_ACTIONS = ("up", "down", "left", "right", "stay")

# Readings further than this many sigmas from the true distance get exactly
# zero likelihood. Untruncated Gaussian tails sit astride the zero threshold
# of the prohibition test (positive as an emission probability, zero once
# scaled by small belief mass in the observer's predictive), which would
# prohibit every action; truncation keeps "possible reading" a sharp set.
SENSOR_SUPPORT_SIGMAS = 3.0


@dataclass(frozen=True)
class GridWorldSpec:
    """A grid scenario; the constructor raises one :class:`ModelFormatError`
    listing every way its values break it: a width or height that is not a
    positive integer, a cell that is not a pair of integers or lies off the
    grid, the start on the target, a real field that is not a number,
    ``slip_prob`` outside ``[0, 1)`` or ``noise_sigma`` outside
    ``(1e-150, 1e150)``. It keeps Python ints and floats."""

    width: int
    height: int
    start: tuple[int, int]
    target: tuple[int, int]
    sensor: tuple[int, int]
    slip_prob: float = 0.1
    target_reward: float = 1.0
    noise_sigma: float = 1.0
    discount: float = 0.95

    def __post_init__(self):
        problems = list(filter(None, (_integer_problem(self.width, "width", 1),
                                      _integer_problem(self.height, "height", 1))))
        sized = not problems  # cells are placed only on a grid of known size
        if sized:
            for name in ("width", "height"):  # as Python ints, for JSON
                object.__setattr__(self, name, int(getattr(self, name)))
        cells = {}  # the pairs of integers, placed or not
        for name in _SPEC_CELLS:
            pair = getattr(self, name)
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                problems.append(f"{name} must be a [row, col] pair")
                continue
            lines = list(filter(None, (_integer_problem(pair[0], f"{name} row"),
                                       _integer_problem(pair[1], f"{name} col"))))
            if not lines:
                cells[name] = r, c = int(pair[0]), int(pair[1])
                object.__setattr__(self, name, cells[name])
                if sized and not (0 <= r < self.height and 0 <= c < self.width):
                    lines = [f"{name} cell {(r, c)} outside the grid"]
            problems += lines
        if "start" in cells and cells["start"] == cells.get("target"):
            problems.append("start and target must be different cells")
        for name in _SPEC_REALS:
            problem = _real_problem(getattr(self, name), name)
            if problem:
                problems.append(problem)
            else:
                object.__setattr__(self, name, float(getattr(self, name)))
        # the range tests read only the fields the real rule stored as floats
        if isinstance(self.slip_prob, float) and not 0.0 <= self.slip_prob < 1.0:
            problems.append(f"slip_prob must be in [0, 1), got {self.slip_prob}")
        # the reading's Gaussian divides by 2 * noise_sigma**2, which must be
        # a positive finite float: a square that underflows to 0 makes a 0/0
        # likelihood, and one that overflows raises. The range also refuses NaN.
        if isinstance(self.noise_sigma, float) and not 1e-150 < self.noise_sigma < 1e150:
            problems.append(
                f"noise_sigma must lie in (1e-150, 1e150), got {self.noise_sigma!r}"
            )
        if problems:
            raise ModelFormatError(problems)

    def cell_index(self, row: int, col: int) -> int:
        return row * self.width + col

    def cell_of(self, index: int) -> tuple[int, int]:
        return divmod(index, self.width)

    @property
    def num_cells(self) -> int:
        return self.width * self.height


def desk_gridworld() -> GridWorldSpec:
    """Default 7x7 scenario: reach the far corner while a range sensor
    placed on that corner listens."""
    return GridWorldSpec(
        width=7,
        height=7,
        start=(0, 0),
        target=(6, 6),
        sensor=(6, 6),
    )


def _resolved_moves(spec: GridWorldSpec, row: int, col: int) -> list[int]:
    cells = []
    for dr, dc in _MOVES:
        r, c = row + dr, col + dc
        if 0 <= r < spec.height and 0 <= c < spec.width:
            cells.append(spec.cell_index(r, c))
        else:
            cells.append(spec.cell_index(row, col))  # off-grid moves stay put
    return cells


def gridworld_model(spec: GridWorldSpec) -> tuple[MdpModel, ObservationModel]:
    n = spec.num_cells
    num_u = len(_MOVES)
    target = spec.cell_index(*spec.target)
    transition = np.zeros((n, n, num_u))
    reward = np.zeros((n, num_u))
    for row in range(spec.height):
        for col in range(spec.width):
            src = spec.cell_index(row, col)
            if src == target:
                transition[src, src, :] = 1.0  # absorbing
                reward[src, :] = spec.target_reward
                continue
            resolved = _resolved_moves(spec, row, col)
            for u in range(num_u):
                transition[resolved[u], src, u] += 1.0 - spec.slip_prob
                for other in resolved:
                    transition[other, src, u] += spec.slip_prob / num_u

    # noisy reading of the Manhattan distance to the sensor
    sr, sc = spec.sensor
    max_dist = (spec.width - 1) + (spec.height - 1)
    readings = np.arange(max_dist + 1)
    likelihood = np.zeros((max_dist + 1, n))
    for row in range(spec.height):
        for col in range(spec.width):
            cell = spec.cell_index(row, col)
            d = abs(row - sr) + abs(col - sc)
            w = np.exp(-((readings - d) ** 2) / (2.0 * spec.noise_sigma ** 2))
            w[np.abs(readings - d) > SENSOR_SUPPORT_SIGMAS * spec.noise_sigma] = 0.0
            likelihood[:, cell] = w / w.sum()

    model = MdpModel(n, num_u, transition, reward, spec.discount)
    return model, ObservationModel(max_dist + 1, likelihood)


# ---------------------------------------------------------------------------
# gridworld spec files

_SPEC_CELLS = ("start", "target", "sensor")
_SPEC_REALS = ("slip_prob", "target_reward", "noise_sigma", "discount")
_SPEC_REQUIRED = {"width", "height", *_SPEC_CELLS}


def gridworld_spec_from_dict(doc: dict) -> GridWorldSpec:
    """The desk scenario with a document's fields; the loader only parses,
    and :class:`GridWorldSpec` checks every value it is given."""
    _check_fields(doc, _SPEC_REQUIRED | set(_SPEC_REALS), _SPEC_REQUIRED)
    return replace(desk_gridworld(), **doc)
