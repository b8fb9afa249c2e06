"""Receding-horizon planner.

Instead of solving over the whole belief simplex, score every admissible
open-loop action sequence of length ``horizon`` from the current pair
``(x, o)`` and apply the first action of the best one. A sequence's score
combines expected discounted reward over the horizon, a terminal tail from
the no-observer value function, and the expected exposure (observer belief
in the true state) at depths 1 to N-1: ``wn * (reward + tail) - (wa + wap)
* exposure``. The tail exposure weight ``wap`` only adds to ``wa``; no term
sees exposure beyond the horizon.

The observer's filter never sees actions, so its belief after an
observation history is the same under every action sequence. The planner
therefore builds the observer's belief tree once per decision, one node per
observation history that carries mass, and scores all action prefixes of a
depth at once: each prefix carries its joint law of (history, state) as a
row of one mass tensor. Every term is an exact finite sum, and the work per
depth is a fixed handful of array operations however many sequences there
are.

When the observer rules nothing out, no prefix is ever pruned and only the
exposure depends on the belief. The filter's posterior after history ``h``
is ``M_h o / (1 M_h o)``, with ``M_h`` the product of ``diag(q_y) pa``
along ``h``, so a prefix's exposure is a sum of ratios of linear functions
of the root belief ``o``. A decision then reads two tables built once per
root instead of walking the tree.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .belief import (
    ObservationModel,
    Observer,
    emitting,
    joint_step,
    open_observations,
    posterior_table,
)
from .errors import NoAdmissibleSequence, SizeOverflow
from .mdp import MdpModel, _check_weights

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
        horizon = self.horizon
        # a float horizon would score fractional depths; a bool is no count
        if type(horizon) is not int and not isinstance(horizon, np.integer):
            raise ValueError(f"horizon must be an integer, got {horizon!r}")
        if horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {horizon}")
        # a numpy integer would reach the CLI's plan log, which JSON cannot write
        object.__setattr__(self, "horizon", int(horizon))
        _check_weights(
            reward_weight=self.reward_weight,
            exposure_weight=self.exposure_weight,
            tail_exposure_weight=self.tail_exposure_weight,
        )


@dataclass(frozen=True)
class SequenceScore:
    """Objective breakdown of one fully scored action sequence."""

    actions: tuple[int, ...]
    reward_term: float
    tail_term: float
    detection_term: float
    objective: float


@dataclass(frozen=True, repr=False)
class PlanResult:
    """A view of the table :func:`plan` scored: ``_terms`` holds the
    parallel lists of the :class:`SequenceScore` fields, one row per scored
    sequence in the planner's order, and ``_best`` the winner's row, the
    first maximum of the objective. The winner's fields (``actions``,
    ``objective`` and its terms) read that row, ``tied`` is True when
    another row scored exactly the same, and ``sequences`` scores every
    row, built on first read. ``pruned`` holds every pruned prefix, each
    ending in its pruned action, in ascending order. The repr shows the
    winner's fields and ``pruned``."""

    pruned: tuple[tuple[int, ...], ...]
    _terms: tuple[list, ...] = field(hash=False)
    _best: int

    @property
    def actions(self) -> tuple[int, ...]:
        return self._terms[0][self._best]

    @property
    def first_action(self) -> int:
        return self._terms[0][self._best][0]

    @property
    def reward_term(self) -> float:
        return self._terms[1][self._best]

    @property
    def tail_term(self) -> float:
        return self._terms[2][self._best]

    @property
    def detection_term(self) -> float:
        return self._terms[3][self._best]

    @property
    def objective(self) -> float:
        return self._terms[4][self._best]

    @property
    def sequences_scored(self) -> int:
        return len(self._terms[0])

    @property
    def tied(self) -> bool:
        scores = self._terms[4]
        return scores.count(scores[self._best]) > 1

    @cached_property
    def sequences(self) -> tuple[SequenceScore, ...]:
        return tuple(map(SequenceScore, *self._terms))

    def __repr__(self) -> str:
        shown = (
            "actions", "objective", "reward_term", "tail_term", "detection_term",
            "sequences_scored", "tied", "pruned",
        )
        return f"PlanResult({', '.join(f'{k}={getattr(self, k)!r}' for k in shown)})"


def suggested_tail_weight_bound(config: PlannerConfig, discount: float) -> float:
    """Upper end, ``lam**N / (1 - lam**N) * wa``, of the ``wap`` range that
    :func:`plan` warns outside of. ``wap`` only adds to ``wa`` on in-horizon
    exposure; the bound is the geometric tail past the horizon, unscored."""
    dn = discount ** config.horizon
    return dn / (1.0 - dn) * config.exposure_weight


class _Node:
    """One node of a :class:`PlanMemo`: the action prefixes alive at one
    depth for one pruning history, with everything about them that does not
    depend on the observer's belief.

    ``src`` maps each prefix to the prefix it extends at the depth before,
    and ``live`` picks this depth's histories out of the previous depth's
    (history, observation) pairs. An inner node holds the prefixes' mass
    over (history, state) and ``reach[(prefix, u), (history, y)]``: action
    ``u`` after the prefix can make the agent emit ``y`` after the history.
    A leaf (the full horizon, or no prefix left) holds the terms of its
    scored sequences instead.
    """

    __slots__ = (
        "prefixes", "pruned", "src", "r_inside", "marginal", "live", "mass",
        "reach", "inside_terms", "tail_terms", "r_total", "children",
    )

    def __init__(self, prefixes, pruned, src, r_inside, marginal):
        self.prefixes = prefixes
        self.pruned = pruned
        self.src = src
        self.r_inside = r_inside
        self.marginal = marginal
        self.live = self.mass = self.reach = None
        self.inside_terms = self.tail_terms = self.r_total = None
        self.children: dict[bytes, _Node] = {}

    def nbytes(self) -> int:
        arrays = (
            self.src, self.r_inside, self.marginal, self.live, self.mass,
            self.reach, self.r_total,
        )
        return sum(a.nbytes for a in arrays if a is not None)


class _ClosedForm:
    """Every sequence's exposure from one root, as a function of the root
    belief ``o``, for an observer that rules nothing out.

    ``evidence[h] = 1 M_h`` stacks, over every history ``h`` of depths 1 to
    N-1, the row whose product with ``o`` is the chance of reading ``h``
    from ``o``, and ``exposure[p, (h, x)]`` is ``lam**depth(h) * mass[h] M_h``
    for the prefixes ``p`` of the last inner depth (their mass on ``h`` at
    its depth, carried forward through each node's ``src``). So
    ``exposure @ (o / evidence @ o)`` is each such prefix's discounted
    exposure, and ``leaf.src`` hands it to the scored sequences. With Y
    readings, ``exposure`` has at most ``Y / (Y - 1)`` times the entries of
    the last inner depth's mass tensor (N - 1 times when Y = 1).
    """

    __slots__ = ("leaf", "exposure", "evidence")

    def __init__(self, leaf, exposure, evidence):
        self.leaf = leaf
        self.exposure = exposure
        self.evidence = evidence

    def nbytes(self) -> int:
        # the leaf too, which outlives its trie when an insert clears it
        return self.exposure.nbytes + self.evidence.nbytes + self.leaf.nbytes()


class PlanMemo:
    """The belief-independent half of :func:`plan`, kept across calls.

    At each depth, only the node beliefs, the observations they rule out
    and so the pruned prefixes depend on the observer's belief ``o``. The
    prefixes, their mass over (history, state), the in-horizon reward, the
    open-loop state law and the terminal tail depend only on the start
    state, the horizon and which prefixes earlier depths pruned. The memo
    keeps them in a trie: roots are keyed by ``(x, horizon)`` and each
    node's children by the bytes of that depth's ``blocked`` table. For an
    observer that rules nothing out it also keeps each root's
    :class:`_ClosedForm`, under the same key. Its arrays take at most as
    many bytes as ``MAX_TREE_ENTRIES`` float64 entries; an insert past that
    clears it.

    A memo serves one ``(observer, values)``; :func:`plan` refuses it for
    others. ``values`` must be one finite number per state: a NaN would
    score every sequence NaN.
    """

    def __init__(self, observer: Observer, values: np.ndarray):
        self.observer = observer
        self.values = np.asarray(values, dtype=float)
        n = observer.model.num_states
        if self.values.shape != (n,) or not np.isfinite(self.values).all():
            raise ValueError(
                f"values must be {n} finite numbers, got {self.values.tolist()}"
            )
        self.roots: dict[tuple[int, int], _Node] = {}
        self.closed: dict[tuple[int, int], _ClosedForm] = {}
        self.nbytes = 0

    def serves(self, model: MdpModel, obs: ObservationModel, pa, values) -> bool:
        observer = self.observer
        return (
            model is observer.model and obs is observer.obs and pa is observer.pa
            and (values is self.values or np.array_equal(values, self.values))
        )

    def root(self, x: int, horizon: int) -> _Node:
        node = self.roots.get((x, horizon))
        if node is None:
            mass = np.zeros((1, 1, self.observer.model.num_states))
            mass[0, 0, x] = 1.0
            node = _Node([()], [], None, np.zeros(1), mass[0].copy())
            node.mass, node.reach = mass, emitting(mass, self.observer.emits)
            self._insert(self.roots, (x, horizon), node)
        return node

    def child(
        self, node: _Node, blocked: np.ndarray, depth: int, horizon: int
    ) -> _Node:
        """The node that ``blocked[prefix, u]`` leads to from ``node`` at
        ``depth``; raises :class:`SizeOverflow` before building a mass
        tensor beyond ``MAX_TREE_ENTRIES``."""
        key = blocked.tobytes()
        found = node.children.get(key)
        if found is not None:
            return found
        model, lam = self.observer.model, self.observer.model.discount
        kernels = model.transition.T  # kernels[u, x, x'] = p(x' | x, u)
        bad_p, bad_u = blocked.nonzero()
        prefixes = node.prefixes
        pruned = [prefixes[p] + (u,) for p, u in zip(bad_p.tolist(), bad_u.tolist())]
        src, act = (~blocked).nonzero()
        stage = (node.marginal @ model.reward)[src, act]
        r_inside = node.r_inside[src] + lam ** depth * stage
        prefixes = [prefixes[p] + (u,) for p, u in zip(src.tolist(), act.tolist())]
        # the open-loop state law one step on, summed over source states in
        # index order, so each row equals its own matrix-vector product
        marginal = (kernels[act] * node.marginal[src, :, None]).sum(axis=1)
        new = _Node(prefixes, pruned, src, r_inside, marginal)
        if depth == horizon - 1 or not len(src):
            r_tail = lam ** horizon * (marginal @ self.values)
            new.inside_terms, new.tail_terms = r_inside.tolist(), r_tail.tolist()
            new.r_total = r_inside + r_tail
        else:
            q = self.observer.obs.likelihood
            entries = len(src) * node.mass.shape[1] * q.size  # joint_step's branch tensor
            if entries > MAX_TREE_ENTRIES:
                raise SizeOverflow(
                    f"horizon {horizon} needs {entries} tree entries at depth "
                    f"{depth + 1} (cap {MAX_TREE_ENTRIES}); lower the horizon"
                )
            new.mass, new.live = joint_step(node.mass[src], kernels[act], q)
            new.reach = emitting(new.mass, self.observer.emits)
        self._insert(node.children, key, new)
        return new

    def closed_form(self, x: int, horizon: int) -> _ClosedForm:
        """The :class:`_ClosedForm` of root ``(x, horizon)``, built on first
        use by following :meth:`child` with all-False ``blocked`` tables to
        the leaf, so it shares the walk's nodes and raises
        :class:`SizeOverflow` where the walk does. Only for an observer that
        rules nothing out, which prunes nothing."""
        found = self.closed.get((x, horizon))
        if found is not None:
            return found
        q, pa = self.observer.obs.likelihood, self.observer.pa
        lam, num_actions = self.observer.model.discount, self.observer.model.num_actions
        node = self.root(x, horizon)
        # empty to start: at horizon 1 the root's one prefix has no exposure
        exposure = [np.zeros((1, 0))]
        evidence = [np.zeros((0, len(pa)))]
        steps = []  # (parent, reading) of each depth's histories
        for depth in range(horizon):
            blocked = np.zeros((len(node.mass), num_actions), bool)
            child = self.child(node, blocked, depth, horizon)
            if child.mass is None:
                break
            node = child
            exposure = [block[node.src] for block in exposure]
            steps.append(np.divmod(node.live, len(q)))
            # v M_h for each prefix's mass row v and for the ones row, one
            # factor diag(q_y) pa at a time from the last reading back
            rows = np.concatenate((node.mass, np.ones((1,) + node.mass.shape[1:])))
            at = np.arange(len(node.live))
            for parent, reading in reversed(steps):
                rows = (rows * q[reading[at]]) @ pa
                at = parent[at]
            exposure.append(lam ** (depth + 1) * rows[:-1].reshape(len(node.mass), -1))
            evidence.append(rows[-1])
        found = _ClosedForm(
            child, np.concatenate(exposure, axis=1), np.concatenate(evidence)
        )
        self._insert(self.closed, (x, horizon), found)
        return found

    def _insert(self, table: dict, key, node: _Node | _ClosedForm) -> None:
        size = node.nbytes()
        if self.nbytes + size > MAX_TREE_ENTRIES * 8:
            self.roots.clear()
            self.closed.clear()
            self.nbytes = 0
        table[key] = node
        self.nbytes += size


def plan(
    model: MdpModel,
    obs: ObservationModel,
    pa: np.ndarray,
    values: np.ndarray,
    x: int,
    o: np.ndarray,
    config: PlannerConfig,
    *,
    memo: PlanMemo | None = None,
) -> PlanResult:
    """Score every admissible sequence on the observer's belief tree and
    return the best (ties go to the lexicographically first, with ``tied``
    set when another sequence scored exactly the same).

    The tree is built one depth at a time: its nodes are the observation
    histories that carry mass, and every live action prefix advances its
    mass tensor ``mass[prefix, history, x]`` over them at once with
    :func:`belief.joint_step`. Everything that does not depend on ``o``
    comes from ``memo`` (a :class:`PlanMemo` whose observer holds the same
    model, sensor and chain, and the same values), or from a fresh one when
    none is given. ``o`` must be a distribution (:meth:`Observer.check`).

    A call computes the rest in one of two ways:

    - When the observer rules nothing out (``Observer.rules_out_nothing``),
      it rules nothing out from ``o`` or from any posterior, so nothing is
      pruned, and the exposure of every sequence is read from the root's
      closed-form tables (:meth:`PlanMemo.closed_form`) in a few array
      operations. Its last digits may differ from the walk's, which divides
      by the predictive at every depth rather than once.
    - Otherwise the call walks the tree: at each depth one batched
      :func:`posterior_table` call (only the open observations at the
      last) and one admissibility product, whose ``blocked`` table keys
      the memo's child.

    The :class:`PlanResult` is a view of the scored table: it keeps the
    term lists and the winner's row, and ``sequences`` is built only when
    read. The tail-weight warning (:func:`suggested_tail_weight_bound`) is
    checked only when ``wap`` is not 0, as ``wap = 0`` lies in its range
    whenever ``wa >= 0``.

    Raises :class:`NoAdmissibleSequence`, with the pruned prefixes, when
    every sequence is pruned, and
    :class:`SizeOverflow` before a depth's tensors would exceed
    ``MAX_TREE_ENTRIES``.
    """
    if config.tail_exposure_weight != 0.0 and config.exposure_weight >= 0.0:
        hi = suggested_tail_weight_bound(config, model.discount)
        if not 0.0 <= config.tail_exposure_weight <= hi + 1e-12:
            warnings.warn(
                f"tail exposure weight {config.tail_exposure_weight} outside "
                f"the suggested range [0, {hi}]",
                RuntimeWarning,
                stacklevel=2,
            )
    if memo is None:
        memo = PlanMemo(Observer(model, obs, pa), values)
    elif not memo.serves(model, obs, pa, values):
        raise ValueError("memo was built for another observer or value function")
    observer = memo.observer
    o = observer.check(x, o)
    horizon = config.horizon
    penalty_weight = config.exposure_weight + config.tail_exposure_weight
    if observer.rules_out_nothing:  # ex1-rho: about half the walk's time
        closed = memo.closed_form(x, horizon)
        node, pruned = closed.leaf, ()
        # ndarray.dot: the products of ``@`` without its dispatch. The
        # exposure is not indexed by src first: BLAS may round equal rows
        # differently by their position
        weights = (o / closed.evidence.dot(o)[:, None]).ravel()
        r_exposed = closed.exposure.dot(weights)[node.src]
    else:
        node, r_exposed, pruned = _walk_tree(memo, x, o, horizon)
    objective = config.reward_weight * node.r_total - penalty_weight * r_exposed
    exposed, scores = r_exposed.tolist(), objective.tolist()
    # empty unless some prefix survived to the full horizon
    terms = node.prefixes, node.inside_terms, node.tail_terms, exposed, scores
    if not node.prefixes:
        raise NoAdmissibleSequence(
            f"no admissible action sequence of length {horizon} from state x={x}",
            pruned,
        )
    # np.argmax's first maximum, picked from the list
    return PlanResult(pruned, terms, scores.index(max(scores)))


def _walk_tree(
    memo: PlanMemo, x: int, o: np.ndarray, horizon: int
) -> tuple[_Node, np.ndarray, tuple[tuple[int, ...], ...]]:
    """Follow the belief tree from ``(x, o)`` to the leaf of the prefixes
    that survive: one :func:`posterior_table` call per depth but the last
    (which needs only the open observations). Returns the leaf, the scored
    sequences' discounted exposure and the pruned prefixes, sorted."""
    observer = memo.observer
    n, lam = len(o), observer.model.discount
    node = memo.root(x, horizon)
    beliefs = o[None, :]
    r_exposed = np.zeros(1)
    pruned: list[tuple[int, ...]] = []
    for depth in range(horizon):
        if depth == horizon - 1:
            # no posteriors past the horizon; on grid-rho, 0.6 the cost
            open_y = open_observations(observer, beliefs)
        else:
            posteriors, _, open_y = posterior_table(observer, beliefs)
        # A history reached through an observation its parent rules out
        # carries memoized mass (only where an emission probability is at
        # most EPS_ZERO) but no belief: its posterior row is zero, so it adds
        # no exposure, and it leaves nothing open, so its row rules nothing
        # out and blocks nothing
        ruled_out = ~open_y & open_y.any(axis=1)[:, None]
        blocked = (node.reach @ ruled_out.ravel()).reshape(len(node.mass), -1)
        node = memo.child(node, blocked, depth, horizon)
        pruned += node.pruned
        r_exposed = r_exposed[node.src]
        if node.mass is None:
            break
        beliefs = posteriors.reshape(-1, n)[node.live]
        exposed = (node.mass * beliefs).reshape(len(node.mass), -1).sum(axis=1)
        r_exposed += lam ** (depth + 1) * exposed
    return node, r_exposed, tuple(sorted(pruned))
