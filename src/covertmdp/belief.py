"""Observer-side inference: observation model, recursive Bayesian filter,
prohibited/admissible action sets, and the joint state-belief transition law.

The observer cannot see actions. It filters against the Markov chain induced
by the nominal policy, so the filter map depends only on that chain ``pa``
and the likelihood table. An action of the controlled agent is *prohibited*
at ``(x, o)`` when it could generate an observation to which the observer's
one-step predictive assigns (numerically) zero probability; such an
observation would make the filter update undefined and reveal the deviation.

As the filter is action-blind, the observer's belief is a function of the
observation history alone, so the joint law of (agent state, belief) is mass
over (history, state). :func:`joint_step` is its one propagation routine:
the planner rolls it over the horizon, and
:func:`augmented_transition_support` is one step of it from a point law.

An :class:`Observer` is the adversary of one (model, sensor, chain): it holds
the tables that depend on nothing else, built once and shared by the planner,
the lattice lookahead and the simulator step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import IllDefinedUpdate, ModelFormatError, ProhibitedAction
from .mdp import (
    STOCHASTIC_TOL,
    MdpModel,
    _check_fields,
    _check_integer,
    _integer_problem,
    _read_json_object,
    _readonly,
    _stochastic_problems,
    _table_field,
    _write_json,
)

# Threshold below which a probability is treated as an exact zero. All
# quantities compared against it are finite sums of products of model
# probabilities, so true zeros carry only accumulated rounding noise.
EPS_ZERO = 1e-12

BELIEF_L1_TOL = 1e-9


@dataclass(frozen=True)
class ObservationModel:
    """Likelihood table ``likelihood[y, x] = q(y | x)``, one row per
    observation; the constructor refuses a column that is not a distribution."""

    num_observations: int
    likelihood: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "likelihood", _readonly(self.likelihood))
        problems = _observation_problems(self.num_observations, self.likelihood)
        if problems:
            raise ModelFormatError(problems)
        # as a Python int, which JSON can write
        object.__setattr__(self, "num_observations", int(self.num_observations))


def _observation_problems(k: int, likelihood: np.ndarray) -> list[str]:
    """Every way the fields of an :class:`ObservationModel` break its
    definition; empty when they make a sensor."""
    problem = _integer_problem(k, "num_observations", 1)
    if problem:
        return [problem]
    expected = (k, *likelihood.shape[-1:])  # a table of any other depth differs
    if likelihood.shape != expected:
        return [f"likelihood shape {likelihood.shape} != expected {expected}"]
    return _stochastic_problems(
        likelihood, "likelihood q({}|{})", "likelihood column x={}"
    )


def make_belief(probs) -> np.ndarray:
    """Validate and renormalize a belief vector.

    Accepts vectors whose l1 mass deviates from 1 by at most ``BELIEF_L1_TOL``
    (drift from long filter runs) and whose entries lie in
    ``[-EPS_ZERO, 1 + BELIEF_L1_TOL]``; negative entries within ``EPS_ZERO``
    of zero (rounding noise) are clipped to 0 before the renormalization.
    Anything else is rejected so genuine bugs are not papered over. So are
    NaN and infinite entries, which every comparison below would let through.
    """
    o = np.asarray(probs, dtype=float).copy()
    if o.ndim != 1:
        raise ValueError(f"belief must be a vector, got shape {o.shape}")
    if not np.isfinite(o).all():
        raise ValueError(f"belief entries not finite: {o.tolist()}")
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
    _check_integer(x, "state x", 0, num_states)
    o = np.zeros(num_states)
    o[x] = 1.0
    return make_belief(o)


def bayes_update(observer: Observer, o: np.ndarray, y: int) -> np.ndarray:
    """One predict-update step of ``observer``'s filter: row ``y`` of
    :func:`posterior_table`, by the same arithmetic.

    Raises ``ValueError`` for a reading that is not an integer in ``[0, Y)``
    (:func:`mdp._check_integer`), and :class:`IllDefinedUpdate` when the
    predictive probability of ``y`` is not above EPS_ZERO, by the filter's
    own zero test (NaN, from a belief holding NaN, included); callers
    prevent that by restricting the agent to admissible actions.
    """
    _check_integer(y, "observation y", 0, observer.obs.num_observations)
    numer = observer.obs.likelihood[y] * (observer.pa @ o)
    # numer.sum()'s reduction, without its Python-level wrapper
    denom = np.add.reduce(numer)
    if not denom > EPS_ZERO:
        raise IllDefinedUpdate(
            f"observation y={y} has predictive probability {float(denom)!r}"
        )
    post = numer / denom
    post.setflags(write=False)
    return post


def posterior_table(
    observer: Observer, beliefs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``observer``'s filter step for every observation at once, batched
    over beliefs.

    ``beliefs`` is one belief ``(n,)`` or a stack ``(G, n)``. Returns
    ``(posteriors, predictive, open_y)`` shaped ``(..., Y, n)``, ``(..., Y)``
    and ``(..., Y)``: the updated belief after each observation, the
    one-step predictive, and which observations the predictive allows
    (mass above EPS_ZERO). The posteriors are the joint numerators divided
    in place by the predictive; a ruled-out observation's row is divided by
    infinity instead, which zeroes it, and must not be used. ``beliefs``
    must be distributions: an observer that rules nothing out then leaves
    every row open, and its rows are divided by the predictive directly.
    """
    numer, predictive, open_y = _joint_predictive(observer, beliefs)
    if observer.rules_out_nothing:
        numer /= predictive[..., None]
    else:
        numer /= np.where(open_y, predictive, np.inf)[..., None]
    return numer, predictive, open_y


def open_observations(observer: Observer, beliefs: np.ndarray) -> np.ndarray:
    """:func:`posterior_table`'s ``open_y`` alone, by the same arithmetic,
    for callers that need no posteriors."""
    return _joint_predictive(observer, beliefs)[2]


def _joint_predictive(
    observer: Observer, beliefs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``numer[..., y, x'] = q(y | x') (pa o)(x')``, its sum over ``x'`` (the
    one-step predictive) and the observations the predictive leaves open:
    the filter's one zero test."""
    pred_states = (observer.pa @ np.asarray(beliefs, dtype=float).T).T
    numer = observer.obs.likelihood * pred_states[..., None, :]
    # numer.sum(axis=-1)'s reduction, without its Python-level wrapper
    predictive = np.add.reduce(numer, axis=-1)
    return numer, predictive, predictive > EPS_ZERO


@dataclass(frozen=True, eq=False)
class Observer:
    """The observer of one model, sensor ``obs`` and nominal chain ``pa``,
    with the tables that depend on nothing else; compared by identity.

    ``emission[u, x, y] = sum_x' p(x'|x,u) q(y|x')`` is the chance that
    action ``u`` in state ``x`` makes the next state emit ``y``, built once
    here; ``emits`` marks where it exceeds EPS_ZERO. The lattice
    lookahead's kernel ``kernel[x, u, y, x'] = q(y|x') p(x'|x,u)`` is built
    on first read, so callers that never read it (the planner and the
    simulator step) never hold its X²·U·Y entries. So are the simulator
    step's running sums, :attr:`successor_cdf` and :attr:`reading_cdf`.

    The model and the sensor checked themselves when they were built. The
    sensor must cover the model's ``n`` states, and the chain ``pa`` must be
    ``(n, n)`` with columns that are distributions, by the same check
    (:func:`mdp._stochastic_problems`); anything else is a
    :class:`ModelFormatError`.

    ``rules_out_nothing`` is True when no belief that :meth:`check` accepts
    can rule an observation out, and the lattice lookahead finds mass behind
    every action: ``min q * (1 - STOCHASTIC_TOL)`` exceeds ``4 * EPS_ZERO``.
    Proof: every column of ``pa`` and of ``p`` is a distribution, so lies in
    ``[0, 1]`` and sums to at least ``1 - STOCHASTIC_TOL``. For a belief
    ``b >= 0``, ``predictive(y) = sum_x' q(y|x') sum_x pa[x', x] b[x] >=
    min q * (1 - STOCHASTIC_TOL) * sum(b)``, which is above ``2 * EPS_ZERO``
    once ``sum(b) >= 1/2``. Every term of those sums is nonnegative and, as
    ``sum(b) <= 2``, at most ``2n``, so nothing overflows, rounding moves
    the computed predictive by a relative ``(2n + 2) * 2**-53`` at most and
    underflow by far less than ``EPS_ZERO``: it stays above ``EPS_ZERO``.
    With every observation open, the lattice's mass of action ``u`` at
    ``x`` is ``sum_y sum_x' q(y|x') p(x'|x,u) >= min q * (1 -
    STOCHASTIC_TOL) > 4 * EPS_ZERO``, a sum of nonnegative terms of at most
    1 that rounding cannot take below ``EPS_ZERO`` either.
    """

    model: MdpModel
    obs: ObservationModel
    pa: np.ndarray
    emission: np.ndarray = field(init=False, repr=False)
    emits: np.ndarray = field(init=False, repr=False)
    rules_out_nothing: bool = field(init=False)

    def __post_init__(self):
        pa, q, p = self.pa, self.obs.likelihood, self.model.transition
        n = self.model.num_states
        if q.shape[1] != n:
            raise ModelFormatError([f"likelihood covers {q.shape[1]} states, not {n}"])
        if pa.shape != (n, n):
            raise ModelFormatError([f"chain pa has shape {pa.shape}, not {(n, n)}"])
        problems = _stochastic_problems(
            pa, "chain entry pa[{},{}]", "chain column pa[:, {}]"
        )
        if problems:
            raise ModelFormatError(problems)
        object.__setattr__(self, "emission", np.inner(p.T, q))
        object.__setattr__(self, "emits", self.emission > EPS_ZERO)
        object.__setattr__(self, "rules_out_nothing", bool(
            q.min() * (1.0 - STOCHASTIC_TOL) > 4 * EPS_ZERO
        ))

    @cached_property
    def kernel(self) -> np.ndarray:
        return np.einsum("yz,zxu->xuyz", self.obs.likelihood, self.model.transition)

    @cached_property
    def successor_cdf(self) -> list[list[list[float]]]:
        """``successor_cdf[x][u]``: the running sums of ``p(. | x, u)`` over
        the successor states, as Python floats that ``bisect`` searches
        without converting."""
        return np.cumsum(self.model.transition, axis=0).transpose(1, 2, 0).tolist()

    @cached_property
    def reading_cdf(self) -> list[list[float]]:
        """``reading_cdf[x]``: the running sums of ``q(. | x)`` over the
        readings, as Python floats."""
        return np.cumsum(self.obs.likelihood, axis=0).T.tolist()

    def check(self, x: int | None, o) -> np.ndarray:
        """``o`` as a float array, once state ``x`` is known to be an index
        in ``[0, n)`` (:func:`mdp._check_integer`; None skips the test) and ``o``
        to be a distribution over the ``n`` states (:func:`_check_belief`)."""
        n = self.model.num_states
        if x is not None:
            _check_integer(x, "state x", 0, n)
        return _check_belief(o, n)


def _check_belief(o, n: int) -> np.ndarray:
    """``o`` as a float array, once it is known to be a distribution over
    ``n`` states: shaped ``(n,)``, no entry negative or non-finite and its
    mass within ``BELIEF_L1_TOL`` of 1. It is not renormalized."""
    o = np.asarray(o, dtype=float)
    if o.shape != (n,):
        raise ValueError(f"belief shape {o.shape} does not match {n} states")
    mass = o.tolist()
    # the sum is NaN when any entry is, and no comparison holds for NaN;
    # min alone would pass a NaN that is not first
    if min(mass) < 0.0 or not abs(sum(mass) - 1.0) <= BELIEF_L1_TOL:
        raise ValueError(f"belief {mass} is not a distribution")
    return o


def admissible_actions(observer: Observer, x: int, o: np.ndarray) -> list[int]:
    """Actions at ``(x, o)`` that cannot surprise the observer, ascending.

    ``u`` is prohibited iff some observation has positive probability under
    the agent's true successor distribution but numerically zero probability
    under the observer's predictive.
    """
    o = observer.check(x, o)
    if observer.rules_out_nothing:  # ex1-rho, lattice-6s steps: 1/7 the test below
        return list(range(observer.model.num_actions))
    blocked = blocked_actions(observer, open_observations(observer, o), x)
    return [u for u in range(observer.model.num_actions) if not blocked[u]]


def blocked_actions(
    observer: Observer, open_y: np.ndarray, sources=slice(None)
) -> np.ndarray:
    """``blocked[..., x, u]``: action ``u`` at source state ``x`` can make
    the next state emit a reading that ``open_y[..., y]`` rules out.

    ``open_y`` is one belief's open readings ``(Y,)`` or a stack ``(B, Y)``
    (:func:`posterior_table`); ``sources`` picks the source states, and a
    single state drops that axis.
    """
    return (observer.emits[:, sources] @ ~open_y.T).T


def open_mass(
    observer: Observer, open_y: np.ndarray, sources=slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """``mass[b, x, u]``, the chance that action ``u`` at source state ``x``
    makes the next state emit a reading that belief ``b`` leaves open
    (``open_y``, a stack ``(B, Y)``), and where that mass is above EPS_ZERO."""
    mass = np.einsum(
        "uxy,by->bxu", observer.emission[:, sources], open_y.astype(float)
    )
    return mass, mass > EPS_ZERO


def joint_step(
    mass: np.ndarray, kernels: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One step of the joint law ``mass[r, h, x]`` of (observation history,
    agent state), one law per row ``r`` (an action prefix, say).

    Row ``r`` moves by ``kernels[r, x, x'] = p(x' | x, u_r)`` and history
    ``h`` branches over the reading ``y`` of the successor state into
    ``h * Y + y``. Returns ``(next_mass, live)``: ``live`` lists, ascending,
    the branched histories that carry mass in some row, and
    ``next_mass[r, i, x']`` is row ``r``'s mass on ``live[i]`` and ``x'``.
    """
    branch = (mass @ kernels)[:, :, None, :] * q
    branch = branch.reshape(len(mass), -1, mass.shape[-1])
    # keep only the histories some row reaches; the full tree has Y**depth
    # of them, most empty on sparse models
    live = branch.any(axis=(0, 2)).nonzero()[0]
    return branch[:, live], live


def emitting(mass: np.ndarray, support: np.ndarray) -> np.ndarray:
    """``emits[(r, u), (h, y)]``: some state that row ``r`` of the joint
    law ``mass[r, h, x]`` occupies after history ``h`` can emit ``y`` under
    action ``u``, by the full :attr:`Observer.emits` table ``support``.
    Its product with a flat ruled-out mask ``(h, y)`` marks the blocked
    ``(r, u)``.
    """
    # counts of emitting (state, action) pairs, positive exactly where the
    # boolean product is true; as floats the contraction runs in BLAS
    reach = np.einsum(
        "rhx,uxy->ruhy", (mass > 0.0).astype(float), support.astype(float),
        optimize=True,
    ) > 0.0
    return reach.reshape(reach.shape[0] * reach.shape[1], -1)


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
    observer: Observer, x: int, o: np.ndarray, u: int
) -> AugmentedSupport:
    """Closed-form support of the joint (state, belief) transition: one
    :func:`joint_step` from the point law on ``(x, o)`` under ``u``.

    One atom per (observation, successor state) pair with positive
    probability, carrying that observation's posterior; atoms with equal
    posteriors are not merged. Raises ``ValueError`` for an action that is
    not an integer in ``[0, U)`` (:func:`mdp._check_integer`) and
    :class:`ProhibitedAction` when ``u`` is not admissible at ``(x, o)``.
    """
    o = observer.check(x, o)
    model = observer.model
    _check_integer(u, "action u", 0, model.num_actions)
    posteriors, _, open_y = posterior_table(observer, o)
    surprising = np.flatnonzero(observer.emits[u, x] & ~open_y)
    if surprising.size:
        raise ProhibitedAction(
            f"action u={u} at state x={x} can emit observation y={surprising[0]} "
            f"which the observer's predictive rules out"
        )
    mass = np.zeros((1, 1, model.num_states))
    mass[0, 0, x] = 1.0
    step, ys = joint_step(mass, model.transition.T[u][None], observer.obs.likelihood)
    # drop the (at most EPS_ZERO) mass on observations the observer rules out
    keep = open_y[ys]
    step, ys = step[0, keep], ys[keep]
    i, xp = np.nonzero(step)
    return AugmentedSupport(xp, posteriors[ys[i]], step[i, xp])


# ---------------------------------------------------------------------------
# observation model files

_OBS_KEYS = {"num_observations", "likelihood"}


def observation_from_dict(doc: dict, num_states: int | None = None) -> ObservationModel:
    """Build a sensor from the on-disk dict layout; :class:`ObservationModel`
    checks it, after one over other ``num_states`` is refused by shape alone."""
    _check_fields(doc, _OBS_KEYS)
    likelihood = _table_field(doc, "likelihood", "[observation][state]")
    k = doc["num_observations"]
    if (num_states is not None and _integer_problem(k, "num_observations", 1) is None
            and likelihood.shape != (k, num_states)):
        raise ModelFormatError(
            [f"likelihood shape {likelihood.shape} != expected {(k, num_states)}"]
        )
    return ObservationModel(k, likelihood)


def load_observation_file(path: str | Path, num_states: int | None = None) -> ObservationModel:
    return observation_from_dict(_read_json_object(path), num_states)


def save_observation_file(obs: ObservationModel, path: str | Path) -> None:
    _write_json(
        {"num_observations": obs.num_observations, "likelihood": obs.likelihood.tolist()},
        path,
    )
