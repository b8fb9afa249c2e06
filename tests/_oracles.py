"""Independent reference implementations used to check the package.

Everything here is written from first principles with a different
algorithmic shape than the library (explicit loops, linear solves, full
path enumeration) so that agreement between the two is meaningful.
"""

import itertools
from fractions import Fraction

import numpy as np


def forward_filter_step(pa, q, belief, y):
    """One step of the classic HMM forward algorithm.

    Predict with the chain, weight by the emission row, renormalize.
    """
    predicted = np.zeros(len(belief))
    for nxt in range(len(belief)):
        for src in range(len(belief)):
            predicted[nxt] += pa[nxt, src] * belief[src]
    weighted = np.array([q[y, s] * predicted[s] for s in range(len(belief))])
    total = weighted.sum()
    if total <= 0.0:
        raise ZeroDivisionError("observation has zero predicted probability")
    return weighted / total


def forward_filter(pa, q, belief, observations):
    """Run the forward algorithm over a whole observation sequence."""
    trajectory = []
    for y in observations:
        belief = forward_filter_step(pa, q, belief, y)
        trajectory.append(belief.copy())
    return trajectory


def enumerate_deterministic_policies(num_states, num_actions):
    return list(itertools.product(range(num_actions), repeat=num_states))


def policy_value_linear_solve(transition, reward, discount, assignment):
    """Exact value of one deterministic policy via (I - lam*P)^-1 r."""
    n = reward.shape[0]
    chain = np.zeros((n, n))
    pay = np.zeros(n)
    for s, a in enumerate(assignment):
        chain[:, s] = transition[:, s, a]
        pay[s] = reward[s, a]
    return np.linalg.solve(np.eye(n) - discount * chain.T, pay)


def best_value_by_enumeration(transition, reward, discount):
    """Optimal value function as the pointwise-best deterministic policy.

    For a finite discounted MDP some deterministic policy is optimal, so
    the optimal value is the componentwise maximum over all of them.
    """
    n, num_u = reward.shape
    best = np.full(n, -np.inf)
    for assignment in enumerate_deterministic_policies(n, num_u):
        v = policy_value_linear_solve(transition, reward, discount, assignment)
        best = np.maximum(best, v)
    return best


def nominal_value_iteration_reference(transition, reward, discount, tol, max_iter):
    """Nominal value iteration from the zero table, written with numpy's
    wrapped reductions (``.max``, ``np.max``) and an out-of-place backup
    ``reward + discount * future``: the library's arithmetic in another
    form, so its ``(values, residual, sweeps)`` must match bit for bit."""
    values = np.zeros(reward.shape[0])
    residual, sweeps = np.inf, 0
    for sweeps in range(1, max_iter + 1):
        future = np.einsum("dsa,d->sa", transition, values)
        updated = (reward + discount * future).max(axis=1)
        residual = float(np.max(np.abs(updated - values)))
        values = updated
        if residual <= tol:
            break
    return values, residual, sweeps


def stationary_reward_rate(transition, reward, discount, assignment):
    """Long-run average reward of a deterministic policy's chain."""
    n = reward.shape[0]
    chain = np.zeros((n, n))
    for s, a in enumerate(assignment):
        chain[:, s] = transition[:, s, a]
    eigvals, eigvecs = np.linalg.eig(chain)
    k = int(np.argmin(np.abs(eigvals - 1.0)))
    pi = np.real(eigvecs[:, k])
    pi = pi / pi.sum()
    pay = np.array([reward[s, assignment[s]] for s in range(n)])
    return float(pi @ pay)


def sequence_terms_by_path_enumeration(
    transition, reward, discount, q, pa, values, x0, o0, actions, posteriors=None
):
    """Score one open-loop action sequence by brute force.

    Enumerates every joint path (x_1..x_N, y_1..y_N) with its exact
    probability, carrying the observer posterior along each observation
    prefix (the filter never sees actions or states, so the posterior is
    computed once per prefix), and accumulates the three objective pieces:

      inside-horizon reward  sum_{tau<N}  lam^tau R(x_tau, u_tau)
      terminal tail          lam^N E[values(x_N)]
      exposure               sum_{1<=tau<N} lam^tau E[o_tau(x_tau)]

    Exposure at tau=0 and tau=N is deliberately not counted, matching the
    planner's objective. Returns (reward_term, tail_term, exposure_term).
    `posteriors`, when given, is a dict of the posteriors by history from
    `o0`, filled in here and shared by calls that score from the same root.
    """
    n = len(o0)
    num_y = q.shape[0]
    horizon = len(actions)

    reward_term = reward[x0, actions[0]]
    tail_term = 0.0
    exposure_term = 0.0

    if posteriors is None:
        posteriors = {}
    posteriors.setdefault((), np.asarray(o0, dtype=float))
    paths = [(1.0, x0, ())]
    for tau in range(1, horizon + 1):
        u_prev = actions[tau - 1]
        grown = []
        for prob, x, history in paths:
            for x_next in range(n):
                p_x = transition[x_next, x, u_prev]
                if p_x == 0.0:
                    continue
                for y in range(num_y):
                    p_y = q[y, x_next]
                    if p_y == 0.0:
                        continue
                    longer = history + (y,)
                    if longer not in posteriors:
                        posteriors[longer] = forward_filter_step(
                            pa, q, posteriors[history], y
                        )
                    grown.append((prob * p_x * p_y, x_next, longer))
        paths = grown
        scale = discount ** tau
        if tau < horizon:
            reward_term += scale * sum(
                p * reward[x, actions[tau]] for p, x, _ in paths
            )
            exposure_term += scale * sum(p * posteriors[h][x] for p, x, h in paths)
        else:
            tail_term = scale * sum(p * values[x] for p, x, _ in paths)
    return reward_term, tail_term, exposure_term


def lattice_compositions(grid):
    """Row g: the integer composition of `grid.resolution` that lattice
    point g scales, recovered from its coordinates (exact for the small
    integers a lattice holds)."""
    return np.rint(grid.points * grid.resolution).astype(np.int64)


def freudenthal_by_definition(belief, resolution):
    """Freudenthal simplex (Lovejoy 1991) of `belief` on the lattice of
    compositions of `resolution`, by explicit loops.

    Returns {composition: weight} over the vertices of positive weight. In
    suffix-sum coordinates (x[j] = resolution * sum of belief[j:], summed
    from the back, with x[0] = resolution) the lattice is the integer grid.
    Coordinates within 1e-10 of an integer are snapped to it. Coordinates
    1.. are sorted by fractional part, descending, ties by index; vertex k
    is the floor with the first k sorted coordinates raised by one, and it
    weighs the drop in fractional part between sorted places k-1 and k.
    """
    n = len(belief)
    x = [0.0] * n
    tail = 0.0
    for j in reversed(range(n)):
        tail += belief[j]
        x[j] = resolution * tail
    x[0] = float(resolution)
    for j in range(n):
        if abs(x[j] - round(x[j])) <= 1e-10:
            x[j] = float(round(x[j]))
    floor = [int(np.floor(v)) for v in x]
    frac = [x[j] - floor[j] for j in range(n)]
    order = sorted(range(1, n), key=lambda j: (-frac[j], j))
    drops = [1.0] + [frac[j] for j in order] + [0.0]
    out = {}
    tails = list(floor)
    for k in range(n):
        if k > 0:
            tails[order[k - 1]] += 1
        weight = drops[k] - drops[k + 1]
        if weight > 0.0:
            comp = [tails[j] - tails[j + 1] for j in range(n - 1)] + [tails[-1]]
            out[tuple(comp)] = weight
    return out


def composition_count(total, bins):
    """Number of ways to split `total` into `bins` ordered nonneg parts."""
    from math import comb

    return comb(total + bins - 1, bins - 1)


def random_sane_model(rng, num_states, num_actions, num_obs, sharp=False):
    """A random MDP + observation pair with strictly positive kernels.

    Dirichlet columns keep everything stochastic; `sharp` concentrates the
    observation likelihood so beliefs move decisively.
    """
    transition = np.zeros((num_states, num_states, num_actions))
    for u in range(num_actions):
        for s in range(num_states):
            transition[:, s, u] = rng.dirichlet(np.ones(num_states))
    reward = rng.uniform(0.0, 1.0, size=(num_states, num_actions))
    alpha = 0.3 if sharp else 1.0
    likelihood = np.zeros((num_obs, num_states))
    for s in range(num_states):
        likelihood[:, s] = rng.dirichlet(np.full(num_obs, alpha))
    return transition, reward, likelihood


def random_sparse_model(rng, num_states, num_actions, num_obs):
    """A random MDP, sensor and observer chain with exact zeros.

    Every column is stochastic; roughly half its entries are exactly zero and
    the rest lie in [0.1, 1] before normalization, so every product of a few
    entries is either exactly zero or far above the library's zero threshold.
    That keeps "can this observation occur" an unambiguous question.
    Returns (transition, reward, likelihood, observer_chain).
    """

    def columns(rows, cols):
        w = rng.uniform(0.1, 1.0, size=(rows, cols))
        w *= rng.random((rows, cols)) < 0.5
        keep = rng.integers(rows, size=cols)
        w[keep, np.arange(cols)] = rng.uniform(0.1, 1.0, size=cols)
        return w / w.sum(axis=0)

    transition = np.stack(
        [columns(num_states, num_states) for _ in range(num_actions)], axis=2
    )
    reward = rng.uniform(0.0, 1.0, size=(num_states, num_actions))
    likelihood = columns(num_obs, num_states)
    chain = columns(num_states, num_states)
    return transition, reward, likelihood, chain


def admissible_by_definition(transition, likelihood, chain, x, belief):
    """Actions at (x, belief) that cannot produce an observation the
    observer's one-step predictive gives zero probability, by explicit loops."""
    n = len(belief)
    num_obs = likelihood.shape[0]
    predicted = [
        sum(chain[d, s] * belief[s] for s in range(n)) for d in range(n)
    ]
    ruled_out = [
        sum(likelihood[y, d] * predicted[d] for d in range(n)) == 0.0
        for y in range(num_obs)
    ]
    allowed = []
    for u in range(transition.shape[2]):
        possible = [
            any(transition[d, x, u] * likelihood[y, d] > 0.0 for d in range(n))
            for y in range(num_obs)
        ]
        if not any(p and r for p, r in zip(possible, ruled_out)):
            allowed.append(u)
    return allowed


def joint_support_by_definition(transition, likelihood, chain, x, belief, u):
    """Atoms (successor state, probability, posterior) of the joint (state,
    belief) law one step after action u at (x, belief), by explicit loops:
    one per (observation, successor state) pair of positive probability.
    None when u is not admissible by definition."""
    if u not in admissible_by_definition(transition, likelihood, chain, x, belief):
        return None
    atoms = []
    for y in range(likelihood.shape[0]):
        for d in range(len(belief)):
            p = transition[d, x, u] * likelihood[y, d]
            if p > 0.0:
                posterior = forward_filter_step(chain, likelihood, belief, y)
                atoms.append((d, p, posterior))
    return atoms


def pruned_prefixes_by_definition(
    transition, likelihood, chain, x0, o0, horizon
):
    """Minimal action prefixes (length <= horizon) whose last action can emit
    an observation the observer's predictive rules out, by path enumeration.

    Enumerates the (state, belief) pairs each prefix reaches with positive
    probability, carrying the posterior along each observation path, and
    flags action u after a prefix when u is inadmissible by definition at
    one of them. Prefixes that extend a flagged one are not visited.
    """
    n = len(o0)
    num_obs = likelihood.shape[0]
    num_u = transition.shape[2]
    pruned = set()
    # the filter never sees actions or states: one posterior per history
    posteriors = {(): np.asarray(o0, dtype=float)}
    allowed = {}

    def admissible(x, history):
        if (x, history) not in allowed:
            allowed[x, history] = admissible_by_definition(
                transition, likelihood, chain, x, posteriors[history]
            )
        return allowed[x, history]

    def visit(prefix, pairs):
        for u in range(num_u):
            if any(u not in admissible(x, h) for x, h in pairs):
                pruned.add(prefix + (u,))
            elif len(prefix) + 1 < horizon:
                reached = {}
                for x, h in pairs:
                    for x_next in range(n):
                        for y in range(num_obs):
                            if transition[x_next, x, u] * likelihood[y, x_next] > 0.0:
                                longer = h + (y,)
                                if longer not in posteriors:
                                    posteriors[longer] = forward_filter_step(
                                        chain, likelihood, posteriors[h], y
                                    )
                                reached[x_next, longer] = None
                visit(prefix + (u,), list(reached))

    visit((), [(x0, ())])
    return pruned

def lattice_lookahead_by_definition(
    transition, reward, discount, likelihood, chain, grid, values,
    reward_weight, exposure_weight, x, belief, relax,
):
    """One-step lattice lookahead at (x, belief) for every action, by loops.

    For action u: wn R(x, u) - wa belief[x] + lam * sum over open readings
    y and successors x' of p(x'|x,u) q(y|x') V(x', posterior after y), with
    V read between lattice points on the simplex that
    `freudenthal_by_definition` finds, each vertex looked up by its
    composition in `lattice_compositions(grid)`. Inadmissible actions score -inf.
    With `relax`, a point where no action is admissible uses every action
    instead, renormalizing the mass it puts on open readings (an action
    with none scores -inf). Readings count as open when their predictive is
    exactly positive, which is unambiguous on `random_sparse_model` models
    and on smooth sensors.
    """
    n = len(belief)
    index = {tuple(c): g for g, c in enumerate(lattice_compositions(grid).tolist())}

    def interpolate(table, posterior):
        simplex = freudenthal_by_definition(posterior, grid.resolution)
        return sum(w * table[index[c]] for c, w in simplex.items())

    num_y = likelihood.shape[0]
    num_u = transition.shape[2]
    predicted = [
        sum(chain[d, s] * belief[s] for s in range(n)) for d in range(n)
    ]
    open_y = [
        sum(likelihood[y, d] * predicted[d] for d in range(n)) > 0.0
        for y in range(num_y)
    ]
    allowed = admissible_by_definition(transition, likelihood, chain, x, belief)
    relaxed = relax and not allowed
    out = np.full(num_u, -np.inf)
    for u in range(num_u) if relaxed else allowed:
        total = 0.0
        future = 0.0
        for y in range(num_y):
            if not open_y[y]:
                continue
            posterior = forward_filter_step(chain, likelihood, belief, y)
            for d in range(n):
                p = transition[d, x, u] * likelihood[y, d]
                if p > 0.0:
                    total += p
                    future += p * interpolate(values[d], posterior)
        if total == 0.0:
            continue
        if relaxed:
            future /= total
        out[u] = (
            reward_weight * reward[x, u] - exposure_weight * belief[x]
            + discount * future
        )
    return out


def lattice_sweep_by_definition(
    transition, reward, discount, likelihood, chain, grid, values,
    reward_weight, exposure_weight,
):
    """One relaxed value-iteration sweep over every (state, lattice point),
    with `lattice_lookahead_by_definition`; also returns the (x, g) pairs
    where no action was admissible."""
    n, num_points = values.shape
    updated = np.empty_like(values)
    relaxed = []
    for g in range(num_points):
        for x in range(n):
            belief = grid.points[g]
            if not admissible_by_definition(transition, likelihood, chain, x, belief):
                relaxed.append((x, g))
            updated[x, g] = lattice_lookahead_by_definition(
                transition, reward, discount, likelihood, chain, grid, values,
                reward_weight, exposure_weight, x, belief, relax=True,
            ).max()
    return updated, relaxed


def closed_loop_by_definition(
    transition, likelihood, chain, scores, o0, num_steps, seed_base, run_index,
    tie_gap=1e-9, near_zero=1e-9,
):
    """One closed-loop episode by definition, from the simulator's seeds.

    The start state, each successor and each reading are drawn by
    `searchsorted` on the running sums of their distribution, one uniform
    per draw from the generator seeded `[seed_base, run_index]`. At each
    step `scores(x, belief)` rates every action (-inf: not allowed) and the
    first maximum is played; the move is refused unless admissible by
    definition, and the belief follows the forward algorithm.

    Returns `(states, actions, observations, beliefs, stop)`, the records of
    the steps before `stop`. `stop` is None for a whole episode, or
    `(reason, t)` where step t ends it: "controller" when no action has a
    finite score, "transition" when the played action is not admissible,
    "near tie" when the two best scores are within `tie_gap`, so that
    rounding may pick either, and "near zero" when the belief gives some
    reading a positive predictive of at most `near_zero`, which a zero
    threshold may count as no mass (a belief entry can decay that far).
    """
    rng = np.random.default_rng([seed_base, run_index])

    def draw(probs):
        edges = np.cumsum(probs)
        index = np.searchsorted(edges, rng.random() * edges[-1], side="right")
        return min(int(index), len(edges) - 1)

    x, y, belief = draw(o0), -1, np.asarray(o0, dtype=float)
    states, actions, observations, beliefs = [], [], [], []
    stop = None
    n = len(belief)
    for t in range(num_steps):
        predicted = [sum(chain[d, s] * belief[s] for s in range(n)) for d in range(n)]
        if any(
            0.0 < sum(likelihood[y, d] * predicted[d] for d in range(n)) <= near_zero
            for y in range(likelihood.shape[0])
        ):
            stop = ("near zero", t)
            break
        rated = np.asarray(scores(x, belief), dtype=float)
        ranked = np.argsort(-rated, kind="stable")
        if not np.isfinite(rated[ranked[0]]):
            stop = ("controller", t)
            break
        if len(ranked) > 1 and rated[ranked[0]] - rated[ranked[1]] < tie_gap:
            stop = ("near tie", t)
            break
        u = int(ranked[0])
        if u not in admissible_by_definition(transition, likelihood, chain, x, belief):
            stop = ("transition", t)
            break
        states.append(x)
        actions.append(u)
        observations.append(y)
        beliefs.append(belief)
        x = draw(transition[:, x, u])
        y = draw(likelihood[:, x])
        belief = forward_filter_step(chain, likelihood, belief, y)
    return states, actions, observations, beliefs, stop


def exact_planner_scores(model, obs, pa, values, x, o, config):
    """Every admissible sequence's objective under `config`, in exact
    rational arithmetic: {actions: Fraction}.

    Each float of the model, the sensor, the observer chain `pa`, the values,
    the belief `o` and the weights is taken as the exact rational it stores.
    Sequences grow one action at a time from the point law on `x`, carrying
    the joint law of (observation history, state) as a dict. Action u after
    a prefix is pruned when some (history, state) the prefix occupies can
    emit, under u, a reading whose exact predictive from that history's
    posterior is 0; no extension of a pruned prefix is scored. The objective
    is wn * (reward + tail) - (wa + wap) * exposure, with exposure at depths
    1 to N-1, as `sequence_terms_by_path_enumeration` defines the terms.
    """
    n, num_u = model.num_states, model.num_actions

    def support(column):
        """The nonzero entries of a float vector, as (index, Fraction)."""
        return [(i, Fraction(v)) for i, v in enumerate(column.tolist()) if v != 0.0]

    readings = [support(obs.likelihood[:, d]) for d in range(n)]
    spread = [support(pa[:, s]) for s in range(n)]
    # branches[s, u]: (reading, successor, probability) of each joint step
    branches = {
        (s, u): [(y, d, p * w) for d, p in support(model.transition[:, s, u])
                 for y, w in readings[d]]
        for s in range(n) for u in range(num_u)
    }
    emits = {key: {y for y, _, _ in step} for key, step in branches.items()}
    reward = [[Fraction(v) for v in row] for row in model.reward.tolist()]
    tail_values = [Fraction(v) for v in np.asarray(values, dtype=float).tolist()]
    lam = Fraction(model.discount)
    wn = Fraction(config.reward_weight)
    weight = Fraction(config.exposure_weight) + Fraction(config.tail_exposure_weight)
    horizon = config.horizon
    # the filter never sees actions or states: one posterior per history,
    # held by its support
    posteriors = {(): dict(support(np.asarray(o, dtype=float)))}
    open_readings = {}

    def readings_left_open(history):
        if history not in open_readings:
            predicted = {}
            for s, mass in posteriors[history].items():
                for d, p in spread[s]:
                    predicted[d] = predicted.get(d, 0) + p * mass
            # only the readings some predicted state emits: the rest have
            # predictive exactly 0
            joint = {}
            for d, mass in predicted.items():
                for y, w in readings[d]:
                    joint.setdefault(y, {})[d] = w * mass
            for y, row in joint.items():
                total = sum(row.values())
                posteriors[history + (y,)] = {d: v / total for d, v in row.items()}
            open_readings[history] = set(joint)
        return open_readings[history]

    scores = {}

    def grow(prefix, law, reward_sum, exposure_sum):
        depth = len(prefix)
        for u in range(num_u):
            if any(emits[s, u] - readings_left_open(h) for h, s in law):
                continue
            gained = reward_sum + lam ** depth * sum(
                mass * reward[s][u] for (_, s), mass in law.items()
            )
            moved = {}
            for (h, s), mass in law.items():
                for y, d, p in branches[s, u]:
                    key = (h + (y,), d)
                    moved[key] = moved.get(key, 0) + mass * p
            if depth + 1 == horizon:
                tail = lam ** horizon * sum(
                    mass * tail_values[d] for (_, d), mass in moved.items()
                )
                scores[prefix + (u,)] = wn * (gained + tail) - weight * exposure_sum
            else:
                exposed = exposure_sum + lam ** (depth + 1) * sum(
                    mass * posteriors[h].get(d, 0) for (h, d), mass in moved.items()
                )
                grow(prefix + (u,), moved, gained, exposed)

    grow((), {((), x): Fraction(1)}, Fraction(0), Fraction(0))
    return scores
