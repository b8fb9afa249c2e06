"""Independent reference implementations used to check the package.

Everything here is written from first principles with a different
algorithmic shape than the library (explicit loops, linear solves, full
path enumeration) so that agreement between the two is meaningful.
"""

import itertools

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
    transition, reward, discount, q, pa, values, x0, o0, actions
):
    """Score one open-loop action sequence by brute force.

    Enumerates every joint path (x_1..x_N, y_1..y_N) with its exact
    probability, carrying the observer posterior along each observation
    prefix, and accumulates the three objective pieces:

      inside-horizon reward  sum_{tau<N}  lam^tau R(x_tau, u_tau)
      terminal tail          lam^N E[values(x_N)]
      exposure               sum_{1<=tau<N} lam^tau E[o_tau(x_tau)]

    Exposure at tau=0 and tau=N is deliberately not counted, matching the
    planner's objective. Returns (reward_term, tail_term, exposure_term).
    """
    n = len(o0)
    num_y = q.shape[0]
    horizon = len(actions)

    reward_term = reward[x0, actions[0]]
    tail_term = 0.0
    exposure_term = 0.0

    paths = [(1.0, x0, np.asarray(o0, dtype=float))]
    for tau in range(1, horizon + 1):
        u_prev = actions[tau - 1]
        grown = []
        for prob, x, o in paths:
            for x_next in range(n):
                p_x = transition[x_next, x, u_prev]
                if p_x == 0.0:
                    continue
                for y in range(num_y):
                    p_y = q[y, x_next]
                    if p_y == 0.0:
                        continue
                    o_next = forward_filter_step(pa, q, o, y)
                    grown.append((prob * p_x * p_y, x_next, o_next))
        paths = grown
        scale = discount ** tau
        if tau < horizon:
            reward_term += scale * sum(
                p * reward[x, actions[tau]] for p, x, _ in paths
            )
            exposure_term += scale * sum(p * o[x] for p, x, o in paths)
        else:
            tail_term = scale * sum(p * values[x] for p, x, _ in paths)
    return reward_term, tail_term, exposure_term


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

    def visit(prefix, pairs):
        for u in range(num_u):
            if any(
                u not in admissible_by_definition(transition, likelihood, chain, x, o)
                for x, o in pairs
            ):
                pruned.add(prefix + (u,))
            elif len(prefix) + 1 < horizon:
                visit(prefix + (u,), [
                    (x_next, forward_filter_step(chain, likelihood, o, y))
                    for x, o in pairs
                    for x_next in range(n)
                    for y in range(num_obs)
                    if transition[x_next, x, u] * likelihood[y, x_next] > 0.0
                ])

    visit((), [(x0, np.asarray(o0, dtype=float))])
    return pruned

def lattice_lookahead_by_definition(
    transition, reward, discount, likelihood, chain, grid, values,
    reward_weight, exposure_weight, x, belief, relax,
):
    """One-step lattice lookahead at (x, belief) for every action, by loops.

    For action u: wn R(x, u) - wa belief[x] + lam * sum over open readings
    y and successors x' of p(x'|x,u) q(y|x') V(x', posterior after y), with
    V read between lattice points by interpolation. Inadmissible actions
    score -inf. With `relax`, a point where no action is admissible uses
    every action instead, renormalizing the mass it puts on open readings
    (an action with none scores -inf). Readings count as open when their
    predictive is exactly positive, which is unambiguous on
    `random_sparse_model` models and on smooth sensors.
    """
    from covertmdp.augmented import interpolate_value

    n = len(belief)
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
                    future += p * interpolate_value(grid, values[d], posterior)
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
