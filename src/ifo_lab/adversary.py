"""Discriminator over state transitions, its cross-entropy loss, the
imitator's reward, and the generative-adversarial cost regularizer with its
convex conjugate (closed form, grid search, and definition-level checks).

Label convention: the discriminator is pushed toward 1 on imitator data and
toward 0 on expert data; the imitator's per-transition reward is
-log D(s, s'), so the imitator is paid for transitions the discriminator
mistakes for expert data.
"""

import numpy as np

from . import nets


class Discriminator:
    """Sigmoid-output MLP over transition features: concat(s, s') for
    GAIfO, concat(s, a) for the action-aware baseline (see pair_features).
    Outputs are clamped into (0, 1) by nets.clamped_sigmoid, so log D and
    log(1 - D) are finite.
    """

    def __init__(self, input_dim, hidden=(64, 64), lr=3e-4, seed=0):
        self.params = nets.init_mlp(
            [input_dim, *hidden, 1], activation="leaky_relu",
            output_transform="sigmoid", rng=np.random.default_rng(seed),
        )
        self.adam = nets.AdamState(self.params, alpha=lr)


def pair_features(first, second):
    """Stack (s, s') or (s, a) rows into discriminator inputs."""
    if len(first) != len(second):
        raise ValueError(f"batch sizes differ: {len(first)} vs {len(second)}")
    return np.concatenate([first, second], axis=1)


def disc_values(d, features):
    out, cache = nets.mlp_forward(d.params, features)
    return out[:, 0], cache


def _check_batches(imitator_batch, expert_batch):
    if len(imitator_batch) == 0 or len(expert_batch) == 0:
        raise ValueError("both batches must be nonempty")


def disc_loss(d, imitator_batch, expert_batch):
    """-(mean log D on imitator + mean log(1 - D) on expert).

    Minimizing drives D -> 1 on imitator data and D -> 0 on expert data.
    Batches are (n, input_dim) feature matrices (see pair_features).
    """
    _check_batches(imitator_batch, expert_batch)
    di, _ = disc_values(d, imitator_batch)
    de, _ = disc_values(d, expert_batch)
    return float(-(np.mean(np.log(di)) + np.mean(np.log(1.0 - de))))


def disc_loss_grad(d, imitator_batch, expert_batch):
    """Loss value and exact flat gradient w.r.t. discriminator parameters."""
    _check_batches(imitator_batch, expert_batch)
    di, ci = disc_values(d, imitator_batch)
    de, ce = disc_values(d, expert_batch)
    loss = float(-(np.mean(np.log(di)) + np.mean(np.log(1.0 - de))))
    grads_i = nets.mlp_backward(d.params, ci, (-1.0 / (len(di) * di))[:, None])
    grads_e = nets.mlp_backward(d.params, ce, (1.0 / (len(de) * (1.0 - de)))[:, None])
    return loss, grads_i + grads_e


def disc_update(d, imitator_batch, expert_batch):
    """One Adam step on the discriminator loss; returns the pre-step loss."""
    loss, grads = disc_loss_grad(d, imitator_batch, expert_batch)
    nets.adam_step(d.adam, d.params, grads)
    return loss


def policy_reward(d, features):
    """-log D per row of transition features; high where D mistakes the
    imitator for the expert."""
    d_vals, _ = disc_values(d, features)
    return -np.log(d_vals)


def g_fn(x):
    """g(x) = -x - log(1 - e^x) for x < 0, +inf otherwise (elementwise)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.full(x.shape, np.inf)
    neg = x < 0
    xn = x[neg]
    out[neg] = -xn - np.log1p(-np.exp(xn))
    return out if out.ndim else float(out)


def psi_ga(cost, rho_E):
    """Adversarial cost regularizer: E over expert transitions of g(cost),
    +inf if the cost is nonnegative anywhere on the expert support.

    rho_E may be any nonnegative mass matrix; it is normalized to a
    distribution for the expectation.
    """
    cost = np.asarray(cost, dtype=np.float64)
    mass = _as_mass(rho_E)
    if mass.shape != cost.shape:
        raise ValueError(f"cost shape {cost.shape} != occupancy shape {mass.shape}")
    total = mass.sum()
    if total <= 0:
        raise ValueError("expert occupancy has zero mass")
    p = mass / total
    support = p > 0
    if np.any(cost[support] >= 0):
        return np.inf
    return float(np.sum(p[support] * g_fn(cost[support])))


def _as_mass(rho):
    mass = rho.mass if hasattr(rho, "mass") else np.asarray(rho, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    if np.any(mass < 0):
        raise ValueError("negative occupancy mass")
    return mass


def psi_ga_conjugate_closed(rho_pi, rho_E):
    """Closed-form conjugate value: per entry, the maximizer is
    D* = a / (a + b) and the entry contributes a log D* + b log(1 - D*).

    Entries with a = b = 0 contribute 0; entries with exactly one side
    zero contribute 0 via the D -> 1 (or 0) limit.
    """
    a = _as_mass(rho_pi)
    b = _as_mass(rho_E)
    if a.shape != b.shape:
        raise ValueError(f"occupancy shapes differ: {a.shape} vs {b.shape}")
    total = a + b
    both = (a > 0) & (b > 0)
    val = np.sum(a[both] * np.log(a[both] / total[both])
                 + b[both] * np.log(b[both] / total[both]))
    return float(val)


def psi_ga_conjugate_numeric(rho_pi, rho_E, grid_resolution=1e-5, eps=1e-9):
    """Conjugate value by per-entry grid search over D in (eps, 1 - eps)."""
    a = _as_mass(rho_pi).ravel()
    b = _as_mass(rho_E).ravel()
    if a.shape != b.shape:
        raise ValueError("occupancy shapes differ")
    grid = np.arange(eps, 1.0 - eps, grid_resolution)
    log_d = np.log(grid)
    log_1md = np.log1p(-grid)
    total = 0.0
    chunk = max(1, int(2e6 / len(grid)))
    for i in range(0, len(a), chunk):
        aa, bb = a[i : i + chunk], b[i : i + chunk]
        live = (aa > 0) | (bb > 0)
        if not live.any():
            continue
        vals = aa[live, None] * log_d[None, :] + bb[live, None] * log_1md[None, :]
        total += float(vals.max(axis=1).sum())
    return total


def optimal_cost(rho_pi, rho_E):
    """The analytic conjugate-achieving cost c* = log(a / (a + b)).

    Entries off the imitator support get a large negative placeholder
    (their contribution to the conjugate objective vanishes in the limit).
    """
    a = _as_mass(rho_pi)
    b = _as_mass(rho_E)
    c = np.full(a.shape, -745.0)  # e^-745 underflows to 0, so g(c) = -c exactly
    pos = a > 0
    c[pos] = np.log(a[pos] / (a[pos] + b[pos]))
    c = np.minimum(c, -1e-12)
    return c


def conjugacy_objective(cost, rho_pi, rho_E):
    """<rho_pi - rho_E, cost> - psi_GA(cost): the conjugate's inner value."""
    a = _as_mass(rho_pi)
    b = _as_mass(rho_E)
    inner = float(np.sum((a - b) * cost))
    return inner - psi_ga(cost, b)


def conjugacy_definition_check(rho_pi, rho_E, cost_samples, ascent_steps=2000):
    """Verify sup_c <rho_pi - rho_E, c> - psi_GA(c) against the closed form.

    Both occupancies are normalized to unit total mass first; that is the
    regime where the expectation in the regularizer and the sums in the
    conjugate use the same measure, so the two sides agree exactly.
    Returns a report dict with the closed-form value, the best sampled
    objective, the ascent-refined value, and any sup-bound violations.
    """
    a = _as_mass(rho_pi)
    b = _as_mass(rho_E)
    a = a / a.sum()
    b = b / b.sum()
    closed = psi_ga_conjugate_closed(a, b)
    objectives = []
    for c in cost_samples:
        c = np.asarray(c, dtype=np.float64)
        if c.shape != a.shape:
            raise ValueError("cost sample shape mismatch")
        objectives.append(conjugacy_objective(c, a, b))
    objectives = np.asarray(objectives)
    violations = np.where(objectives > closed + 1e-9)[0]
    best_idx = int(np.argmax(objectives))
    # gradient ascent from the best sample; the objective is concave in c
    c = np.minimum(np.asarray(cost_samples[best_idx], dtype=np.float64), -1e-12)
    step = 0.5
    value = conjugacy_objective(c, a, b)
    for _ in range(ascent_steps):
        expc = np.exp(c)
        grad = (a - b) - b * (-1.0 + expc / (1.0 - expc))
        c_new = np.minimum(c + step * grad, -1e-12)
        v_new = conjugacy_objective(c_new, a, b)
        if v_new > value:
            c, value = c_new, v_new
            step *= 1.1
        else:
            step *= 0.5
            if step < 1e-14:
                break
    return {
        "closed_form": closed,
        "best_sampled": float(objectives[best_idx]),
        "ascent_value": float(value),
        "optimal_cost_value": conjugacy_objective(optimal_cost(a, b), a, b),
        "bound_violations": violations.tolist(),
    }
