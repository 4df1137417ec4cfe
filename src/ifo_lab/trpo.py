"""Trust-region policy optimization on manual-backprop MLP policies.

Stochastic policies are categorical (softmax over logits) or diagonal
Gaussian (state-dependent mean, state-independent learned log-std). The
natural-gradient step uses an exact Fisher-vector product (forward-mode
Jacobian-vector product through the network composed with the closed-form
distribution-space metric), conjugate gradient, and a KL-constrained
backtracking line search.
"""

from dataclasses import dataclass

import numpy as np

from . import nets
from .envs import sample_categorical

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0


class StochasticPolicy:
    """Categorical or diagonal-Gaussian policy over an MLP."""

    def __init__(self, kind, net, log_std=None):
        if kind not in ("categorical", "gaussian"):
            raise ValueError(f"unknown policy kind {kind!r}")
        if kind == "gaussian":
            if log_std is None:
                log_std = np.zeros(net.out_dim)
            log_std = np.clip(np.asarray(log_std, dtype=np.float64),
                              LOG_STD_MIN, LOG_STD_MAX)
            if log_std.shape != (net.out_dim,):
                raise ValueError("log_std must have one entry per action dim")
        self.kind = kind
        self.net = net
        self.log_std = log_std

    @property
    def obs_dim(self):
        return self.net.in_dim

    @property
    def action_dim(self):
        return self.net.out_dim

    @property
    def n_params(self):
        extra = self.log_std.size if self.kind == "gaussian" else 0
        return self.net.n_params + extra

    def copy(self):
        ls = None if self.log_std is None else self.log_std.copy()
        return StochasticPolicy(self.kind, self.net.copy(), ls)

    def flat_params(self):
        if self.kind == "gaussian":
            return np.concatenate([self.net.flatten(), self.log_std])
        return self.net.flatten()

    def set_flat(self, vec):
        vec = np.asarray(vec, dtype=np.float64)
        n = self.net.n_params
        self.net.set_flat(vec[:n])
        if self.kind == "gaussian":
            self.log_std = np.clip(vec[n:], LOG_STD_MIN, LOG_STD_MAX)

    def dist(self, states):
        """Network head (logits or means) for a batch of states, plus cache."""
        return nets.mlp_forward(self.net, states)

    def act(self, obs, rngs, deterministic=False):
        """One action per row of (n, obs_dim) observations, row i drawn with
        rngs[i]; deterministic acts at the argmax or the mean."""
        out, _ = nets.mlp_forward(self.net, obs)
        if self.kind == "categorical":
            if deterministic:
                return np.argmax(out, axis=1)
            return sample_categorical(_softmax(out), rngs)
        if not deterministic:
            noise = np.array([r.standard_normal(out.shape[1]) for r in rngs])
            out = out + np.exp(self.log_std) * noise
        return out

    def log_prob(self, states, actions):
        """Exact log density/mass of actions under the policy."""
        out, _ = self.dist(states)
        return self._log_prob_from(out, actions)

    def _log_prob_from(self, out, actions):
        if self.kind == "categorical":
            actions = np.asarray(actions, dtype=int)
            logp_all = out - _logsumexp(out)
            return logp_all[np.arange(len(out)), actions]
        actions = np.asarray(actions, dtype=np.float64)
        std = np.exp(self.log_std)
        z = (actions - out) / std
        return (-0.5 * (z * z).sum(axis=1) - self.log_std.sum()
                - 0.5 * out.shape[1] * np.log(2.0 * np.pi))

    def save(self, path):
        extra = {"kind": self.kind}
        if self.kind == "gaussian":
            extra["log_std"] = self.log_std.tolist()
        nets.save_mlp(path, self.net, extra=extra)

    @classmethod
    def load(cls, path):
        net, extra = nets.load_mlp(path)
        log_std = np.asarray(extra["log_std"]) if extra["kind"] == "gaussian" else None
        return cls(extra["kind"], net, log_std)


def make_policy(spec, hidden=(64, 64), seed=0, init_log_std=-0.5):
    """MLP policy for an EnvSpec: tanh hidden layers, small output init."""
    rng = np.random.default_rng(seed)
    if spec.action_kind == "discrete":
        net = nets.init_mlp([spec.obs_dim, *hidden, spec.n_actions],
                            activation="tanh", rng=rng, out_gain=0.01)
        return StochasticPolicy("categorical", net)
    net = nets.init_mlp([spec.obs_dim, *hidden, spec.action_dim],
                        activation="tanh", rng=rng, out_gain=0.01)
    return StochasticPolicy("gaussian", net, np.full(spec.action_dim, init_log_std))


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _logsumexp(logits):
    m = logits.max(axis=1, keepdims=True)
    return m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))


def mean_kl(policy_old, policy_new, states):
    """Closed-form KL(old || new) averaged over states."""
    if policy_old.kind != policy_new.kind:
        raise ValueError("policies must share a distribution kind")
    old, _ = policy_old.dist(states)
    new, _ = policy_new.dist(states)
    if policy_old.kind == "categorical":
        p_old = _softmax(old)
        log_old = old - _logsumexp(old)
        log_new = new - _logsumexp(new)
        return float(np.mean((p_old * (log_old - log_new)).sum(axis=1)))
    so = np.exp(policy_old.log_std)
    sn = np.exp(policy_new.log_std)
    per_state = (policy_new.log_std - policy_old.log_std
                 + (so**2 + (old - new) ** 2) / (2.0 * sn**2) - 0.5).sum(axis=1)
    return float(np.mean(per_state))


def mean_kl_grad(policy_old, policy_new, states):
    """Flat gradient of mean_kl w.r.t. the new policy's parameters."""
    n = len(states)
    old, _ = policy_old.dist(states)
    new, cache = policy_new.dist(states)
    if policy_new.kind == "categorical":
        return nets.mlp_backward(policy_new.net, cache, (_softmax(new) - _softmax(old)) / n)
    so = np.exp(policy_old.log_std)
    sn = np.exp(policy_new.log_std)
    grads = nets.mlp_backward(policy_new.net, cache, (new - old) / sn**2 / n)
    dlog_std = np.mean(1.0 - (so**2 + (old - new) ** 2) / sn**2, axis=0)
    return np.concatenate([grads, dlog_std])


def surrogate_loss(policy, states, actions, advantages, old_logp):
    """Importance-weighted advantage objective mean(ratio * A); maximized."""
    logp = policy.log_prob(states, actions)
    return float(np.mean(np.exp(logp - old_logp) * advantages))


def surrogate_grad(policy, states, actions, advantages, old_logp):
    """Flat gradient of the surrogate objective."""
    n = len(states)
    out, cache = policy.dist(states)
    logp = policy._log_prob_from(out, actions)
    w = (np.exp(logp - old_logp) * advantages / n)[:, None]
    if policy.kind == "categorical":
        actions = np.asarray(actions, dtype=int)
        one_hot = np.zeros_like(out)
        one_hot[np.arange(n), actions] = 1.0
        return nets.mlp_backward(policy.net, cache, w * (one_hot - _softmax(out)))
    acts = np.asarray(actions, dtype=np.float64)
    var = np.exp(2.0 * policy.log_std)
    grads = nets.mlp_backward(policy.net, cache, w * (acts - out) / var)
    dlog_std = (w * ((acts - out) ** 2 / var - 1.0)).sum(axis=0)
    return np.concatenate([grads, dlog_std])


class FvpOperator:
    """(Fisher + damping I) v with the forward pass over states cached.

    Exact: the metric is J^T A J where J is the network Jacobian (applied
    by forward-mode JVP) and A the closed-form distribution-space Fisher.
    The cache keeps a workspace (see nets.keep_workspace), so the operator
    holds a few (len(states), hidden) arrays for as long as it lives.
    """

    def __init__(self, policy, states, damping):
        self.policy = policy
        self.damping = damping
        self.states = states
        self.out, self.cache = policy.dist(self.states)
        nets.keep_workspace(self.cache)
        if policy.kind == "categorical":
            self.p = _softmax(self.out)

    def __call__(self, v):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.policy.n_params,):
            raise ValueError(f"vector length {v.shape} != ({self.policy.n_params},)")
        n, n_net = len(self.states), self.policy.net.n_params
        du = nets.mlp_jvp(self.policy.net, self.cache, v[:n_net])
        if self.policy.kind == "categorical":
            # logit-space Fisher: diag(p) - p p^T
            au = self.p * du - self.p * (self.p * du).sum(axis=1, keepdims=True)
            result = nets.mlp_backward(self.policy.net, self.cache, au / n)
        else:
            var = np.exp(2.0 * self.policy.log_std)
            grads = nets.mlp_backward(self.policy.net, self.cache, du / var / n)
            result = np.concatenate([grads, 2.0 * v[n_net:]])
        if not np.all(np.isfinite(result)):
            raise FloatingPointError("non-finite Fisher-vector product")
        return result + self.damping * v


def conjugate_gradient(apply_A, b, iters=10, tol=1e-10):
    """Solve A x = b for symmetric positive-definite A."""
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b)
    r = b.copy()
    p = b.copy()
    r_dot = float(r @ r)
    b_norm = np.sqrt(float(b @ b))
    if b_norm == 0.0:
        return x
    for _ in range(iters):
        if np.sqrt(r_dot) <= tol * b_norm:
            break
        ap = apply_A(p)
        if not np.all(np.isfinite(ap)):
            raise FloatingPointError("non-finite operator output in conjugate gradient")
        alpha = r_dot / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        r_dot_new = float(r @ r)
        p = r + (r_dot_new / r_dot) * p
        r_dot = r_dot_new
    return x


@dataclass
class RolloutBatch:
    """Flattened on-policy experience; dones delimit episodes."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray
    logps: np.ndarray = None
    advantages: np.ndarray = None
    returns: np.ndarray = None

    @classmethod
    def from_trajectories(cls, trajectories, policy=None):
        trajectories = [tr for tr in trajectories if not tr.aborted and tr.n_steps > 0]
        states = np.concatenate([tr.states[:-1] for tr in trajectories])
        next_states = np.concatenate([tr.states[1:] for tr in trajectories])
        actions = np.concatenate([np.asarray(tr.actions) for tr in trajectories])
        rewards = np.concatenate([tr.rewards for tr in trajectories])
        dones = np.concatenate([
            np.arange(tr.n_steps) == tr.n_steps - 1 for tr in trajectories
        ])
        batch = cls(states=states, actions=actions, rewards=np.asarray(rewards, float),
                    next_states=next_states, dones=dones)
        if policy is not None:
            batch.logps = policy.log_prob(states, actions)
        return batch

    def __len__(self):
        return len(self.rewards)


def gae(rewards, values, dones, gamma, lam):
    """Generalized advantage estimation; episodes end where dones is True
    (no bootstrap past an episode boundary)."""
    T = len(rewards)
    adv = np.zeros(T)
    running = 0.0
    for t in range(T - 1, -1, -1):
        if dones[t]:
            running = 0.0
            delta = rewards[t] - values[t]
        else:
            delta = rewards[t] + gamma * values[t + 1] - values[t]
        running = delta + gamma * lam * running
        adv[t] = running
    return adv


def compute_advantages(batch, value_fn, gamma, lam):
    """Fill batch.advantages (normalized) and batch.returns (value targets)."""
    values = value_fn.predict(batch.states)
    adv = gae(batch.rewards, values, batch.dones, gamma, lam)
    batch.returns = adv + values
    std = adv.std()
    batch.advantages = (adv - adv.mean()) / (std if std > 1e-8 else 1.0)
    return batch


class ValueFunction:
    """Scalar MLP baseline fit by Adam regression on discounted returns."""

    def __init__(self, obs_dim, hidden=(64, 64), lr=1e-3, epochs=5,
                 minibatch=256, seed=0):
        self.net = nets.init_mlp([obs_dim, *hidden, 1], activation="tanh",
                                 rng=np.random.default_rng(seed))
        self.adam = nets.AdamState(self.net, alpha=lr)
        self.epochs = epochs
        self.minibatch = minibatch
        self._rng = np.random.default_rng(seed + 1)

    def predict(self, states):
        out, _ = nets.mlp_forward(self.net, states)
        return out[:, 0]

    def fit(self, states, targets):
        nets.fit_supervised(self.net, self.adam, states,
                            np.asarray(targets, dtype=np.float64), self._rng,
                            self.epochs, self.minibatch)


def trpo_update(policy, value_fn, batch, delta=0.01, cg_iters=10,
                damping=0.1, backtracks=10):
    """One natural-gradient step with KL-constrained backtracking.

    Fits the value baseline on batch.returns first (the policy step reads
    neither the baseline nor the returns). Then accepts the first
    backtracked step with nonnegative surrogate improvement and mean KL <=
    delta; otherwise leaves the policy unchanged. Returns a diagnostics
    dict.
    """
    if batch.advantages is None or batch.logps is None:
        raise ValueError("batch needs logps and advantages (see compute_advantages)")
    if value_fn is not None:
        value_fn.fit(batch.states, batch.returns)
    diag = {"accepted": False, "kl": 0.0, "improvement": 0.0,
            "step_frac": 0.0, "backtracks_used": 0}
    g = surrogate_grad(policy, batch.states, batch.actions,
                       batch.advantages, batch.logps)
    diag["grad_norm"] = float(np.linalg.norm(g))
    if diag["grad_norm"] < 1e-12:
        return diag
    fvp = FvpOperator(policy, batch.states, damping)
    x = conjugate_gradient(fvp, g, iters=cg_iters)
    shs = float(x @ fvp(x))
    del fvp  # frees its workspace before the line search's forward passes
    if shs <= 0 or not np.isfinite(shs):
        return diag
    full_step = np.sqrt(2.0 * delta / shs) * x
    old_flat = policy.flat_params()
    old_policy = policy.copy()
    base = surrogate_loss(policy, batch.states, batch.actions,
                          batch.advantages, batch.logps)
    for i in range(backtracks):
        frac = 0.5**i
        policy.set_flat(old_flat + frac * full_step)
        improvement = surrogate_loss(policy, batch.states, batch.actions,
                                     batch.advantages, batch.logps) - base
        kl = mean_kl(old_policy, policy, batch.states)
        if improvement >= 0.0 and kl <= delta:
            diag.update(accepted=True, kl=float(kl), improvement=float(improvement),
                        step_frac=frac, backtracks_used=i)
            break
    else:
        policy.set_flat(old_flat)
        diag["backtracks_used"] = backtracks
    return diag
