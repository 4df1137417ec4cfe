"""Trust-region policy optimization on manual-backprop MLP policies.

Stochastic policies are categorical (softmax over logits) or diagonal
Gaussian (state-dependent mean, state-independent learned log-std). The
natural-gradient step uses an exact Fisher-vector product (forward-mode
Jacobian-vector product through the network composed with the closed-form
distribution-space metric), conjugate gradient, and a KL-constrained
backtracking line search; trpo_update runs them over the batch's distinct states.
"""

from dataclasses import dataclass

import numpy as np

from . import nets
from .envs import POLICY_SLOT, normals, sample_categorical, uniforms

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
        if vec.shape != (self.n_params,):
            raise ValueError(f"flat vector of length {vec.size} (shape {vec.shape}) "
                             f"!= {self.n_params} policy parameters")
        n = self.net.n_params
        self.net.set_flat(vec[:n])
        if self.kind == "gaussian":
            self.log_std = np.clip(vec[n:], LOG_STD_MIN, LOG_STD_MAX)

    def dist(self, states):
        """Network head (logits or means) for a batch of states, plus cache."""
        return nets.mlp_forward(self.net, states)

    def act(self, obs, keys, t, deterministic=False):
        """One action per row of (n, obs_dim) observations, row i drawn at
        (keys[i], step t); deterministic acts at the argmax or the mean."""
        out, _ = nets.mlp_forward(self.net, obs)
        if self.kind == "categorical":
            if deterministic:
                return np.argmax(out, axis=1)
            return sample_categorical(_softmax(out), uniforms(keys, t, POLICY_SLOT, 1)[:, 0])
        if not deterministic:
            out = out + np.exp(self.log_std) * normals(keys, t, POLICY_SLOT, out.shape[1])
        return out

    def log_prob(self, states, actions):
        """Exact log density/mass of actions under the policy."""
        out, _ = self.dist(states)
        return self._log_prob_from(out, actions)

    def _log_prob_from(self, out, actions):
        want = (len(out),) if self.kind == "categorical" else out.shape
        if np.shape(actions) != want:
            raise ValueError(f"{self.kind} policy needs actions of shape {want}, "
                             f"got {np.shape(actions)}")
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
        """Inverse of save. A checkpoint with no policy kind, such as a
        discriminator's, or a Gaussian one whose log_std does not have one
        entry per output, is a ValueError that names the file and its header."""
        net, extra = nets.load_mlp(path)
        kind = extra.get("kind") if isinstance(extra, dict) else None
        log_std = extra.get("log_std") if kind == "gaussian" else None
        try:
            if kind == "gaussian" and np.shape(log_std) != (net.out_dim,):
                raise ValueError(f"log_std {log_std!r} needs one entry per output, {net.out_dim}")
            return cls(kind, net, log_std)
        except ValueError as err:
            raise ValueError(f"{path}: header: {err}") from None


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


class CodedStates(nets.DistinctRows):
    """A batch's states as their distinct rows, and the policy's outputs on
    them. A plain array passed to the functions below is taken as it is,
    every row its own distinct row (code = arange, unit counts).

    The policy runs over the distinct rows once per parameter value. head()
    keeps the output at every parameter value it computes, and forward()
    also keeps the cache of the last value it was asked for, until
    release(). Outputs are keyed by the parameter bytes, so a copy of a
    policy finds the output of its original.
    """

    def __init__(self, distinct, code):
        super().__init__(distinct, code)
        self._outs = {}      # parameter bytes -> output over the distinct rows
        self._kept = None    # (parameter bytes, output, cache) of forward()

    def head(self, policy):
        """The policy's network output over the distinct rows."""
        key = policy.flat_params().tobytes()
        out = self._outs.get(key)
        if out is None:
            out = self._outs[key] = policy.dist(self.distinct)[0]
        return out

    def forward(self, policy):
        """(output, cache) over the distinct rows; the cache is kept until
        release() or a forward() at other parameters."""
        key = policy.flat_params().tobytes()
        if self._kept is None or self._kept[0] != key:
            out, cache = policy.dist(self.distinct)
            self._outs[key] = out
            self._kept = (key, out, cache)
        return self._kept[1:]

    def release(self):
        """Drop the kept cache; the outputs stay."""
        self._kept = None


def _distinct_states(states):
    if isinstance(states, CodedStates):
        return states
    states = np.asarray(states, dtype=np.float64)
    return CodedStates(states, np.arange(len(states)))


def mean_kl(policy_old, policy_new, states):
    """Closed-form KL(old || new) averaged over states (an array or a
    CodedStates, whose distinct rows are weighted by their counts)."""
    if policy_old.kind != policy_new.kind:
        raise ValueError("policies must share a distribution kind")
    states = _distinct_states(states)
    old, new = states.head(policy_old), states.head(policy_new)
    if policy_old.kind == "categorical":
        p_old = _softmax(old)
        log_old = old - _logsumexp(old)
        log_new = new - _logsumexp(new)
        per_state = (p_old * (log_old - log_new)).sum(axis=1)
    else:
        so = np.exp(policy_old.log_std)
        sn = np.exp(policy_new.log_std)
        per_state = (policy_new.log_std - policy_old.log_std
                     + (so**2 + (old - new) ** 2) / (2.0 * sn**2) - 0.5).sum(axis=1)
    return float(np.sum(states.counts * per_state) / len(states))


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
    """Importance-weighted advantage objective mean(ratio * A); maximized.
    states is an array or a CodedStates; the rest is per row."""
    states = _distinct_states(states)
    logp = policy._log_prob_from(states.head(policy)[states.code], actions)
    return float(np.mean(np.exp(logp - old_logp) * advantages))


def surrogate_grad(policy, states, actions, advantages, old_logp):
    """Flat gradient of the surrogate objective. The per-row output
    gradients are summed onto the distinct rows before one backward pass."""
    states = _distinct_states(states)
    n = len(states)
    out, cache = states.forward(policy)
    rows = out[states.code]
    logp = policy._log_prob_from(rows, actions)
    w = (np.exp(logp - old_logp) * advantages / n)[:, None]
    if policy.kind == "categorical":
        actions = np.asarray(actions, dtype=int)
        one_hot = np.zeros_like(rows)
        one_hot[np.arange(n), actions] = 1.0
        per_row = w * (one_hot - _softmax(out)[states.code])
        return nets.mlp_backward(policy.net, cache, states.sum_rows(per_row))
    acts = np.asarray(actions, dtype=np.float64)
    var = np.exp(2.0 * policy.log_std)
    grads = nets.mlp_backward(policy.net, cache, states.sum_rows(w * (acts - rows) / var))
    dlog_std = (w * ((acts - rows) ** 2 / var - 1.0)).sum(axis=0)
    return np.concatenate([grads, dlog_std])


class FvpOperator:
    """(Fisher + damping I) v over states (an array or a CodedStates).

    Exact: the metric is J^T A J, J the network Jacobian (by forward-mode
    JVP) and A the closed-form distribution-space Fisher, both over the
    distinct rows only, each distinct row's A J v weighed by its count;
    without repeats that is the plain mean over rows bit for bit. The
    operator marks a copy of the states' forward() cache with
    nets.keep_workspace, so it holds a few (distinct rows, hidden) arrays
    for as long as it lives.
    """

    def __init__(self, policy, states, damping):
        self.policy = policy
        self.damping = damping
        self.states = _distinct_states(states)
        self.out, cache = self.states.forward(policy)
        self.cache = nets.keep_workspace(dict(cache))
        self.counts = self.states.counts[:, None]
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
            result = nets.mlp_backward(self.policy.net, self.cache, au * self.counts / n)
        else:
            var = np.exp(2.0 * self.policy.log_std)
            grads = nets.mlp_backward(self.policy.net, self.cache,
                                      du / var * self.counts / n)
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
    """On-policy experience, one row per transition.

    states and next_states are (n, H, obs_dim), n episodes of H steps in C
    order as in a batch of a rollout (of), or (rows, obs_dim) for a policy
    step alone; the per-row arrays are flat.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    advantages: np.ndarray = None
    returns: np.ndarray = None

    @classmethod
    def of(cls, rollout):
        """The batch of an envs.Rollout, copying none of its buffers: states
        and next_states are the views states[:, :-1] and states[:, 1:] of its
        states, and actions and rewards flat views."""
        n, horizon = rollout.rewards.shape
        return cls(states=rollout.states[:, :-1],
                   actions=rollout.actions.reshape(n * horizon, *rollout.actions.shape[2:]),
                   rewards=rollout.rewards.reshape(-1), next_states=rollout.states[:, 1:])


def gae(rewards, values, gamma, lam):
    """Generalized advantage estimation (Schulman et al. 2016) over (n, H)
    rewards and values, one episode per row. The last step of a row
    bootstraps nothing: its TD error is r - v."""
    deltas = np.empty(rewards.shape)
    deltas[:, :-1] = rewards[:, :-1] + gamma * values[:, 1:] - values[:, :-1]
    deltas[:, -1] = rewards[:, -1] - values[:, -1]
    adv = np.empty(rewards.shape)
    running = np.zeros(len(rewards))
    for t in range(rewards.shape[1] - 1, -1, -1):
        running = deltas[:, t] + gamma * lam * running
        adv[:, t] = running
    return adv


def compute_advantages(batch, value_fn, gamma, lam=0.97):
    """Fill batch.advantages (normalized) and batch.returns (value targets)."""
    values = value_fn.predict(batch.states)
    shape = batch.states.shape[:2]  # (n episodes, H steps)
    adv = gae(batch.rewards.reshape(shape), values.reshape(shape), gamma, lam).reshape(-1)
    batch.returns = adv + values
    std = adv.std()
    batch.advantages = (adv - adv.mean()) / (std if std > 1e-8 else 1.0)
    return batch


VALUE_RIDGE = 1e-5         # the value fit's ridge
VALUE_TIME_SCALE = 100.0   # steps per unit of the value features' time


class ValueFunction:
    """rllab's linear feature baseline (Duan et al. 2016), fit by one ridge
    solve over [o, o^2, a, a^2, a^3, 1]: o the state clipped to +-10 at step
    t and a = t / VALUE_TIME_SCALE. Scores are H-step sums, so a value
    depends on the steps left. The ridge also absorbs o^2 = o on one-hot
    states."""

    def __init__(self, obs_dim):
        self.coef = np.zeros(2 * obs_dim + 4)

    def features(self, states):
        """(n * H, 2 obs_dim + 4) features of (n, H, obs_dim) states, rows in
        C order, row (i, t) at step t."""
        if np.ndim(states) != 3 or 2 * np.shape(states)[2] + 4 != self.coef.size:
            raise ValueError(f"states of shape {np.shape(states)}: the value baseline needs "
                             f"(n, H, {(self.coef.size - 4) // 2})")
        n, horizon, dim = states.shape
        o = np.clip(states, -10.0, 10.0).reshape(n * horizon, dim)
        a = np.tile(np.arange(horizon) / VALUE_TIME_SCALE, n)[:, None]
        return np.concatenate([o, o * o, a, a * a, a**3, np.ones_like(a)], axis=1)

    def predict(self, states):
        """One value per row of (n, H, obs_dim) states, flat in C order."""
        values = self.features(states) @ self.coef
        if not np.all(np.isfinite(values)):
            raise FloatingPointError("non-finite value prediction")
        return values

    def fit(self, states, targets):
        """Solve (X^T X + VALUE_RIDGE I) w = X^T y, X the features, y flat."""
        x = self.features(states)
        self.coef = np.linalg.solve(x.T @ x + VALUE_RIDGE * np.eye(x.shape[1]), x.T @ targets)


CG_ITERS = 10         # conjugate-gradient iterations per step
FVP_DAMPING = 0.1     # the Fisher operator's damping
MAX_BACKTRACKS = 10   # halvings of the step before it is rejected


def trpo_update(policy, value_fn, batch, delta=0.01):
    """One natural-gradient step with KL-constrained backtracking, after
    fitting the value baseline on batch.returns (which the step never
    reads). Accepts the first backtracked step with nonnegative surrogate
    improvement and mean KL <= delta, else leaves the policy unchanged.
    Returns a diagnostics dict.

    The step runs over the batch's distinct states (CodedStates.of) with
    one policy forward per parameter value. The forward at the old
    parameters gives the old log-probs, the surrogate gradient, the Fisher
    operator's cache and the old side of every KL, so the ratio at the old
    parameters is exp(0) exactly; each line-search candidate's forward
    serves its surrogate and its KL. Log-probs, ratios and advantages stay
    per row. A batch without repeated states takes the plain step bit for
    bit; with repeats only the order of summation differs.
    """
    if batch.advantages is None:
        raise ValueError("batch needs advantages (see compute_advantages)")
    if value_fn is not None:
        value_fn.fit(batch.states, batch.returns)
    states = CodedStates.of(batch.states)
    diag = {"accepted": False, "kl": 0.0, "improvement": 0.0,
            "step_frac": 0.0, "backtracks_used": 0}
    out, _ = states.forward(policy)
    old_logp = policy._log_prob_from(out[states.code], batch.actions)
    args = (states, batch.actions, batch.advantages, old_logp)
    try:
        g = surrogate_grad(policy, *args)
        diag["grad_norm"] = float(np.linalg.norm(g))
        if diag["grad_norm"] < 1e-12:
            return diag
        fvp = FvpOperator(policy, states, FVP_DAMPING)
        x = conjugate_gradient(fvp, g, iters=CG_ITERS)
        shs = float(x @ fvp(x))
        del fvp  # frees its workspace before the line search's forward passes
    finally:
        states.release()
    if shs <= 0 or not np.isfinite(shs):
        return diag
    full_step = np.sqrt(2.0 * delta / shs) * x
    old_flat = policy.flat_params()
    old_policy = policy.copy()
    base = surrogate_loss(policy, *args)
    for i in range(MAX_BACKTRACKS):
        frac = 0.5**i
        policy.set_flat(old_flat + frac * full_step)
        improvement = surrogate_loss(policy, *args) - base
        kl = mean_kl(old_policy, policy, states)
        if improvement >= 0.0 and kl <= delta:
            diag.update(accepted=True, kl=float(kl), improvement=float(improvement),
                        step_frac=frac, backtracks_used=i)
            break
    else:
        policy.set_flat(old_flat)
        diag["backtracks_used"] = MAX_BACKTRACKS
    return diag
