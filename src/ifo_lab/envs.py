"""Seedable desk-scale environments that run a batch of episodes in lockstep.

Environments expose:
  reset(keys) -> (n, obs_dim) observations, one episode per uint64 key
  step(actions) -> (obs, rewards)
  spec: EnvSpec
step takes one action per episode of the batch, with a leading episode
axis, and returns arrays with that axis: the whole batch steps together.
Stepping before reset or after the horizon is an error. An episode ends at
the horizon and nowhere else. One episode is a batch of one.
Tabular environments additionally expose .mdp (a TabularMDP) and
.state_index, the (n,) current discrete states that their one-hot
observations encode. Continuous dynamics are integrated with fixed-step
semi-implicit Euler.

Policies follow the same convention: act(obs, keys, t) takes (n, obs_dim)
observations, the n episode keys and the step t, and returns one action per
row. rollout runs a policy over a batch of episodes to the horizon and
returns a Rollout, the record of its episode-major buffers; a non-finite
action raises instead.

Randomness is stateless: every draw is a hash of (episode key, step, slot,
column), so an episode's draws do not depend on which other episodes share
its batch. The environment draws state t of an episode at step t in
ENV_SLOT; the policy draws action t at step t in POLICY_SLOT.
"""
from dataclasses import dataclass

import numpy as np


@dataclass
class EnvSpec:
    env_id: str
    obs_dim: int
    action_kind: str          # "discrete" | "box"
    horizon: int
    gamma: float
    n_actions: int = 0        # discrete
    action_dim: int = 0       # box
    action_low: float = -1.0
    action_high: float = 1.0
    state_count: int = 0      # tabular only

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")


@dataclass
class TabularMDP:
    """Finite MDP: P[s, a, s'] transition tensor, R[s, a] reward, p0 init."""

    P: np.ndarray
    R: np.ndarray
    p0: np.ndarray

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=np.float64)
        self.R = np.asarray(self.R, dtype=np.float64)
        self.p0 = np.asarray(self.p0, dtype=np.float64)
        S, A, S2 = self.P.shape
        if S != S2 or self.R.shape != (S, A) or self.p0.shape != (S,):
            raise ValueError(f"inconsistent MDP shapes P{self.P.shape} R{self.R.shape} p0{self.p0.shape}")
        # written so that NaN fails each check
        if not (np.all(self.P >= 0) and np.all(self.p0 >= 0)):
            raise ValueError("negative probabilities")
        if not np.max(np.abs(self.P.sum(axis=2) - 1.0)) <= 1e-12:
            raise ValueError("transition rows must sum to 1 within 1e-12")
        if not abs(self.p0.sum() - 1.0) <= 1e-12:
            raise ValueError("p0 must sum to 1 within 1e-12")

    @property
    def n_states(self):
        return self.P.shape[0]

    @property
    def n_actions(self):
        return self.P.shape[1]


@dataclass
class Trajectory:
    """One episode of a Rollout, as views into its buffers: states (H+1,
    obs_dim), and H actions and rewards."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    seed: int                 # the episode key
    # always False, as a rollout is whole or raises; the benchmark's tracer
    # counts aborted episodes off this field
    aborted: bool = False


@dataclass(eq=False)
class Rollout:
    """The episode-major buffers of one rollout of n episodes of horizon H:
    states (n, H+1, obs_dim), actions (n, H) ints or (n, H, action_dim),
    rewards (n, H) and the (n,) episode keys. Every episode runs to H.

    The record is also the sequence of its episodes: len() is n, and
    indexing or iterating gives each episode as a Trajectory of views.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    keys: np.ndarray

    def __len__(self):
        return len(self.keys)

    def __getitem__(self, i):
        return Trajectory(self.states[i], self.actions[i], self.rewards[i], seed=int(self.keys[i]))


# splitmix64's constants (Steele et al., OOPSLA 2014) and an odd key multiplier, as
# uint64 scalars: a Python int mixed with a uint64 array is float64 under numpy 1.x.
_KEY_MUL = np.uint64(0xD1B54A32D192ED03)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_U30, _U27, _U31, _U11, _U16, _U24 = (np.uint64(k) for k in (30, 27, 31, 11, 16, 24))
ENV_SLOT, POLICY_SLOT = 0, 1


def random_bits(keys, t, slot, k):
    """(n, k) uint64 words; word j of row i hashes (keys[i], t[i], slot, j).

    A counter-based generator (Salmon et al., SC'11): splitmix64's finalizer
    mixes the counter (t << 24 | slot << 16 | j), times splitmix64's
    increment, plus the key times its multiplier. t is a step or (n,) steps.
    """
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 1)
    t = np.asarray(t, dtype=np.uint64).reshape(-1, 1)
    counter = (t << _U24 | np.uint64(slot) << _U16) + np.arange(k, dtype=np.uint64)
    x = keys * _KEY_MUL + counter * _GOLDEN
    x = (x ^ (x >> _U30)) * _MIX_1
    x = (x ^ (x >> _U27)) * _MIX_2
    return x ^ (x >> _U31)


def uniforms(keys, t, slot, k):
    """(n, k) uniforms on [0, 1) with 53 random bits each."""
    return (random_bits(keys, t, slot, k) >> _U11) * 2.0**-53


def normals(keys, t, slot, k):
    """(n, k) standard normals by Box-Muller over k uniform pairs."""
    u = uniforms(keys, t, slot, 2 * k)
    return np.sqrt(-2.0 * np.log1p(-u[:, :k])) * np.cos(2.0 * np.pi * u[:, k:])


def sample_categorical(probs, u):
    """One index per row of probs by inversion of one uniform u[i] per row:
    searchsorted(cdf[i], u[i], side="right") over the normalized cdf.

    Rows must be non-negative and sum to 1 within sqrt(eps); u must hold one
    value in [0, 1) per row. An index of zero probability is never drawn.
    """
    probs = np.asarray(probs, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if probs.ndim != 2 or u.shape != (len(probs),):
        raise ValueError(f"{probs.shape} probabilities for {u.shape} uniforms")
    if not np.all(probs >= 0.0):
        raise ValueError("probabilities are not non-negative")
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > np.sqrt(np.finfo(np.float64).eps)):
        raise ValueError("probabilities do not sum to 1")
    if not np.all((u >= 0.0) & (u < 1.0)):
        raise ValueError("uniforms must lie in [0, 1)")
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    # cdf is non-decreasing, so counting entries <= u is searchsorted(side="right")
    return (cdf <= u[:, None]).sum(axis=1)


def _row_dot(x):
    """x[i] @ x[i] for every row, summed as a 1-D dot product sums."""
    return (x[:, None, :] @ x[:, :, None]).reshape(len(x))


class _EpisodeBatch:
    """Reset/step bookkeeping shared by the environments: one step count
    for a batch of episodes that step together."""

    _t = None

    def _begin(self, keys, k):
        """Start one episode per key; returns k uniforms each for its first state."""
        self._keys = np.asarray(keys, dtype=np.uint64)
        self._t = 0
        return uniforms(self._keys, 0, ENV_SLOT, k)

    def _check_step(self):
        if self._t is None:
            raise RuntimeError("step before reset")
        if self._t >= self.spec.horizon:
            raise RuntimeError("step after episode end")


class TabularEnv(_EpisodeBatch):
    """Episodic wrapper around a TabularMDP with one-hot observations."""

    def __init__(self, mdp, horizon, gamma, env_id="tabular"):
        self.mdp = mdp
        self.spec = EnvSpec(
            env_id=env_id, obs_dim=mdp.n_states, action_kind="discrete",
            horizon=horizon, gamma=gamma, n_actions=mdp.n_actions,
            state_count=mdp.n_states,
        )
        self._eye = np.eye(mdp.n_states)
        self.state_index = None  # (n,) current states of the episodes; None before reset

    def reset(self, keys):
        u = self._begin(keys, 1)[:, 0]
        p0 = np.broadcast_to(self.mdp.p0, (len(u), self.mdp.n_states))
        self.state_index = sample_categorical(p0, u)
        return self._eye[self.state_index]

    def step(self, actions):
        self._check_step()
        a = np.asarray(actions)
        if a.shape != self._keys.shape:
            raise ValueError(f"{a.shape} actions for {len(self._keys)} episodes")
        a = a.astype(int)
        bad = (a < 0) | (a >= self.mdp.n_actions)
        if np.any(bad):
            raise ValueError(f"action {a[bad][0]} outside 0..{self.mdp.n_actions - 1}")
        s = self.state_index
        reward = self.mdp.R[s, a]
        u = uniforms(self._keys, self._t + 1, ENV_SLOT, 1)[:, 0]
        self.state_index = sample_categorical(self.mdp.P[s, a], u)
        self._t += 1
        return self._eye[self.state_index], reward


def gridworld(width=5, height=5, goal=None, slip_prob=0.0, horizon=40, gamma=0.95):
    """Gridworld over cells (x, y), x = column. Actions: 0 right, 1 left,
    2 up (y+1), 3 down. Reward 1 for standing on the goal cell; walls bump."""
    n_cells = width * height
    gx, gy = (width - 1, height - 1) if goal is None else goal
    y, x = np.divmod(np.arange(n_cells), width)  # cell = y * width + x
    moves = np.stack([y * width + np.minimum(x + 1, width - 1), y * width + np.maximum(x - 1, 0),
                      np.minimum(y + 1, height - 1) * width + x, np.maximum(y - 1, 0) * width + x],
                     axis=1)
    # per-cell transition matrix with slip: chosen move w.p. 1-slip, else uniform
    uniform = np.zeros((n_cells, n_cells))
    np.add.at(uniform, (np.arange(n_cells)[:, None], moves), 0.25)
    P = np.repeat(slip_prob * uniform[:, None, :], 4, axis=1)
    P[np.arange(n_cells)[:, None], np.arange(4), moves] += 1.0 - slip_prob
    R = np.zeros((n_cells, 4))
    R[gy * width + gx, :] = 1.0
    p0 = np.zeros(n_cells)
    p0[0] = 1.0
    return TabularEnv(TabularMDP(P, R, p0), horizon, gamma, env_id="gridworld")


class PointMass(_EpisodeBatch):
    """Double integrator pushed toward a target. State = [pos, vel]."""

    def __init__(self, dim=2, target=None, init_radius=1.0, dt=0.05,
                 horizon=200, gamma=0.99, action_cost=0.01):
        self.dim = dim
        self.target = np.zeros(dim) if target is None else np.asarray(target, float)
        self.init_radius = init_radius
        self.dt = dt
        self.action_cost = action_cost
        self.spec = EnvSpec(
            env_id="point_mass", obs_dim=2 * dim, action_kind="box",
            horizon=horizon, gamma=gamma, action_dim=dim,
            action_low=-1.0, action_high=1.0,
        )
        # state bounds for diagnostic binning
        r = max(1.0, init_radius) + 1.0
        self.state_bounds = (np.array([-r] * dim + [-2.0] * dim),
                             np.array([r] * dim + [2.0] * dim))
        self._pos = None
        self._vel = None

    def reset(self, keys):
        self._pos = self.init_radius * (2.0 * self._begin(keys, self.dim) - 1.0)
        self._vel = np.zeros_like(self._pos)
        return np.concatenate([self._pos, self._vel], axis=1)

    def step(self, actions):
        self._check_step()
        a = np.clip(np.asarray(actions, dtype=np.float64),
                    self.spec.action_low, self.spec.action_high)
        if a.shape != self._pos.shape:
            raise ValueError(f"action shape {a.shape} != {self._pos.shape}")
        self._vel = self._vel + self.dt * a
        self._pos = self._pos + self.dt * self._vel
        err = self._pos - self.target
        reward = -_row_dot(err) - self.action_cost * _row_dot(a)
        obs = np.concatenate([self._pos, self._vel], axis=1)
        self._t += 1
        return obs, reward


class PendulumSwingup(_EpisodeBatch):
    """Torque-limited swing-up. Angle 0 is upright; starts hanging down.

    Dynamics: theta_dd = (g/l) sin(theta) + u/(m l^2) - damping * theta_d,
    semi-implicit Euler at dt. With zero torque, mechanical energy
    E = 0.5 m l^2 theta_d^2 + m g l cos(theta) changes only through the
    damping term dE/dt = -damping * m l^2 * theta_d^2.
    """

    def __init__(self, dt=0.05, horizon=200, gamma=0.99, max_torque=2.0,
                 damping=0.05, g=9.8, m=1.0, length=1.0, torque_cost=0.001):
        self.dt = dt
        self.max_torque = max_torque
        self.damping = damping
        self.g = g
        self.m = m
        self.length = length
        self.torque_cost = torque_cost
        self.spec = EnvSpec(
            env_id="pendulum_swingup", obs_dim=3, action_kind="box",
            horizon=horizon, gamma=gamma, action_dim=1,
            action_low=-max_torque, action_high=max_torque,
        )
        self.state_bounds = (np.array([-1.0, -1.0, -8.0]),
                             np.array([1.0, 1.0, 8.0]))
        self._theta = None
        self._omega = None

    @staticmethod
    def _obs(theta, omega):
        return np.stack([np.cos(theta), np.sin(theta), omega], axis=1)

    def energy(self):
        k = 0.5 * self.m * self.length**2 * self._omega**2
        p = self.m * self.g * self.length * np.cos(self._theta)
        return k + p

    def reset(self, keys):
        jitter = 0.1 * self._begin(keys, 2) - 0.05
        self._theta = np.pi + jitter[:, 0]
        self._omega = jitter[:, 1]
        return self._obs(self._theta, self._omega)

    def step(self, actions):
        self._check_step()
        a = np.asarray(actions, dtype=np.float64)
        if a.size != len(self._theta):
            raise ValueError(f"action shape {a.shape}: one torque per episode expected")
        u = np.clip(a.reshape(-1), -self.max_torque, self.max_torque)
        acc = (self.g / self.length) * np.sin(self._theta) \
            + u / (self.m * self.length**2) - self.damping * self._omega
        self._omega = self._omega + self.dt * acc
        theta = self._theta + self.dt * self._omega
        self._theta = (theta + np.pi) % (2 * np.pi) - np.pi
        reward = np.cos(self._theta) - self.torque_cost * u * u
        self._t += 1
        return self._obs(self._theta, self._omega), reward


class RandomPolicy:
    """Uniform random actions; the score-0 anchor of the scaled score."""

    def __init__(self, spec):
        self.spec = spec

    def act(self, obs, keys, t, deterministic=False):
        spec = self.spec
        if spec.action_kind == "discrete":
            # u * n_actions rounds below n_actions for every u < 1
            return (uniforms(keys, t, POLICY_SLOT, 1)[:, 0] * spec.n_actions).astype(int)
        u = uniforms(keys, t, POLICY_SLOT, spec.action_dim)
        return spec.action_low + (spec.action_high - spec.action_low) * u


class TabularPolicy:
    """Stochastic policy given as an (S, A) row-stochastic table.

    Acts on one-hot observations (decodes the state by argmax).
    """

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)
        if not (np.all(self.table >= 0) and np.max(np.abs(self.table.sum(axis=1) - 1.0)) <= 1e-9):
            raise ValueError("policy rows must be distributions")

    def act(self, obs, keys, t, deterministic=False):
        rows = self.table[np.argmax(obs, axis=1)]
        if deterministic:
            return np.argmax(rows, axis=1)
        return sample_categorical(rows, uniforms(keys, t, POLICY_SLOT, 1)[:, 0])


PD_KP, PD_KD = 4.0, 4.0   # PointMassController's gains


class PointMassController:
    """Hand-tuned PD controller for PointMass; the expert oracle."""

    def __init__(self, env):
        self.dim = env.dim
        self.target = env.target

    def act(self, obs, keys, t, deterministic=False):
        pos, vel = obs[:, : self.dim], obs[:, self.dim :]
        return np.clip(PD_KP * (self.target - pos) - PD_KD * vel, -1.0, 1.0)


def rollout(policy, env, n_episodes, seed, deterministic=False):
    """Run n_episodes episodes whose keys derive from the master seed.

    The episodes run in lockstep to the horizon: each time step t makes one
    policy act and one env step over all n episodes, written into the
    episode-major buffers of the Rollout returned. A non-finite action
    anywhere in the batch raises FloatingPointError naming its step, before
    the environment steps with it.
    """
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
    keys = np.random.SeedSequence(seed).generate_state(n_episodes, np.uint64)
    spec = env.spec
    horizon = spec.horizon
    # episode-major, so each episode is a contiguous block
    states = np.empty((n_episodes, horizon + 1, spec.obs_dim))
    if spec.action_kind == "discrete":
        actions = np.empty((n_episodes, horizon), dtype=int)
    else:
        actions = np.empty((n_episodes, horizon, spec.action_dim))
    rewards = np.empty((n_episodes, horizon))

    states[:, 0] = env.reset(keys)
    for t in range(horizon):
        a = np.asarray(policy.act(states[:, t], keys, t, deterministic=deterministic))
        if not np.isfinite(a).all():
            raise FloatingPointError(f"a policy emitted a non-finite action at step {t}")
        states[:, t + 1], rewards[:, t] = env.step(a)
        actions[:, t] = a
    return Rollout(states, actions, rewards, keys)


def simulate_tabular(mdp, table, n_episodes, horizon, seed):
    """Vectorized index-level simulation of a tabular policy.

    Returns an (n_episodes, horizon + 1) int array of state indices. Used
    by the empirical-occupancy consistency checks, where object-level
    rollouts would dominate the runtime.
    """
    table = np.asarray(table, dtype=np.float64)
    rng = np.random.default_rng(seed)
    S = mdp.n_states
    pi_cum = np.cumsum(table, axis=1)
    P_cum = np.cumsum(mdp.P, axis=2)
    states = np.empty((n_episodes, horizon + 1), dtype=int)
    s = rng.choice(S, size=n_episodes, p=mdp.p0)
    states[:, 0] = s
    for t in range(horizon):
        u = rng.random(n_episodes)
        a = (pi_cum[s] < u[:, None]).sum(axis=1)
        u2 = rng.random(n_episodes)
        s = (P_cum[s, a] < u2[:, None]).sum(axis=1)
        states[:, t + 1] = s
    return states


VALUE_ITERATION_TOL = 1e-10
VALUE_ITERATION_MAX_ITERS = 100_000


def value_iteration(mdp, gamma):
    """Optimal values and a greedy deterministic policy table."""
    S, A = mdp.n_states, mdp.n_actions
    V = np.zeros(S)
    for _ in range(VALUE_ITERATION_MAX_ITERS):
        Q = mdp.R + gamma * mdp.P @ V
        V_new = Q.max(axis=1)
        if np.max(np.abs(V_new - V)) < VALUE_ITERATION_TOL:
            V = V_new
            break
        V = V_new
    Q = mdp.R + gamma * mdp.P @ V
    table = np.zeros((S, A))
    table[np.arange(S), Q.argmax(axis=1)] = 1.0
    return V, table
