"""Seedable desk-scale environments with a uniform stepping interface.

Environments expose:
  reset(seed) -> observation
  step(action) -> (observation, reward, done)
  spec: EnvSpec
Tabular environments additionally expose .mdp (a TabularMDP) and
.state_index (the current discrete state); their observations are one-hot.
Continuous dynamics are integrated with fixed-step semi-implicit Euler.

Every environment also runs a batch of episodes in lockstep. reset with a
sequence of n seeds returns (n, obs_dim) observations, and step then takes
actions with a leading episode axis and returns (obs, rewards, dones) with
that axis. step(actions, episodes) steps only the listed episodes, so that
episodes can end independently; stepping an episode before reset or after
its end is an error. State is held batched in both modes: reset with one
seed is a batch of one whose outputs are unwrapped. Each episode draws from
its own Generator, so a batch reproduces the same episodes run one by one.

Policies follow the same convention: act(obs, rng) for one observation and
one Generator, act(obs, rngs) for (n, obs_dim) observations and a sequence
of n Generators, one per episode.
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
    terminal: np.ndarray | None = None

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=np.float64)
        self.R = np.asarray(self.R, dtype=np.float64)
        self.p0 = np.asarray(self.p0, dtype=np.float64)
        S, A, S2 = self.P.shape
        if S != S2 or self.R.shape != (S, A) or self.p0.shape != (S,):
            raise ValueError(f"inconsistent MDP shapes P{self.P.shape} R{self.R.shape} p0{self.p0.shape}")
        if np.any(self.P < 0) or np.any(self.p0 < 0):
            raise ValueError("negative probabilities")
        if np.max(np.abs(self.P.sum(axis=2) - 1.0)) > 1e-12:
            raise ValueError("transition rows must sum to 1 within 1e-12")
        if abs(self.p0.sum() - 1.0) > 1e-12:
            raise ValueError("p0 must sum to 1 within 1e-12")
        if self.terminal is not None:
            self.terminal = np.asarray(self.terminal, dtype=bool)

    @property
    def n_states(self):
        return self.P.shape[0]

    @property
    def n_actions(self):
        return self.P.shape[1]


@dataclass
class Trajectory:
    """One episode: states has shape (T+1, obs_dim), actions/rewards length T."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    seed: object
    state_indices: np.ndarray | None = None
    aborted: bool = False

    @property
    def n_steps(self):
        return len(self.rewards)

    @property
    def total_return(self):
        return float(self.rewards.sum())


def sample_categorical(probs, rngs):
    """One index per row of probs, each drawn by its own Generator.

    Draw for draw the same as rngs[i].choice(k, p=probs[i]) row by row, with
    the same checks: rows must be non-negative and sum to 1 within sqrt(eps).
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or len(probs) != len(rngs):
        raise ValueError(f"{probs.shape} probabilities for {len(rngs)} generators")
    if not np.all(probs >= 0.0):
        raise ValueError("probabilities are not non-negative")
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > np.sqrt(np.finfo(np.float64).eps)):
        raise ValueError("probabilities do not sum to 1")
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    u = np.array([rng.random() for rng in rngs])
    # cdf is non-decreasing, so counting entries <= u is searchsorted(side="right")
    return (cdf <= u[:, None]).sum(axis=1)


def _row_dot(x):
    """x[i] @ x[i] for every row, summed as a 1-D dot product sums."""
    return (x[:, None, :] @ x[:, :, None]).reshape(len(x))


class _EpisodeBatch:
    """Reset/step bookkeeping shared by the environments: per-episode step
    counts over a batch of episodes, of which a single episode is a batch
    of one."""

    _t = None

    def _begin(self, seed):
        """Start one episode per seed; returns their Generators."""
        self._single = np.ndim(seed) == 0
        seeds = [seed] if self._single else list(seed)
        self._all = np.arange(len(seeds))
        self._t = np.zeros(len(seeds), dtype=int)
        return [np.random.default_rng(s) for s in seeds]

    def _rows(self, action, episodes):
        """(episode indices, actions with a leading episode axis) of a step."""
        if self._t is None:
            raise RuntimeError("step before reset")
        if episodes is None:
            rows = self._all
        elif self._single:
            raise ValueError("episodes applies to a batch reset with a sequence of seeds")
        else:
            rows = np.asarray(episodes, dtype=int)
        if np.any(self._t[rows] >= self.spec.horizon):
            raise RuntimeError("step after episode end")
        action = np.asarray(action)
        return rows, action[None] if self._single else action

    def _advance(self, rows, ended=None):
        """Count one step of rows; returns their done flags. `ended` marks
        rows whose episode ends before the horizon."""
        self._t[rows] += 1
        done = self._t[rows] >= self.spec.horizon
        if ended is not None:
            done |= ended
            self._t[rows[done]] = self.spec.horizon
        return done

    def _out(self, x):
        return x[0] if self._single else x

    def _result(self, obs, reward, done):
        if self._single:
            return obs[0], float(reward[0]), bool(done[0])
        return obs, reward, done


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
        self._s = None
        self._rngs = None

    @property
    def state_index(self):
        """Current state: an int after reset(seed), an (n,) array after a
        batch reset; None before reset."""
        if self._s is None:
            return None
        return int(self._s[0]) if self._single else self._s

    def reset(self, seed):
        self._rngs = self._begin(seed)
        p0 = np.broadcast_to(self.mdp.p0, (len(self._rngs), self.mdp.n_states))
        self._s = sample_categorical(p0, self._rngs)
        return self._out(self._eye[self._s])

    def step(self, action, episodes=None):
        rows, a = self._rows(action, episodes)
        if a.shape != rows.shape:
            raise ValueError(f"{a.shape} actions for {len(rows)} episodes")
        a = a.astype(int)
        bad = (a < 0) | (a >= self.mdp.n_actions)
        if np.any(bad):
            raise ValueError(f"action {a[bad][0]} outside 0..{self.mdp.n_actions - 1}")
        s = self._s[rows]
        reward = self.mdp.R[s, a]
        s_next = sample_categorical(self.mdp.P[s, a], [self._rngs[i] for i in rows])
        self._s[rows] = s_next
        terminal = None if self.mdp.terminal is None else self.mdp.terminal[s_next]
        done = self._advance(rows, terminal)
        if np.all(self._t >= self.spec.horizon):
            self._rngs = None  # every episode has ended; free their Generators
        return self._result(self._eye[s_next], reward, done)


def gridworld(width=5, height=5, goal=None, slip_prob=0.0, horizon=40, gamma=0.95):
    """Gridworld over cells (x, y), x = column. Actions: 0 right, 1 left,
    2 up (y+1), 3 down. Reward 1 for standing on the goal cell; walls bump."""
    n_cells = width * height
    if goal is None:
        goal = (width - 1, height - 1)

    def cell(x, y):
        return y * width + x

    moves = np.zeros((n_cells, 4), dtype=int)
    for y in range(height):
        for x in range(width):
            s = cell(x, y)
            moves[s, 0] = cell(min(x + 1, width - 1), y)
            moves[s, 1] = cell(max(x - 1, 0), y)
            moves[s, 2] = cell(x, min(y + 1, height - 1))
            moves[s, 3] = cell(x, max(y - 1, 0))

    # per-cell transition matrix with slip: chosen move w.p. 1-slip, else uniform
    P = np.zeros((n_cells, 4, n_cells))
    for s in range(n_cells):
        uniform = np.zeros(n_cells)
        for a in range(4):
            uniform[moves[s, a]] += 0.25
        for a in range(4):
            row = slip_prob * uniform
            row[moves[s, a]] += 1.0 - slip_prob
            P[s, a] = row

    R = np.zeros((n_cells, 4))
    R[cell(*goal), :] = 1.0
    p0 = np.zeros(n_cells)
    p0[cell(0, 0)] = 1.0
    env = TabularEnv(TabularMDP(P, R, p0), horizon, gamma, env_id="gridworld")
    env.layout = {"width": width, "height": height, "goal": goal}
    return env


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

    def reset(self, seed):
        rngs = self._begin(seed)
        self._pos = np.array([rng.uniform(-self.init_radius, self.init_radius, size=self.dim)
                              for rng in rngs]).reshape(len(rngs), self.dim)
        self._vel = np.zeros_like(self._pos)
        return self._out(np.concatenate([self._pos, self._vel], axis=1))

    def step(self, action, episodes=None):
        rows, a = self._rows(action, episodes)
        a = np.clip(a.astype(np.float64), self.spec.action_low, self.spec.action_high)
        if a.shape != (len(rows), self.dim):
            raise ValueError(f"action shape {a.shape} != ({len(rows)}, {self.dim})")
        vel = self._vel[rows] + self.dt * a
        pos = self._pos[rows] + self.dt * vel
        self._vel[rows] = vel
        self._pos[rows] = pos
        err = pos - self.target
        reward = -_row_dot(err) - self.action_cost * _row_dot(a)
        obs = np.concatenate([pos, vel], axis=1)
        return self._result(obs, reward, self._advance(rows))


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
        e = k + p
        return float(e[0]) if self._single else e

    def reset(self, seed):
        rngs = self._begin(seed)
        self._theta = np.array([np.pi + rng.uniform(-0.05, 0.05) for rng in rngs])
        self._omega = np.array([rng.uniform(-0.05, 0.05) for rng in rngs])
        return self._out(self._obs(self._theta, self._omega))

    def step(self, action, episodes=None):
        rows, a = self._rows(action, episodes)
        a = a.astype(np.float64)
        if a.size != len(rows):
            raise ValueError(f"action shape {a.shape}: one torque per episode expected")
        u = np.clip(a.reshape(-1), -self.max_torque, self.max_torque)
        theta, omega = self._theta[rows], self._omega[rows]
        acc = (self.g / self.length) * np.sin(theta) \
            + u / (self.m * self.length**2) - self.damping * omega
        omega = omega + self.dt * acc
        theta = theta + self.dt * omega
        theta = (theta + np.pi) % (2 * np.pi) - np.pi
        self._theta[rows] = theta
        self._omega[rows] = omega
        reward = np.cos(theta) - self.torque_cost * u * u
        return self._result(self._obs(theta, omega), reward, self._advance(rows))


def generators(rng):
    """(single, rngs) for a policy's act: one Generator acts as a batch of
    one, a sequence of Generators as one per observation row."""
    if isinstance(rng, np.random.Generator):
        return True, [rng]
    return False, rng


class RandomPolicy:
    """Uniform random actions; the score-0 anchor of the scaled score."""

    def __init__(self, spec):
        self.spec = spec

    def act(self, obs, rng, deterministic=False):
        spec = self.spec
        single, rngs = generators(rng)
        if spec.action_kind == "discrete":
            a = np.array([r.integers(spec.n_actions) for r in rngs], dtype=int)
            return int(a[0]) if single else a
        a = np.array([r.uniform(spec.action_low, spec.action_high, size=spec.action_dim)
                      for r in rngs]).reshape(len(rngs), spec.action_dim)
        return a[0] if single else a


class TabularPolicy:
    """Stochastic policy given as an (S, A) row-stochastic table.

    Acts on one-hot observations (decodes the state by argmax).
    """

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)
        if np.any(self.table < 0) or np.max(np.abs(self.table.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("policy rows must be distributions")

    def act(self, obs, rng, deterministic=False):
        single, rngs = generators(rng)
        rows = self.table[np.argmax(np.atleast_2d(obs), axis=1)]
        a = np.argmax(rows, axis=1) if deterministic else sample_categorical(rows, rngs)
        return int(a[0]) if single else a


class PointMassController:
    """Hand-tuned PD controller for PointMass; the expert oracle."""

    def __init__(self, env, kp=4.0, kd=4.0):
        self.dim = env.dim
        self.target = env.target
        self.kp = kp
        self.kd = kd

    def act(self, obs, rng, deterministic=False):
        pos, vel = obs[..., : self.dim], obs[..., self.dim :]
        return np.clip(self.kp * (self.target - pos) - self.kd * vel, -1.0, 1.0)


def episode_seeds(master_seed, n):
    """Deterministic per-episode integer seeds derived from a master seed."""
    ss = np.random.SeedSequence(master_seed)
    return [int(child.generate_state(1)[0]) for child in ss.spawn(n)]


# Episodes that rollout steps together. Each running episode holds two
# Generators, a few KB of heap that the allocator keeps once they are freed,
# so a bounded block keeps a 1000-episode rollout's peak memory flat.
LOCKSTEP_EPISODES = 128


def rollout(policy, env, n_episodes, seed, deterministic=False):
    """Run n_episodes episodes; per-episode seeds derive from the master seed.

    Episodes run in lockstep, in blocks of up to LOCKSTEP_EPISODES: each
    time step makes one batched policy act and one batched env step over the
    block's running episodes. A policy emitting a non-finite action row
    aborts that row's episode, which is returned with aborted=True.
    """
    seeds = episode_seeds(seed, n_episodes)
    trajs = []
    for start in range(0, n_episodes, LOCKSTEP_EPISODES):
        trajs += _lockstep(policy, env, seeds[start : start + LOCKSTEP_EPISODES],
                           deterministic)
    return trajs


def _lockstep(policy, env, seeds, deterministic):
    """Trajectories of the episodes with these seeds, stepped together."""
    n_episodes = len(seeds)
    spec = env.spec
    horizon = spec.horizon
    tabular = spec.state_count > 0
    env_seeds, rngs = [], []
    for ep_seed in seeds:
        # split the episode seed so the policy's and the environment's
        # random streams are independent rather than lockstep-correlated
        env_ss, policy_ss = np.random.SeedSequence(ep_seed).spawn(2)
        env_seeds.append(int(env_ss.generate_state(1)[0]))
        rngs.append(np.random.default_rng(policy_ss))
    # episode-major buffers, so each trajectory is a contiguous view
    states = np.empty((n_episodes, horizon + 1, spec.obs_dim))
    if spec.action_kind == "discrete":
        actions = np.empty((n_episodes, horizon), dtype=int)
    else:
        actions = np.empty((n_episodes, horizon, spec.action_dim))
    rewards = np.empty((n_episodes, horizon))
    indices = np.empty((n_episodes, horizon + 1), dtype=int) if tabular else None
    lengths = np.zeros(n_episodes, dtype=int)
    aborted = np.zeros(n_episodes, dtype=bool)

    states[:, 0] = env.reset(env_seeds)
    if tabular:
        indices[:, 0] = env.state_index
    live = np.arange(n_episodes)
    t = 0
    while live.size:
        a = np.asarray(policy.act(states[live, t], [rngs[i] for i in live],
                                  deterministic=deterministic))
        finite = np.isfinite(a.reshape(len(live), -1)).all(axis=1)
        if not finite.all():
            aborted[live[~finite]] = True
            live = live[finite]
            if not live.size:
                break
            a = a[finite]
        obs, r, done = env.step(a, live)
        states[live, t + 1] = obs
        actions[live, t] = a
        rewards[live, t] = r
        if tabular:
            indices[live, t + 1] = env.state_index[live]
        lengths[live] += 1
        live = live[~done]
        t += 1
    return [
        Trajectory(
            states=states[i, : n + 1], actions=actions[i, :n], rewards=rewards[i, :n],
            seed=ep_seed,
            state_indices=None if indices is None else indices[i, : n + 1],
            aborted=bool(aborted[i]),
        )
        for i, (ep_seed, n) in enumerate(zip(seeds, lengths))
    ]


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


def value_iteration(mdp, gamma, tol=1e-10, max_iters=100_000):
    """Optimal values and a greedy deterministic policy table."""
    S, A = mdp.n_states, mdp.n_actions
    V = np.zeros(S)
    for _ in range(max_iters):
        Q = mdp.R + gamma * mdp.P @ V
        V_new = Q.max(axis=1)
        if np.max(np.abs(V_new - V)) < tol:
            V = V_new
            break
        V = V_new
    Q = mdp.R + gamma * mdp.P @ V
    table = np.zeros((S, A))
    table[np.arange(S), Q.argmax(axis=1)] = 1.0
    return V, table
