"""Training loops: expert training, demonstration recording, adversarial
imitation from state-only demonstrations, the action-aware adversarial
baseline, behavioral cloning from observation, and scaled-score evaluation.

State-only demonstrations never contain actions; the action-retaining
recording path exists solely for the action-aware baseline and never feeds
the observation-only code paths.
"""

import json
import math
import os
import struct
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import adversary, nets, occupancy, trpo
from .envs import RandomPolicy, rollout
from .occupancy import BinSpec, occupancy_distance

DEMO_MAGIC = b"IFODEMO1"
DEMO_ACTIONS_MAGIC = b"IFODEMA1"
DEMO_FORMAT_VERSION = 1


def _write_demo(path, magic, fmt, demos, extra=(), actions=None, action_dtype=None):
    """Magic, header (version, env id length, state dim, trajectory count,
    seed, mean return, *extra), env id, then per trajectory its state
    count, its states and, if given, its actions."""
    env_id = demos.env_id.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack(fmt, DEMO_FORMAT_VERSION, len(env_id), demos.state_dim,
                                     demos.n_trajectories, demos.recording_seed,
                                     demos.expert_mean_return, *extra) + env_id)
        for k, tr in enumerate(demos.trajectories):
            fh.write(struct.pack("<I", len(tr)) + np.ascontiguousarray(tr, dtype="<f8").tobytes())
            if actions is not None:
                fh.write(np.ascontiguousarray(actions[k], dtype=action_dtype).tobytes())


class _DemoReader:
    """Field-by-field reader of a demonstration file. Every read must find
    the bytes the header promises and nothing may follow the last
    trajectory; errors name the file and the field."""

    def __init__(self, fh, path):
        self.fh, self.path, self.size = fh, path, os.fstat(fh.fileno()).st_size

    def error(self, field, problem):
        return ValueError(f"{self.path}: {field}: {problem}")

    def take(self, n, field):
        left = self.size - self.fh.tell()
        if n > left:
            raise self.error(field, f"truncated, {n} bytes promised, {left} left")
        return self.fh.read(n)

    def header(self, magic, what, fmt):
        """The header fields after the magic, then the env id."""
        if self.fh.read(len(magic)) != magic:
            raise ValueError(f"{self.path}: not {what}")
        fields = struct.unpack(fmt, self.take(struct.calcsize(fmt), "header"))
        if fields[0] != DEMO_FORMAT_VERSION:
            raise self.error("header", f"unsupported demo format version {fields[0]}")
        try:
            return fields + (self.take(fields[1], "env id").decode("utf-8"),)
        except UnicodeDecodeError:
            raise self.error("env id", "not UTF-8") from None

    def array(self, dtype, shape, field):
        data = self.take(8 * math.prod(shape), field)
        return np.frombuffer(data, dtype=dtype).reshape(shape).copy()

    def states(self, k, state_dim):
        field = f"trajectory {k} states"
        (n_states,) = struct.unpack("<I", self.take(4, field))
        if n_states == 0:
            raise self.error(field, "no states")
        return self.array("<f8", (n_states, state_dim), field)

    def end(self):
        if self.fh.tell() != self.size:
            raise self.error("end", f"{self.size - self.fh.tell()} trailing bytes")


@dataclass
class DemonstrationSet:
    """State-only expert trajectories; by construction there is no action
    stream anywhere in this type."""

    env_id: str
    state_dim: int
    trajectories: list          # list of (T+1, state_dim) float arrays
    recording_seed: int
    expert_mean_return: float

    @property
    def n_trajectories(self):
        return len(self.trajectories)

    @property
    def n_transitions(self):
        return sum(len(tr) - 1 for tr in self.trajectories)

    def subset(self, n):
        if not 1 <= n <= self.n_trajectories:
            raise ValueError(f"cannot take {n} of {self.n_trajectories} trajectories")
        return DemonstrationSet(self.env_id, self.state_dim, self.trajectories[:n],
                                self.recording_seed, self.expert_mean_return)

    def transition_pairs(self):
        """All (s, s') pairs pooled across trajectories."""
        s = np.concatenate([tr[:-1] for tr in self.trajectories])
        s_next = np.concatenate([tr[1:] for tr in self.trajectories])
        return s, s_next

    def save(self, path):
        _write_demo(path, DEMO_MAGIC, "<IIIIqd", self)

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            reader = _DemoReader(fh, path)
            _, _, state_dim, n_traj, seed, mean_ret, env_id = reader.header(
                DEMO_MAGIC, "a demonstration file", "<IIIIqd")
            trajectories = [reader.states(k, state_dim) for k in range(n_traj)]
            reader.end()
        return cls(env_id, state_dim, trajectories, seed, mean_ret)


@dataclass
class DemonstrationSetWithActions:
    """Action-retaining recording, used only by the action-aware baseline."""

    env_id: str
    state_dim: int
    action_kind: str            # "discrete" | "box"
    action_dim: int             # 1 for discrete
    trajectories: list          # (T+1, state_dim) arrays
    actions: list               # (T,) int arrays or (T, action_dim) float arrays
    recording_seed: int
    expert_mean_return: float

    @property
    def n_trajectories(self):
        return len(self.trajectories)

    def subset(self, n):
        return DemonstrationSetWithActions(
            self.env_id, self.state_dim, self.action_kind, self.action_dim,
            self.trajectories[:n], self.actions[:n],
            self.recording_seed, self.expert_mean_return)

    def state_only(self):
        return DemonstrationSet(self.env_id, self.state_dim,
                                [tr.copy() for tr in self.trajectories],
                                self.recording_seed, self.expert_mean_return)

    def save(self, path):
        discrete = self.action_kind == "discrete"
        _write_demo(path, DEMO_ACTIONS_MAGIC, "<IIIIqdBI", self, (int(not discrete), self.action_dim),
                    self.actions, "<i8" if discrete else "<f8")

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            reader = _DemoReader(fh, path)
            _, _, state_dim, n_traj, seed, mean_ret, kind, action_dim, env_id = reader.header(
                DEMO_ACTIONS_MAGIC, "an action-retaining demonstration file", "<IIIIqdBI")
            if kind not in (0, 1):
                raise reader.error("header", f"unknown action kind {kind}")
            action_kind = "discrete" if kind == 0 else "box"
            trajectories, actions = [], []
            for k in range(n_traj):
                trajectories.append(reader.states(k, state_dim))
                T = len(trajectories[-1]) - 1
                field = f"trajectory {k} actions"
                actions.append(reader.array("<i8", (T,), field) if action_kind == "discrete"
                               else reader.array("<f8", (T, action_dim), field))
            reader.end()
        return cls(env_id, state_dim, action_kind, action_dim,
                   trajectories, actions, seed, mean_ret)


@dataclass
class TrainConfig:
    """Hyperparameters for the training loops; defaults are desk-scale
    conventions, not reproduction targets."""

    iterations: int = 200
    batch_size: int = 2048
    hidden: tuple = (64, 64)
    gamma: float = None          # None: use the environment's discount
    gae_lambda: float = 0.97
    delta: float = 0.01
    cg_iters: int = 10
    damping: float = 0.1
    backtracks: int = 10
    init_log_std: float = -0.5
    disc_lr: float = 3e-4
    d_steps: int = 1
    vf_lr: float = 1e-3
    vf_epochs: int = 5
    vf_minibatch: int = 256
    eval_every: int = 10
    eval_episodes: int = 10
    early_stop: bool = True
    early_stop_window: int = 20
    early_stop_min_iters: int = 60
    occupancy_bins: int = 16
    track_occupancy: bool = True
    # BCO settings
    exploration_steps: int = 50_000
    inverse_hidden: tuple = (64, 64)
    inverse_epochs: int = 10
    inverse_lr: float = 1e-3
    inverse_val_threshold: float = 0.5
    bc_epochs: int = 100
    bc_lr: float = 1e-2


class TrainReport:
    """Per-iteration metric rows plus final summary fields."""

    COLUMNS = ["iteration", "mean_return", "disc_loss", "mean_reward", "kl",
               "occupancy_distance", "accepted", "eval_return"]

    def __init__(self, algorithm, seed):
        self.algorithm = algorithm
        self.seed = seed
        self.rows = []
        self.scaled_score = None
        self.final_return = None
        self.random_mean = None
        self.expert_mean = None
        self.wall_clock = None
        self.aborted = False
        self.extras = {}

    def add_row(self, **kw):
        row = {c: kw.get(c, "") for c in self.COLUMNS}
        if self.rows and row["iteration"] <= self.rows[-1]["iteration"]:
            raise ValueError("iteration index must increase")
        self.rows.append(row)

    def to_csv(self, path):
        import csv
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self.COLUMNS)
            writer.writeheader()
            writer.writerows(self.rows)

    def summary(self):
        return {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "iterations": len(self.rows),
            "scaled_score": self.scaled_score,
            "final_return": self.final_return,
            "random_mean": self.random_mean,
            "expert_mean": self.expert_mean,
            "wall_clock": self.wall_clock,
            "aborted": self.aborted,
            **self.extras,
        }

    def save_summary(self, path):
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2)


def evaluate(policy, env, n_episodes, seed):
    """Deterministic-mode evaluation: Gaussian policies act at the mean,
    categorical at the argmax. Returns (mean return, std)."""
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    trajs = rollout(policy, env, n_episodes, seed, deterministic=True)
    returns = np.array([tr.total_return for tr in trajs])
    return float(returns.mean()), float(returns.std())


def scaled_score(mean, random_mean, expert_mean):
    """Affine normalization mapping the random policy to 0 and the expert
    to 1."""
    denom = expert_mean - random_mean
    if abs(denom) < 1e-12:
        raise ValueError("expert and random means coincide; score undefined")
    return (mean - random_mean) / denom


def record_demonstrations(expert, env, n_trajectories, seed):
    """Record state-only trajectories; the action stream is discarded at
    recording time, not merely hidden."""
    trajs = rollout(expert, env, n_trajectories, seed, deterministic=True)
    mean_ret, _ = evaluate(expert, env, max(n_trajectories, 10), seed + 1)
    return DemonstrationSet(
        env_id=env.spec.env_id, state_dim=env.spec.obs_dim,
        trajectories=[tr.states.copy() for tr in trajs],
        recording_seed=seed, expert_mean_return=mean_ret,
    )


def record_demonstrations_with_actions(expert, env, n_trajectories, seed):
    """Action-retaining recording path for the action-aware baseline only."""
    trajs = rollout(expert, env, n_trajectories, seed, deterministic=True)
    mean_ret, _ = evaluate(expert, env, max(n_trajectories, 10), seed + 1)
    spec = env.spec
    return DemonstrationSetWithActions(
        env_id=spec.env_id, state_dim=spec.obs_dim,
        action_kind=spec.action_kind if spec.action_kind == "box" else "discrete",
        action_dim=spec.action_dim if spec.action_kind == "box" else 1,
        trajectories=[tr.states.copy() for tr in trajs],
        actions=[np.asarray(tr.actions) for tr in trajs],
        recording_seed=seed, expert_mean_return=mean_ret,
    )


def collect_batch(policy, env, min_steps, seed):
    """Whole episodes until at least min_steps transitions are gathered."""
    n_eps = max(1, int(np.ceil(min_steps / env.spec.horizon)))
    trajs = rollout(policy, env, n_eps, seed)
    while sum(tr.n_steps for tr in trajs if not tr.aborted) < min_steps:
        n_eps += 1
        extra = rollout(policy, env, 1, seed * 1_000_003 + n_eps)
        trajs.extend(extra)
    return trajs


def _iteration_seed(seed, iteration):
    return int(np.random.SeedSequence([seed, iteration]).generate_state(1)[0])


class _EarlyStopper:
    """Stop when the moving average of evaluation returns fails to improve
    by 1% for three consecutive windows."""

    def __init__(self, window_evals):
        self.window = max(1, window_evals)
        self.history = []
        self.best = -np.inf
        self.stalls = 0

    def update(self, value):
        self.history.append(value)
        if len(self.history) < self.window:
            return False
        avg = float(np.mean(self.history[-self.window :]))
        threshold = (self.best + 0.01 * max(1.0, abs(self.best))
                     if np.isfinite(self.best) else -np.inf)
        if avg > threshold:
            self.best = avg
            self.stalls = 0
        else:
            self.stalls += 1
        return self.stalls >= 3


def policy_to_tabular(policy, n_states):
    """Action distribution of an MLP policy evaluated at every one-hot state."""
    out, _ = policy.dist(np.eye(n_states))
    z = out - out.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def demo_occupancy(demos, gamma, n_states=None, bins=None):
    """Empirical occupancy of a demonstration set: tabular one-hot states
    are decoded by argmax, continuous states are binned by the BinSpec."""
    episodes = (demos.trajectories if n_states is None
                else [np.argmax(tr, axis=1) for tr in demos.trajectories])
    return occupancy.empirical_occupancy(episodes, gamma, bins=bins, n_states=n_states)


def _params_finite(policy):
    return np.all(np.isfinite(policy.flat_params()))


def train_expert(env, config, iterations, seed):
    """TRPO on the environment's true reward."""
    spec = env.spec
    gamma = config.gamma if config.gamma is not None else spec.gamma
    policy = trpo.make_policy(spec, hidden=config.hidden, seed=seed,
                              init_log_std=config.init_log_std)
    vf = trpo.ValueFunction(spec.obs_dim, hidden=config.hidden, lr=config.vf_lr,
                            epochs=config.vf_epochs, minibatch=config.vf_minibatch,
                            seed=seed + 1)
    report = TrainReport("expert", seed)
    stopper = _EarlyStopper(max(1, config.early_stop_window // config.eval_every))
    start = time.time()
    snapshot = policy.copy()
    for it in range(iterations):
        trajs = collect_batch(policy, env, config.batch_size, _iteration_seed(seed, it))
        batch = trpo.RolloutBatch.from_trajectories(trajs, policy)
        trpo.compute_advantages(batch, vf, gamma, config.gae_lambda)
        diag = trpo.trpo_update(policy, vf, batch, delta=config.delta,
                                cg_iters=config.cg_iters, damping=config.damping,
                                backtracks=config.backtracks)
        if not _params_finite(policy):
            policy = snapshot
            report.aborted = True
            break
        snapshot = policy.copy()
        mean_ret = float(np.mean([tr.total_return for tr in trajs]))
        eval_ret = ""
        if (it + 1) % config.eval_every == 0 or it == iterations - 1:
            eval_ret, _ = evaluate(policy, env, config.eval_episodes,
                                   _iteration_seed(seed + 7, it))
        report.add_row(iteration=it, mean_return=mean_ret, kl=diag["kl"],
                       accepted=diag["accepted"], eval_return=eval_ret)
        if eval_ret != "" and config.early_stop and it >= config.early_stop_min_iters \
                and stopper.update(eval_ret):
            break
    report.final_return = evaluate(policy, env, config.eval_episodes, seed + 999)[0] \
        if iterations > 0 else None
    report.wall_clock = time.time() - start
    return policy, report


def _action_features(spec, actions):
    """Discriminator action features: one-hot for discrete, raw for box."""
    if spec.action_kind == "discrete":
        acts = np.asarray(actions, dtype=int)
        feats = np.zeros((len(acts), spec.n_actions))
        feats[np.arange(len(acts)), acts] = 1.0
        return feats
    return np.atleast_2d(np.asarray(actions, dtype=np.float64))


def _adversarial_train(env, config, seed, expert_x, expert_mean, algorithm,
                       input_mode, occupancy_ref=None):
    """Shared adversarial loop: rollout, discriminator Adam step(s) on the
    fresh rollout, TRPO on the per-transition reward -log D."""
    spec = env.spec
    gamma = config.gamma if config.gamma is not None else spec.gamma
    rng = np.random.default_rng(seed)
    policy = trpo.make_policy(spec, hidden=config.hidden, seed=seed,
                              init_log_std=config.init_log_std)
    vf = trpo.ValueFunction(spec.obs_dim, hidden=config.hidden, lr=config.vf_lr,
                            epochs=config.vf_epochs, minibatch=config.vf_minibatch,
                            seed=seed + 1)
    if input_mode == "state_transition":
        disc_in = 2 * spec.obs_dim
    else:
        disc_in = spec.obs_dim + (spec.n_actions if spec.action_kind == "discrete"
                                  else spec.action_dim)
    disc = adversary.Discriminator(disc_in, input_mode=input_mode,
                                   hidden=config.hidden, lr=config.disc_lr,
                                   seed=seed + 2)
    report = TrainReport(algorithm, seed)
    report.random_mean = evaluate(RandomPolicy(spec), env, config.eval_episodes,
                                  seed + 3)[0]
    report.expert_mean = expert_mean
    tabular = spec.state_count > 0
    bins = None
    if config.track_occupancy and not tabular and hasattr(env, "state_bounds"):
        bins = BinSpec.from_bounds(*env.state_bounds, bins=config.occupancy_bins)
    stopper = _EarlyStopper(max(1, config.early_stop_window // config.eval_every))
    start = time.time()
    snapshot = policy.copy()
    for it in range(config.iterations):
        trajs = collect_batch(policy, env, config.batch_size, _iteration_seed(seed, it))
        batch = trpo.RolloutBatch.from_trajectories(trajs, policy)
        env_return = float(np.mean([tr.total_return for tr in trajs]))
        if input_mode == "state_transition":
            imit_x = adversary.pair_features(batch.states, batch.next_states)
        else:
            imit_x = adversary.pair_features(
                batch.states, _action_features(spec, batch.actions))
        disc_loss = None
        for _ in range(config.d_steps):
            idx = rng.integers(len(expert_x), size=len(imit_x))
            disc_loss = adversary.disc_update(disc, imit_x, expert_x[idx])
        # reward from the just-updated discriminator
        d_vals, _ = adversary.disc_values(disc, imit_x)
        batch.rewards = -np.log(d_vals)
        if not np.all(np.isfinite(batch.rewards)):
            report.aborted = True
            break
        trpo.compute_advantages(batch, vf, gamma, config.gae_lambda)
        diag = trpo.trpo_update(policy, vf, batch, delta=config.delta,
                                cg_iters=config.cg_iters, damping=config.damping,
                                backtracks=config.backtracks)
        if not _params_finite(policy):
            policy = snapshot
            report.aborted = True
            break
        snapshot = policy.copy()
        occ_dist = ""
        if config.track_occupancy and occupancy_ref is not None:
            if tabular:
                table = policy_to_tabular(policy, spec.state_count)
                occ = occupancy.exact_occupancy(env.mdp, table, gamma)
            else:
                occ = occupancy.empirical_occupancy(trajs, gamma, bins=bins)
            occ_dist = occupancy_distance(occ, occupancy_ref, metric="l1")
        eval_ret = ""
        if (it + 1) % config.eval_every == 0 or it == config.iterations - 1:
            eval_ret, _ = evaluate(policy, env, config.eval_episodes,
                                   _iteration_seed(seed + 7, it))
        report.add_row(iteration=it, mean_return=env_return, disc_loss=disc_loss,
                       mean_reward=float(batch.rewards.mean()), kl=diag["kl"],
                       occupancy_distance=occ_dist, accepted=diag["accepted"],
                       eval_return=eval_ret)
        if eval_ret != "" and config.early_stop and it >= config.early_stop_min_iters \
                and stopper.update(eval_ret):
            break
    report.final_return = evaluate(policy, env, config.eval_episodes, seed + 999)[0]
    report.scaled_score = scaled_score(report.final_return, report.random_mean,
                                       report.expert_mean)
    report.wall_clock = time.time() - start
    return policy, disc, report


def gaifo_train(env, demos, config, seed, expert_occupancy=None):
    """Adversarial imitation from state-only demonstrations.

    The discriminator scores (s, s') transitions; the imitator's reward is
    -log D(s, s') per transition.
    """
    if not isinstance(demos, DemonstrationSet):
        raise TypeError("gaifo_train takes a state-only DemonstrationSet")
    if demos.env_id != env.spec.env_id:
        raise ValueError(f"demo env id {demos.env_id!r} != env {env.spec.env_id!r}")
    s, s_next = demos.transition_pairs()
    expert_x = adversary.pair_features(s, s_next)
    gamma = config.gamma if config.gamma is not None else env.spec.gamma
    occ_ref = expert_occupancy
    if occ_ref is None and config.track_occupancy:
        if env.spec.state_count > 0:
            occ_ref = demo_occupancy(demos, gamma, n_states=env.spec.state_count)
        elif hasattr(env, "state_bounds"):
            bins = BinSpec.from_bounds(*env.state_bounds, bins=config.occupancy_bins)
            occ_ref = demo_occupancy(demos, gamma, bins=bins)
    policy, _, report = _adversarial_train(
        env, config, seed, expert_x, demos.expert_mean_return, "gaifo",
        "state_transition", occupancy_ref=occ_ref)
    return policy, report


def gail_train(env, demos, config, seed):
    """Action-aware adversarial baseline: discriminator over (s, a) pairs."""
    if not isinstance(demos, DemonstrationSetWithActions):
        raise TypeError("gail_train needs demonstrations with actions")
    if demos.env_id != env.spec.env_id:
        raise ValueError(f"demo env id {demos.env_id!r} != env {env.spec.env_id!r}")
    s = np.concatenate([tr[:-1] for tr in demos.trajectories])
    acts = np.concatenate([np.asarray(a) for a in demos.actions])
    expert_x = adversary.pair_features(s, _action_features(env.spec, acts))
    policy, _, report = _adversarial_train(
        env, config, seed, expert_x, demos.expert_mean_return, "gail",
        "state_action", occupancy_ref=None)
    return policy, report


def fit_inverse_model(states, actions, next_states, spec, config, seed):
    """Fit an inverse dynamics MLP (s, s') -> a on exploration data.

    Returns (model params, predict function, validation metric). The metric
    is error rate for discrete actions and RMS error for continuous ones.
    """
    n = len(states)
    if n == 0:
        raise ValueError("no exploration data")
    x = np.concatenate([np.atleast_2d(states), np.atleast_2d(next_states)], axis=1)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_val = max(1, n // 10)
    val_idx, train_idx = order[:n_val], order[n_val:]
    discrete = spec.action_kind == "discrete"
    out_dim = spec.n_actions if discrete else spec.action_dim
    net = nets.init_mlp([x.shape[1], *config.inverse_hidden, out_dim],
                        activation="tanh", rng=rng)
    adam = nets.AdamState.for_params(net, alpha=config.inverse_lr)
    if discrete:
        y = np.asarray(actions, dtype=int)
    else:
        y = np.atleast_2d(np.asarray(actions, dtype=np.float64))
    mb = 256
    for _ in range(config.inverse_epochs):
        perm = rng.permutation(train_idx)
        for start in range(0, len(perm), mb):
            idx = perm[start : start + mb]
            out, cache = nets.mlp_forward(net, x[idx])
            if discrete:
                z = out - out.max(axis=1, keepdims=True)
                p = np.exp(z)
                p /= p.sum(axis=1, keepdims=True)
                head = p.copy()
                head[np.arange(len(idx)), y[idx]] -= 1.0
                head /= len(idx)
            else:
                head = (out - y[idx]) / len(idx)
            grads, _ = nets.mlp_backward(net, cache, head)
            nets.adam_step(adam, net, grads)

    def predict(s, s_next):
        feats = np.concatenate([np.atleast_2d(s), np.atleast_2d(s_next)], axis=1)
        out, _ = nets.mlp_forward(net, feats)
        if discrete:
            return out.argmax(axis=1)
        return out

    pred = predict(states[val_idx], next_states[val_idx])
    if discrete:
        val_metric = float(np.mean(pred != y[val_idx]))
    else:
        val_metric = float(np.sqrt(np.mean((pred - y[val_idx]) ** 2)))
    return net, predict, val_metric


def bco_train(env, demos, config, seed):
    """Behavioral cloning from observation: exploration -> inverse dynamics
    model -> action inference on demo pairs -> behavioral cloning."""
    if not isinstance(demos, DemonstrationSet):
        raise TypeError("bco_train takes a state-only DemonstrationSet")
    if demos.env_id != env.spec.env_id:
        raise ValueError(f"demo env id {demos.env_id!r} != env {env.spec.env_id!r}")
    if config.exploration_steps <= 0:
        raise ValueError("exploration budget must be positive")
    spec = env.spec
    report = TrainReport("bco", seed)
    report.random_mean = evaluate(RandomPolicy(spec), env, config.eval_episodes,
                                  seed + 3)[0]
    report.expert_mean = demos.expert_mean_return
    start = time.time()

    # phase 1: self-supervised exploration with a random policy
    trajs = collect_batch(RandomPolicy(spec), env, config.exploration_steps,
                          seed + 11)
    batch = trpo.RolloutBatch.from_trajectories(trajs)
    net, predict, val_metric = fit_inverse_model(
        batch.states, batch.actions, batch.next_states, spec, config, seed + 13)
    report.extras["inverse_val_metric"] = val_metric
    if val_metric > config.inverse_val_threshold:
        warnings.warn(f"inverse model validation metric {val_metric:.3f} above "
                      f"threshold {config.inverse_val_threshold}; continuing")

    # phase 2: infer actions on demonstration pairs
    s, s_next = demos.transition_pairs()
    inferred = predict(s, s_next)

    # phase 3: behavioral cloning on (s, inferred action)
    policy = trpo.make_policy(spec, hidden=config.hidden, seed=seed,
                              init_log_std=config.init_log_std)
    adam = nets.AdamState.for_params(policy.net, alpha=config.bc_lr)
    rng = np.random.default_rng(seed + 17)
    mb = 256
    n = len(s)
    for epoch in range(config.bc_epochs):
        perm = rng.permutation(n)
        for start_i in range(0, n, mb):
            idx = perm[start_i : start_i + mb]
            out, cache = nets.mlp_forward(policy.net, s[idx])
            if spec.action_kind == "discrete":
                z = out - out.max(axis=1, keepdims=True)
                p = np.exp(z)
                p /= p.sum(axis=1, keepdims=True)
                head = p.copy()
                head[np.arange(len(idx)), inferred[idx]] -= 1.0
                head /= len(idx)
            else:
                head = (out - inferred[idx]) / len(idx)
            grads, _ = nets.mlp_backward(policy.net, cache, head)
            nets.adam_step(adam, policy.net, grads)
    report.final_return = evaluate(policy, env, config.eval_episodes, seed + 999)[0]
    report.scaled_score = scaled_score(report.final_return, report.random_mean,
                                       report.expert_mean)
    report.add_row(iteration=0, mean_return=report.final_return,
                   eval_return=report.final_return)
    report.wall_clock = time.time() - start
    return policy, report
