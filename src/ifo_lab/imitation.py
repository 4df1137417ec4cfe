"""Training: demonstration recording, one TRPO training loop, behavioral
cloning from observation, and scaled-score evaluation.

The loop takes a reward hook. Expert training runs it without one and keeps
the environment reward; adversarial imitation from state-only
demonstrations (GAIfO) and the action-aware baseline (GAIL) pass a hook that
steps a discriminator on each fresh rollout and pays -log D per transition.

State-only demonstrations never contain actions; the action-retaining
recording path exists solely for the action-aware baseline and never feeds
the observation-only code paths.
"""

import json
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


def _write_demo(path, magic, fmt, demos, extra=(), actions=None, action_dtype=None,
                action_shape=()):
    """Magic, header (version, env id length, state dim, trajectory count,
    seed, mean return, *extra), env id, then per trajectory its state
    count, its states and, if given, its actions, each (T, *action_shape).
    The reader's checks run first: a set it would reject is a ValueError
    naming the field, and no file is written."""
    field = "trajectories"
    try:
        states = np.asarray(demos.trajectories, dtype="<f8")
        field = "actions"
        actions = None if actions is None else np.asarray(actions, dtype=action_dtype)
    except ValueError:
        raise ValueError(f"{field}: not one array of equal-length rows") from None
    if states.ndim != 3 or 0 in states.shape[:2] or states.shape[2] != demos.state_dim:
        raise ValueError(f"trajectories: shape {states.shape}, need (n >= 1, T+1 >= 1, "
                         f"{demos.state_dim})")
    want = (len(states), states.shape[1] - 1, *action_shape)
    if actions is not None and actions.shape != want:
        raise ValueError(f"actions: shape {actions.shape}, need {want}")
    env_id = demos.env_id.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack(fmt, DEMO_FORMAT_VERSION, len(env_id), demos.state_dim,
                                     len(states), demos.recording_seed,
                                     demos.expert_mean_return, *extra) + env_id)
        for k, tr in enumerate(states):
            fh.write(struct.pack("<I", len(tr)) + tr.tobytes())
            if actions is not None:
                fh.write(actions[k].tobytes())


def _read_demo_header(reader, magic, what, fmt):
    """The header fields after the magic, then the env id."""
    reader.magic(magic, what)
    fields = reader.unpack(fmt, "header")
    if fields[0] != DEMO_FORMAT_VERSION:
        raise reader.error("header", f"unsupported demo format version {fields[0]}")
    if fields[3] == 0:
        raise reader.error("header", "no trajectories")
    try:
        return fields + (reader.take(fields[1], "env id").decode("utf-8"),)
    except UnicodeDecodeError:
        raise reader.error("env id", "not UTF-8") from None


def _read_trajectories(reader, n_traj, state_dim, action_dtype=None, action_shape=()):
    """The trajectories as one (n, T+1, state_dim) array and, with an
    action dtype, their actions as one (n, T, *action_shape) array (else
    None). Every trajectory must have trajectory 0's state count."""
    states, actions = [], []
    for k in range(n_traj):
        field = f"trajectory {k} states"
        (n_states,) = reader.unpack("<I", field)
        if n_states == 0:
            raise reader.error(field, "no states")
        if states and n_states != len(states[0]):
            raise reader.error(field, f"{n_states} states, trajectory 0 has {len(states[0])}")
        states.append(reader.array("<f8", (n_states, state_dim), field))
        if action_dtype is not None:
            actions.append(reader.array(action_dtype, (n_states - 1, *action_shape),
                                        f"trajectory {k} actions"))
    return np.stack(states), np.stack(actions) if actions else None


@dataclass
class DemonstrationSet:
    """State-only expert trajectories; by construction there is no action
    stream anywhere in this type."""

    env_id: str
    state_dim: int
    trajectories: np.ndarray    # (n, T+1, state_dim) float64, one trajectory per row
    recording_seed: int
    expert_mean_return: float

    @property
    def n_trajectories(self):
        return len(self.trajectories)

    def subset(self, n):
        if not 1 <= n <= self.n_trajectories:
            raise ValueError(f"cannot take {n} of {self.n_trajectories} trajectories")
        return DemonstrationSet(self.env_id, self.state_dim, self.trajectories[:n],
                                self.recording_seed, self.expert_mean_return)

    def transition_pairs(self):
        """All (s, s') pairs: the (n, T, state_dim) views trajectories[:, :-1]
        and trajectories[:, 1:]."""
        return self.trajectories[:, :-1], self.trajectories[:, 1:]

    def save(self, path):
        _write_demo(path, DEMO_MAGIC, "<IIIIqd", self)

    @classmethod
    def load(cls, path):
        with nets.BinaryReader(path) as reader:
            _, _, state_dim, n_traj, seed, mean_ret, env_id = _read_demo_header(
                reader, DEMO_MAGIC, "a demonstration file", "<IIIIqd")
            trajectories, _ = _read_trajectories(reader, n_traj, state_dim)
            reader.end()
        return cls(env_id, state_dim, trajectories, seed, mean_ret)


@dataclass
class DemonstrationSetWithActions:
    """Action-retaining recording, used only by the action-aware baseline."""

    env_id: str
    state_dim: int
    action_kind: str            # "discrete" | "box"
    action_dim: int             # 1 for discrete
    trajectories: np.ndarray    # (n, T+1, state_dim) float64
    actions: np.ndarray         # (n, T) int or (n, T, action_dim) float64
    recording_seed: int
    expert_mean_return: float

    @property
    def n_trajectories(self):
        return len(self.trajectories)

    def save(self, path):
        discrete = self.action_kind == "discrete"
        dtype, shape = ("<i8", ()) if discrete else ("<f8", (self.action_dim,))
        _write_demo(path, DEMO_ACTIONS_MAGIC, "<IIIIqdBI", self, (int(not discrete), self.action_dim),
                    self.actions, dtype, shape)

    @classmethod
    def load(cls, path):
        with nets.BinaryReader(path) as reader:
            _, _, state_dim, n_traj, seed, mean_ret, kind, action_dim, env_id = _read_demo_header(
                reader, DEMO_ACTIONS_MAGIC, "an action-retaining demonstration file", "<IIIIqdBI")
            if kind not in (0, 1):
                raise reader.error("header", f"unknown action kind {kind}")
            action_kind = "discrete" if kind == 0 else "box"
            dtype, shape = ("<i8", ()) if kind == 0 else ("<f8", (action_dim,))
            trajectories, actions = _read_trajectories(reader, n_traj, state_dim, dtype, shape)
            reader.end()
        return cls(env_id, state_dim, action_kind, action_dim,
                   trajectories, actions, seed, mean_ret)


@dataclass
class TrainConfig:
    """Hyperparameters for the training loops; defaults are desk-scale
    conventions, not reproduction targets. Settings that no caller varies
    are the defaults of the code that uses them (listed in the README)."""

    iterations: int = 200
    batch_size: int = 2048
    hidden: tuple = (64, 64)
    gamma: float = None          # None: use the environment's discount
    disc_lr: float = 3e-4
    d_steps: int = 1
    eval_every: int = 10
    eval_episodes: int = 10
    early_stop: bool = True
    track_occupancy: bool = True
    # BCO settings
    exploration_steps: int = 50_000
    inverse_epochs: int = 10
    inverse_val_threshold: float = 0.5

    def __post_init__(self):
        for name in ("batch_size", "d_steps", "eval_every", "eval_episodes",
                     "exploration_steps", "inverse_epochs"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if not self.disc_lr > 0.0:
            raise ValueError(f"disc_lr must be > 0, got {self.disc_lr}")
        if self.gamma is not None and not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be None or in [0, 1), got {self.gamma}")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")


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
        """summary() as strict JSON, a non-finite number written as null."""
        summary = {k: None if isinstance(v, float) and not np.isfinite(v) else v
                   for k, v in self.summary().items()}
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=2, allow_nan=False)


def evaluate(policy, env, n_episodes, seed):
    """Deterministic-mode evaluation: Gaussian policies act at the mean,
    categorical at the argmax. Returns (mean return, std); a non-finite
    action raises FloatingPointError (from rollout)."""
    returns = rollout(policy, env, n_episodes, seed, deterministic=True).rewards.sum(axis=1)
    return float(returns.mean()), float(returns.std())


def scaled_score(mean, random_mean, expert_mean):
    """Affine normalization mapping the random policy to 0 and the expert
    to 1."""
    denom = expert_mean - random_mean
    if abs(denom) < 1e-12:
        raise ValueError("expert and random means coincide; score undefined")
    return (mean - random_mean) / denom


def _record(expert, env, n_trajectories, seed):
    """Deterministic expert rollouts and the expert's mean return over at
    least ten more episodes. A non-finite action raises FloatingPointError."""
    episodes = rollout(expert, env, n_trajectories, seed, deterministic=True)
    mean_ret, _ = evaluate(expert, env, max(n_trajectories, 10), seed + 1)
    return episodes, mean_ret


def record_demonstrations(expert, env, n_trajectories, seed):
    """Record state-only trajectories; the action stream is discarded at
    recording time, not merely hidden."""
    episodes, mean_ret = _record(expert, env, n_trajectories, seed)
    return DemonstrationSet(
        env_id=env.spec.env_id, state_dim=env.spec.obs_dim,
        trajectories=episodes.states,
        recording_seed=seed, expert_mean_return=mean_ret,
    )


def _action_layout(spec):
    """(kind, dim) of a recording's actions on spec; a discrete action is one column."""
    if spec.action_kind == "box":
        return "box", spec.action_dim
    return "discrete", 1


def record_demonstrations_with_actions(expert, env, n_trajectories, seed):
    """Action-retaining recording path for the action-aware baseline only."""
    episodes, mean_ret = _record(expert, env, n_trajectories, seed)
    action_kind, action_dim = _action_layout(env.spec)
    return DemonstrationSetWithActions(
        env_id=env.spec.env_id, state_dim=env.spec.obs_dim,
        action_kind=action_kind, action_dim=action_dim,
        trajectories=episodes.states, actions=episodes.actions,
        recording_seed=seed, expert_mean_return=mean_ret,
    )


def collect_batch(policy, env, min_steps, seed):
    """The record of one rollout of ceil(min_steps / H) episodes, each H
    steps long, so at least min_steps transitions. A non-finite action
    raises FloatingPointError."""
    return rollout(policy, env, int(np.ceil(min_steps / env.spec.horizon)), seed)


def _iteration_seed(seed, iteration):
    return int(np.random.SeedSequence([seed, iteration]).generate_state(1)[0])


_EARLY_STOP_WINDOW = 20      # iterations whose evaluations are averaged
_EARLY_STOP_MIN_ITERS = 60   # no early stop before this iteration


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
    return trpo._softmax(out)


def demo_occupancy(demos, gamma, n_states=None, bins=None):
    """Empirical occupancy of a demonstration set: tabular one-hot states
    are decoded by argmax, continuous states are binned by the BinSpec."""
    episodes = demos.trajectories if n_states is None else np.argmax(demos.trajectories, axis=2)
    return occupancy.empirical_occupancy(episodes, gamma, bins=bins, n_states=n_states)


def _occupancy_bins(env):
    """The grid of binned occupancy tracking: a BinSpec on continuous envs
    with state bounds, None elsewhere."""
    if env.spec.state_count == 0 and hasattr(env, "state_bounds"):
        return BinSpec.from_bounds(*env.state_bounds)
    return None


def _final_evaluation(report, policy, env, config, seed):
    """report.final_return of the policy a trainer returns. A
    FloatingPointError from its evaluation ends the run as report.aborted
    with final_return NaN."""
    try:
        report.final_return = evaluate(policy, env, config.eval_episodes, seed + 999)[0]
    except FloatingPointError:
        report.aborted = True
        report.final_return = float("nan")


def _train(env, config, iterations, seed, algorithm, reward=None, occupancy_ref=None):
    """The one training loop: rollout, per-transition rewards, advantages and
    a TRPO step (which fits the value baseline) per iteration.

    reward(batch) returns (rewards, disc_loss) for the fresh batch; None
    keeps the environment reward. A FloatingPointError anywhere in an
    iteration (its rollout, step, occupancy tracking or evaluation), or
    non-finite policy parameters after it, ends the run as report.aborted
    with the policy as it stood before that iteration. With occupancy_ref,
    each row records the L1 distance of the policy's occupancy from it:
    exact on tabular envs, binned from the rollout elsewhere. Returns
    (policy, report).
    """
    spec = env.spec
    gamma = config.gamma if config.gamma is not None else spec.gamma
    policy = trpo.make_policy(spec, hidden=config.hidden, seed=seed)
    vf = trpo.ValueFunction(spec.obs_dim)
    report = TrainReport(algorithm, seed)
    tabular = spec.state_count > 0
    bins = _occupancy_bins(env)
    stopper = _EarlyStopper(_EARLY_STOP_WINDOW // config.eval_every)
    start = time.time()
    snapshot = policy.copy()
    for it in range(iterations):
        try:
            episodes = collect_batch(policy, env, config.batch_size, _iteration_seed(seed, it))
            batch = trpo.RolloutBatch.of(episodes)
            disc_loss = mean_reward = ""
            if reward is not None:
                batch.rewards, disc_loss = reward(batch)
                mean_reward = float(batch.rewards.mean())
            trpo.compute_advantages(batch, vf, gamma)
            diag = trpo.trpo_update(policy, vf, batch)
            if not np.all(np.isfinite(policy.flat_params())):
                raise FloatingPointError("non-finite policy parameters")
            occ_dist = ""
            if config.track_occupancy and occupancy_ref is not None:
                if tabular:
                    table = policy_to_tabular(policy, spec.state_count)
                    occ = occupancy.exact_occupancy(env.mdp, table, gamma)
                else:
                    occ = occupancy.empirical_occupancy(episodes.states, gamma, bins=bins)
                occ_dist = occupancy_distance(occ, occupancy_ref)
            eval_ret = ""
            if (it + 1) % config.eval_every == 0 or it == iterations - 1:
                eval_ret, _ = evaluate(policy, env, config.eval_episodes,
                                       _iteration_seed(seed + 7, it))
        except FloatingPointError:
            policy = snapshot
            report.aborted = True
            break
        snapshot = policy.copy()
        report.add_row(iteration=it, mean_return=float(np.mean(episodes.rewards.sum(axis=1))),
                       disc_loss=disc_loss, mean_reward=mean_reward, kl=diag["kl"],
                       occupancy_distance=occ_dist, accepted=diag["accepted"],
                       eval_return=eval_ret)
        if eval_ret != "" and config.early_stop and it >= _EARLY_STOP_MIN_ITERS \
                and stopper.update(eval_ret):
            break
    _final_evaluation(report, policy, env, config, seed)
    report.wall_clock = time.time() - start
    return policy, report


def train_expert(env, config, iterations, seed):
    """TRPO on the environment's true reward."""
    return _train(env, config, iterations, seed, "expert")


def _check_demos(env, demos, kind, trainer):
    if not isinstance(demos, kind):
        raise TypeError(f"{trainer} takes a {kind.__name__}, not a {type(demos).__name__}")
    if demos.env_id != env.spec.env_id:
        raise ValueError(f"demo env id {demos.env_id!r} != env {env.spec.env_id!r}")
    if demos.state_dim != env.spec.obs_dim:
        raise ValueError(f"demo state dim {demos.state_dim} != env obs dim {env.spec.obs_dim}")
    if kind is DemonstrationSetWithActions:
        got, want = (demos.action_kind, demos.action_dim), _action_layout(env.spec)
        if got != want:
            raise ValueError(f"demo actions {got} != env actions {want}")


def _scored(report, env, config, seed, demos):
    """Anchor the report's final return between a random policy's and the
    expert's, and record the demonstration count."""
    report.random_mean = evaluate(RandomPolicy(env.spec), env, config.eval_episodes,
                                  seed + 3)[0]
    report.expert_mean = demos.expert_mean_return
    report.scaled_score = scaled_score(report.final_return, report.random_mean,
                                       report.expert_mean)
    report.extras["n_demos"] = demos.n_trajectories
    return report


def _action_features(spec, actions):
    """Discriminator action features, for actions of any leading shape:
    one-hot for discrete, raw for box."""
    if spec.action_kind == "discrete":
        return np.eye(spec.n_actions)[np.asarray(actions, dtype=int)]
    return np.asarray(actions, dtype=np.float64)


def _adversarial_reward(config, seed, features, expert_parts):
    """The reward hook of the adversarial trainers. On each fresh rollout it
    takes d_steps Adam steps of one discriminator, each against as many
    resampled expert rows, then pays -log D from the updated discriminator.
    features(states, next_states, actions) gives the parts whose rows,
    joined side by side, are the discriminator's input rows; the trainer
    built expert_parts with it too.

    The expert rows are coded once per run and the imitator rows once per
    rollout, from their parts (nets.DistinctRows.of), so the joined rows are
    never built. The discriminator then sees each distinct row once,
    weighted by how often it occurs in the rollout or was drawn in the
    resample."""
    rng = np.random.default_rng(seed)
    expert = nets.DistinctRows.of(*expert_parts)
    disc = adversary.Discriminator(expert.distinct.shape[1], hidden=config.hidden,
                                   lr=config.disc_lr, seed=seed + 2)

    def reward(batch):
        imit = nets.DistinctRows.of(*features(batch.states, batch.next_states, batch.actions))
        disc_loss = None
        for _ in range(config.d_steps):
            # the drawn rows go in ascending code order; a take() would give
            # first-seen order and change the rounding of the loss's sums
            idx = rng.integers(len(expert), size=len(imit))
            counts = np.bincount(expert.code[idx], minlength=len(expert.distinct))
            drawn = np.flatnonzero(counts)
            disc_loss = adversary.disc_update(disc, imit.distinct, expert.distinct[drawn],
                                              imit.counts, counts[drawn])
        rewards = adversary.policy_reward(disc, imit.distinct)[imit.code]
        if not np.all(np.isfinite(rewards)):
            raise FloatingPointError("non-finite reward")
        return rewards, disc_loss

    return reward


def gaifo_train(env, demos, config, seed, expert_occupancy=None):
    """Adversarial imitation from state-only demonstrations.

    The discriminator scores (s, s') transitions; the imitator's reward is
    -log D(s, s') per transition.
    """
    _check_demos(env, demos, DemonstrationSet, "gaifo_train")
    gamma = config.gamma if config.gamma is not None else env.spec.gamma
    occ_ref = expert_occupancy
    bins = _occupancy_bins(env)
    if occ_ref is None and config.track_occupancy and (env.spec.state_count > 0 or bins is not None):
        occ_ref = demo_occupancy(demos, gamma, n_states=env.spec.state_count or None, bins=bins)

    def features(states, next_states, actions):
        return states, next_states
    reward = _adversarial_reward(config, seed, features, features(*demos.transition_pairs(), None))
    policy, report = _train(env, config, config.iterations, seed, "gaifo", reward, occ_ref)
    return policy, _scored(report, env, config, seed, demos)


def gail_train(env, demos, config, seed):
    """Action-aware adversarial baseline: discriminator over (s, a) pairs."""
    _check_demos(env, demos, DemonstrationSetWithActions, "gail_train")

    def features(states, next_states, actions):
        return states, _action_features(env.spec, actions).reshape(*states.shape[:-1], -1)
    expert_parts = features(demos.trajectories[:, :-1], None, demos.actions)
    reward = _adversarial_reward(config, seed, features, expert_parts)
    policy, report = _train(env, config, config.iterations, seed, "gail", reward)
    return policy, _scored(report, env, config, seed, demos)


def fit_inverse_model(states, actions, next_states, spec, config, seed):
    """Fit an inverse dynamics MLP (s, s') -> a on exploration data.

    states and next_states are (n, d), or (n, H, d) such as a batch's views
    of its rollout's buffer, and actions holds one action per row in C
    order. Returns (predict function, validation metric); predict(s, s_next)
    takes the same layouts and gives one action per row. The metric is
    error rate for discrete actions and RMS error for continuous ones, on a
    held-out tenth of the rows. The (s, s') rows are coded from the two
    arrays as they are (nets.DistinctRows.of), and the metric runs the
    network once over the distinct validation rows and gathers each row's
    output by its code.
    """
    x = nets.DistinctRows.of(states, next_states)
    n = len(x)
    if n == 0:
        raise ValueError("no exploration data")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_val = max(1, n // 10)
    val_idx, train_idx = order[:n_val], order[n_val:]
    discrete = spec.action_kind == "discrete"
    out_dim = spec.n_actions if discrete else spec.action_dim
    # 64x64, not config.hidden: the inverse model is sized apart from the policy
    net = nets.init_mlp([x.distinct.shape[1], 64, 64, out_dim],
                        activation="tanh", rng=rng)
    if discrete:
        y = np.asarray(actions, dtype=int)
    else:
        y = np.asarray(actions, dtype=np.float64)
    nets.fit_supervised(net, nets.AdamState(net, alpha=1e-3), x, y, rng,
                        config.inverse_epochs, 256, rows=train_idx)

    def predict(s, s_next):
        feats = np.concatenate([s, s_next], axis=-1)
        out, _ = nets.mlp_forward(net, feats.reshape(-1, feats.shape[-1]))
        if discrete:
            return out.argmax(axis=1)
        return out

    val = x.take(val_idx)
    out, _ = nets.mlp_forward(net, val.distinct)
    if discrete:
        val_metric = float(np.mean(out.argmax(axis=1)[val.code] != y[val_idx]))
    else:
        val_metric = float(np.sqrt(np.mean((out[val.code] - y[val_idx]) ** 2)))
    return predict, val_metric


BC_EPOCHS = 100   # epochs of BCO's behavioral-cloning fit


def bco_train(env, demos, config, seed):
    """Behavioral cloning from observation: exploration -> inverse dynamics
    model -> action inference on demo pairs -> behavioral cloning.

    A FloatingPointError in any phase ends the run as report.aborted with
    the policy as it stood (Adam raises before a non-finite step); one in
    the final evaluation also leaves final_return NaN.
    """
    _check_demos(env, demos, DemonstrationSet, "bco_train")
    spec = env.spec
    report = TrainReport("bco", seed)
    start = time.time()
    policy = trpo.make_policy(spec, hidden=config.hidden, seed=seed)
    try:
        # phase 1: self-supervised exploration with a random policy
        batch = trpo.RolloutBatch.of(collect_batch(
            RandomPolicy(spec), env, config.exploration_steps, seed + 11))
        predict, val_metric = fit_inverse_model(
            batch.states, batch.actions, batch.next_states, spec, config, seed + 13)
        report.extras["inverse_val_metric"] = val_metric
        if val_metric > config.inverse_val_threshold:
            warnings.warn(f"inverse model validation metric {val_metric:.3f} above "
                          f"threshold {config.inverse_val_threshold}; continuing")

        # phase 2: infer actions on demonstration pairs
        s, s_next = demos.transition_pairs()
        inferred = predict(s, s_next)

        # phase 3: behavioral cloning on (s, inferred action)
        nets.fit_supervised(policy.net, nets.AdamState(policy.net, alpha=1e-2),
                            nets.DistinctRows.of(s), inferred,
                            np.random.default_rng(seed + 17), BC_EPOCHS, 256)
    except FloatingPointError:
        report.aborted = True
    _final_evaluation(report, policy, env, config, seed)
    if not report.aborted:
        report.add_row(iteration=0, mean_return=report.final_return,
                       eval_return=report.final_return)
    report.wall_clock = time.time() - start
    return policy, _scored(report, env, config, seed, demos)
